"""mptcpkit benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is used from `src/`,
not installed). Inputs the program does not make itself are generated from
the seed in this process before timing starts. The stages then run in a
fresh interpreter (`worker.py`), which calls `mptcpkit.cli.main(argv)` with
the argv a user would type. Outputs are checked by `gates.py`.

With `--trace 0` the last stdout line carries the end-to-end metrics:
`setup_s` (median time for a fresh interpreter to import mptcpkit.cli),
`wall_s` (sum over stages of each stage's median time over the passes) and
`peak_rss_mb` (peak RSS of the process that ran the stages). Both times are
adjusted for machine speed as `speed.py` describes. With `--trace 1` a
separate run records spans around every layer and reports the per-layer
metrics.
A failed correctness gate makes the exit code 1. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import inputs
import speed
from tracing import FRAME_ITER, LAYERS

ROOT = Path(__file__).resolve().parent.parent
IPPROTO_MPTCP = 262
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5  # fresh interpreters of each kind
IMPORTTIME_SAMPLES = 3

WORKLOADS = {
    "campaign": {"targets": 5000, "blocked_share": 0.01, "blocklist": 250,
                 "prefixes": 1500, "asns": 750, "bench_targets": 500, "bench_runs": 10},
    "pcap-mice": {"captures": 4, "flows_per_capture": 2500, "mptcp_share": 0.1,
                  "v6_share": 0.2, "udp_share": 0.01, "truncated_share": 0.002,
                  "min_packets": 5},
    "pcap-elephants": {"captures": 4, "flows_per_capture": 12, "data_packets": 250,
                       "payload": 1380, "mptcp_share": 0.25, "v6_share": 0.2,
                       "other_frames": 20, "min_packets": 5},
    "live-loopback": {"addresses": 50, "ports_per_address": 200, "mptcp_share": 0.1,
                      "tcp_share": 0.1, "blocklist": 16, "rate": 50000, "timeout_ms": 500},
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

IMPORT_MODULES = {"import.package_s": "mptcpkit", "import.cli_s": "mptcpkit.cli",
                  "import.keystats_s": "mptcpkit.keystats",
                  "import.scipy_stats_s": "scipy.stats"}

PER_LAYER = (
    [(name, "s") for name in IMPORT_MODULES]
    + [(f"{name}.{kind}", unit) for name, _, _ in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("pcapio.read_pcap.frames", "count"), ("pcapio.read_pcap.iter_self_s", "s"),
       ("tracer.ttl_probes_per_target", "ratio"), ("tracer.ttl_answered_ratio", "ratio"),
       ("flows.mp_decodes_per_tcp_packet", "ratio"), ("flows.frames_seen", "count"),
       ("flows.tcp_packets", "count"), ("flows.non_tcp", "count"),
       ("flows.parse_failures", "count"), ("live.packets_read_per_probe", "ratio"),
       ("scan_targets_per_s", "targets/s"), ("trace_targets_per_s", "targets/s"),
       ("pcap_packets_per_s", "packets/s"), ("pcap_mb_per_s", "MB/s"),
       ("live_probes_per_s", "probes/s"), ("tracing_overhead_ratio", "ratio"),
       ("failed_ratio", "ratio")]
)


class Unavailable(Exception):
    """The workload cannot run on this machine."""


# -- environment ---------------------------------------------------------------


def _probe_socket(*args) -> bool:
    try:
        socket.socket(*args).close()
        return True
    except OSError:
        return False


def environment() -> dict:
    """Commit, interpreter, CPU and the socket features the live workload needs."""
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mptcpkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "raw_sockets": _probe_socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_TCP),
        "ipproto_mptcp": _probe_socket(socket.AF_INET, socket.SOCK_STREAM, IPPROTO_MPTCP),
    }


def _python_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def setup_samples() -> tuple[list[float], list[float]]:
    """Raw seconds fresh interpreters take to import mptcpkit.cli, and to
    import speed.py's reference set; the two alternate."""
    speed_py = str(Path(__file__).with_name("speed.py"))

    def once(*args: str) -> float:
        done = subprocess.run([sys.executable, speed_py, *args], cwd=ROOT,
                              env=_python_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        return float(done.stdout)

    imports, references = [], []
    for _ in range(SETUP_SAMPLES):
        references.append(once("reference"))
        imports.append(once())
    return imports, references


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of selected modules, from `-X importtime`."""
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mptcpkit.cli"],
                              cwd=ROOT, env=_python_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            m = pattern.match(line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e6)
        runs.append(cumulative)
    return {metric: statistics.median(r.get(module, 0.0) for r in runs)
            for metric, module in IMPORT_MODULES.items()}


# -- workloads -----------------------------------------------------------------------


def prepare(workload: str, workdir: Path, seed: int, p: dict, env: dict) -> tuple[list, dict]:
    """Write the inputs; return the stage list and what the gate needs."""
    s = str(seed)
    if workload == "campaign":
        info = inputs.campaign_tables(workdir, seed, p["targets"], p["blocked_share"],
                                      p["blocklist"], p["prefixes"], p["asns"])
        stages = [
            {"name": "simulate", "argv": ["simulate", "--generate", str(p["targets"]),
                                          "--seed", s, "--out-topology", "topology.txt",
                                          "--out-targets", "targets.txt",
                                          "--out-truth", "truth.csv"],
             "outputs": ["topology.txt", "targets.txt", "truth.csv"]},
            {"name": "scan", "argv": ["scan", "--targets", "targets.txt", "--sim-topology",
                                      "topology.txt", "--version", "0", "--blocklist",
                                      "blocklist.txt", "--seed", s, "--out", "scan.csv"],
             "outputs": ["scan.csv"]},
            {"name": "keys", "argv": ["keys", "--from-scan", "scan.csv", "--out", "keys.txt"],
             "outputs": ["keys.txt"]},
            {"name": "trace", "argv": ["trace", "--from-scan", "scan.csv", "--sim-topology",
                                       "topology.txt", "--version", "0", "--seed", s,
                                       "--out", "trace.csv"],
             "outputs": ["trace.csv"]},
            {"name": "report-summary", "argv": ["report", "summary", "--in", "trace.csv",
                                                "--out", "summary.txt"],
             "outputs": ["summary.txt"]},
            {"name": "report-ingest", "argv": ["report", "ingest", "--in", "scan.csv",
                                               "--store", "store", "--date", "2026-01",
                                               "--out", "ingest.txt"],
             "outputs": ["ingest.txt", "store"]},
            {"name": "report-top", "argv": ["report", "top", "--in", "trace.csv", "--only",
                                            "truly_capable", "--prefixes", "prefixes.txt",
                                            "--asn-meta", "asn_meta.txt", "--out", "top.csv"],
             "outputs": ["top.csv"]},
            {"head": ["targets.txt", "bench_targets.txt", p["bench_targets"]]},
            {"name": "bench", "argv": ["bench", "--targets", "bench_targets.txt",
                                       "--sim-topology", "topology.txt", "--runs",
                                       str(p["bench_runs"]), "--seed", s,
                                       "--out-dir", "bench-out"],
             "outputs": ["bench-out"]},
        ]
        return stages, {"fresh": ["store", "bench-out"], "inputs": info}
    if workload in ("pcap-mice", "pcap-elephants"):
        if workload == "pcap-mice":
            info = inputs.mice_captures(workdir, seed, p["captures"], p["flows_per_capture"],
                                        p["mptcp_share"], p["v6_share"], p["udp_share"],
                                        p["truncated_share"], p["min_packets"])
            extra = ["--min-packets", str(p["min_packets"]), "--ewma", "--services",
                     "registry.txt", "--extra-services", "vendor.txt"]
        else:
            info = inputs.elephant_captures(workdir, seed, p["captures"], p["flows_per_capture"],
                                            p["data_packets"], p["payload"], p["mptcp_share"],
                                            p["v6_share"], p["other_frames"], p["min_packets"])
            extra = ["--ewma"]
        argv = ["analyze-pcap"] + [a for c in info["captures"] for a in ("--in", c)]
        stages = [{"name": "analyze-pcap", "argv": argv + extra + ["--out", "analysis.csv"],
                   "outputs": ["analysis.csv"]}]
        return stages, {"inputs": info}
    if workload == "live-loopback":
        if not (env["raw_sockets"] and env["ipproto_mptcp"]):
            raise Unavailable("needs raw sockets (CAP_NET_RAW) and kernel IPPROTO_MPTCP")
        info = inputs.loopback_plan(workdir, seed, p["addresses"], p["ports_per_address"],
                                    p["mptcp_share"], p["tcp_share"], p["blocklist"])
        stages = [{"name": "scan", "argv": ["scan", "--targets", "targets.txt", "--version", "1",
                                            "--blocklist", "blocklist.txt", "--rate",
                                            str(p["rate"]), "--timeout-ms", str(p["timeout_ms"]),
                                            "--seed", s, "--out", "scan.csv"],
                   "outputs": ["scan.csv"]}]
        return stages, {"inputs": info}
    raise ValueError(f"unknown workload {workload}")


def open_listeners(kinds: dict[str, str]) -> list[socket.socket]:
    """Kernel MPTCP and plain TCP listeners that never accept."""
    socks = []
    try:
        for target, kind in kinds.items():
            if kind == "closed":
                continue
            address, port = target.split(",")
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM,
                              IPPROTO_MPTCP if kind == "mptcp" else 0)
            socks.append(s)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind((address, int(port)))
            s.listen(64)
    except OSError:
        for s in socks:
            s.close()
        raise
    return socks


def check(workload: str, workdir: Path, passes: list[dict], ctx: dict, p: dict) -> gates.Gate:
    info = ctx["inputs"]
    if workload == "campaign":
        return gates.campaign(workdir, passes)
    if workload.startswith("pcap-"):
        return gates.pcap(workdir, passes, info["expected_rows"], info["counters"])
    return gates.live(workdir, passes, info["kinds"], float(p["rate"]))


def stage_rates(workload: str, workdir: Path, passes: list[dict], ctx: dict) -> dict[str, float]:
    """Throughput of the stage each workload is about, from untraced passes."""
    seconds = stage_seconds(passes)
    wall = sum(seconds.values())
    rates = dict.fromkeys(("scan_targets_per_s", "trace_targets_per_s", "pcap_packets_per_s",
                           "pcap_mb_per_s", "live_probes_per_s"), 0.0)
    if workload == "campaign":
        targets = len(gates.read_lines(workdir / "targets.txt"))
        traced = len(gates.read_lines(workdir / "trace.csv"))
        rates["scan_targets_per_s"] = targets / seconds["scan"]
        rates["trace_targets_per_s"] = traced / seconds["trace"]
    elif workload.startswith("pcap-"):
        frames = sum(c["frames_seen"] for c in ctx["inputs"]["counters"])
        rates["pcap_packets_per_s"] = frames / wall
        rates["pcap_mb_per_s"] = ctx["inputs"]["capture_bytes"] / 1e6 / wall
    else:
        # Probes actually sent: blocklisted targets come out `skipped`.
        rates["live_probes_per_s"] = ctx["inputs"]["sent"] / seconds["scan"]
    return rates


def stage_seconds(passes: list[dict]) -> dict[str, float]:
    """Each stage's median adjusted seconds over the passes (see speed.py)."""
    return {stage["name"]: statistics.median(p["stages"][i]["adjusted_s"] for p in passes)
            for i, stage in enumerate(passes[0]["stages"])}


def wall_seconds(passes: list[dict]) -> float:
    return sum(stage_seconds(passes).values())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traced: dict) -> dict[str, float]:
    layers = traced["layers"]
    out = {}
    for name, _, _ in LAYERS:
        out[f"{name}.calls"] = layers[name]["calls"]
        out[f"{name}.self_s"] = layers[name]["self_s"]
    out["pcapio.read_pcap.frames"] = layers["frames"]
    out["pcapio.read_pcap.iter_self_s"] = layers[FRAME_ITER]["self_s"]
    ttl_calls = layers["netsim.SimNetwork.ttl_probe"]["calls"]
    out["tracer.ttl_probes_per_target"] = _ratio(ttl_calls,
                                                 layers["tracer.inspect_target"]["calls"])
    out["tracer.ttl_answered_ratio"] = _ratio(layers["answered"], ttl_calls)
    tables = traced["flow_tables"]
    for counter in ("frames_seen", "tcp_packets", "non_tcp", "parse_failures"):
        out[f"flows.{counter}"] = sum(t[counter] for t in tables)
    out["flows.mp_decodes_per_tcp_packet"] = _ratio(
        layers["options.decode_mp_capable_any"]["calls"], out["flows.tcp_packets"])
    out["live.packets_read_per_probe"] = _ratio(layers["packet.decode_packet"]["calls"],
                                                layers["live.LiveTransport.handshake"]["calls"])
    return out


# -- one run ---------------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool,
        params: dict | None = None, keep: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run. Returns (result line, full record)."""
    began = time.monotonic()
    p = {**WORKLOADS[workload], **(params or {})}
    env = environment()
    base = ROOT / ".perfbench"
    record_dir = base / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = keep or base / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(record_dir, ignore_errors=True)
    record_dir.mkdir(parents=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    listeners = []
    try:
        metrics: dict[str, float] = {}
        if trace:
            metrics.update(import_breakdown())
        else:
            imports, references = setup_samples()
        stages, ctx = prepare(workload, workdir, seed, p, env)
        if workload == "live-loopback":
            listeners = open_listeners(ctx["inputs"]["kinds"])
        spec = {"stages": stages, "fresh": ctx.get("fresh", []), "trace": trace,
                "seconds": seconds, "spans_out": str(record_dir / "spans.csv")}
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        result_path = workdir / "worker-result.json"
        subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                        "spec.json", str(result_path)], cwd=workdir, env=_python_env(),
                       timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - began)), check=True)
        worker = json.loads(result_path.read_text(encoding="utf-8"))
        passes = worker["passes"] + ([worker["traced"]] if trace else [])
        gate = check(workload, workdir, passes, ctx, p)
        attempted = max(1, gate.attempted)
        failed = min(gate.failed, attempted)
        if trace:
            metrics.update(layer_metrics(worker["traced"]))
            metrics.update(stage_rates(workload, workdir, worker["passes"], ctx))
            metrics["tracing_overhead_ratio"] = (worker["traced"]["wall_s"]
                                                 / wall_seconds(worker["passes"]))
            metrics["failed_ratio"] = failed / attempted
            units = dict(PER_LAYER)
        else:
            metrics["setup_s"] = (statistics.median(imports) * speed.IMPORT_REFERENCE_S
                                  / statistics.median(references))
            metrics["wall_s"] = wall_seconds(worker["passes"])
            metrics["peak_rss_mb"] = worker["peak_rss_mb"]
            units = dict(END_TO_END)
        result = {
            "correct": gate.failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "params": p, "environment": env,
            "inputs": {k: v for k, v in ctx["inputs"].items() if k != "kinds"},
            "setup_import_s": None if trace else imports,
            "worker_import_s": worker["import_s"],
            "setup_reference_import_s": None if trace else references,
            "passes": [{k: x[k] for k in ("wall_s", "stages", "flow_tables")} for x in passes],
            "problems": gate.problems,
            "result": result,
        }
        if trace:
            record["spans"] = {k: worker["traced"]["layers"][k] for k in ("spans", "spans_dropped")}
        (record_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        return result, record
    finally:
        for s in listeners:
            s.close()
        if keep is None:
            shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "mptcpkit" / "cli.py").is_file():
        print(f"error: no mptcpkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unavailable as exc:
        print(f"{args.workload} unavailable: {exc}", file=sys.stderr)
        return 3
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} commit={env['commit']} python={env['python']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} raw_sockets={env['raw_sockets']} "
          f"ipproto_mptcp={env['ipproto_mptcp']}")
    for x in record["passes"][-1]["stages"]:
        print(f"# sha256 {x['name']} {x['sha256']}")
    for problem in record["problems"]:
        print(f"# gate: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
