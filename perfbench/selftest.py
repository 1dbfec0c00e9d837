"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, that layer counters are non-zero where a workload uses
the layer, that a corrupted output fails the gate, and that a live scan at
a rate that binds (500/s) never exceeds it. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gates
import run

TINY = {
    "campaign": {"targets": 300, "blocklist": 40, "prefixes": 200, "asns": 50,
                 "bench_targets": 30, "bench_runs": 3},
    "pcap-mice": {"captures": 2, "flows_per_capture": 150},
    "pcap-elephants": {"captures": 2, "flows_per_capture": 4, "data_packets": 10,
                       "payload": 200, "other_frames": 2},
    "live-loopback": {"addresses": 3, "ports_per_address": 20},
}

# Per-layer counts that must be non-zero on the workload that exercises them.
USED = {
    "campaign": ["netsim.generate_population.calls", "netsim.SimNetwork.handshake.calls",
                 "netsim.SimNetwork.ttl_probe.calls", "probe.Blocklist.matches.calls",
                 "tracer.inspect_target.calls", "keystats.analyze_keys.calls",
                 "store.EnrichmentTable.lookup_asn.calls", "store.SnapshotStore.save.calls",
                 "bench.SimTimingTransport.fetch.calls", "tracer.ttl_probes_per_target",
                 "tracer.ttl_answered_ratio", "scan_targets_per_s", "trace_targets_per_s"],
    "pcap-mice": ["pcapio.read_pcap.frames", "flows.FlowKey.canonical.calls",
                  "flows.map_service.calls", "flows.parse_failures", "flows.non_tcp",
                  "flows.mp_decodes_per_tcp_packet", "pcap_packets_per_s"],
    "pcap-elephants": ["pcapio.read_pcap.frames", "flows.FlowStats.update.calls",
                       "options.decode_mp_capable_any.calls", "flows.parse_failures",
                       "pcap_mb_per_s"],
    "live-loopback": ["live.LiveTransport.handshake.calls", "live.local_source_address.calls",
                      "live.packets_read_per_probe", "live_probes_per_s"],
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_declared() -> dict:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect([(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in declared["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    return declared


def check_metrics(workload: str, result: dict, wanted: list[tuple[str, str]]) -> None:
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    expect(got == wanted, f"{workload}: every metric emitted with its unit")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: gate passes")


def corrupt(workload: str, workdir: Path, passes: list[dict], info: dict) -> None:
    """Damage one output line and check the gate notices."""
    if workload == "campaign":
        path = workdir / "trace.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = lines[0].split(",")
        row[2] = "not_capable" if row[2] != "not_capable" else "truly_capable"
        path.write_text(",".join(row) + "".join(lines[1:]), encoding="utf-8")
        expect(gates.campaign(workdir, passes).failed > 0, "campaign: flipped verdict fails")
    elif workload.startswith("pcap-"):
        path = workdir / "analysis.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[1:]), encoding="utf-8")
        expect(gates.pcap(workdir, passes, info["expected_rows"], info["counters"]).failed > 0,
               f"{workload}: dropped row fails")
        path.write_text("".join(lines), encoding="utf-8")
        passes[0]["flow_tables"][0]["non_tcp"] += 1
        expect(gates.pcap(workdir, passes, info["expected_rows"], info["counters"]).failed > 0,
               f"{workload}: miscounted frame fails")


def main() -> int:
    declared = check_declared()
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    env = run.environment()
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench"))
    try:
        for workload, tiny in TINY.items():
            if workload == "live-loopback" and not (env["raw_sockets"] and env["ipproto_mptcp"]):
                print(f"skip {workload}: raw sockets or IPPROTO_MPTCP unavailable")
                continue
            workdir = tmp / workload
            result, record = run.run(workload, 7, 1, False, params=tiny, keep=workdir)
            check_metrics(workload, result, e2e)
            shutil.rmtree(workdir)
            result, record = run.run(workload, 7, 1, True, params=tiny, keep=workdir)
            check_metrics(f"{workload} traced", result, per_layer)
            for name in USED[workload]:
                expect(result["metrics"][name]["value"] > 0, f"{workload}: {name} > 0")
            corrupt(workload, workdir, record["passes"], record["inputs"])
            shutil.rmtree(workdir)

        expect(gates.max_per_window([i / 501 for i in range(1002)]) > 500,
               "window check catches 501 sends in one second")
        if env["raw_sockets"] and env["ipproto_mptcp"]:
            params = {**TINY["live-loopback"], "ports_per_address": 400, "rate": 500}
            result, record = run.run("live-loopback", 8, 1, False, params=params,
                                     keep=tmp / "rate")
            sent = [float(line.split(",")[0]) for line in
                    (tmp / "rate" / "scan.csv").read_text().splitlines()
                    if ",skipped," not in line]
            span = max(sent) - min(sent)
            expect(result["correct"], "live at 500/s: labels right, no window over the rate")
            expect(gates.max_per_window(sent) <= 500, f"live at 500/s: peak window "
                   f"{gates.max_per_window(sent)} <= 500")
            expect((len(sent) - 1) / span <= 500.0 + 1e-6,
                   f"live at 500/s: achieved {(len(sent) - 1) / span:.1f}/s over {len(sent)} probes")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
