"""Run one workload's CLI stages in this interpreter and report as JSON.

    PYTHONPATH=src python perfbench/worker.py SPEC.json RESULT.json

Run from the workload's input directory. Each stage is one call of
`mptcpkit.cli.main(argv)` with the argv a user would type, timed by
`speed.timed` (raw seconds and seconds adjusted for machine speed). An
untraced run repeats the whole stage list while another pass still fits in
`seconds` (at least once). A traced run makes three untraced passes, then
installs the span recorder and makes one traced pass.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import speed

COUNTERS = ("frames_seen", "tcp_packets", "tcp_bytes", "non_tcp", "parse_failures")


def digest(paths: list[str]) -> str:
    """sha256 over the named output files; a directory counts as its files."""
    h = hashlib.sha256()
    for name in paths:
        path = Path(name)
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f).encode() + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import_s = speed.import_s(["mptcpkit.cli"])
    speed.probe_s()  # the first probe pays for warming the loop
    from mptcpkit import cli, flows

    # FlowTable counters are not printed by analyze-pcap; keep them per call.
    tables: list[dict] = []
    ingest = flows.ingest_capture

    def counted_ingest(*args, **kwargs):
        table = ingest(*args, **kwargs)
        tables.append({name: getattr(table, name) for name in COUNTERS})
        return table

    flows.ingest_capture = counted_ingest

    def run_pass(recorder=None) -> dict:
        for path in spec.get("fresh", []):
            shutil.rmtree(path, ignore_errors=True)
        tables.clear()
        stages = []
        for index, stage in enumerate(spec["stages"]):
            if "head" in stage:  # untimed input slicing between stages
                src, dst, n = stage["head"]
                lines = Path(src).read_text(encoding="utf-8").splitlines(keepends=True)
                Path(dst).write_text("".join(lines[:n]), encoding="utf-8")
                continue
            if recorder is not None:
                recorder.stage = index
            rc, seconds, adjusted = speed.timed(cli.main, stage["argv"])
            stages.append({"name": stage["name"], "seconds": seconds, "adjusted_s": adjusted,
                           "rc": rc})
        for stage, record in zip((s for s in spec["stages"] if "argv" in s), stages):
            record["sha256"] = digest(stage["outputs"])
        return {"stages": stages, "wall_s": sum(s["adjusted_s"] for s in stages),
                "flow_tables": list(tables)}

    result = {"import_s": import_s, "passes": [], "traced": None}
    if spec["trace"]:
        from tracing import Recorder

        result["passes"] += [run_pass() for _ in range(3)]
        recorder = Recorder()
        recorder.install()
        traced = run_pass(recorder)
        traced["layers"] = recorder.totals()
        result["traced"] = traced
        recorder.write_spans(spec["spans_out"])
    else:
        began, fastest = perf_counter(), float("inf")
        while True:
            start = perf_counter()
            result["passes"].append(run_pass())
            fastest = min(fastest, perf_counter() - start)
            if perf_counter() - began + fastest > spec["seconds"]:
                break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
