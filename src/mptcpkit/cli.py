"""Command-line entry point: one subcommand per toolkit component.

Exit codes: 0 success, 1 operational error (including refusal to scan live
without guardrails), 2 usage error. All randomness flows from --seed, so any
seeded invocation is bit-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from . import flows as flows_mod
from . import keystats, netsim, store as store_mod, tracer
from .errors import GuardViolation, TransportUnavailable
from .inputs import data_lines
from .options import Key
from .packet import ip_family
from .probe import (
    Blocklist,
    CampaignGuard,
    CampaignRecord,
    DEFAULT_PROBE_KEY,
    PacedTransport,
    RatePacer,
    VirtualClock,
    load_targets,
    run_campaign,
    target_row,
)

BLOCKLIST_ENV = "MPTCPKIT_BLOCKLIST"

POSITIVE_SCAN_LABELS = {"potential_capable"}


class UsageError(Exception):
    """Bad flag combination for a subcommand (exit code 2)."""


def _require(args, *names: str) -> None:
    missing = [
        f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None
    ]
    if missing:
        raise UsageError(f"missing required options: {', '.join(missing)}")


def _out(path: str | None):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _read_targets(path: str) -> list[tuple[str, int]]:
    with open(path, encoding="utf-8") as f:
        return load_targets(f)


def _targets_from_scan(path: str, labels: set[str]) -> list[tuple[str, int]]:
    """Distinct (address, port) of rows with a wanted label, first-seen order."""
    return list(
        dict.fromkeys((r.address, r.port) for r in _read_records(path) if r.label in labels)
    )


def _read_records(path: str) -> list[CampaignRecord]:
    with open(path, encoding="utf-8") as f:
        return [CampaignRecord.parse(line) for line in data_lines(f)]


def _host_row(line: str) -> tuple[str, int | None, str | None]:
    """(address, port, label) of one report host row, parsed by its schema."""
    fields = line.count(",") + 1
    if line.startswith("{") or fields == 6:
        record = CampaignRecord.parse(line)
        return record.address, record.port, record.label
    if fields == 5:
        trace = tracer.TraceRecord.from_csv(line)
        return trace.address, trace.port, trace.verdict
    if fields == 2:
        return *target_row(line), None
    if fields == 1:
        return line, None, None
    raise ValueError(f"expected address[,port], a trace row or a scan row, got {line!r}")


def _read_hosts(path: str, only: str | None) -> list[tuple[str, int | None]]:
    """(address, port) of each host row, keeping only rows labelled `only` if set."""
    hosts = []
    with open(path, encoding="utf-8") as f:
        for line in data_lines(f):
            address, port, label = _host_row(line)
            if only is not None:
                if label is None:
                    raise ValueError(f"--only needs scan or trace rows, got {line!r}")
                if label != only:
                    continue
            hosts.append((address, port))
    return hosts


def _read_address_set(path: str, only: str | None) -> set[str]:
    return {address for address, _port in _read_hosts(path, only)}


def _resolve_transport(args):
    """The simulated network of --sim-topology, else a live raw-socket transport."""
    if getattr(args, "sim_topology", None):
        return netsim.load_topology(args.sim_topology, seed=args.seed)
    from .live import LiveTransport

    return LiveTransport(timeout_ms=args.timeout_ms)


def _guard_from_args(args, simulated: bool) -> CampaignGuard:
    blocklist_path = args.blocklist or os.environ.get(BLOCKLIST_ENV)
    if not simulated and not args.dry_run:
        missing = []
        if blocklist_path is None:
            missing.append("--blocklist")
        if args.rate is None:
            missing.append("--rate")
        if missing:
            raise GuardViolation(
                f"refusing live {args.command} without {' and '.join(missing)}"
            )
    blocklist = Blocklist.load(blocklist_path) if blocklist_path else None
    if simulated and blocklist is None:
        blocklist = Blocklist()  # simulated targets: empty blocklist reference
    rate = args.rate if args.rate is not None else (1_000_000.0 if simulated else None)
    if rate is None:
        rate = 1.0  # dry runs only reach here
    return CampaignGuard(rate, blocklist, dry_run=args.dry_run)


def cmd_scan(args) -> int:
    simulated = bool(args.sim_topology)
    guard = _guard_from_args(args, simulated)
    transport = None
    if not args.dry_run:
        transport = _resolve_transport(args)
    targets = _read_targets(args.targets)
    probe_key = Key.from_hex(args.probe_key) if args.probe_key else None
    if simulated or args.dry_run:
        clock = VirtualClock()
        sleep = clock.sleep
    else:
        clock, sleep = time.monotonic, time.sleep
    records = run_campaign(
        targets,
        version=args.version,
        guard=guard,
        transport=transport,
        probe_key=probe_key,
        seed=args.seed,
        clock=clock,
        sleep=sleep,
    )
    with _out(args.out) as f:
        for record in records:
            f.write((record.to_json() if args.format == "jsonl" else record.to_csv()) + "\n")
    return 0


def cmd_trace(args) -> int:
    simulated = bool(args.sim_topology)
    guard = _guard_from_args(args, simulated)
    if args.from_scan:
        targets = _targets_from_scan(args.from_scan, POSITIVE_SCAN_LABELS)
    elif args.targets:
        targets = _read_targets(args.targets)
    else:
        raise UsageError("trace needs --targets or --from-scan")
    transport = _resolve_transport(args)
    if not simulated:
        transport = PacedTransport(transport, RatePacer(guard.max_packets_per_second))
    probe_key = Key.from_hex(args.probe_key) if args.probe_key else None
    with _out(args.out) as f:
        for address, port in targets:
            if guard.blocklist.matches(address):
                record = tracer.TraceRecord(address, port, "skipped")
            else:
                try:
                    _trace, verdict = tracer.inspect_target(
                        address,
                        port,
                        args.version,
                        transport,
                        max_ttl=args.max_ttl,
                        probe_key=probe_key,
                        seed=args.seed,
                    )
                except OSError:  # a send that failed for this target only
                    record = tracer.TraceRecord(address, port, "error")
                else:
                    record = tracer.TraceRecord.from_verdict(address, port, verdict)
            f.write(record.to_csv() + "\n")
    return 0


def cmd_keys(args) -> int:
    probe_key = Key.from_hex(args.probe_key) if args.probe_key else DEFAULT_PROBE_KEY
    if args.from_scan:
        keys = [
            r.sender_key
            for r in _read_records(args.from_scan)
            if r.sender_key is not None
        ]
    elif args.infile:
        with open(args.infile, encoding="utf-8") as f:
            keys = keystats.read_keys(f)
    else:
        raise UsageError("keys needs --in or --from-scan")
    if not keys:
        print("no keys found in input", file=sys.stderr)
        return 1
    report = keystats.analyze_keys(keys, probe_key)
    with _out(args.out) as f:
        keystats.write_report(report, f)
    return 0


def cmd_simulate(args) -> int:
    _require(args, "out_topology", "out_targets")
    network = netsim.generate_population(args.generate, seed=args.seed)
    Path(args.out_topology).write_text(netsim.format_topology(network), encoding="utf-8")
    with open(args.out_targets, "w", encoding="utf-8") as f:
        for address, port in network.targets():
            f.write(f"{address},{port}\n")
    if args.out_truth:
        with open(args.out_truth, "w", encoding="utf-8") as f:
            f.write("address,port,version,classification,verdict,first_modifying_ttl\n")
            for (address, port), path in sorted(network.paths.items()):
                for version in (0, 1):
                    truth = netsim.ground_truth(path, version, ip_family(address))
                    ttl = truth.first_modifying_ttl
                    f.write(
                        f"{address},{port},{version},{truth.classification.value},"
                        f"{truth.verdict.value},{'' if ttl is None else ttl}\n"
                    )
    return 0


def cmd_analyze_pcap(args) -> int:
    tables = None
    if args.services or args.extra_services:
        tables = flows_mod.ServiceTables.load(args.services, args.extra_services)
    share_rows = []
    with _out(args.out) as f:
        for capture in args.infile:
            table = flows_mod.ingest_capture(
                capture, bidirectional=not args.unidirectional
            )
            kept = flows_mod.filter_min_packets(table.flows, args.min_packets)
            share = flows_mod.mptcp_share(kept)
            share_rows.append((capture, share))
            flow_share = "" if share.flow_share is None else f"{share.flow_share:.9f}"
            byte_share = "" if share.byte_share is None else f"{share.byte_share:.9f}"
            f.write(
                f"share,{capture},{share.tcp_flows},{share.tcp_bytes},"
                f"{share.mptcp_flows},{share.mptcp_bytes},{flow_share},{byte_share}\n"
            )
            mptcp_flows = {k: v for k, v in kept.items() if v.mp_capable_seen}
            if mptcp_flows:
                conc = flows_mod.concentration(mptcp_flows.values())
                f.write(
                    f"concentration,{capture},{conc.top1_share:.6f},"
                    f"{conc.top5_share:.6f},{conc.top_half_share:.6f}\n"
                )
            if tables is not None:
                by_service: dict[str, tuple[int, int]] = {}
                for key, stats in mptcp_flows.items():
                    label = flows_mod.map_service(key, tables)
                    flows_count, byte_count = by_service.get(label, (0, 0))
                    by_service[label] = (flows_count + 1, byte_count + stats.bytes)
                for label in sorted(by_service):
                    n, b = by_service[label]
                    f.write(f"service,{capture},{label},{n},{b}\n")
        if args.ewma and len(share_rows) > 1:
            tcp_series = flows_mod.ewma(
                [s.tcp_flows for _, s in share_rows], args.ewma_alpha
            )
            mptcp_series = flows_mod.ewma(
                [s.mptcp_flows for _, s in share_rows], args.ewma_alpha
            )
            for (capture, _), tcp_s, mptcp_s in zip(share_rows, tcp_series, mptcp_series):
                f.write(f"ewma,{capture},{tcp_s:.6f},{mptcp_s:.6f}\n")
    return 0


REPORT_REQUIRED = {
    "summary": ("infile",),
    "overlap": ("set_a", "set_b"),
    "versions": ("set_a", "set_b"),
    "migration": ("prev_v0", "prev_v1", "cur_v0", "cur_v1"),
    "ingest": ("infile", "store", "date"),
    "consistent": ("store", "at"),
    "eligible": ("store", "at"),
    "top": ("infile", "prefixes"),
}


def cmd_report(args) -> int:
    _require(args, *REPORT_REQUIRED[args.kind])
    with _out(args.out) as f:
        if args.kind == "summary":
            counts: dict[str, int] = {}
            with open(args.infile, encoding="utf-8") as records:
                for line in data_lines(records):
                    verdict = tracer.TraceRecord.from_csv(line).verdict
                    counts[verdict] = counts.get(verdict, 0) + 1
            for label in sorted(counts):
                f.write(f"{label},{counts[label]}\n")
            return 0
        if args.kind == "overlap" or args.kind == "versions":
            a, b = (_read_address_set(path, args.only) for path in (args.set_a, args.set_b))
            report = store_mod.port_overlap(a, b)
            names = ("both", "only_a", "only_b") if args.kind == "overlap" else (
                "both", "v0_only", "v1_only",
            )
            sets = (report.both, report.only_a, report.only_b)
            for name, hosts, fraction in zip(names, sets, report.fractions()):
                f.write(f"{name},{len(hosts)},{fraction:.6f}\n")
            return 0
        if args.kind == "migration":
            sets = [_read_address_set(path, args.only)
                    for path in (args.prev_v0, args.prev_v1, args.cur_v0, args.cur_v1)]
            report = store_mod.migration_report(sets[:2], sets[2:])
            f.write(f"added_v1_support,{len(report.added_v1_support)}\n")
            f.write(f"migrated_v0_to_v1,{len(report.migrated_v0_to_v1)}\n")
            f.write(f"added_v0_support,{len(report.added_v0_support)}\n")
            f.write(f"migrated_v1_to_v0,{len(report.migrated_v1_to_v0)}\n")
            return 0
        if args.kind == "ingest":
            snapshot_store = store_mod.SnapshotStore(args.store)
            by_key: dict[tuple[str, int, int], store_mod.ScanSnapshot] = {}
            for record in _read_records(args.infile):
                family = "v6" if ":" in record.address else "v4"
                key = (family, record.port, record.version)
                snap = by_key.setdefault(
                    key,
                    store_mod.ScanSnapshot(args.date, family, record.port, record.version),
                )
                snap.add(
                    store_mod.HostRecord(record.address, record.label, record.sender_key)
                )
            for snap in by_key.values():
                snapshot_store.save(snap)
            f.write(f"ingested,{len(by_key)}\n")
            return 0
        if args.kind in ("consistent", "eligible"):
            snapshot_store = store_mod.SnapshotStore(args.store)
            series = snapshot_store.load_series(args.family, args.port, args.version)
            if args.kind == "consistent":
                hosts = store_mod.consistent_hosts(series, args.window, args.at)
            else:
                hosts = store_mod.eligible_for_path_probe(series, args.at, args.window)
            for address in sorted(hosts):
                f.write(f"{address},{args.port}\n")
            return 0
        if args.kind == "top":
            table = store_mod.EnrichmentTable.load(args.prefixes, args.asn_meta)
            entries = _read_hosts(args.infile, args.only)
            if any(port is None for _address, port in entries):
                raise ValueError(f"report top needs a port on every row of {args.infile}")
            rows = store_mod.top_report(entries, table, group_by=args.group_by, k=args.k)
            if args.pretty:
                header = ("GROUP", "PORT80", "PORT443", "RANK", "CC", "ORGANIZATION")
                cells = [header] + [
                    (
                        row.group, str(row.count(80)), str(row.count(443)),
                        "" if row.rank is None else str(row.rank),
                        row.country, row.organization,
                    )
                    for row in rows
                ]
                widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
                for r in cells:
                    f.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
                return 0
            f.write("group,port80,port443,rank,country,organization\n")
            for row in rows:
                rank = "" if row.rank is None else str(row.rank)
                f.write(
                    f"{row.group},{row.count(80)},{row.count(443)},"
                    f"{rank},{row.country},{row.organization}\n"
                )
            return 0
    raise AssertionError(f"unhandled report kind {args.kind}")


def cmd_bench(args) -> int:
    targets = _read_targets(args.targets)
    if args.sim_topology:
        network = netsim.load_topology(args.sim_topology, seed=args.seed)
        mptcp_t = bench_mod.SimTimingTransport(
            network, "mptcp", fallback_penalty_ms=args.fallback_penalty_ms, seed=args.seed
        )
        tcp_t = bench_mod.SimTimingTransport(network, "tcp", seed=args.seed)
    else:
        tcp_t = bench_mod.SystemTimingTransport("tcp")
        try:
            mptcp_t = bench_mod.SystemTimingTransport("mptcp")
        except TransportUnavailable as exc:
            print(f"warning: {exc}; reporting TCP-only timings", file=sys.stderr)
            mptcp_t = None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def runs():  # one target at a time, so samples are freed once paired
        for address, port in targets:
            tcp_samples = bench_mod.time_get(address, port, tcp_t, runs=args.runs)
            if mptcp_t is not None:
                mptcp_samples = bench_mod.time_get(address, port, mptcp_t, runs=args.runs)
                yield address, mptcp_samples, tcp_samples

    combined = bench_mod.paired_report(runs(), zero_tolerance_ms=args.zero_tol)
    if mptcp_t is None:
        return 0
    for metric in bench_mod.METRICS:
        if metric not in combined.cdf:
            continue
        with open(out_dir / f"{metric}.cdf.txt", "w", encoding="utf-8") as f:
            bench_mod.write_cdf(combined, metric, f)
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as f:
        for metric, (faster, even, slower) in sorted(combined.fractions.items()):
            f.write(f"{metric},{faster:.6f},{even:.6f},{slower:.6f}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mptcpkit", description="Multipath TCP measurement toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    scan = sub.add_parser("scan", help="probe targets for MP_CAPABLE support")
    scan.add_argument("--targets", required=True)
    scan.add_argument("--version", type=int, choices=(0, 1), default=0)
    scan.add_argument("--probe-key", default=None, help="hex v0 probe key")
    scan.add_argument("--sim-topology", default=None)
    scan.add_argument("--blocklist", default=None)
    scan.add_argument("--rate", type=float, default=None, help="packets per second")
    scan.add_argument("--timeout-ms", type=float, default=2000.0)
    scan.add_argument("--dry-run", action="store_true")
    scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    add_common(scan)
    scan.set_defaults(func=cmd_scan)

    trace = sub.add_parser("trace", help="TTL-step targets and judge the path")
    trace.add_argument("--targets", default=None)
    trace.add_argument("--from-scan", default=None, help="take potential targets from scan records")
    trace.add_argument("--version", type=int, choices=(0, 1), default=0)
    trace.add_argument("--probe-key", default=None)
    trace.add_argument("--sim-topology", default=None)
    trace.add_argument("--blocklist", default=None)
    trace.add_argument("--rate", type=float, default=None)
    trace.add_argument("--timeout-ms", type=float, default=2000.0)
    trace.add_argument("--max-ttl", type=int, default=30)
    add_common(trace)
    trace.set_defaults(func=cmd_trace, dry_run=False)

    keys = sub.add_parser("keys", help="Hamming-weight report over observed keys")
    keys.add_argument("--in", dest="infile", default=None, help="one hex key per line")
    keys.add_argument("--from-scan", default=None)
    keys.add_argument("--probe-key", default=None)
    add_common(keys)
    keys.set_defaults(func=cmd_keys)

    simulate = sub.add_parser("simulate", help="generate a simulated topology")
    simulate.add_argument("--generate", type=int, required=True, metavar="N")
    simulate.add_argument("--out-topology", default=None)
    simulate.add_argument("--out-targets", default=None)
    simulate.add_argument("--out-truth", default=None)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.set_defaults(func=cmd_simulate)

    pcap = sub.add_parser("analyze-pcap", help="flow and MPTCP share statistics")
    pcap.add_argument("--in", dest="infile", action="append", required=True)
    pcap.add_argument("--min-packets", type=int, default=5)
    pcap.add_argument("--services", default=None)
    pcap.add_argument("--extra-services", default=None)
    pcap.add_argument("--unidirectional", action="store_true")
    pcap.add_argument("--ewma", action="store_true")
    pcap.add_argument("--ewma-alpha", type=float, default=0.2)
    add_common(pcap)
    pcap.set_defaults(func=cmd_analyze_pcap)

    report = sub.add_parser("report", help="longitudinal and enrichment reports")
    report.add_argument(
        "kind",
        choices=("summary", "overlap", "versions", "migration", "ingest",
                 "consistent", "eligible", "top"),
    )
    report.add_argument("--in", dest="infile", default=None)
    report.add_argument("--set-a", default=None)
    report.add_argument("--set-b", default=None)
    report.add_argument("--prev-v0", default=None)
    report.add_argument("--prev-v1", default=None)
    report.add_argument("--cur-v0", default=None)
    report.add_argument("--cur-v1", default=None)
    report.add_argument("--store", default=None)
    report.add_argument("--date", default=None)
    report.add_argument("--at", default=None)
    report.add_argument("--window", type=int, default=3)
    report.add_argument("--family", choices=("v4", "v6"), default="v4")
    report.add_argument("--port", type=int, default=80)
    report.add_argument("--version", type=int, choices=(0, 1), default=0)
    report.add_argument("--prefixes", default=None)
    report.add_argument("--asn-meta", default=None)
    report.add_argument("--group-by", choices=("asn", "country"), default="asn")
    report.add_argument("-k", type=int, default=10)
    report.add_argument("--only", default=None, help="filter records by label")
    report.add_argument("--pretty", action="store_true", help="aligned columns")
    add_common(report)
    report.set_defaults(func=cmd_report)

    bench = sub.add_parser("bench", help="paired MPTCP vs TCP GET timings")
    bench.add_argument("--targets", required=True)
    bench.add_argument("--sim-topology", default=None)
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--zero-tol", type=float, default=1.0)
    bench.add_argument("--fallback-penalty-ms", type=float, default=250.0)
    bench.add_argument("--out-dir", default="bench-out")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (GuardViolation, TransportUnavailable) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
