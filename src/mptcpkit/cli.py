"""Command-line entry point: one subcommand per toolkit component.

Every usage rule (required options, one input source of two, the options
each `report` kind reads) lives in the argparse declaration of
`build_parser`, so each usage error exits 2 through argparse.

Exit codes: 0 success, 1 operational error (including refusal to scan live
without guardrails), 2 usage error. All randomness flows from --seed, so any
seeded invocation is bit-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
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

POSITIVE_SCAN_LABELS = {"potential_capable"}


class _OutFile:
    """`--out`, opened at the first write, or at a clean exit without one, so
    that a run failing before it writes leaves the previous file intact."""

    def __init__(self, path: str):
        self._path = path
        self._file = None

    def write(self, text: str) -> int:
        if self._file is None:
            self._file = open(self._path, "w", encoding="utf-8")
        return self._file.write(text)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._file is None and exc_type is None:
            self.write("")
        if self._file is not None:
            self._file.close()


def _out(path: str | None):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return _OutFile(path)


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
    if args.sim_topology:
        return netsim.load_topology(args.sim_topology, seed=args.seed)
    from .live import LiveTransport

    return LiveTransport(timeout_ms=args.timeout_ms)


def _guard_from_args(args) -> CampaignGuard:
    """The blocklist and pacer a sending command applies, built before any
    target is read or transport opened, so every refusal comes first.

    A live run needs --blocklist and --rate and paces in wall time. A
    simulated or dry run paces on a virtual clock, at 1e6 per second unless
    --rate says otherwise, and without --blocklist blocks nothing.
    """
    if args.sim_topology or args.dry_run:
        clock = VirtualClock()
        rate = 1_000_000.0 if args.rate is None else args.rate
        pacer = RatePacer(rate, clock=clock, sleep=clock.sleep)
    else:
        missing = []
        if args.blocklist is None:
            missing.append("--blocklist")
        if args.rate is None:
            missing.append("--rate")
        if missing:
            raise GuardViolation(
                f"refusing live {args.command} without {' and '.join(missing)}"
            )
        pacer = RatePacer(args.rate)
    blocklist = Blocklist.load(args.blocklist) if args.blocklist else Blocklist()
    return CampaignGuard(blocklist, pacer)


def _probe_key(args) -> Key | None:
    return Key.from_hex(args.probe_key) if args.probe_key else None


def _close(transport) -> None:
    """Close a live transport's sockets; a simulated network holds none."""
    close = getattr(transport, "close", None)
    if close is not None:
        close()


def cmd_scan(args) -> int:
    guard = _guard_from_args(args)
    probe_key = _probe_key(args)
    targets = _read_targets(args.targets)
    transport = None if args.dry_run else _resolve_transport(args)
    try:
        records = run_campaign(
            targets,
            version=args.version,
            guard=guard,
            transport=transport,
            probe_key=probe_key,
            seed=args.seed,
        )
        with _out(args.out) as f:
            for record in records:
                f.write((record.to_json() if args.format == "jsonl" else record.to_csv()) + "\n")
    finally:
        _close(transport)
    return 0


def cmd_trace(args) -> int:
    guard = _guard_from_args(args)
    probe_key = _probe_key(args)
    if args.from_scan is not None:
        targets = _targets_from_scan(args.from_scan, POSITIVE_SCAN_LABELS)
    else:
        targets = _read_targets(args.targets)
    opened = _resolve_transport(args)
    transport = PacedTransport(opened, guard.pacer)
    try:
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
    finally:
        _close(opened)
    return 0


def cmd_keys(args) -> int:
    probe_key = _probe_key(args) or DEFAULT_PROBE_KEY
    if args.from_scan is not None:
        keys = [
            r.sender_key
            for r in _read_records(args.from_scan)
            if r.sender_key is not None
        ]
    else:
        with open(args.infile, encoding="utf-8") as f:
            keys = keystats.read_keys(f)
    if not keys:
        print("no keys found in input", file=sys.stderr)
        return 1
    report = keystats.analyze_keys(keys, probe_key)
    with _out(args.out) as f:
        keystats.write_report(report, f)
    return 0


def cmd_simulate(args) -> int:
    network = netsim.generate_population(args.generate, seed=args.seed)
    Path(args.out_topology).write_text(netsim.format_topology(network), encoding="utf-8")
    rows = sorted(network.paths.items())
    with open(args.out_targets, "w", encoding="utf-8") as f:
        f.writelines(f"{address},{port}\n" for (address, port), _path in rows)
    if args.out_truth:
        # Truth depends only on the path and the address family, and targets
        # share paths; `network` keeps every path alive, so ids stay unique.
        tails: dict[tuple[int, int], list[str]] = {}
        with open(args.out_truth, "w", encoding="utf-8") as f:
            f.write("address,port,version,classification,verdict,first_modifying_ttl\n")
            for (address, port), path in rows:
                key = (id(path), ip_family(address))
                tail = tails.get(key)
                if tail is None:
                    tail = tails[key] = []
                    for version in (0, 1):
                        truth = netsim.ground_truth(path, version, key[1])
                        ttl = truth.first_modifying_ttl
                        tail.append(f"{version},{truth.classification.value},"
                                    f"{truth.verdict.value},{'' if ttl is None else ttl}\n")
                f.write(f"{address},{port},{tail[0]}{address},{port},{tail[1]}")
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


def cmd_report(args) -> int:
    """Every `report` kind: the writer its subparser chose, into --out."""
    with _out(args.out) as f:
        args.write(args, f)
    return 0


def _write_summary(args, f) -> None:
    counts: dict[str, int] = {}
    with open(args.infile, encoding="utf-8") as records:
        for line in data_lines(records):
            verdict = tracer.TraceRecord.from_csv(line).verdict
            counts[verdict] = counts.get(verdict, 0) + 1
    for label in sorted(counts):
        f.write(f"{label},{counts[label]}\n")


def _write_overlap(args, f) -> None:
    a, b = (_read_address_set(path, args.only) for path in (args.set_a, args.set_b))
    report = store_mod.port_overlap(a, b)
    sets = (report.both, report.only_a, report.only_b)
    for name, hosts, fraction in zip(args.row_names, sets, report.fractions()):
        f.write(f"{name},{len(hosts)},{fraction:.6f}\n")


def _write_migration(args, f) -> None:
    sets = [_read_address_set(path, args.only)
            for path in (args.prev_v0, args.prev_v1, args.cur_v0, args.cur_v1)]
    report = store_mod.migration_report(sets[:2], sets[2:])
    for name in ("added_v1_support", "migrated_v0_to_v1", "added_v0_support", "migrated_v1_to_v0"):
        f.write(f"{name},{len(getattr(report, name))}\n")


def _write_ingest(args, f) -> None:
    store_mod.parse_month(args.date)  # before the store or the input is touched
    snapshot_store = store_mod.SnapshotStore(args.store)
    by_key: dict[tuple[str, int, int], store_mod.ScanSnapshot] = {}
    for record in _read_records(args.infile):
        family = "v6" if ":" in record.address else "v4"
        key = (family, record.port, record.version)
        snap = by_key.get(key)
        if snap is None:  # one snapshot per key, not one built per record
            snap = by_key[key] = store_mod.ScanSnapshot(args.date, *key)
        snap.add(store_mod.HostRecord(record.address, record.label, record.sender_key))
    for snap in by_key.values():
        snapshot_store.save(snap)
    f.write(f"ingested,{len(by_key)}\n")


def _write_window(args, f) -> None:
    series = store_mod.SnapshotStore(args.store).load_series(
        args.family, args.port, args.version
    )
    hosts = args.select(series, window_months=args.window, at_date=args.at)
    for address in sorted(hosts):
        f.write(f"{address},{args.port}\n")


def _write_top(args, f) -> None:
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
        return
    f.write("group,port80,port443,rank,country,organization\n")
    for row in rows:
        rank = "" if row.rank is None else str(row.rank)
        f.write(
            f"{row.group},{row.count(80)},{row.count(443)},"
            f"{rank},{row.country},{row.organization}\n"
        )


def cmd_bench(args) -> int:
    guard = _guard_from_args(args)
    targets = [(a, p) for a, p in _read_targets(args.targets) if not guard.blocklist.matches(a)]
    if args.sim_topology:
        network = netsim.load_topology(args.sim_topology, seed=args.seed)
        mptcp_t = bench_mod.SimTimingTransport(
            network, "mptcp", fallback_penalty_ms=args.fallback_penalty_ms, seed=args.seed
        )
        tcp_t = bench_mod.SimTimingTransport(network, "tcp", seed=args.seed)
    else:
        # Without an MPTCP stack there is nothing to pair: refuse before any fetch.
        mptcp_t = bench_mod.SystemTimingTransport("mptcp")
        tcp_t = bench_mod.SystemTimingTransport("tcp")
    # One budget for both sides.
    mptcp_t = PacedTransport(mptcp_t, guard.pacer)
    tcp_t = PacedTransport(tcp_t, guard.pacer)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def runs():  # one target at a time, so samples are freed once paired
        for address, port in targets:
            tcp_samples = bench_mod.time_get(address, port, tcp_t, runs=args.runs)
            mptcp_samples = bench_mod.time_get(address, port, mptcp_t, runs=args.runs)
            yield address, mptcp_samples, tcp_samples

    combined = bench_mod.paired_report(runs(), zero_tolerance_ms=args.zero_tol)
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

    # Options shared by several subcommands, declared once and passed as parents=.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")

    guarded = argparse.ArgumentParser(add_help=False)  # _guard_from_args: live runs need both
    guarded.add_argument("--blocklist", default=None)
    guarded.add_argument("--rate", type=float, default=None, help="packets per second")

    probing = argparse.ArgumentParser(add_help=False)  # _resolve_transport
    probing.add_argument("--version", type=int, choices=(0, 1), default=0)
    probing.add_argument("--probe-key", default=None, help="hex v0 probe key")
    probing.add_argument("--sim-topology", default=None)
    probing.add_argument("--timeout-ms", type=float, default=2000.0)
    probing.add_argument("--seed", type=int, default=0)

    scan = sub.add_parser(
        "scan", parents=[probing, guarded, out], help="probe targets for MP_CAPABLE support"
    )
    scan.add_argument("--targets", required=True)
    scan.add_argument("--dry-run", action="store_true")
    scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    scan.set_defaults(func=cmd_scan)

    trace = sub.add_parser(
        "trace", parents=[probing, guarded, out], help="TTL-step targets and judge the path"
    )
    source = trace.add_mutually_exclusive_group(required=True)
    source.add_argument("--targets", default=None)
    source.add_argument("--from-scan", default=None, help="take potential targets from scan records")
    trace.add_argument("--max-ttl", type=int, default=30)
    trace.set_defaults(func=cmd_trace, dry_run=False)

    keys = sub.add_parser("keys", parents=[out], help="Hamming-weight report over observed keys")
    source = keys.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", default=None, help="one hex key per line")
    source.add_argument("--from-scan", default=None)
    keys.add_argument("--probe-key", default=None)
    keys.set_defaults(func=cmd_keys)

    simulate = sub.add_parser("simulate", help="generate a simulated topology")
    simulate.add_argument("--generate", type=int, required=True, metavar="N")
    simulate.add_argument("--out-topology", required=True)
    simulate.add_argument("--out-targets", required=True)
    simulate.add_argument("--out-truth", default=None)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.set_defaults(func=cmd_simulate)

    pcap = sub.add_parser("analyze-pcap", parents=[out], help="flow and MPTCP share statistics")
    pcap.add_argument("--in", dest="infile", action="append", required=True)
    pcap.add_argument("--min-packets", type=int, default=5)
    pcap.add_argument("--services", default=None)
    pcap.add_argument("--extra-services", default=None)
    pcap.add_argument("--unidirectional", action="store_true")
    pcap.add_argument("--ewma", action="store_true")
    pcap.add_argument("--ewma-alpha", type=float, default=0.2)
    pcap.set_defaults(func=cmd_analyze_pcap)

    report = sub.add_parser("report", help="longitudinal and enrichment reports")
    report.set_defaults(func=cmd_report)
    kinds = report.add_subparsers(dest="kind", required=True)

    only = argparse.ArgumentParser(add_help=False)
    only.add_argument("--only", default=None, help="filter records by label")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--store", required=True)
    window.add_argument("--at", required=True, help="last month of the window, YYYY-MM")
    window.add_argument("--window", type=int, default=3)
    window.add_argument("--family", choices=("v4", "v6"), default="v4")
    window.add_argument("--port", type=int, default=80)
    window.add_argument("--version", type=int, choices=(0, 1), default=0)

    def kind(name: str, help_text: str, write, *parents, **defaults):
        """A `report` kind whose `cmd_report` runs `write`, with --out and `parents`."""
        p = kinds.add_parser(name, parents=[*parents, out], help=help_text)
        p.set_defaults(write=write, **defaults)
        return p

    summary = kind("summary", "count trace verdicts", _write_summary)
    summary.add_argument("--in", dest="infile", required=True)
    for name, help_text, row_names in (
        ("overlap", "hosts in both sets, only A, only B", ("both", "only_a", "only_b")),
        ("versions", "hosts speaking v0, v1 or both", ("both", "v0_only", "v1_only")),
    ):
        overlap = kind(name, help_text, _write_overlap, only, row_names=row_names)
        overlap.add_argument("--set-a", required=True)
        overlap.add_argument("--set-b", required=True)
    migration = kind("migration", "v0/v1 support gained or moved", _write_migration, only)
    for flag in ("--prev-v0", "--prev-v1", "--cur-v0", "--cur-v1"):
        migration.add_argument(flag, required=True)
    ingest = kind("ingest", "store scan records as monthly snapshots", _write_ingest)
    ingest.add_argument("--in", dest="infile", required=True)
    ingest.add_argument("--store", required=True)
    ingest.add_argument("--date", required=True, help="month of the scan, YYYY-MM")
    kind("consistent", "hosts positive in every month of the window", _write_window,
         window, select=store_mod.consistent_hosts)
    kind("eligible", "consistent hosts worth path inspection", _write_window,
         window, select=store_mod.eligible_for_path_probe)
    top = kind("top", "rank ASes or countries by hosts", _write_top, only)
    top.add_argument("--in", dest="infile", required=True)
    top.add_argument("--prefixes", required=True)
    top.add_argument("--asn-meta", default=None)
    top.add_argument("--group-by", choices=("asn", "country"), default="asn")
    top.add_argument("-k", type=int, default=10)
    top.add_argument("--pretty", action="store_true", help="aligned columns")

    bench = sub.add_parser(
        "bench", parents=[guarded], help="paired MPTCP vs TCP GET timings"
    )
    bench.add_argument("--targets", required=True)
    bench.add_argument("--sim-topology", default=None)
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--zero-tol", type=float, default=1.0)
    bench.add_argument("--fallback-penalty-ms", type=float, default=250.0)
    bench.add_argument("--out-dir", default="bench-out")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench, dry_run=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GuardViolation, TransportUnavailable) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
