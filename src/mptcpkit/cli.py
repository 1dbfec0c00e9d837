"""Command-line entry point: one subcommand per toolkit component.

Every usage rule (required options, one input source of two, the options
each `report` kind reads, the range of each numeric option) lives in the
argparse declaration of `build_parser`, so each usage error exits 2 through
argparse, before any file is touched.

Exit codes: 0 success, 1 operational error (including refusal to scan live
without guardrails), 2 usage error. All randomness flows from --seed, so any
seeded invocation is bit-reproducible.

Loading rule: this module imports the other modules of the package, not
their names, and calls through them (`probe.run_campaign`), so each command
runs only the modules it calls, at their first use (see the package
docstring). Only `errors` is imported by name: it is small and every command
uses it. Building the parser runs `options` and no other module: a bound
owned by another module (`tracer.MAX_TTL`) is read only when its option is
given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import bench as bench_mod
from . import flows as flows_mod
from . import inputs, keystats, live, netsim, options, packet, probe, store as store_mod, tracer
from .errors import EmptyInput, GuardViolation, TransportUnavailable


def _targets_from_scan(path: str, labels: set[str]) -> list[tuple[str, int]]:
    """Distinct (address, port) of rows with a wanted label, first-seen order."""
    records = inputs.read_rows(path, probe.CampaignRecord.parse)
    return list(dict.fromkeys((r.address, r.port) for r in records if r.label in labels))


def _host_row(line: str) -> tuple[str, int | None, str | None]:
    """(address, port, label) of one report host row, parsed by its schema."""
    fields = line.count(",") + 1
    if line.startswith("{") or fields == 6:
        record = probe.CampaignRecord.parse(line)
        return record.address, record.port, record.label
    if fields == 5:
        trace = tracer.TraceRecord.from_csv(line)
        return trace.address, trace.port, trace.verdict
    if fields == 2:
        return *probe.target_row(line), None
    if fields == 1:
        packet.pack_address(line)  # raises for what is not an address
        return line, None, None
    raise ValueError(f"expected address[,port], a trace row or a scan row, got {line!r}")


def _read_hosts(path: str, only: str | None,
                need_port: bool = False) -> Iterator[tuple[str, int | None]]:
    """(address, port) of each host row, or under `--only`, of each labelled
    row with that label. A row without a label under `--only`, or without a
    port under `need_port` (`report top`), is refused."""

    def parse(line: str) -> tuple[str, int | None, str | None]:
        row = _host_row(line)
        if only is not None and row[2] is None:
            raise ValueError(f"--only needs scan or trace rows, got {line!r}")
        if need_port and row[1] is None:
            raise ValueError(f"report top needs a port on every row, got {line!r}")
        return row

    rows = inputs.read_rows(path, parse)
    return ((address, port) for address, port, label in rows if only in (None, label))


def _read_address_set(path: str, only: str | None) -> set[str]:
    return {address for address, _port in _read_hosts(path, only)}


def _resolve_transport(args):
    """The simulated network of --sim-topology, else a live raw-socket transport."""
    if args.sim_topology:
        return netsim.load_topology(args.sim_topology, seed=args.seed)
    return live.LiveTransport(timeout_ms=args.timeout_ms)


def _guard_from_args(args) -> probe.CampaignGuard:
    """The blocklist and pacer a sending command applies, built before any
    target is read or transport opened, so every refusal comes first.

    A live run needs --blocklist and --rate and paces in wall time. A
    simulated or dry run paces on a virtual clock, at 1e6 per second unless
    --rate says otherwise, and without --blocklist blocks nothing.
    """
    if args.sim_topology or args.dry_run:
        clock = probe.VirtualClock()
        rate = 1_000_000.0 if args.rate is None else args.rate
        pacer = probe.RatePacer(rate, clock=clock, sleep=clock.sleep)
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
        pacer = probe.RatePacer(args.rate)
    blocklist = probe.Blocklist.load(args.blocklist) if args.blocklist else probe.Blocklist()
    return probe.CampaignGuard(blocklist, pacer)


def _write_rows(path: str | None, rows: Iterable, line: Callable[..., str], transport) -> int:
    """Write `line(row)` for each of `rows` to --out `path`, and close a live
    transport's sockets however the run ends (a simulated network holds none)."""
    try:
        with inputs.open_out(path) as f:
            f.writelines(f"{line(row)}\n" for row in rows)
    finally:
        close = getattr(transport, "close", None)
        if close is not None:
            close()
    return 0


def cmd_scan(args) -> int:
    guard = _guard_from_args(args)
    transport = None if args.dry_run else _resolve_transport(args)
    targets = inputs.read_rows(args.targets, probe.target_row)
    records = probe.run_campaign(targets, version=args.version, guard=guard, transport=transport,
                                 probe_key=args.probe_key, seed=args.seed)
    line = probe.CampaignRecord.to_json if args.format == "jsonl" else probe.CampaignRecord.to_csv
    return _write_rows(args.out, records, line, transport)


def cmd_trace(args) -> int:
    guard = _guard_from_args(args)
    targets = (inputs.read_rows(args.targets, probe.target_row) if args.from_scan is None
               else _targets_from_scan(args.from_scan, store_mod.POSITIVE_LABELS))
    transport = _resolve_transport(args)
    rows = tracer.trace_campaign(targets, version=args.version, guard=guard, transport=transport,
                                 max_ttl=args.max_ttl, probe_key=args.probe_key, seed=args.seed)
    return _write_rows(args.out, rows, tracer.TraceRecord.to_csv, transport)


def cmd_keys(args) -> int:
    try:  # the keys are read as they are counted, and none is held
        if args.from_scan is not None:
            records = inputs.read_rows(args.from_scan, probe.CampaignRecord.parse)
            keys = (r.sender_key for r in records if r.sender_key is not None)
        else:
            keys = inputs.read_rows(args.infile, options.Key.from_hex)
        report = keystats.analyze_keys(keys, args.probe_key)
    except EmptyInput:
        print("no keys found in input", file=sys.stderr)
        return 1
    with inputs.open_out(args.out) as f:
        keystats.write_report(report, f)
    return 0


def cmd_simulate(args) -> int:
    network = netsim.generate_population(args.generate, seed=args.seed)
    paths = network.paths
    targets = sorted(paths)
    # All three files are replaced together, or none is: a bad --out-truth
    # leaves the topology and targets of an earlier run in place.
    truth_out = inputs.open_out(args.out_truth) if args.out_truth else contextlib.nullcontext()
    with (inputs.open_out(args.out_topology) as topology_file,
          inputs.open_out(args.out_targets) as targets_file, truth_out as truth_file):
        topology_file.writelines(netsim.topology_lines(network))
        targets_file.writelines(f"{address},{port}\n" for address, port in targets)
        if truth_file is None:
            return 0
        # Truth depends only on the path, and targets share paths; `network`
        # keeps every path alive, so ids stay unique.
        tails: dict[int, list[str]] = {}
        truth_file.write("address,port,version,classification,verdict,first_modifying_ttl\n")
        for address, port in targets:
            path = paths[address, port]
            tail = tails.get(id(path))
            if tail is None:
                tail = tails[id(path)] = []
                for version in (0, 1):
                    truth = netsim.ground_truth(path, version)
                    ttl = truth.first_modifying_ttl
                    tail.append(f"{version},{truth.classification.value},"
                                f"{truth.verdict.value},{'' if ttl is None else ttl}\n")
            truth_file.write(f"{address},{port},{tail[0]}{address},{port},{tail[1]}")
    return 0


def cmd_analyze_pcap(args) -> int:
    tables = None
    if args.services or args.extra_services:
        tables = flows_mod.ServiceTables.load(args.services, args.extra_services)
    counts = []  # (capture, TCP flows, MPTCP flows) for the EWMA rows
    with inputs.open_out(args.out) as f:
        for capture in args.infile:
            table = flows_mod.ingest_capture(
                capture, bidirectional=not args.unidirectional
            )
            share = _capture_rows(f, capture, table.flows, args.min_packets, tables)
            counts.append((capture, share.tcp_flows, share.mptcp_flows))
        if args.ewma and len(counts) > 1:
            tcp_series = flows_mod.ewma([n for _, n, _ in counts], args.ewma_alpha)
            mptcp_series = flows_mod.ewma([n for _, _, n in counts], args.ewma_alpha)
            for (capture, _, _), tcp_s, mptcp_s in zip(counts, tcp_series, mptcp_series):
                f.write(f"ewma,{capture},{tcp_s:.6f},{mptcp_s:.6f}\n")
    return 0


def _capture_rows(f, capture: str, flows, min_packets: int, tables):
    """Write one capture's share, concentration and service rows, all from
    one pass over its flows (`mptcp_share`); returns the share."""
    share = flows_mod.mptcp_share(flows, min_packets)
    flow_share = "" if share.flow_share is None else f"{share.flow_share:.9f}"
    byte_share = "" if share.byte_share is None else f"{share.byte_share:.9f}"
    f.write(
        f"share,{capture},{share.tcp_flows},{share.tcp_bytes},"
        f"{share.mptcp_flows},{share.mptcp_bytes},{flow_share},{byte_share}\n"
    )
    mptcp = share.mptcp_bytes_by_flow
    if mptcp:
        conc = flows_mod.concentration(mptcp.values())
        f.write(
            f"concentration,{capture},{conc.top1_share:.6f},"
            f"{conc.top5_share:.6f},{conc.top_half_share:.6f}\n"
        )
    if tables is not None:
        by_service: dict[str, tuple[int, int]] = {}
        for key, n_bytes in mptcp.items():
            label = flows_mod.map_service(flows_mod.FlowKey(*key), tables)
            flows_count, byte_count = by_service.get(label, (0, 0))
            by_service[label] = (flows_count + 1, byte_count + n_bytes)
        for label in sorted(by_service):
            n, b = by_service[label]
            f.write(f"service,{capture},{label},{n},{b}\n")
    return share


def cmd_report(args) -> int:
    """Every `report` kind: the writer its subparser named, looked up at each
    call as `main` looks up commands, into --out."""
    with inputs.open_out(args.out) as f:
        globals()[f"_write_{args.write}"](args, f)
    return 0


def _write_summary(args, f) -> None:
    counts = Counter(r.verdict for r in inputs.read_rows(args.infile, tracer.TraceRecord.from_csv))
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
    for record in inputs.read_rows(args.infile, probe.CampaignRecord.parse):
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
    select = getattr(store_mod, args.select)  # looked up at each call, like the writer
    hosts = select(series, window_months=args.window, at_date=args.at)
    for address in sorted(hosts):
        f.write(f"{address},{args.port}\n")


def _write_top(args, f) -> None:
    table = store_mod.EnrichmentTable.load(args.prefixes, args.asn_meta)
    entries = _read_hosts(args.infile, args.only, need_port=True)
    rows = store_mod.top_report(entries, table, group_by=args.group_by, k=args.k)
    cells = [(row.group, str(row.count(80)), str(row.count(443)),
              "" if row.rank is None else str(row.rank), row.country, row.organization)
             for row in rows]
    if not args.pretty:
        f.write("group,port80,port443,rank,country,organization\n")
        f.writelines(",".join(r) + "\n" for r in cells)
        return
    cells.insert(0, ("GROUP", "PORT80", "PORT443", "RANK", "CC", "ORGANIZATION"))
    widths = [max(map(len, column)) for column in zip(*cells)]
    for r in cells:
        f.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def cmd_bench(args) -> int:
    guard = _guard_from_args(args)
    targets = ((a, p) for a, p in inputs.read_rows(args.targets, probe.target_row)
               if not guard.blocklist.matches(a))
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
    mptcp_t = probe.PacedTransport(mptcp_t, guard.pacer)
    tcp_t = probe.PacedTransport(tcp_t, guard.pacer)

    def runs():  # one target at a time, so samples are freed once paired
        for address, port in targets:
            tcp_samples = bench_mod.time_get(address, port, tcp_t, runs=args.runs)
            mptcp_samples = bench_mod.time_get(address, port, mptcp_t, runs=args.runs)
            yield mptcp_samples, tcp_samples

    combined = bench_mod.paired_report(runs(), zero_tolerance_ms=args.zero_tol)
    out_dir = Path(args.out_dir)  # made once every target is read and paired
    out_dir.mkdir(parents=True, exist_ok=True)
    # The CDFs and the summary are replaced together, or none is, as in `simulate`.
    with contextlib.ExitStack() as files:
        for metric in combined.by_metric:
            f = files.enter_context(inputs.open_out(out_dir / f"{metric}.cdf.txt"))
            bench_mod.write_cdf(combined, metric, f)
        f = files.enter_context(inputs.open_out(out_dir / "summary.txt"))
        for metric, (faster, even, slower) in sorted(combined.fractions.items()):
            f.write(f"{metric},{faster:.6f},{even:.6f},{slower:.6f}\n")
    for metric in bench_mod.METRICS:
        if metric not in combined.by_metric:  # no deltas: no CDF, not an earlier run's
            (out_dir / f"{metric}.cdf.txt").unlink(missing_ok=True)
    return 0


def _seed(text: str) -> int:
    """The `--seed` type: probes take it as an 8-byte blake2b key, so it must
    fit in 64 unsigned bits."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _ranged(kind, low, high=None, above=False):
    """An argparse type: `kind(text)` at least `low` (above it if `above`)
    and at most `high`, so an out-of-range value is a usage error. A `high`
    owned by another module is a function of no arguments, called only when
    a value is given, so building the parser runs no such module."""

    def parse(text: str):
        value = kind(text)  # a ValueError reads "invalid <kind> value"
        top = high() if callable(high) else high
        if not ((value > low if above else value >= low) and (top is None or value <= top)):
            bound = f"{'>' if above else '>='} {low}" + ("" if top is None else f" and <= {top}")
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


@functools.cache  # one parser per process, built at the first call
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
    probing.add_argument("--probe-key", type=options.Key.from_hex, default=None,
                         help="hex v0 probe key")
    probing.add_argument("--sim-topology", default=None)
    probing.add_argument("--timeout-ms", type=_ranged(float, 0, 2**31 - 1, above=True),
                         default=2000.0)  # at most what `poll` takes, in ms
    probing.add_argument("--seed", type=_seed, default=0)

    scan = sub.add_parser(
        "scan", parents=[probing, guarded, out], help="probe targets for MP_CAPABLE support"
    )
    scan.add_argument("--targets", required=True)
    scan.add_argument("--dry-run", action="store_true")
    scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    trace = sub.add_parser(
        "trace", parents=[probing, guarded, out], help="TTL-step targets and judge the path"
    )
    source = trace.add_mutually_exclusive_group(required=True)
    source.add_argument("--targets", default=None)
    source.add_argument("--from-scan", default=None, help="take potential targets from scan records")
    trace.add_argument("--max-ttl", type=_ranged(int, 1, lambda: tracer.MAX_TTL), default=30)
    trace.set_defaults(dry_run=False)

    keys = sub.add_parser("keys", parents=[out], help="Hamming-weight report over observed keys")
    source = keys.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", default=None, help="one hex key per line")
    source.add_argument("--from-scan", default=None)
    keys.add_argument("--probe-key", type=options.Key.from_hex,
                      default=options.DEFAULT_PROBE_KEY)

    simulate = sub.add_parser("simulate", help="generate a simulated topology")
    simulate.add_argument("--generate", required=True, metavar="N",
                          type=_ranged(int, 0, lambda: netsim.MAX_GENERATED_TARGETS))
    simulate.add_argument("--out-topology", required=True)
    simulate.add_argument("--out-targets", required=True)
    simulate.add_argument("--out-truth", default=None)
    simulate.add_argument("--seed", type=_seed, required=True)

    pcap = sub.add_parser("analyze-pcap", parents=[out], help="flow and MPTCP share statistics")
    pcap.add_argument("--in", dest="infile", action="append", required=True)
    pcap.add_argument("--min-packets", type=_ranged(int, 0), default=5)
    pcap.add_argument("--services", default=None)
    pcap.add_argument("--extra-services", default=None)
    pcap.add_argument("--unidirectional", action="store_true")
    pcap.add_argument("--ewma", action="store_true")
    pcap.add_argument("--ewma-alpha", type=_ranged(float, 0, 1, above=True), default=0.2)

    report = sub.add_parser("report", help="longitudinal and enrichment reports")
    kinds = report.add_subparsers(dest="kind", required=True)

    only = argparse.ArgumentParser(add_help=False)
    only.add_argument("--only", default=None, help="filter records by label")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--store", required=True)
    window.add_argument("--at", required=True, help="last month of the window, YYYY-MM")
    window.add_argument("--window", type=_ranged(int, 1), default=3)
    window.add_argument("--family", choices=("v4", "v6"), default="v4")
    window.add_argument("--port", type=_ranged(int, 0, 65535), default=80)
    window.add_argument("--version", type=int, choices=(0, 1), default=0)

    def kind(name: str, help_text: str, write: str, *parents, **defaults):
        """A `report` kind whose `cmd_report` runs `_write_<write>`, with --out
        and `parents`."""
        p = kinds.add_parser(name, parents=[*parents, out], help=help_text)
        p.set_defaults(write=write, **defaults)
        return p

    summary = kind("summary", "count trace verdicts", "summary")
    summary.add_argument("--in", dest="infile", required=True)
    for name, help_text, row_names in (
        ("overlap", "hosts in both sets, only A, only B", ("both", "only_a", "only_b")),
        ("versions", "hosts speaking v0, v1 or both", ("both", "v0_only", "v1_only")),
    ):
        overlap = kind(name, help_text, "overlap", only, row_names=row_names)
        overlap.add_argument("--set-a", required=True)
        overlap.add_argument("--set-b", required=True)
    migration = kind("migration", "v0/v1 support gained or moved", "migration", only)
    for flag in ("--prev-v0", "--prev-v1", "--cur-v0", "--cur-v1"):
        migration.add_argument(flag, required=True)
    ingest = kind("ingest", "store scan records as monthly snapshots", "ingest")
    ingest.add_argument("--in", dest="infile", required=True)
    ingest.add_argument("--store", required=True)
    ingest.add_argument("--date", required=True, help="month of the scan, YYYY-MM")
    kind("consistent", "hosts positive in every month of the window", "window",
         window, select="consistent_hosts")
    kind("eligible", "consistent hosts worth path inspection", "window",
         window, select="eligible_for_path_probe")
    top = kind("top", "rank ASes or countries by hosts", "top", only)
    top.add_argument("--in", dest="infile", required=True)
    top.add_argument("--prefixes", required=True)
    top.add_argument("--asn-meta", default=None)
    top.add_argument("--group-by", choices=("asn", "country"), default="asn")
    top.add_argument("-k", type=_ranged(int, 1), default=10)
    top.add_argument("--pretty", action="store_true", help="aligned columns")

    bench = sub.add_parser(
        "bench", parents=[guarded], help="paired MPTCP vs TCP GET timings"
    )
    bench.add_argument("--targets", required=True)
    bench.add_argument("--sim-topology", default=None)
    bench.add_argument("--runs", type=_ranged(int, 1), default=10)
    bench.add_argument("--zero-tol", type=_ranged(float, 0), default=1.0)
    bench.add_argument("--fallback-penalty-ms", type=_ranged(float, 0), default=250.0)
    bench.add_argument("--out-dir", default="bench-out")
    bench.add_argument("--seed", type=_seed, default=0)
    bench.set_defaults(dry_run=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the command is looked up at each call, so a wrapper or patch set later runs
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (GuardViolation, TransportUnavailable) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
