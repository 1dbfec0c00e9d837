"""Acceptance suite: one test per gate criterion, tolerances pinned inline.

Everything runs against the in-process simulator and synthesized captures;
no live network is touched.
"""

import itertools
import random
import time
from fractions import Fraction

from capture_helpers import capture_bytes, handshake_frames, parse_nodes, sim_path
from mptcpkit.cli import main as cli_main
from mptcpkit.errors import OptionError
from mptcpkit.flows import (
    FlowKey,
    concentration,
    ewma,
    ingest_capture,
    mptcp_share,
)
from mptcpkit.keystats import analyze_keys, write_report
from mptcpkit.netsim import SimNetwork, SimPath, ground_truth
from mptcpkit.options import (
    HandshakePhase,
    Key,
    MpCapable,
    decode_mp_capable,
    encode_mp_capable,
    parse_options,
)
from mptcpkit.packet import address_text
from mptcpkit.probe import (
    ClassificationKind,
    ProbeContext,
    build_syn_probe,
    classify_response,
)
from mptcpkit.store import (
    EnrichmentTable,
    migration_report,
    port_overlap,
    top_report,
    version_overlap,
)
from mptcpkit.tracer import PathVerdictKind, inspect_target
from mptcpkit.bench import SimTimingTransport, delta_report, time_get

PROBE_KEY = Key(0x000000000000FFFF)  # weight 16


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_codec_round_trip():
    start = time.monotonic()
    rng = random.Random(20260809)
    legal_forms = [
        (0, HandshakePhase.SYN, True, False),
        (0, HandshakePhase.SYN_ACK, True, False),
        (0, HandshakePhase.ACK, True, True),
        (1, HandshakePhase.SYN, False, False),
        (1, HandshakePhase.SYN_ACK, True, False),
        (1, HandshakePhase.ACK, True, True),
    ]
    for i in range(10_000):
        version, phase, has_sender, has_receiver = legal_forms[i % len(legal_forms)]
        mc = MpCapable(
            version,
            rng.randrange(256),
            Key(rng.getrandbits(64)) if has_sender else None,
            Key(rng.getrandbits(64)) if has_receiver else None,
        )
        encoded = encode_mp_capable(mc, phase)
        parsed = parse_options(encoded)
        assert len(parsed) == 1
        assert decode_mp_capable(parsed[0], phase) == mc

    crashes = 0
    for _ in range(20_000):
        region = rng.randbytes(rng.randrange(41))
        try:
            parse_options(region)
        except OptionError:
            pass  # declared errors are fine; anything else would crash
        except Exception:
            crashes += 1
    assert crashes == 0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"codec round-trip took {elapsed:.1f}s"
    _announce(1, f"10k round-trips + 20k fuzz parses in {elapsed:.2f}s")


def test_criterion_2_simulator_oracle_equivalence():
    start = time.monotonic()
    interior_kinds = parse_nodes("mirror strip key_rewrite drop silent quoting")
    endpoints = parse_nodes("true_host(v0) true_host(v1) true_host(v0,v1) tcp_host")
    cases = 0
    for length in range(0, 5):
        for combo in itertools.product(interior_kinds, repeat=length):
            for endpoint in endpoints:
                path = SimPath(list(combo) + [endpoint])
                for version in (0, 1):
                    cases += 1
                    truth = ground_truth(path, version)
                    net = SimNetwork(seed=42)
                    net.add_path("10.1.2.3", 80, path)
                    key = PROBE_KEY if version == 0 else None
                    ctx = ProbeContext(version, key, seed=7)
                    resp = net.handshake(build_syn_probe(ctx, "10.1.2.3", 80))
                    cls = classify_response(ctx, resp)
                    _trace, verdict = inspect_target(
                        ctx, "10.1.2.3", 80, net, max_ttl=len(path.nodes)
                    )
                    context = ([n.kind.value for n in path.nodes], version)
                    assert cls.kind == truth.classification, context
                    assert verdict.kind == truth.verdict, context
                    assert verdict.first_modifying_ttl == truth.first_modifying_ttl, context
                    # zero-false-negative cross-check
                    if cls.kind is ClassificationKind.MIRRORED_KEY:
                        assert verdict.kind is not PathVerdictKind.TRULY_CAPABLE, context
    elapsed = time.monotonic() - start
    assert cases == 12_440
    assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"
    _announce(2, f"{cases} topology cases match construction labels in {elapsed:.1f}s")


def test_criterion_3_hamming_weight_test():
    passing = 0
    for seed in range(100):
        rng = random.Random(seed)
        keys = [rng.getrandbits(64) for _ in range(100_000)]
        if analyze_keys(keys, PROBE_KEY).p_value > 0.01:
            passing += 1
    assert passing >= 95, f"only {passing}/100 uniform batches fit the binomial"

    rng = random.Random(777)
    mixture = [rng.getrandbits(64) for _ in range(70_000)]
    mixture += [PROBE_KEY.value] * 30_000
    report = analyze_keys(mixture, PROBE_KEY)
    assert report.mirrored_exact_count == 30_000
    assert abs(report.excess_at_probe_weight - 0.30) <= 0.02

    import io

    buf = io.StringIO()
    write_report(report, buf)
    rows = {}
    for line in buf.getvalue().splitlines():
        if line and not line.startswith(("#", "weight")):
            w, observed, expected = line.split(",")
            rows[int(w)] = (int(observed), float(expected))
    spike_obs, spike_exp = rows[16]
    assert spike_obs > 5 * spike_exp  # the mirrored spike dominates its bin
    assert spike_obs > rows[15][0] and spike_obs > rows[17][0]
    _announce(3, f"{passing}/100 uniform seeds fit; mixture spike at weight 16 exported")


def test_criterion_4_traffic_lens_exactness():
    frames = []
    t = 0.0
    # 1000 plain flows, 5 packets each: 3 x 40 B handshake + 2 x 140 B data
    for i in range(1000):
        src = f"10.{(i >> 8) & 255}.{i & 255}.1"
        frames += handshake_frames(src, "10.200.0.1", 10000 + (i % 40000), 80,
                                   extra_data_packets=2, payload_len=100, t0=t)
        t += 1.0
    # one MPTCP v0 flow: 52 B SYN / 52 B SYN-ACK / 40 B ACK + 2 x 140 B data
    frames += handshake_frames("10.201.0.1", "10.200.0.1", 7777, 80,
                               mptcp_version=0, extra_data_packets=2,
                               payload_len=100, t0=t)
    # five short flows (4 packets) that the filter must remove
    short_keys = set()
    for i in range(5):
        src = f"10.202.0.{i + 1}"
        frames += handshake_frames(src, "10.200.0.1", 6000 + i, 80,
                                   extra_data_packets=1, payload_len=100, t0=t + 10)
        short_keys.add(src)

    table = ingest_capture(capture_bytes(frames))
    assert len(table.flows) == 1006
    share = mptcp_share(table.flows, 5)
    removed = [FlowKey(*k) for k, s in table.flows.items() if s.packets < 5]
    # exactly the constructed short flows fall to the filter
    assert {address_text(a) for k in removed for a in (k.src, k.dst)} == (
        short_keys | {"10.200.0.1"}
    )
    assert len(removed) == 5
    assert all(table.flows[k].packets == 4 for k in removed)
    assert share.tcp_flows == len(table.flows) - len(removed) == 1001

    assert share.mptcp_flows == 1 and share.tcp_flows == 1001
    assert [(address_text(FlowKey(*k).dst), n) for k, n in share.mptcp_bytes_by_flow.items()] == [
        ("10.201.0.1", 424)]
    assert share.flow_share == 1 / 1001
    plain_bytes = 3 * 40 + 2 * 140
    mptcp_bytes = 52 + 52 + 40 + 2 * 140
    assert share.mptcp_bytes == mptcp_bytes == 424
    assert share.tcp_bytes == 1000 * plain_bytes + mptcp_bytes == 400_424
    # exact rational from the exact counters; the float is its rounding
    assert Fraction(share.mptcp_bytes, share.tcp_bytes) == Fraction(424, 400_424)
    assert share.byte_share == 424 / 400_424

    # EWMA against the closed-form expansion, alpha = 0.2
    rng = random.Random(5)
    series = [rng.uniform(0, 100) for _ in range(200)]
    alpha = 0.2
    smoothed = ewma(series, alpha)
    for t_idx in range(len(series)):
        closed = (1 - alpha) ** t_idx * series[0] + alpha * sum(
            (1 - alpha) ** (t_idx - k) * series[k] for k in range(1, t_idx + 1)
        )
        assert abs(smoothed[t_idx] - closed) < 1e-9

    conc = concentration([50, 20, 10, 10, 10])
    assert (conc.top1_share, conc.top5_share, conc.top_half_share) == (0.5, 1.0, 0.8)
    assert concentration([10, 10, 10, 10]).top_half_share == 0.5
    _announce(4, "shares exact (1/1001, 424/400424), filter, EWMA, concentration all exact")


# Reference AS population used for the ordering and per-port count checks.
REFERENCE_AS_TABLE = [
    # asn, port80, port443, rank, country, organization
    (9269, 6461, 6370, 364, "HK", "HK Broadband"),
    (6185, 1347, 1344, 13577, "US", "Apple Inc."),
    (61157, 674, 534, 1368, "DE", "Plus Server"),
    (1221, 529, 456, 76, "AU", "Telstra Corp."),
    (18618, 390, 390, 3915, "US", "West Central"),
    (18943, 353, 352, 3533, "US", "Yelcot Tele."),
    (7922, 419, 209, 27, "US", "Comcast"),
    (11976, 232, 231, 2360, "US", "Fidelty Comm."),
    (202870, 404, 2, 16712, "IT", "Dimensione"),
    (15129, 369, 1, 4034, "US", "Geneseo Tele."),
]


def test_criterion_5_campaign_store_replication():
    # ranked AS table reproduction from per-port address populations
    prefix_lines = []
    asn_meta = {}
    records = []
    for i, (asn, n80, n443, rank, country, org) in enumerate(REFERENCE_AS_TABLE):
        prefix = f"10.{i + 1}.0.0/16"
        prefix_lines.append(f"{prefix},{asn}")
        asn_meta[asn] = (org, country, rank)
        for j in range(n80):
            records.append((f"10.{i + 1}.{j // 250}.{j % 250}", 80))
        for j in range(n443):
            records.append((f"10.{i + 1}.{100 + j // 250}.{j % 250}", 443))
    table = EnrichmentTable(prefix_lines, asn_meta)
    rows = top_report(records, table, group_by="asn", k=10)
    assert [r.group for r in rows] == [str(a) for a, *_ in REFERENCE_AS_TABLE]
    assert rows[0].group == "9269"
    assert rows[0].count(80) == 6461
    for row, (asn, n80, n443, rank, country, org) in zip(rows, REFERENCE_AS_TABLE):
        assert row.count(80) == n80 and row.count(443) == n443
        assert row.rank == rank and row.country == country

    # dual-port support shares as exact ratios of the partition counts
    v0_both, v0_only80, v0_only443 = 806, 185, 9
    set80 = {f"h{i}" for i in range(v0_both + v0_only80)}
    set443 = {f"h{i}" for i in range(v0_both)} | {
        f"x{i}" for i in range(v0_only443)
    }
    overlap = port_overlap(set80, set443)
    assert Fraction(len(overlap.both), overlap.union_size) == Fraction(806, 1000)
    assert overlap.fractions()[0] == 806 / 1000 == 0.806

    v1_both, v1_only80, v1_only443 = 669, 107, 224
    set80 = {f"h{i}" for i in range(v1_both + v1_only80)}
    set443 = {f"h{i}" for i in range(v1_both)} | {f"x{i}" for i in range(v1_only443)}
    overlap = port_overlap(set80, set443)
    assert Fraction(len(overlap.both), overlap.union_size) == Fraction(669, 1000)
    assert overlap.fractions()[0] == 669 / 1000 == 0.669

    # version-support partition: printed reference shares round from these
    # exact ratios (the three printed values sum to 99.99% of the union)
    n_v0only, n_v1only, n_both = 8768, 1065, 166
    v0 = {f"a{i}" for i in range(n_v0only)} | {f"b{i}" for i in range(n_both)}
    v1 = {f"c{i}" for i in range(n_v1only)} | {f"b{i}" for i in range(n_both)}
    report = version_overlap(v0, v1)
    union = n_v0only + n_v1only + n_both
    assert report.union_size == union
    assert Fraction(len(report.both), union) == Fraction(n_both, union)
    assert Fraction(len(report.only_a), union) == Fraction(n_v0only, union)
    assert Fraction(len(report.only_b), union) == Fraction(n_v1only, union)
    both_frac, v0_frac, v1_frac = report.fractions()
    assert (both_frac, v0_frac, v1_frac) == (n_both / union, n_v0only / union, n_v1only / union)
    for got, printed in ((v0_frac, 87.68), (v1_frac, 10.65), (both_frac, 1.66)):
        assert abs(got * 100 - printed) <= 0.01

    # small-set properties: exact partition and migration disjointness
    rng = random.Random(12)
    for _ in range(200):
        a = {f"n{rng.randrange(40)}" for _ in range(rng.randrange(25))}
        b = {f"n{rng.randrange(40)}" for _ in range(rng.randrange(25))}
        overlap = port_overlap(a, b)
        assert overlap.union_size == len(a | b)
        assert len(overlap.both) + len(overlap.only_a) == len(a)
        assert len(overlap.both) + len(overlap.only_b) == len(b)
        c = {f"n{rng.randrange(40)}" for _ in range(rng.randrange(25))}
        d = {f"n{rng.randrange(40)}" for _ in range(rng.randrange(25))}
        migration = migration_report((a, b), (c, d))
        groups = [
            migration.added_v1_support, migration.migrated_v0_to_v1,
            migration.added_v0_support, migration.migrated_v1_to_v0,
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (groups[i] & groups[j])
    _announce(5, "AS table order, dual-port and version shares, partition properties")


def test_criterion_5_idempotent_ingestion(tmp_path):
    from mptcpkit.store import HostRecord, ScanSnapshot, SnapshotStore

    store = SnapshotStore(tmp_path)
    snapshot = ScanSnapshot("2021-12", "v4", 80, 0)
    for i in range(50):
        snapshot.add(HostRecord(f"10.0.0.{i}", "potential_capable"))
    store.save(snapshot)
    once = (tmp_path / snapshot.filename()).read_text()
    again = ScanSnapshot("2021-12", "v4", 80, 0)
    for i in range(50):
        again.add(HostRecord(f"10.0.0.{i}", "potential_capable"))
    store.save(again)
    assert (tmp_path / snapshot.filename()).read_text() == once
    _announce(5, "snapshot re-ingestion idempotent")


def test_criterion_6_transfer_bench():
    net = SimNetwork(seed=6)
    net.add_path("10.0.0.1", 80, sim_path("strip tcp_host", 5.0))
    mptcp_t = SimTimingTransport(net, "mptcp", fallback_penalty_ms=250.0, seed=6)
    tcp_t = SimTimingTransport(net, "tcp", seed=6)
    mptcp_samples = time_get("10.0.0.1", 80, mptcp_t, runs=20)
    tcp_samples = time_get("10.0.0.1", 80, tcp_t, runs=20)
    report = delta_report(mptcp_samples, tcp_samples)
    connect_deltas = report.by_metric["connect"]
    assert len(connect_deltas) == 20
    assert all(d > 0 for d in connect_deltas)  # strip path: TCP always faster

    swapped = delta_report(tcp_samples, mptcp_samples)
    for metric in ("connect", "ttfb", "total"):
        assert swapped.by_metric[metric] == [-d for d in report.by_metric[metric]]
    for faster, even, slower in report.fractions.values():
        assert faster + even + slower == 1.0
    _announce(6, "strip path connect-delta > 0 in 20/20 runs; negation exact")


def test_criterion_7_end_to_end_pipeline(tmp_path):
    start = time.monotonic()
    topo = tmp_path / "topo.txt"
    targets = tmp_path / "targets.csv"
    truth = tmp_path / "truth.csv"
    assert cli_main([
        "simulate", "--generate", "500", "--seed", "7",
        "--out-topology", str(topo), "--out-targets", str(targets),
        "--out-truth", str(truth),
    ]) == 0

    scan_a = tmp_path / "scan-a.txt"
    scan_b = tmp_path / "scan-b.txt"
    for out in (scan_a, scan_b):
        assert cli_main([
            "scan", "--targets", str(targets), "--sim-topology", str(topo),
            "--version", "0", "--seed", "7", "--out", str(out),
        ]) == 0
    assert scan_a.read_bytes() == scan_b.read_bytes()  # deterministic under seed

    trace_out = tmp_path / "trace.txt"
    assert cli_main([
        "trace", "--from-scan", str(scan_a), "--sim-topology", str(topo),
        "--version", "0", "--seed", "7", "--out", str(trace_out),
    ]) == 0

    summary = tmp_path / "summary.txt"
    assert cli_main(["report", "summary", "--in", str(trace_out), "--out", str(summary)]) == 0
    counts = dict(
        line.split(",") for line in summary.read_text().splitlines()
    )
    traced_truly = int(counts.get("truly_capable", 0))

    expected_truly = 0
    for line in truth.read_text().splitlines()[1:]:
        address, port, version, _cls, verdict, _ttl = line.split(",")
        if version == "0" and verdict == "truly_capable":
            expected_truly += 1
    assert expected_truly > 0
    assert traced_truly == expected_truly

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
    _announce(
        7,
        f"500-target pipeline: {traced_truly} truly-capable == construction, "
        f"{elapsed:.1f}s, deterministic",
    )
