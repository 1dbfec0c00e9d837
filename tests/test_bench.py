import hashlib
import io
import socket
import sys
import threading
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.bench import (
    METRICS,
    DeltaReport,
    SimTimingTransport,
    SystemTimingTransport,
    TimingSample,
    delta_report,
    merge_reports,
    paired_report,
    time_get,
    write_cdf,
)
from mptcpkit.errors import PairingMismatch
from mptcpkit.netsim import (
    SimNetwork,
    SimPath,
    drop,
    generate_population,
    silent,
    strip,
    tcp_host,
    true_host,
)


def network():
    net = SimNetwork(seed=4)
    # single-node path with 5 ms per hop: one round trip = 10 ms
    net.add_path("10.0.0.1", 80, SimPath([true_host(0)], per_hop_latency_ms=5.0))
    net.add_path("10.0.0.2", 80, SimPath([strip(), tcp_host()], per_hop_latency_ms=5.0))
    net.add_path("10.0.0.3", 80, SimPath([drop(), tcp_host()]))
    net.add_path("10.0.0.4", 443, SimPath([silent(), true_host(0)], per_hop_latency_ms=5.0))
    return net


def sample(connect, ttfb=None, total=None, tls=None, transport="tcp", success=True):
    ttfb = connect + 5 if ttfb is None else ttfb
    total = ttfb + 5 if total is None else total
    return TimingSample(transport, success, connect, tls, ttfb, total)


class TestTimeGet:
    def test_fixed_latency_connect(self):
        transport = SimTimingTransport(network(), "tcp", jitter_ms=0.0)
        samples = time_get("10.0.0.1", 80, transport, runs=10)
        assert len(samples) == 10
        assert all(s.success for s in samples)
        assert all(s.connect_ms == pytest.approx(10.0) for s in samples)
        assert all(s.connect_ms <= s.ttfb_ms <= s.total_ms for s in samples)

    def test_unreachable_all_failures(self):
        transport = SimTimingTransport(network(), "tcp")
        samples = time_get("10.0.0.3", 80, transport, runs=5)
        assert all(not s.success for s in samples)

    def test_tls_present_on_443(self):
        transport = SimTimingTransport(network(), "tcp")
        samples = time_get("10.0.0.4", 443, transport, runs=3)
        assert all(s.tls_handshake_ms is not None for s in samples)
        samples80 = time_get("10.0.0.1", 80, transport, runs=3)
        assert all(s.tls_handshake_ms is None for s in samples80)

    def test_runs_validated(self):
        transport = SimTimingTransport(network(), "tcp")
        with pytest.raises(ValueError):
            time_get("10.0.0.1", 80, transport, runs=0)

    def test_deterministic_per_seed(self):
        t1 = SimTimingTransport(network(), "mptcp", seed=9)
        t2 = SimTimingTransport(network(), "mptcp", seed=9)
        assert time_get("10.0.0.1", 80, t1, runs=5) == time_get("10.0.0.1", 80, t2, runs=5)


class TestDeltaReport:
    def test_identical_samples_zero_deltas(self):
        samples = [sample(10.0) for _ in range(10)]
        report = delta_report(samples, list(samples))
        assert report.by_metric == {"connect": [0.0] * 10, "ttfb": [0.0] * 10,
                                    "total": [0.0] * 10}
        assert report.fractions["connect"] == (0.0, 1.0, 0.0)

    def test_sign_convention(self):
        # mptcp 15 ms vs tcp 10 ms: +5, TCP faster
        report = delta_report([sample(15.0, transport="mptcp")], [sample(10.0)])
        assert report.deltas("connect") == [5.0]

    def test_pairing_mismatch(self):
        with pytest.raises(PairingMismatch):
            delta_report([sample(1.0)], [sample(1.0), sample(2.0)])

    def test_failed_runs_excluded_from_pairs(self):
        mptcp = [sample(10.0, transport="mptcp"), sample(0, success=False)]
        tcp = [sample(10.0), sample(10.0)]
        report = delta_report(mptcp, tcp)
        assert report.paired_runs == 1

    def test_strip_path_positive_connect_delta(self):
        net = network()
        mptcp_t = SimTimingTransport(net, "mptcp", fallback_penalty_ms=250.0)
        tcp_t = SimTimingTransport(net, "tcp")
        mptcp_samples = time_get("10.0.0.2", 80, mptcp_t, runs=10)
        tcp_samples = time_get("10.0.0.2", 80, tcp_t, runs=10)
        report = delta_report(mptcp_samples, tcp_samples)
        deltas = report.deltas("connect")
        assert len(deltas) == 10
        assert all(d > 0 for d in deltas)
        assert report.fractions["connect"][2] == 1.0

    def test_clean_path_roughly_even(self):
        net = network()
        mptcp_t = SimTimingTransport(net, "mptcp")
        tcp_t = SimTimingTransport(net, "tcp")
        report = delta_report(
            time_get("10.0.0.1", 80, mptcp_t, runs=10),
            time_get("10.0.0.1", 80, tcp_t, runs=10),
        )
        # jitter is sub-millisecond: everything within the +-1 ms band
        assert report.fractions["connect"] == (0.0, 1.0, 0.0)

    def test_swapped_inputs_negate_deltas(self):
        net = network()
        mptcp_t = SimTimingTransport(net, "mptcp", fallback_penalty_ms=100.0)
        tcp_t = SimTimingTransport(net, "tcp")
        a = time_get("10.0.0.2", 80, mptcp_t, runs=8)
        b = time_get("10.0.0.2", 80, tcp_t, runs=8)
        fwd = delta_report(a, b)
        rev = delta_report(b, a)
        for metric in ("connect", "ttfb", "total"):
            assert [-d for d in fwd.deltas(metric)] == rev.deltas(metric)

    def test_fractions_sum_to_one(self):
        net = network()
        report = delta_report(
            time_get("10.0.0.2", 80, SimTimingTransport(net, "mptcp"), runs=10),
            time_get("10.0.0.2", 80, SimTimingTransport(net, "tcp"), runs=10),
        )
        for metric, (faster, even, slower) in report.fractions.items():
            assert faster + even + slower == pytest.approx(1.0)

    def test_cdf_monotone(self):
        net = network()
        report = delta_report(
            time_get("10.0.0.1", 80, SimTimingTransport(net, "mptcp"), runs=10),
            time_get("10.0.0.1", 80, SimTimingTransport(net, "tcp"), runs=10),
        )
        out = io.StringIO()
        write_cdf(report, "connect", out)
        rows = [tuple(map(float, row.split(","))) for row in out.getvalue().splitlines()]
        assert len(rows) == 10
        deltas = [d for d, _ in rows]
        fractions = [p for _, p in rows]
        assert deltas == sorted(deltas)
        assert fractions[-1] == pytest.approx(1.0)
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_merge_reports(self):
        r1 = delta_report([sample(10.0, transport="mptcp")], [sample(10.0)])
        r2 = delta_report([sample(20.0, transport="mptcp")], [sample(10.0)])
        merged = merge_reports([r1, r2])
        assert sorted(merged.deltas("connect")) == [0.0, 10.0]
        assert merged.paired_runs == 2

    def test_paired_report_is_merged_per_target_reports(self):
        # one summary over many targets equals merging one report per target
        net = network()
        mptcp = SimTimingTransport(net, "mptcp", seed=3)
        tcp = SimTimingTransport(net, "tcp", seed=3)
        runs = [(time_get(t, port, mptcp, runs=4), time_get(t, port, tcp, runs=4))
                for t, port in sorted(net.paths)]
        want = merge_reports([delta_report(m, c, zero_tolerance_ms=2.0)
                              for m, c in runs], zero_tolerance_ms=2.0)
        assert paired_report(iter(runs), zero_tolerance_ms=2.0) == want
        with pytest.raises(PairingMismatch):
            paired_report([([sample(1.0)], [sample(1.0)]), ([sample(1.0)], [])])

    def test_write_cdf_format(self, tmp_path):
        report = delta_report([sample(12.0, transport="mptcp")], [sample(10.0)])
        out = tmp_path / "connect.cdf.txt"
        with open(out, "w") as f:
            write_cdf(report, "connect", f)
        assert out.read_text() == "2.000000,1.000000\n"

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-9, float("nan")])
    def test_negative_zero_tolerance_rejected(self, tolerance):
        # A negative band would count a delta both faster and slower.
        with pytest.raises(ValueError, match="zero tolerance must be >= 0 ms"):
            delta_report([sample(12.0, transport="mptcp")], [sample(10.0)],
                         zero_tolerance_ms=tolerance)


def test_report_holds_each_delta_once_as_a_float():
    # Samples are built first, so only what the report keeps is measured.
    net = generate_population(500, seed=5)
    mptcp = SimTimingTransport(net, "mptcp", seed=5)
    tcp = SimTimingTransport(net, "tcp", seed=5)
    runs = [(time_get(a, port, mptcp, runs=10), time_get(a, port, tcp, runs=10))
            for a, port in sorted(net.paths)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = paired_report(runs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    count = sum(len(report.deltas(metric)) for metric in METRICS)
    assert count > 10_000
    assert held / count < 64


def reference_cdf(deltas):
    """(delta, cumulative fraction) rows: the deltas sorted, each with (i + 1) / n."""
    ordered = sorted(deltas)
    return [(d, (i + 1) / len(ordered)) for i, d in enumerate(ordered)]


def reference_fractions(deltas, tolerance):
    n = len(deltas)
    faster = sum(1 for d in deltas if d < -tolerance) / n
    slower = sum(1 for d in deltas if d > tolerance) / n
    return (faster, 1.0 - faster - slower, slower)


# Few distinct values, so ties and both zeros are common.
_delta = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-7, -1e-7]),
    st.floats(allow_nan=False, min_value=-1e6, max_value=1e6),
)
# One run's MPTCP values in METRICS order; None leaves the metric unpaired.
_run = st.tuples(*[st.one_of(st.none(), _delta)] * len(METRICS))


@given(
    runs=st.lists(st.lists(_run, max_size=6), max_size=5),
    tolerance=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0, max_value=2)),
)
@settings(max_examples=300)
def test_cdf_rows_and_fractions_match_reference(runs, tolerance):
    # Every TCP value is 0.0, so each delta is the MPTCP value itself (-0.0 included).
    pairs = [
        ([TimingSample("mptcp", True, *values) for values in target],
         [TimingSample("tcp", True, *(None if v is None else 0.0 for v in values))
          for values in target])
        for target in runs
    ]
    report = paired_report(pairs, zero_tolerance_ms=tolerance)
    assert report.paired_runs == sum(map(len, runs))
    for i, metric in enumerate(METRICS):
        deltas = [values[i] for target in runs for values in target if values[i] is not None]
        assert report.deltas(metric) == deltas
        out = io.StringIO()
        write_cdf(report, metric, out)
        assert out.getvalue() == "".join(f"{d:.6f},{p:.6f}\n" for d, p in reference_cdf(deltas))
        if deltas:
            assert report.fractions[metric] == reference_fractions(deltas, tolerance)
        else:
            assert metric not in report.fractions and metric not in report.by_metric


def reference_jitter(seed, transport, target, port, run, metric, jitter_ms):
    """The top 53 bits of a digest of the draw's identity, scaled to [0, jitter_ms)."""
    ident = f"{seed}|{transport}|{target}|{port}|{run}|{metric}"
    digest = hashlib.blake2b(ident.encode(), digest_size=8).digest()
    return jitter_ms * ((int.from_bytes(digest[:7], "big") >> 3) / 2**53)


_draw = st.tuples(
    st.booleans(),  # which of the two transports draws
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.sampled_from(METRICS), st.text(max_size=8).filter(str.isprintable)),
)


@given(
    seeds=st.tuples(st.integers(min_value=-(2**70), max_value=2**70), st.integers()),
    jitter_ms=st.tuples(
        st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6)
    ),
    draws=st.lists(_draw, min_size=1, max_size=12),
)
@settings(max_examples=300)
def test_jitter_matches_top_53_digest_bits(seeds, jitter_ms, draws):
    net = network()
    transports = [
        SimTimingTransport(net, name, jitter_ms=j, seed=s)
        for name, j, s in zip(("mptcp", "tcp"), jitter_ms, seeds)
    ]
    for second, target, port, run, metric in draws:
        t = transports[second]
        expected = reference_jitter(t.seed, t.transport, target, port, run, metric, t.jitter_ms)
        assert t._jitter(target, port, run, metric) == expected


# Above the smallest normal float; at or below it jitter_ms * (1 - 2**-53)
# rounds back up to jitter_ms.
_positive_jitter = st.floats(
    min_value=sys.float_info.min, exclude_min=True, allow_infinity=False
)


@given(
    jitter_ms=_positive_jitter,
    draw=_draw,
    digest=st.one_of(st.none(), st.sampled_from([bytes(8), b"\xff" * 8]),
                     st.binary(min_size=8, max_size=8)),
)
@settings(max_examples=300)
def test_jitter_within_bounds(jitter_ms, draw, digest):
    _second, target, port, run, metric = draw
    t = SimTimingTransport(network(), "tcp", jitter_ms=jitter_ms)
    if digest is None:  # the real digest of the draw
        value = t._jitter(target, port, run, metric)
    else:
        # Each draw hashes a copy of the transport's prefix-fed blake2b.
        fixed = SimpleNamespace(update=lambda data: None, digest=lambda: digest)
        with mock.patch.object(t, "_jitter_hash", SimpleNamespace(copy=lambda: fixed)):
            value = t._jitter(target, port, run, metric)
    assert 0 <= value < jitter_ms


def test_no_jitter_when_disabled():
    assert SimTimingTransport(network(), "tcp", jitter_ms=0.0)._jitter("10.0.0.1", 80, 0, "ttfb") == 0.0


def test_system_fetch_over_ipv6_loopback():
    try:
        server = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
    except OSError:
        pytest.skip("no IPv6 sockets")
    with server:
        try:
            server.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        server.listen(1)
        server.settimeout(5)

        def serve_one_reply():
            conn, _ = server.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(b"HTTP/1.0 200 OK\r\n\r\nok")

        thread = threading.Thread(target=serve_one_reply)
        thread.start()
        sample = SystemTimingTransport("tcp").fetch("::1", server.getsockname()[1])
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert sample.success
    assert sample.connect_ms is not None and sample.total_ms >= sample.ttfb_ms
