import bisect
import collections
import functools
import hashlib
import inspect
import ipaddress
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capture_helpers import parse_nodes, sim_path
from mptcpkit import cli
from mptcpkit.errors import GuardViolation, IllegalCombination, OptionError
from mptcpkit import options, probe, tracer
from mptcpkit.netsim import (
    SimNetwork,
    SimPath,
    generate_population,
    parse_node,
    parse_topology,
    topology_lines,
)
from mptcpkit.inputs import rows
from mptcpkit.options import (
    DEFAULT_MP_FLAGS,
    HandshakePhase,
    Key,
    MpCapable,
    TcpOption,
    decode_mp_capable,
    encode_mp_capable,
    parse_options,
    syn_view,
)
from mptcpkit.packet import (FLAG_ACK, FLAG_RST, FLAG_SYN, FLAG_SYN_ACK, TcpPacket, decode_tcp,
                             encode_packet)
from mptcpkit.probe import (
    Blocklist,
    CampaignGuard,
    CampaignRecord,
    Classification,
    ClassificationKind,
    DEFAULT_PROBE_KEY,
    ProbeContext,
    ProbeResponse,
    RatePacer,
    SLEEP_SLACK_S,
    VirtualClock,
    build_syn_probe,
    classify_response,
    make_response,
    precise_sleep,
    run_campaign,
    target_row,
)
from mptcpkit.tracer import trace_campaign

K = Key(0x00000000000000FF)
K_OTHER = Key(0xDEADBEEF12345678)


def syn_ack(options: list[TcpOption], flags=None) -> ProbeResponse:
    if flags is None:
        flags = FLAG_SYN_ACK
    return ProbeResponse(flags, options, rtt_ms=1.0)


def mp_option(version: int, key: Key | None, phase=HandshakePhase.SYN_ACK) -> TcpOption:
    data = encode_mp_capable(MpCapable(version, sender_key=key), phase)
    return TcpOption(30, data[2:])


class TestProbeSpec:  # the campaign constants a ProbeContext validates and holds
    def test_v0_requires_key(self):
        with pytest.raises(IllegalCombination):
            ProbeContext(0)

    def test_v1_forbids_key(self):
        with pytest.raises(IllegalCombination):
            ProbeContext(1, probe_key=K)

    def test_default_probe_key_weight(self):
        assert DEFAULT_PROBE_KEY.value.bit_count() == 16

    @given(
        specs=st.lists(
            st.one_of(
                st.builds(lambda key: (0, Key(key)), st.integers(0, 2**64 - 1)),
                st.just((1, None)),
            ),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=200)
    def test_syn_option_is_the_encoded_option(self, specs):
        # Several (version, key) pairs in one process, each asked more than once:
        # every context holds the encoding of its own option, and its view.
        for version, key in specs + specs[::-1]:
            want = encode_mp_capable(
                MpCapable(version, DEFAULT_MP_FLAGS, key), HandshakePhase.SYN
            )
            ctx = ProbeContext(version, key)
            assert ctx.option == want
            assert ctx.view == syn_view(want)
            assert build_syn_probe(ctx, "10.0.0.1", 80).options == want


class TestBuildSynProbe:
    def test_v0_probe_carries_key(self):
        pkt = build_syn_probe(ProbeContext(0, K), "10.0.0.1", 80)
        assert pkt.flags & FLAG_SYN
        opts = parse_options(pkt.options)
        assert len(opts) == 1
        mc = decode_mp_capable(opts[0], HandshakePhase.SYN)
        assert mc == MpCapable(0, DEFAULT_MP_FLAGS, K)

    def test_v1_probe_keyless_4_bytes(self):
        pkt = build_syn_probe(ProbeContext(1), "10.0.0.1", 80)
        assert len(pkt.options) == 4
        mc = decode_mp_capable(parse_options(pkt.options)[0], HandshakePhase.SYN)
        assert mc.version == 1 and mc.sender_key is None

    def test_seq_deterministic_per_seed(self):
        def seq(target, seed):
            return build_syn_probe(ProbeContext(1, seed=seed), target, 80).seq

        assert seq("10.0.0.1", 7) == seq("10.0.0.1", 7)
        assert seq("10.0.0.1", 7) != seq("10.0.0.1", 8)
        assert seq("10.0.0.1", 7) != seq("10.0.0.2", 7)

    @given(
        calls=st.lists(st.tuples(st.text(max_size=20), st.integers(0, 65535),
                                 st.integers(0, 2**64 - 1)), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_seq_and_port_are_keyed_blake2b_of_the_flow(self, calls):
        # Seeds interleave, so each probe must hash with its own context's key.
        contexts = {seed: ProbeContext(1, seed=seed) for _target, _port, seed in calls}
        for target, port, seed in calls + calls[::-1]:
            key = seed.to_bytes(8, "big")
            seq = hashlib.blake2b(f"{target},{port}".encode(), key=key, digest_size=4)
            sport = hashlib.blake2b(f"sport:{target},{port}".encode(), key=key, digest_size=2)
            pkt = build_syn_probe(contexts[seed], target, port)
            assert pkt.seq == int.from_bytes(seq.digest(), "big")
            assert pkt.src_port == 32768 + int.from_bytes(sport.digest(), "big") % 28000

    def test_v6_target_gets_v6_source(self):
        pkt = build_syn_probe(ProbeContext(1), "2001:db8::5", 443)
        assert ipaddress.ip_address(pkt.src).version == 6


class TestClassifyResponse:
    def spec_v0(self):
        return ProbeContext(0, K)

    def spec_v1(self):
        return ProbeContext(1)

    def test_no_response(self):
        assert classify_response(self.spec_v0(), None).kind is ClassificationKind.NO_RESPONSE

    def test_rst_is_no_response_with_note(self):
        resp = syn_ack([], flags=FLAG_RST)
        cls = classify_response(self.spec_v0(), resp)
        assert cls.kind is ClassificationKind.NO_RESPONSE
        assert cls.note == "reset"

    def test_only_syn_and_ack_together_make_a_syn_ack(self):
        for flags in range(256):  # the IntFlag reading of each flag byte is the reference
            is_syn_ack = bool(flags & FLAG_SYN) and bool(flags & FLAG_ACK)
            resp = syn_ack([mp_option(0, K_OTHER)], flags=flags)
            cls = classify_response(self.spec_v0(), resp)
            if is_syn_ack:
                assert cls.kind is ClassificationKind.POTENTIAL_CAPABLE, flags
            else:
                assert cls.kind is ClassificationKind.NO_RESPONSE, flags
                assert cls.note == ("reset" if flags & FLAG_RST else "not a SYN-ACK")

    def test_plain_syn_ack_no_mp_capable(self):
        cls = classify_response(self.spec_v0(), syn_ack([TcpOption(2, b"\x05\xb4")]))
        assert cls.kind is ClassificationKind.NO_MP_CAPABLE

    def test_v0_mirrored_key(self):
        cls = classify_response(self.spec_v0(), syn_ack([mp_option(0, K)]))
        assert cls.kind is ClassificationKind.MIRRORED_KEY

    def test_v0_different_key_potential(self):
        cls = classify_response(self.spec_v0(), syn_ack([mp_option(0, K_OTHER)]))
        assert cls.kind is ClassificationKind.POTENTIAL_CAPABLE
        assert cls.sender_key == K_OTHER

    def test_v0_potential_requires_different_key(self):
        # the filter, literally: same key can never be potential
        for key in (K, K_OTHER):
            cls = classify_response(self.spec_v0(), syn_ack([mp_option(0, key)]))
            if cls.kind is ClassificationKind.POTENTIAL_CAPABLE:
                assert cls.sender_key != K

    def test_v1_byte_identical_echo_is_mirrored(self):
        ctx = self.spec_v1()
        echo = TcpOption(30, ctx.option[2:])
        cls = classify_response(ctx, syn_ack([echo]))
        assert cls.kind is ClassificationKind.MIRRORED_KEY

    def test_v1_version_mismatch(self):
        cls = classify_response(self.spec_v1(), syn_ack([mp_option(0, K_OTHER)]))
        assert cls.kind is ClassificationKind.VERSION_MISMATCH
        assert cls.got_version == 0

    def test_v0_version_mismatch(self):
        cls = classify_response(self.spec_v0(), syn_ack([mp_option(1, K_OTHER)]))
        assert cls.kind is ClassificationKind.VERSION_MISMATCH
        assert cls.got_version == 1

    def test_v1_fresh_key_potential(self):
        cls = classify_response(self.spec_v1(), syn_ack([mp_option(1, K_OTHER)]))
        assert cls.kind is ClassificationKind.POTENTIAL_CAPABLE
        assert cls.sender_key == K_OTHER

    def test_undecodable_kind30_folds_to_no_mp_capable(self):
        cls = classify_response(self.spec_v0(), syn_ack([TcpOption(30, b"\x70\x81")]))
        assert cls.kind is ClassificationKind.NO_MP_CAPABLE
        assert cls.note

    @pytest.mark.parametrize("options, note", [
        (b"\x1e\x09\x00\x81", "truncated option kind 30"),
        (b"\x02\x04\x05\xb4\x1e\x0c\x00", "truncated option kind 30"),  # after an MSS
        (b"\x1e\x04\x70\x81\x1e\x09\x00",
         "subtype 7 is not MP_CAPABLE; truncated option kind 30"),
    ])
    def test_the_replys_option_parse_error_is_kept(self, options, note):
        # A live SYN-ACK whose options region ends in a cut MP_CAPABLE: the
        # parse error `make_response` records follows any decode error.
        seg = decode_tcp(encode_packet(TcpPacket("10.0.0.1", "10.0.0.9", 80, 40000, 7, 1,
                                                 flags=FLAG_SYN_ACK,
                                                 options=options)))
        resp = make_response(seg, 1.0)
        cls = classify_response(self.spec_v0(), resp)
        assert cls.kind is ClassificationKind.NO_MP_CAPABLE
        assert cls.note == note

    def test_non_codec_error_propagates(self, monkeypatch):
        # only codec errors fold into no_mp_capable; a fault in the code does not
        def broken(opt, phase):
            raise RuntimeError("decoder fault")

        monkeypatch.setattr("mptcpkit.probe.decode_mp_capable", broken)
        with pytest.raises(RuntimeError, match="decoder fault"):
            classify_response(self.spec_v0(), syn_ack([mp_option(0, K_OTHER)]))
        monkeypatch.setattr("mptcpkit.options.decode_mp_capable", broken)
        syn_view.cache_clear()  # the simulator decodes each SYN once, in `syn_view`
        net = SimNetwork(1)
        net.add_path("10.0.0.1", 80, sim_path("true_host(v0)"))
        with pytest.raises(RuntimeError, match="decoder fault"):
            net.handshake(build_syn_probe(self.spec_v0(), "10.0.0.1", 80))

    @given(
        version=st.sampled_from([0, 1]),
        flags=st.integers(min_value=0, max_value=255),
        payload=st.binary(min_size=0, max_size=20),
        has_resp=st.booleans(),
    )
    @settings(max_examples=200)
    def test_total_function(self, version, flags, payload, has_resp):
        ctx = ProbeContext(version, K if version == 0 else None)
        resp = None
        if has_resp:
            options = [TcpOption(30, payload)] if payload else []
            resp = ProbeResponse(flags, options, 0.0)
        cls = classify_response(ctx, resp)
        assert isinstance(cls, Classification)
        assert isinstance(cls.kind, ClassificationKind)


def virtual_guard(rate: float, blocklist: Blocklist | None = None) -> CampaignGuard:
    """A guard pacing on its own virtual clock, as simulated runs do."""
    clock = VirtualClock()
    return CampaignGuard(
        Blocklist() if blocklist is None else blocklist,
        RatePacer(rate, clock=clock, sleep=clock.sleep),
    )


class TestGuard:
    def test_missing_blocklist_reference_refused(self):
        with pytest.raises(GuardViolation):
            CampaignGuard(None, RatePacer(100.0))

    def test_guard_holds_only_blocklist_and_pacer(self):
        assert CampaignGuard.__slots__ == ("blocklist", "pacer")

    def test_dry_run_without_blocklist_ok(self):
        args = cli.build_parser().parse_args(["scan", "--targets", "t.csv", "--dry-run"])
        guard = cli._guard_from_args(args)
        assert len(guard.blocklist) == 0
        assert isinstance(guard.pacer.clock, VirtualClock)

    def test_nonpositive_rate_refused(self):
        for rate in (0.0, -1.0):
            with pytest.raises(GuardViolation):
                RatePacer(rate)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rate_that_never_waits_refused(self, rate):
        with pytest.raises(GuardViolation):
            RatePacer(rate)

    def test_blocklist_matching(self, tmp_path):
        (tmp_path / "blocklist.txt").write_text("10.0.0.0/8\n# comment\n2001:db8::/32,64500\n")
        bl = Blocklist.load(tmp_path / "blocklist.txt")
        assert bl.matches("10.1.2.3")
        assert bl.matches("2001:db8::1")
        assert not bl.matches("192.168.1.1")
        assert len(bl) == 2


def sim_network_all_true(targets):
    net = SimNetwork(seed=3)
    for address, port in targets:
        net.add_path(address, port, sim_path("true_host(v0,v1)"))
    return net


class TestCampaign:
    def targets(self):
        return [("10.0.0.1", 80), ("10.0.0.2", 80), ("10.9.9.9", 443)]

    def test_blocklisted_target_skipped(self):
        targets = self.targets()
        guard = virtual_guard(1000.0, Blocklist(["10.9.0.0/16"]))
        records = list(
            run_campaign(
                targets, version=0, guard=guard,
                transport=sim_network_all_true(targets),
            )
        )
        assert len(records) == 3
        labels = [r.label for r in records]
        assert labels.count("skipped") == 1
        assert records[2].label == "skipped"
        assert labels.count("potential_capable") == 2

    def test_all_true_hosts_potential(self):
        targets = [(f"10.0.1.{i}", 80) for i in range(1, 21)]
        guard = virtual_guard(100000.0)
        records = list(
            run_campaign(
                targets, version=0, guard=guard,
                transport=sim_network_all_true(targets),
            )
        )
        assert all(r.label == "potential_capable" for r in records)
        assert len(records) == len(targets)

    def test_send_failure_becomes_error_record(self):
        targets = self.targets()
        net = sim_network_all_true(targets)

        class FailingOnOne:
            def handshake(self, syn):
                if syn.dst == "10.0.0.2":
                    raise OSError("sendto: network unreachable")
                return net.handshake(syn)

        records = list(
            run_campaign(
                targets, version=0, guard=virtual_guard(1000.0),
                transport=FailingOnOne(),
            )
        )
        assert [r.label for r in records] == ["potential_capable", "error", "potential_capable"]
        assert records[1].note == "sendto: network unreachable"
        assert records[1].timestamp == pytest.approx(0.002)  # the paced send slot

    def test_rate_limit_duration(self):
        # 100 targets at 10 pps must take at least 10 virtual seconds
        targets = [(f"10.0.2.{i}", 80) for i in range(100)]
        guard = virtual_guard(10.0)
        records = list(
            run_campaign(
                targets, version=0, guard=guard,
                transport=sim_network_all_true(targets),
            )
        )
        assert guard.pacer.clock.now >= 10.0
        assert len(records) == 100

    def test_rate_never_exceeded_in_any_window(self):
        clock = VirtualClock()
        pacer = RatePacer(10.0, clock=clock, sleep=clock.sleep)
        times = [pacer.acquire() for _ in range(50)]
        # epsilon shrinks the window against float representation fuzz
        for start in times:
            in_window = [t for t in times if start <= t < start + 1.0 - 1e-9]
            assert len(in_window) <= 10

    def test_dry_run_emits_probe_descriptions(self):
        targets = self.targets()
        guard = virtual_guard(10.0)
        records = list(
            run_campaign(targets, version=1, guard=guard, transport=None)
        )
        assert [r.label for r in records] == ["dry_run"] * 3
        assert all(r.note for r in records)

    def test_record_csv_round_trip(self):
        rec = CampaignRecord(1.5, "10.0.0.1", 80, 0, "potential_capable", K_OTHER)
        parsed = CampaignRecord.from_csv(rec.to_csv())
        assert parsed == rec

    def test_record_csv_fields(self):
        rec = CampaignRecord(0.25, "10.0.0.1", 443, 1, "mirrored_key")
        assert rec.to_csv() == "0.250000,10.0.0.1,443,1,mirrored_key,"


def test_load_targets():
    lines = ["# comment", "10.0.0.1,80", " 2001:db8::1 , 443 ", ""]
    assert list(rows(lines, target_row)) == [("10.0.0.1", 80), ("2001:db8::1", 443)]


@pytest.mark.parametrize("line, message", [
    ("10.0.0.1", "expected address,port, got '10.0.0.1'"),
    ("10.0.0.1,65536", "port out of range: 65536"),
    ("10.0.0.256,80", "'10.0.0.256' does not appear to be an IPv4 or IPv6 address"),
    ("example.org,443", "'example.org' does not appear to be an IPv4 or IPv6 address"),
])
def test_target_row_refuses_what_no_probe_can_reach(line, message):
    with pytest.raises(ValueError) as raised:
        target_row(line)
    assert str(raised.value) == message


@pytest.mark.parametrize("port", [0, 65535])
def test_target_row_takes_every_tcp_port(port):
    assert target_row(f"10.0.0.1,{port}") == ("10.0.0.1", port)


@pytest.mark.parametrize("port", [-1, 65536])
def test_target_row_refuses_a_port_outside_16_bits(port):
    message = "port must be ASCII digits, got '-1'" if port < 0 else "port out of range: 65536"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        target_row(f"10.0.0.1,{port}")


# -- the one per-target loop of scan and trace ---------------------------------

LOOP_TOPOLOGY = list(topology_lines(generate_population(16, seed=4)))
LOOP_TARGETS = sorted(parse_topology(LOOP_TOPOLOGY).paths)
LOOP_ADDRESSES = sorted({address for address, _port in LOOP_TARGETS})


class CountingPacer(RatePacer):
    waits = 0

    def acquire(self) -> float:
        self.waits += 1
        return super().acquire()


class FailingFor:
    """A fresh simulated network, except that every send to an address in
    `failing` raises OSError. Each send is counted, failed or not, and takes
    half a send interval of `clock`, so a row stamped after its send would
    differ from its send slot."""

    def __init__(self, failing, clock):
        self.net = parse_topology(LOOP_TOPOLOGY, seed=4)
        self.failing = failing
        self.clock = clock
        self.sends = 0

    def _send(self, syn):
        self.sends += 1
        self.clock.sleep(0.0005)
        if syn.dst in self.failing:
            raise OSError(f"sendto {syn.dst}: network unreachable")

    def handshake(self, syn):
        self._send(syn)
        return self.net.handshake(syn)

    def ttl_probe(self, syn, ttl):
        self._send(syn)
        return self.net.ttl_probe(syn, ttl)


def _loop_rows(command, targets, blocked, failing, version):
    """(rows, their labels, pacer waits, sends) of one run."""
    clock = VirtualClock()
    pacer = CountingPacer(1000.0, clock=clock, sleep=clock.sleep)
    guard = CampaignGuard(Blocklist(blocked), pacer)
    transport = FailingFor(failing, clock)
    if command == "scan":
        rows = list(run_campaign(targets, version=version, guard=guard, transport=transport,
                                 seed=4))
        labels = [row.label for row in rows]
    else:
        rows = list(trace_campaign(targets, version=version, guard=guard, transport=transport,
                                   max_ttl=6, seed=4))
        labels = [row.verdict for row in rows]
    return rows, labels, pacer.waits, transport.sends


@given(
    command=st.sampled_from(["scan", "trace"]),
    version=st.sampled_from([0, 1]),
    targets=st.lists(st.sampled_from(LOOP_TARGETS), max_size=24),
    blocked=st.sets(st.sampled_from(LOOP_ADDRESSES)),
    failing=st.sets(st.sampled_from(LOOP_ADDRESSES)),
)
@settings(max_examples=150, deadline=None)
def test_scan_and_trace_share_one_loop(command, version, targets, blocked, failing):
    rows, labels, waits, sends = _loop_rows(command, targets, blocked, failing, version)
    clean = _loop_rows(command, targets, blocked, set(), version)[0]
    assert [(row.address, row.port) for row in rows] == targets
    assert [label == "skipped" for label in labels] == [
        address in blocked for address, _port in targets]
    assert [label == "error" for label in labels] == [
        address in failing - blocked for address, _port in targets]
    for row, label, clean_row in zip(rows, labels, clean):
        if label != "error":
            assert row == clean_row
        elif command == "scan":  # the failed send kept its slot
            assert row.timestamp == clean_row.timestamp
    assert waits == sends  # one pacer wait per packet sent


# -- the campaign's ProbeContext against the documented derivations ------------


def reference_syn(version, key, seed, target, port) -> TcpPacket:
    """The SYN the documented derivations give, built without a context."""
    seed_key = seed.to_bytes(8, "big")
    flow = f"{target},{port}".encode()
    seq = hashlib.blake2b(flow, key=seed_key, digest_size=4).digest()
    sport = hashlib.blake2b(b"sport:" + flow, key=seed_key, digest_size=2).digest()
    v6 = ipaddress.ip_address(target).version == 6
    return TcpPacket("2001:db8:ffff::1" if v6 else "192.0.2.1", target,
                     32768 + int.from_bytes(sport, "big") % 28000, port,
                     int.from_bytes(seq, "big"),
                     options=encode_mp_capable(MpCapable(version, DEFAULT_MP_FLAGS, key),
                                               HandshakePhase.SYN))


def reference_classify(version, key, sent: bytes, resp) -> Classification:
    """The classification that looked up the sent SYN's option per probe."""
    kinds = ClassificationKind
    if resp is None:
        return Classification(kinds.NO_RESPONSE)
    if resp.tcp_flags & FLAG_SYN_ACK != FLAG_SYN_ACK:
        return Classification(kinds.NO_RESPONSE,
                              note="reset" if resp.tcp_flags & FLAG_RST else "not a SYN-ACK")
    kind30 = [o for o in resp.options if o.kind == 30]
    if not kind30:
        return Classification(kinds.NO_MP_CAPABLE)
    if version == 1 and TcpOption(30, sent[2:]) in kind30:
        return Classification(kinds.MIRRORED_KEY)
    decoded, notes = [], []
    for opt in kind30:
        try:
            decoded.append(decode_mp_capable(opt, HandshakePhase.SYN_ACK))
        except OptionError as exc:
            notes.append(str(exc))
    if not decoded:
        return Classification(kinds.NO_MP_CAPABLE, note="; ".join(notes) or None)
    if version == 0 and any(mc.sender_key == key for mc in decoded):
        return Classification(kinds.MIRRORED_KEY, sender_key=key)
    if decoded[0].version != version:
        return Classification(kinds.VERSION_MISMATCH, got_version=decoded[0].version)
    return Classification(kinds.POTENTIAL_CAPABLE, sender_key=decoded[0].sender_key,
                          got_version=decoded[0].version)


_NODES = st.sampled_from(parse_nodes("mirror strip key_rewrite drop silent quoting"))
_ENDPOINTS = st.sampled_from(parse_nodes("true_host(v0) true_host(v1) true_host(v0,v1) tcp_host"))


@given(
    version=st.sampled_from([0, 1]),
    key=st.integers(0, 2**64 - 1).map(Key),
    seed=st.integers(0, 2**64 - 1),
    targets=st.lists(
        st.tuples(st.one_of(st.ip_addresses(v=4), st.ip_addresses(v=6)).map(str),
                  st.integers(0, 65535),
                  st.lists(_NODES, max_size=3), _ENDPOINTS),
        min_size=1, max_size=6),
    replies=st.lists(st.tuples(st.integers(0, 255), st.binary(max_size=20)), max_size=4),
)
@example(version=1, key=Key(1), seed=0,
         targets=[("10.0.0.1", 80, parse_nodes("mirror"), parse_node("true_host(v1)"))],
         replies=[])
@example(version=0, key=DEFAULT_PROBE_KEY, seed=0,
         targets=[("2001:db8::1", 443, parse_nodes("mirror"), parse_node("true_host(v0)"))],
         replies=[])
@settings(max_examples=200, deadline=None)
def test_context_probes_match_the_documented_derivations(version, key, seed, targets, replies):
    key = key if version == 0 else None
    ctx = ProbeContext(version, key, seed)
    sent = ctx.option
    net = SimNetwork(seed)
    for target, port, interior, endpoint in targets:
        net.add_path(target, port, SimPath([*interior, endpoint]))
    for target, port, _interior, _endpoint in targets:
        syn = build_syn_probe(ctx, target, port)
        want = reference_syn(version, key, seed, target, port)
        assert syn == want
        assert encode_packet(syn) == encode_packet(want)
        answers = [net.handshake(syn), net.ttl_probe(syn, 64),
                   *(ProbeResponse(flags, [TcpOption(30, data)], 1.0) for flags, data in replies),
                   ProbeResponse(FLAG_SYN_ACK, [TcpOption(30, sent[2:])], 1.0)]  # an echo
        for resp in answers:
            assert classify_response(ctx, resp) == reference_classify(version, key, sent, resp)


def test_campaign_constants_are_built_once_per_campaign(monkeypatch):
    # A 300-target scan and trace of each version: the keyed hashers are built
    # and the SYN's view looked up a constant number of times, not per target.
    # (The simulator reads each SYN it is sent in its own module; that is the
    # network's work, not the prober's.)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(probe, "blake2b", counted("blake2b", probe.blake2b))
    for module in (probe, tracer):
        monkeypatch.setattr(module, "syn_view",
                            counted("syn_view", getattr(module, "syn_view", options.syn_view)),
                            raising=False)
    options.syn_view.cache_clear()
    net = generate_population(300, seed=6)
    campaigns = 0
    for version in (0, 1):
        targets = sorted(net.paths)
        scan = list(run_campaign(targets, version=version, guard=virtual_guard(1e6),
                                 transport=net, seed=6))
        trace = list(trace_campaign(targets, version=version, guard=virtual_guard(1e6),
                                    transport=net, max_ttl=8, seed=6))
        campaigns += 2
        assert len(scan) == len(trace) == 300
        assert {r.label for r in scan} >= {"potential_capable", "no_mp_capable"}
    assert calls["blake2b"] <= 2 * campaigns  # a sequence-number and a source-port hasher
    assert calls["syn_view"] <= campaigns


# -- pacing against a real clock ------------------------------------------------


class OversleepingClock:
    """A stand-in for the monotonic clock and `time.sleep` of a real machine:
    every read of the clock takes `read_s`, and every sleep lasts
    `overshoot_s` longer than asked, as short sleeps do."""

    def __init__(self, read_s: float = 1e-6, overshoot_s: float = 60e-6):
        self.now = 0.0
        self.read_s = read_s
        self.overshoot_s = overshoot_s
        self.sleeps = 0

    def __call__(self) -> float:
        self.now += self.read_s
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps += 1
        self.now += seconds + self.overshoot_s


def _paced_sends(rate: float, sleep, clock: OversleepingClock, seconds: float = 1.5):
    """(slots, sends): the slot `acquire` gives each send and when the send
    leaves, for a pacer at `rate` that waits with `sleep` on `clock`; each
    send then takes 40 µs of work, about what a live probe costs on loopback."""
    pacer = RatePacer(rate, clock=clock, sleep=sleep)
    slots, sends = [], []
    for _ in range(int(rate * seconds)):
        slots.append(pacer.acquire())
        sends.append(clock())
        clock.now += 40e-6
    return slots, sends


def _achieved(sends: list[float]) -> float:
    return (len(sends) - 1) / (sends[-1] - sends[0])


def test_pacer_waits_with_the_precise_sleep_by_default():
    assert inspect.signature(RatePacer).parameters["sleep"].default is precise_sleep


@pytest.mark.parametrize("rate", [500.0, 1000.0, 4000.0, 8000.0, 12000.0, 17000.0])
def test_precise_sleep_holds_the_rate_against_oversleeping(rate):
    clock = OversleepingClock()
    sleep = functools.partial(precise_sleep, clock=clock, sleep=clock.sleep)
    slots, sends = _paced_sends(rate, sleep, clock)
    assert _achieved(sends) >= 0.9 * rate
    # No 1 s window holds more slots than the rate allows, and each send
    # leaves at its slot, never before, late by no more than a few clock reads.
    for i, start in enumerate(slots):
        assert bisect.bisect_left(slots, start + 1.0 - 1e-9) - i <= rate
    assert all(0 <= send - slot <= 3 * clock.read_s for slot, send in zip(slots, sends))
    # The clock's sleep, used alone, loses a send slot to each overshoot once
    # the work and the overshoot outlast the interval.
    if rate >= 12000:
        alone = OversleepingClock()
        assert _achieved(_paced_sends(rate, alone.sleep, alone)[1]) < 0.9 * rate


def test_precise_sleep_sleeps_all_but_the_slack():
    clock = OversleepingClock(overshoot_s=SLEEP_SLACK_S / 2)
    precise_sleep(0.01, clock=clock, sleep=clock.sleep)
    assert clock.sleeps == 1
    assert 0.01 <= clock.now <= 0.01 + 3 * clock.read_s
    short = OversleepingClock()
    precise_sleep(SLEEP_SLACK_S / 2, clock=short, sleep=short.sleep)
    assert short.sleeps == 0  # a wait inside the slack is all polling
    assert SLEEP_SLACK_S / 2 <= short.now <= SLEEP_SLACK_S / 2 + 3 * short.read_s
