import dataclasses
import hashlib
import ipaddress
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit import cli
from mptcpkit.errors import GuardViolation, IllegalCombination
from mptcpkit.netsim import SimNetwork, SimPath, true_host
from mptcpkit.options import (
    DEFAULT_MP_FLAGS,
    HandshakePhase,
    Key,
    MpCapable,
    TcpOption,
    decode_mp_capable,
    encode_mp_capable,
    parse_options,
)
from mptcpkit.packet import TcpFlags
from mptcpkit.probe import (
    Blocklist,
    CampaignGuard,
    CampaignRecord,
    Classification,
    ClassificationKind,
    DEFAULT_PROBE_KEY,
    ProbeResponse,
    ProbeSpec,
    RatePacer,
    VirtualClock,
    build_syn_probe,
    classify_response,
    derive_seq,
    derive_src_port,
    load_targets,
    run_campaign,
)

K = Key(0x00000000000000FF)
K_OTHER = Key(0xDEADBEEF12345678)


def syn_ack(options: list[TcpOption], flags=None) -> ProbeResponse:
    if flags is None:
        flags = int(TcpFlags.SYN | TcpFlags.ACK)
    return ProbeResponse(flags, options, rtt_ms=1.0)


def mp_option(version: int, key: Key | None, phase=HandshakePhase.SYN_ACK) -> TcpOption:
    data = encode_mp_capable(MpCapable(version, sender_key=key), phase)
    return TcpOption(30, data[2:])


class TestProbeSpec:
    def test_v0_requires_key(self):
        with pytest.raises(IllegalCombination):
            ProbeSpec("10.0.0.1", 80, 0)

    def test_v1_forbids_key(self):
        with pytest.raises(IllegalCombination):
            ProbeSpec("10.0.0.1", 80, 1, probe_key=K)

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
        # every answer is the encoding of that spec's own option.
        for version, key in specs + specs[::-1]:
            want = encode_mp_capable(
                MpCapable(version, DEFAULT_MP_FLAGS, key), HandshakePhase.SYN
            )
            assert ProbeSpec("10.0.0.1", 80, version, key).syn_option() == want


class TestBuildSynProbe:
    def test_v0_probe_carries_key(self):
        spec = ProbeSpec("10.0.0.1", 80, 0, K)
        pkt = build_syn_probe(spec)
        assert pkt.flags & TcpFlags.SYN
        opts = parse_options(pkt.options)
        assert len(opts) == 1
        mc = decode_mp_capable(opts[0], HandshakePhase.SYN)
        assert mc == MpCapable(0, DEFAULT_MP_FLAGS, K)

    def test_v1_probe_keyless_4_bytes(self):
        pkt = build_syn_probe(ProbeSpec("10.0.0.1", 80, 1))
        assert len(pkt.options) == 4
        mc = decode_mp_capable(parse_options(pkt.options)[0], HandshakePhase.SYN)
        assert mc.version == 1 and mc.sender_key is None

    def test_seq_deterministic_per_seed(self):
        assert derive_seq("10.0.0.1", 80, 7) == derive_seq("10.0.0.1", 80, 7)
        assert derive_seq("10.0.0.1", 80, 7) != derive_seq("10.0.0.1", 80, 8)
        assert derive_seq("10.0.0.1", 80, 7) != derive_seq("10.0.0.2", 80, 7)

    @given(
        calls=st.lists(st.tuples(st.text(max_size=20), st.integers(0, 65535),
                                 st.integers(0, 2**64 - 1)), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_seq_and_port_are_keyed_blake2b_of_the_flow(self, calls):
        # Seeds interleave, so each call must hash with its own seed's key.
        for target, port, seed in calls + calls[::-1]:
            key = seed.to_bytes(8, "big")
            seq = hashlib.blake2b(f"{target},{port}".encode(), key=key, digest_size=4)
            sport = hashlib.blake2b(f"sport:{target},{port}".encode(), key=key, digest_size=2)
            assert derive_seq(target, port, seed) == int.from_bytes(seq.digest(), "big")
            assert derive_src_port(target, port, seed) == (
                32768 + int.from_bytes(sport.digest(), "big") % 28000)

    def test_v6_target_gets_v6_source(self):
        pkt = build_syn_probe(ProbeSpec("2001:db8::5", 443, 1))
        assert ipaddress.ip_address(pkt.src).version == 6


class TestClassifyResponse:
    def spec_v0(self):
        return ProbeSpec("10.0.0.1", 80, 0, K)

    def spec_v1(self):
        return ProbeSpec("10.0.0.1", 80, 1)

    def test_no_response(self):
        assert classify_response(self.spec_v0(), None).kind is ClassificationKind.NO_RESPONSE

    def test_rst_is_no_response_with_note(self):
        resp = syn_ack([], flags=int(TcpFlags.RST))
        cls = classify_response(self.spec_v0(), resp)
        assert cls.kind is ClassificationKind.NO_RESPONSE
        assert cls.note == "reset"

    def test_only_syn_and_ack_together_make_a_syn_ack(self):
        for flags in range(256):  # the IntFlag reading of each flag byte is the reference
            is_syn_ack = bool(flags & TcpFlags.SYN) and bool(flags & TcpFlags.ACK)
            resp = syn_ack([mp_option(0, K_OTHER)], flags=flags)
            cls = classify_response(self.spec_v0(), resp)
            if is_syn_ack:
                assert cls.kind is ClassificationKind.POTENTIAL_CAPABLE, flags
            else:
                assert cls.kind is ClassificationKind.NO_RESPONSE, flags
                assert cls.note == ("reset" if flags & TcpFlags.RST else "not a SYN-ACK")

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
        spec = self.spec_v1()
        sent = spec.syn_option()
        echo = TcpOption(30, sent[2:])
        cls = classify_response(spec, syn_ack([echo]))
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

    def test_non_codec_error_propagates(self, monkeypatch):
        # only codec errors fold into no_mp_capable; a fault in the code does not
        def broken(opt, phase):
            raise RuntimeError("decoder fault")

        monkeypatch.setattr("mptcpkit.probe.decode_mp_capable", broken)
        with pytest.raises(RuntimeError, match="decoder fault"):
            classify_response(self.spec_v0(), syn_ack([mp_option(0, K_OTHER)]))
        monkeypatch.setattr("mptcpkit.netsim.decode_mp_capable", broken)
        net = SimNetwork(1)
        net.add_path("10.0.0.1", 80, SimPath([true_host(0)]))
        with pytest.raises(RuntimeError, match="decoder fault"):
            net.handshake(build_syn_probe(self.spec_v0()))

    @given(
        version=st.sampled_from([0, 1]),
        flags=st.integers(min_value=0, max_value=255),
        payload=st.binary(min_size=0, max_size=20),
        has_resp=st.booleans(),
    )
    @settings(max_examples=200)
    def test_total_function(self, version, flags, payload, has_resp):
        spec = ProbeSpec("10.0.0.1", 80, version, K if version == 0 else None)
        resp = None
        if has_resp:
            options = [TcpOption(30, payload)] if payload else []
            resp = ProbeResponse(flags, options, 0.0)
        cls = classify_response(spec, resp)
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
        assert [f.name for f in dataclasses.fields(CampaignGuard)] == ["blocklist", "pacer"]

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

    def test_blocklist_matching(self):
        bl = Blocklist.from_lines(["10.0.0.0/8", "# comment", "2001:db8::/32"])
        assert bl.matches("10.1.2.3")
        assert bl.matches("2001:db8::1")
        assert not bl.matches("192.168.1.1")
        assert len(bl) == 2


def sim_network_all_true(targets):
    net = SimNetwork(seed=3)
    for address, port in targets:
        net.add_path(address, port, SimPath([true_host(0, 1)]))
    return net


class TestCampaign:
    def targets(self):
        return [("10.0.0.1", 80), ("10.0.0.2", 80), ("10.9.9.9", 443)]

    def test_blocklisted_target_skipped(self):
        targets = self.targets()
        guard = virtual_guard(1000.0, Blocklist.from_lines(["10.9.0.0/16"]))
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
    assert load_targets(lines) == [("10.0.0.1", 80), ("2001:db8::1", 443)]
