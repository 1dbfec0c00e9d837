import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.netsim import (
    SimNetwork,
    SimPath,
    drop,
    mirror,
    quoting,
    silent,
    strip,
    tcp_host,
    true_host,
)
from mptcpkit.options import (
    Key,
    SynView,
    TcpOption,
    decode_mp_capable_any,
    encode_options,
    find_mp_capable,
    syn_view,
)
from mptcpkit.packet import FLAG_ACK, FLAG_SYN, FLAG_SYN_ACK
from mptcpkit.probe import DEFAULT_PROBE_KEY, ProbeContext, ProbeResponse
from mptcpkit.tracer import (
    HopRecord,
    OptionDiff,
    OptionDiffKind,
    PathVerdictKind,
    TraceRecord,
    classify_path,
    diff_options,
    inspect_target,
    probe_path,
)

K = Key(0x00000000000000FF)
K2 = Key(0x1234123412341234)


def mp_opt(key: Key | None, version=0) -> TcpOption:
    body = bytes([version, 0x81]) + (key.to_bytes() if key else b"")
    return TcpOption(30, body)


SENT = [mp_opt(K)]


def view(sent: list[TcpOption]) -> SynView:
    return syn_view(encode_options(sent))


def reference_diff_options(sent: list[TcpOption], observed: list[TcpOption]) -> OptionDiff:
    """The list-based diff that reading the sent SYN through `syn_view` replaced."""
    sent_opt = find_mp_capable(sent)
    if sent_opt is None:
        raise ValueError("sent options carry no MP_CAPABLE")
    seen = find_mp_capable(observed)
    if seen is None:
        return OptionDiff(OptionDiffKind.STRIPPED)
    if seen == sent_opt:
        return OptionDiff(OptionDiffKind.UNTOUCHED)
    seen_mc = decode_mp_capable_any(seen)
    if seen_mc is None:
        return OptionDiff(
            OptionDiffKind.OTHER_MODIFICATION, description="option no longer decodes"
        )
    sent_mc = decode_mp_capable_any(sent_opt)
    if sent_mc is not None and seen_mc.sender_key != sent_mc.sender_key:
        return OptionDiff(OptionDiffKind.KEY_CHANGED, new_key=seen_mc.sender_key)
    return OptionDiff(
        OptionDiffKind.OTHER_MODIFICATION,
        description=f"bytes changed: {sent_opt.encode().hex()} -> {seen.encode().hex()}",
    )


class TestDiffOptions:
    def test_identity_untouched(self):
        assert diff_options(view(SENT), list(SENT)).kind is OptionDiffKind.UNTOUCHED

    def test_missing_kind30_stripped(self):
        diff = diff_options(view(SENT), [TcpOption(2, b"\x05\xb4")])
        assert diff.kind is OptionDiffKind.STRIPPED
        assert diff_options(view(SENT), []).kind is OptionDiffKind.STRIPPED

    def test_different_key_bytes(self):
        diff = diff_options(view(SENT), [mp_opt(K2)])
        assert diff.kind is OptionDiffKind.KEY_CHANGED
        assert diff.new_key == K2

    def test_keyless_sent_vs_keyed_observed(self):
        diff = diff_options(view([mp_opt(None, version=1)]), [mp_opt(K2, version=1)])
        assert diff.kind is OptionDiffKind.KEY_CHANGED

    def test_same_key_other_bytes_changed(self):
        tweaked = TcpOption(30, bytes([0x00, 0x01]) + K.to_bytes())
        diff = diff_options(view(SENT), [tweaked])
        assert diff.kind is OptionDiffKind.OTHER_MODIFICATION

    def test_undecodable_observed(self):
        diff = diff_options(view(SENT), [TcpOption(30, b"\x70")])
        assert diff.kind is OptionDiffKind.OTHER_MODIFICATION

    def test_requires_mp_capable_in_sent(self):
        with pytest.raises(ValueError):
            diff_options(view([TcpOption(2, b"\x05\xb4")]), [])

    @given(
        sent=st.sampled_from([SENT, [mp_opt(None, version=1)], [mp_opt(K, version=1)],
                              [TcpOption(1), mp_opt(K)], [TcpOption(30, b"\x70")]]),
        observed=st.lists(st.one_of(
            st.builds(mp_opt, st.one_of(st.none(), st.sampled_from([K, K2])),
                      st.sampled_from([0, 1])),
            st.builds(TcpOption, st.just(30), st.binary(max_size=20)),
            st.sampled_from([TcpOption(1), TcpOption(2, b"\x05\xb4"), TcpOption(4)]),
        ), max_size=4),
    )
    @settings(max_examples=300)
    def test_view_diff_matches_list_reference(self, sent, observed):
        assert diff_options(view(sent), observed) == reference_diff_options(sent, observed)


# The v0 campaign every test here probes with: the default key, seed 0.
V0 = ProbeContext(0, DEFAULT_PROBE_KEY)


def network(path: SimPath, target="10.5.5.5", port=80, seed=2) -> SimNetwork:
    net = SimNetwork(seed)
    net.add_path(target, port, path)
    return net


class TestProbePath:
    def test_true_host_path(self):
        net = network(SimPath([quoting(), quoting(), true_host(0)]))
        trace = probe_path(V0, "10.5.5.5", 80, 10, net)
        assert [h.diff.kind for h in trace.hops] == [
            OptionDiffKind.UNTOUCHED,
            OptionDiffKind.UNTOUCHED,
            OptionDiffKind.KEY_CHANGED,
        ]
        assert trace.final_response is not None

    def test_silent_routers_unobserved(self):
        net = network(SimPath([silent(), silent(), true_host(0)]))
        trace = probe_path(V0, "10.5.5.5", 80, 10, net)
        assert [h.diff.kind for h in trace.hops] == [
            OptionDiffKind.UNOBSERVED,
            OptionDiffKind.UNOBSERVED,
            OptionDiffKind.KEY_CHANGED,
        ]

    def test_strip_first_diff_at_its_ttl(self):
        net = network(SimPath([quoting(), strip(), tcp_host()]))
        trace = probe_path(V0, "10.5.5.5", 80, 10, net)
        kinds = [h.diff.kind for h in trace.hops]
        assert kinds[0] is OptionDiffKind.UNTOUCHED
        assert kinds[1] is OptionDiffKind.STRIPPED
        assert trace.hops[1].ttl == 2

    def test_black_hole_walks_all_ttls(self):
        net = network(SimPath([drop(), tcp_host()]))
        trace = probe_path(V0, "10.5.5.5", 80, 5, net)
        assert len(trace.hops) == 5
        assert all(h.diff.kind is OptionDiffKind.UNOBSERVED for h in trace.hops)
        assert trace.final_response is None

    def test_early_exit_on_final_response(self):
        net = network(SimPath([true_host(0)]))
        trace = probe_path(V0, "10.5.5.5", 80, 30, net)
        assert len(trace.hops) == 1

    def test_truncated_quote_recorded_unobserved(self):
        net = network(SimPath([quoting(28), true_host(0)]))
        trace = probe_path(V0, "10.5.5.5", 80, 10, net)
        first = trace.hops[0]
        assert first.responder is not None
        assert first.quoted_options is None
        assert first.diff.kind is OptionDiffKind.UNOBSERVED

    def test_max_ttl_range_enforced(self):
        net = network(SimPath([true_host(0)]))
        with pytest.raises(ValueError):
            probe_path(V0, "10.5.5.5", 80, 0, net)
        with pytest.raises(ValueError):
            probe_path(V0, "10.5.5.5", 80, 65, net)


def hop(ttl, kind, new_key=None):
    return HopRecord(ttl, "198.51.100.1", [], OptionDiff(kind, new_key=new_key))


def final_resp():
    return ProbeResponse(FLAG_SYN_ACK, [], 1.0)


class TestClassifyPath:
    def test_clean_path_fresh_key_truly_capable(self):
        hops = [
            hop(1, OptionDiffKind.UNTOUCHED),
            hop(2, OptionDiffKind.UNOBSERVED),
            hop(3, OptionDiffKind.KEY_CHANGED, new_key=K2),
        ]
        verdict = classify_path(hops, final_resp())
        assert verdict.kind is PathVerdictKind.TRULY_CAPABLE
        assert verdict.sender_key == K2

    def test_fresh_key_needs_a_syn_ack(self):
        hops = [hop(1, OptionDiffKind.KEY_CHANGED, new_key=K2)]
        for flags in range(256):  # the IntFlag reading of each flag byte is the reference
            final = ProbeResponse(flags, [], 1.0)
            want = (PathVerdictKind.TRULY_CAPABLE
                    if flags & FLAG_SYN and flags & FLAG_ACK
                    else PathVerdictKind.NOT_CAPABLE)
            assert classify_path(hops, final).kind is want, flags

    def test_stripped_hop_wins_over_final(self):
        hops = [
            hop(1, OptionDiffKind.UNTOUCHED),
            hop(4, OptionDiffKind.STRIPPED),
            hop(5, OptionDiffKind.KEY_CHANGED, new_key=K2),
        ]
        verdict = classify_path(hops, final_resp())
        assert verdict.kind is PathVerdictKind.MIDDLEBOX_AFFECTED
        assert verdict.first_modifying_ttl == 4

    def test_no_final_response_unreachable(self):
        hops = [hop(1, OptionDiffKind.STRIPPED)]
        assert classify_path(hops, None).kind is PathVerdictKind.UNREACHABLE

    def test_unreachable_precedence_over_everything(self):
        hops = [hop(1, OptionDiffKind.KEY_CHANGED, new_key=K2)]
        assert classify_path(hops, None).kind is PathVerdictKind.UNREACHABLE

    def test_final_without_valid_mp_capable_not_capable(self):
        hops = [hop(1, OptionDiffKind.UNTOUCHED), hop(2, OptionDiffKind.STRIPPED)]
        assert classify_path(hops, final_resp()).kind is PathVerdictKind.NOT_CAPABLE

    def test_final_echo_not_capable(self):
        hops = [hop(1, OptionDiffKind.UNTOUCHED), hop(2, OptionDiffKind.UNTOUCHED)]
        assert classify_path(hops, final_resp()).kind is PathVerdictKind.NOT_CAPABLE


class TestMirrorCrossCheck:
    def test_mirror_before_tcp_host_consistent_with_scan(self):
        # scan says mirrored; the path verdict must never say truly capable
        from mptcpkit.probe import build_syn_probe, classify_response

        net = network(SimPath([mirror(), tcp_host()]))
        cls = classify_response(V0, net.handshake(build_syn_probe(V0, "10.5.5.5", 80)))
        assert cls.kind.value == "mirrored_key"
        _trace, verdict = inspect_target(V0, "10.5.5.5", 80, net, max_ttl=10)
        assert verdict.kind is not PathVerdictKind.TRULY_CAPABLE
        assert verdict.kind is PathVerdictKind.NOT_CAPABLE

    def test_mirror_hiding_true_host_still_not_capable(self):
        net = network(SimPath([mirror(), true_host(0)]))
        _trace, verdict = inspect_target(V0, "10.5.5.5", 80, net, max_ttl=10)
        assert verdict.kind is PathVerdictKind.NOT_CAPABLE


class TestTraceRecord:
    def test_csv_round_trip(self):
        rec = TraceRecord("10.0.0.1", 80, "truly_capable", None, K2)
        assert TraceRecord.from_csv(rec.to_csv()) == rec
        rec2 = TraceRecord("10.0.0.2", 443, "middlebox_affected", 4, None)
        assert TraceRecord.from_csv(rec2.to_csv()) == rec2

    def test_csv_shape(self):
        rec = TraceRecord("10.0.0.1", 80, "unreachable")
        assert rec.to_csv() == "10.0.0.1,80,unreachable,,"
