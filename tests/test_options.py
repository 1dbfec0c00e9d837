import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mptcpkit.errors import (
    BadLength,
    BadSubtype,
    IllegalCombination,
    IllegalLength,
    OptionError,
    TruncatedOption,
    UnknownVersion,
)
from mptcpkit.options import (
    DEFAULT_MP_FLAGS,
    HandshakePhase,
    Key,
    MpCapable,
    TcpOption,
    decode_mp_capable,
    decode_mp_capable_any,
    encode_mp_capable,
    encode_options,
    find_mp_capable,
    parse_options,
    parse_options_prefix,
    syn_view,
    with_sender_key,
)
from mptcpkit.probe import DEFAULT_PROBE_KEY

K1 = Key(0x0102030405060708)
K2 = Key(0x1111222233334444)
# Declares 50 bytes, more than a TCP header's 40 option bytes hold, and has them.
_LONG_OPTION = bytes([99, 50]) + bytes(48)


class TestKey:
    def test_round_trip_bytes(self):
        assert Key.from_bytes(K1.to_bytes()) == K1

    def test_hex(self):
        assert K1.hex == "0102030405060708"
        assert Key.from_hex("0102030405060708") == K1

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Key(1 << 64)
        with pytest.raises(ValueError):
            Key(-1)


@pytest.mark.parametrize("build, message", [
    (lambda: TcpOption(256), "option kind out of range: 256"),
    (lambda: TcpOption(-1), "option kind out of range: -1"),
    (lambda: TcpOption(0, b"\x00"), "kind 0 carries no payload"),
    (lambda: TcpOption(1, b"\x00"), "kind 1 carries no payload"),
    (lambda: TcpOption(30, bytes(39)), "option payload exceeds 38 bytes"),
    (lambda: Key.from_bytes(bytes(7)), "key needs exactly 8 bytes, got 7"),
    (lambda: MpCapable(1, 256), "flags must fit in 8 bits, got 0x100"),
], ids=["kind-256", "kind-minus-1", "eol-payload", "nop-payload", "payload-39",
        "key-7-bytes", "flags-256"])
def test_value_constructors_refuse_what_their_message_names(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


class TestParseOptions:
    def test_empty_input(self):
        assert parse_options(b"") == []

    def test_nop_nop_kind30(self):
        # hand-assembled: NOP NOP then kind 30 length 12 with 10 payload bytes
        payload = bytes(range(10))
        data = b"\x01\x01\x1e\x0c" + payload
        parsed = parse_options(data)
        assert parsed == [TcpOption(1), TcpOption(1), TcpOption(30, payload)]

    def test_truncated_declared_length(self):
        with pytest.raises(TruncatedOption):
            parse_options(b"\x1e\x10")

    def test_missing_length_byte(self):
        with pytest.raises(TruncatedOption):
            parse_options(b"\x02")

    def test_illegal_length(self):
        with pytest.raises(IllegalLength):
            parse_options(b"\x02\x01\x00")

    def test_stops_at_eol(self):
        # EOL then garbage that would otherwise be truncated
        assert parse_options(b"\x01\x00\x1e\x10") == [TcpOption(1)]

    def test_length_above_forty_is_illegal_once_present(self):
        assert parse_options_prefix(_LONG_OPTION) == ([], "illegal length 50 for kind 99")
        with pytest.raises(IllegalLength):
            parse_options(b"\x01" + _LONG_OPTION)
        # Cut to a TCP header's 40 bytes, the same option is truncated, as before.
        with pytest.raises(TruncatedOption):
            parse_options(_LONG_OPTION[:40])

    def test_unknown_kind_preserved(self):
        parsed = parse_options(b"\xfd\x04\xab\xcd")
        assert parsed == [TcpOption(0xFD, b"\xab\xcd")]

    @given(st.binary(min_size=0, max_size=64))
    @example(_LONG_OPTION)
    @settings(max_examples=300)
    def test_total_over_option_regions(self, data):
        # returns a list or raises a declared error, never anything else
        try:
            result = parse_options(data)
        except OptionError:
            return
        assert isinstance(result, list)

    @given(st.binary(min_size=0, max_size=64))
    @example(_LONG_OPTION)
    def test_prefix_parse_never_raises(self, data):
        opts, err = parse_options_prefix(data)
        assert isinstance(opts, list)
        assert err is None or isinstance(err, str)

    @given(st.binary(min_size=0, max_size=64))
    @example(_LONG_OPTION)
    @settings(max_examples=300)
    def test_strict_and_prefix_parsers_agree(self, data):
        opts, err = parse_options_prefix(data)
        if err is None:
            assert parse_options(data) == opts
        else:
            with pytest.raises(OptionError):
                parse_options(data)

    def test_encode_round_trip(self):
        opts = [TcpOption(1), TcpOption(30, bytes(10)), TcpOption(0xFD, b"\x01")]
        assert parse_options(encode_options(opts)) == opts


class TestDecodeMpCapable:
    def test_v0_syn_ack_with_key(self):
        # layout per the v0 wire format: subtype 0 / version 0, flags, key
        opt = TcpOption(30, b"\x00\x81" + K1.to_bytes())
        mc = decode_mp_capable(opt, HandshakePhase.SYN_ACK)
        assert mc == MpCapable(0, 0x81, K1)

    def test_v1_syn_keyless(self):
        opt = TcpOption(30, b"\x01\x81")
        mc = decode_mp_capable(opt, HandshakePhase.SYN)
        assert mc == MpCapable(1, 0x81)
        assert mc.sender_key is None

    def test_unknown_version_nibble(self):
        opt = TcpOption(30, b"\x07\x81" + K1.to_bytes())
        with pytest.raises(UnknownVersion):
            decode_mp_capable(opt, HandshakePhase.SYN_ACK)

    def test_bad_subtype(self):
        opt = TcpOption(30, b"\x10\x81" + K1.to_bytes())
        with pytest.raises(BadSubtype):
            decode_mp_capable(opt, HandshakePhase.SYN_ACK)

    def test_wrong_kind(self):
        with pytest.raises(BadSubtype):
            decode_mp_capable(TcpOption(8, bytes(8)), HandshakePhase.SYN)

    def test_length_phase_mismatch(self):
        # a 4-byte v1 SYN form is illegal in a SYN-ACK
        opt = TcpOption(30, b"\x01\x81")
        with pytest.raises(BadLength):
            decode_mp_capable(opt, HandshakePhase.SYN_ACK)

    def test_v0_syn_requires_12_bytes(self):
        with pytest.raises(BadLength):
            decode_mp_capable(TcpOption(30, b"\x00\x81"), HandshakePhase.SYN)

    def test_v1_ack_22_byte_variant_tolerated(self):
        payload = b"\x01\x81" + K1.to_bytes() + K2.to_bytes() + b"\x00\x02"
        mc = decode_mp_capable(TcpOption(30, payload), HandshakePhase.ACK)
        assert mc.sender_key == K1
        assert mc.receiver_key == K2

    def test_flags_preserved_verbatim(self):
        for flags in (0x00, 0x81, 0xFF, 0x42):
            opt = TcpOption(30, bytes([0x00, flags]) + K1.to_bytes())
            assert decode_mp_capable(opt, HandshakePhase.SYN).flags == flags

    def test_decode_any_picks_fitting_phase(self):
        assert decode_mp_capable_any(TcpOption(30, b"\x01\x81")) == MpCapable(1, 0x81)
        assert decode_mp_capable_any(TcpOption(30, b"\x00\x81" + K1.to_bytes())) == MpCapable(0, 0x81, K1)
        assert decode_mp_capable_any(TcpOption(30, b"\x00\x81\x01")) is None


class TestEncodeMpCapable:
    def test_v0_syn_is_12_bytes(self):
        data = encode_mp_capable(MpCapable(0, sender_key=K1), HandshakePhase.SYN)
        assert len(data) == 12
        assert data[0] == 30 and data[1] == 12
        assert data[4:12] == K1.to_bytes()

    def test_v1_syn_is_4_bytes(self):
        data = encode_mp_capable(MpCapable(1), HandshakePhase.SYN)
        assert data == bytes([30, 4, 0x01, DEFAULT_MP_FLAGS])

    def test_v1_syn_with_key_refused(self):
        with pytest.raises(IllegalCombination):
            encode_mp_capable(MpCapable(1, sender_key=K1), HandshakePhase.SYN)

    def test_v0_syn_without_key_refused(self):
        with pytest.raises(IllegalCombination):
            encode_mp_capable(MpCapable(0), HandshakePhase.SYN)

    def test_ack_carries_both_keys(self):
        data = encode_mp_capable(
            MpCapable(0, sender_key=K1, receiver_key=K2), HandshakePhase.ACK
        )
        assert len(data) == 20

    def test_lengths_match_version_phase_table(self):
        table = {
            (0, HandshakePhase.SYN, K1, None): 12,
            (0, HandshakePhase.SYN_ACK, K1, None): 12,
            (0, HandshakePhase.ACK, K1, K2): 20,
            (1, HandshakePhase.SYN, None, None): 4,
            (1, HandshakePhase.SYN_ACK, K1, None): 12,
            (1, HandshakePhase.ACK, K1, K2): 20,
        }
        for (version, phase, sk, rk), want in table.items():
            data = encode_mp_capable(
                MpCapable(version, sender_key=sk, receiver_key=rk), phase
            )
            assert len(data) == want
            assert len(data) in (4, 12, 20)

    def test_receiver_without_sender_unrepresentable(self):
        with pytest.raises(IllegalCombination):
            MpCapable(0, receiver_key=K2)

    def test_version_values_outside_01_unrepresentable(self):
        with pytest.raises(UnknownVersion):
            MpCapable(7)


keys = st.builds(Key, st.integers(min_value=0, max_value=(1 << 64) - 1))
flag_bytes = st.integers(min_value=0, max_value=255)


@st.composite
def legal_mp_capable(draw):
    version = draw(st.sampled_from([0, 1]))
    phase = draw(st.sampled_from(list(HandshakePhase)))
    flags = draw(flag_bytes)
    if (version, phase) == (1, HandshakePhase.SYN):
        sender, receiver = None, None
    elif phase is HandshakePhase.ACK:
        sender, receiver = draw(keys), draw(keys)
    else:
        sender, receiver = draw(keys), None
    return MpCapable(version, flags, sender, receiver), phase


@given(legal_mp_capable())
@settings(max_examples=300)
def test_round_trip_decode_encode(case):
    mc, phase = case
    data = encode_mp_capable(mc, phase)
    parsed = parse_options(data)
    assert len(parsed) == 1
    assert decode_mp_capable(parsed[0], phase) == mc


# -- the one view of a sent SYN: the parse and decodes it replaced --------------

_MSS, _NOP = b"\x02\x04\x05\xb4", b"\x01"
_CAMPAIGN_SYNS = [encode_mp_capable(MpCapable(0, DEFAULT_MP_FLAGS, DEFAULT_PROBE_KEY),
                                    HandshakePhase.SYN),
                  encode_mp_capable(MpCapable(1), HandshakePhase.SYN)]


def reference_syn_view(data: bytes) -> tuple:
    """(parse, first MP_CAPABLE, its decode in any phase, its SYN decode),
    each worked out on its own."""
    parsed, _error = parse_options_prefix(data)
    mp = find_mp_capable(parsed)
    if mp is None:
        return tuple(parsed), None, None, None
    try:
        syn_mc = decode_mp_capable(mp, HandshakePhase.SYN)
    except OptionError:
        syn_mc = None
    return tuple(parsed), mp, decode_mp_capable_any(mp), syn_mc


around = st.sampled_from([b"", _MSS, _NOP, _MSS + _NOP, _NOP + _MSS])


@given(st.one_of(st.binary(max_size=40),
                 st.tuples(around, st.sampled_from(_CAMPAIGN_SYNS), around).map(b"".join)))
@settings(max_examples=500)
@example(_CAMPAIGN_SYNS[0])
@example(_MSS + _NOP + _CAMPAIGN_SYNS[1])
def test_syn_view_matches_reference(data):
    view = syn_view(data)
    assert view == reference_syn_view(data)
    assert syn_view(data) is view  # read once per distinct SYN


@given(legal_mp_capable(), keys)
def test_with_sender_key_changes_only_the_key(case, key):
    mc, phase = case
    if mc.sender_key is None:
        return
    opt = parse_options(encode_mp_capable(mc, phase))[0]
    swapped = with_sender_key(opt, key)
    assert decode_mp_capable(swapped, phase) == MpCapable(mc.version, mc.flags, key,
                                                          mc.receiver_key)
