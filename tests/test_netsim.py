import ast
import functools
import gc
import hashlib
import inspect
import ipaddress
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capture_helpers import parse_nodes, replace, sim_path
from mptcpkit.errors import OptionError
from mptcpkit.inputs import data_line
from mptcpkit.netsim import (
    MAX_GENERATED_TARGETS,
    V6_SHARE,
    BehaviorKind,
    GroundTruth,
    NodeBehavior,
    SimNetwork,
    SimPath,
    format_topology,
    generate_population,
    ground_truth,
    parse_node,
    parse_topology,
    _target_address,
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
    parse_options_prefix,
)
from mptcpkit.packet import (FLAG_ACK, FLAG_SYN_ACK, TcpPacket, decode_packet, encode_packet,
                             extract_quoted_options)
from mptcpkit.probe import (
    ClassificationKind,
    DEFAULT_PROBE_KEY,
    HopReply,
    ProbeContext,
    ProbeResponse,
    build_syn_probe,
    classify_response,
)
from mptcpkit.tracer import PathVerdictKind

TARGET = "10.1.2.3"


def network_for(path: SimPath, seed: int = 5) -> SimNetwork:
    net = SimNetwork(seed)
    net.add_path(TARGET, 80, path)
    return net


def v0_syn(seed: int = 0):
    return build_syn_probe(ProbeContext(0, DEFAULT_PROBE_KEY, seed), TARGET, 80)


def v1_syn(seed: int = 0):
    return build_syn_probe(ProbeContext(1, seed=seed), TARGET, 80)


class TestHandshake:
    def test_mirror_before_tcp_host_echoes_key(self):
        net = network_for(sim_path("mirror tcp_host"))
        resp = net.handshake(v0_syn())
        mc = decode_mp_capable(find_mp_capable(resp.options), HandshakePhase.SYN_ACK)
        assert mc.sender_key == DEFAULT_PROBE_KEY

    def test_dual_version_host_answers_probed_version(self):
        net = network_for(sim_path("true_host(v0,v1)"))
        resp = net.handshake(v1_syn())
        mc = decode_mp_capable(find_mp_capable(resp.options), HandshakePhase.SYN_ACK)
        assert mc.version == 1
        assert mc.sender_key is not None
        assert mc.sender_key != DEFAULT_PROBE_KEY

    def test_drop_firewall_yields_absence(self):
        net = network_for(sim_path("drop true_host(v0)"))
        assert net.handshake(v0_syn()) is None

    def test_no_version_overlap_falls_back_to_plain(self):
        net = network_for(sim_path("true_host(v1)"))
        resp = net.handshake(v0_syn())
        assert resp is not None
        assert find_mp_capable(resp.options) is None

    def test_tcp_host_plain_syn_ack(self):
        net = network_for(sim_path("tcp_host"))
        resp = net.handshake(v0_syn())
        assert resp is not None
        assert find_mp_capable(resp.options) is None

    def test_unknown_target_is_silent(self):
        net = SimNetwork(1)
        assert net.handshake(v0_syn()) is None

    def test_refuses_a_packet_without_syn_and_a_ttl_below_one(self):
        net = network_for(sim_path("key_rewrite true_host(v0)"))
        ack = replace(v0_syn(), flags=FLAG_ACK)
        with pytest.raises(ValueError, match="answers only SYNs"):
            net.handshake(ack)
        for ttl in (1, 2):
            with pytest.raises(ValueError, match="answers only SYNs"):
                net.ttl_probe(ack, ttl)
        with pytest.raises(ValueError, match="ttl must be >= 1"):
            net.ttl_probe(v0_syn(), 0)
        # A refused packet leaves nothing behind: the next reply is a fresh network's.
        fresh = network_for(sim_path("key_rewrite true_host(v0)"))
        assert net.handshake(v0_syn()) == fresh.handshake(v0_syn())

    def test_strip_hides_option_from_endpoint(self):
        net = network_for(sim_path("strip true_host(v0)"))
        resp = net.handshake(v0_syn())
        assert find_mp_capable(resp.options) is None

    def test_key_rewrite_fakes_a_fresh_key(self):
        net = network_for(sim_path("key_rewrite tcp_host"))
        resp = net.handshake(v0_syn())
        mc = decode_mp_capable(find_mp_capable(resp.options), HandshakePhase.SYN_ACK)
        assert mc.sender_key != DEFAULT_PROBE_KEY

    def test_key_rewrite_inert_for_keyless_v1(self):
        net = network_for(sim_path("key_rewrite tcp_host"))
        resp = net.handshake(v1_syn())
        assert find_mp_capable(resp.options) is None


class TestTtlProbe:
    def path(self):
        return sim_path("quoting(64) strip true_host(v0)")

    def test_ttl1_quote_shows_option_intact(self):
        net = network_for(self.path())
        reply = net.ttl_probe(v0_syn(), 1)
        assert isinstance(reply, HopReply)
        from mptcpkit.packet import extract_quoted_options

        quoted = extract_quoted_options(reply.quote)
        assert find_mp_capable(quoted) is not None

    def test_ttl2_quote_shows_strip(self):
        net = network_for(self.path())
        reply = net.ttl_probe(v0_syn(), 2)
        assert isinstance(reply, HopReply)
        from mptcpkit.packet import extract_quoted_options

        quoted = extract_quoted_options(reply.quote)
        assert quoted is not None
        assert find_mp_capable(quoted) is None

    def test_ttl3_reaches_endpoint_stripped(self):
        net = network_for(self.path())
        reply = net.ttl_probe(v0_syn(), 3)
        assert not isinstance(reply, HopReply)
        assert find_mp_capable(reply.options) is None

    def test_silent_router_absence(self):
        net = network_for(sim_path("silent true_host(v0)"))
        assert net.ttl_probe(v0_syn(), 1) is None

    def test_truncated_quote_hides_options(self):
        net = network_for(sim_path("quoting(28) true_host(v0)"))
        reply = net.ttl_probe(v0_syn(), 1)
        assert isinstance(reply, HopReply)
        assert len(reply.quote) == 28
        from mptcpkit.packet import extract_quoted_options

        assert extract_quoted_options(reply.quote) is None

    def test_drop_blocks_ttl_probes_beyond_it(self):
        net = network_for(sim_path("quoting drop true_host(v0)"))
        assert isinstance(net.ttl_probe(v0_syn(), 1), HopReply)
        assert net.ttl_probe(v0_syn(), 2) is None
        assert net.ttl_probe(v0_syn(), 3) is None


class TestDeterminism:
    def test_identical_seeds_identical_traffic(self):
        text = (
            "path 10.1.2.3 80 quoting(64) true_host(v0,v1)\n"
            "path 10.1.2.4 443 mirror tcp_host\n"
        )

        def run(seed):
            net = parse_topology(text.splitlines(), seed=seed)
            outputs = []
            for address, port in sorted(net.paths):
                syn = build_syn_probe(ProbeContext(0, DEFAULT_PROBE_KEY, 9), address, port)
                resp = net.handshake(syn)
                outputs.append(
                    (resp.tcp_flags, resp.options, resp.rtt_ms, resp.note) if resp else None
                )
                reply = net.ttl_probe(syn, 1)
                outputs.append(reply.quote if isinstance(reply, HopReply) else b"")
            return outputs

        assert run(7) == run(7)
        # a host's fresh keys differ under a different seed
        assert run(7) != run(8)

    @pytest.mark.parametrize("tokens", ["true_host(v0)", "key_rewrite tcp_host",
                                        "quoting key_rewrite true_host(v0,v1)"],
                             ids=["host", "echo", "quote-rewrite-echo"])
    def test_a_repeated_syn_gets_the_identical_reply(self, tokens):
        # As a TCP stack that holds the half-open connection retransmits its
        # SYN-ACK: the same key, not a fresh one, at every hop and repeat.
        path = sim_path(tokens)
        net = network_for(path)
        replies = [net.handshake(v0_syn()) for _ in range(3)]
        assert replies[0] == replies[1] == replies[2]
        key = decode_mp_capable(find_mp_capable(replies[0].options), HandshakePhase.SYN_ACK)
        assert key.sender_key != DEFAULT_PROBE_KEY
        quotes = [[net.ttl_probe(v0_syn(), ttl) for ttl in range(1, len(path.nodes) + 1)]
                  for _ in range(2)]
        assert quotes[0] == quotes[1]


class TestTopologyFiles:
    def test_parse_and_format_round_trip(self):
        text = (
            "# test population\n"
            "path 10.0.0.1 80 quoting(28) strip true_host(v0,v1)\n"
            "path 10.0.0.2 443 latency=2.5 mirror tcp_host\n"
            "path 2001:db8::1 80 key_rewrite(seed=4) true_host(v1)\n"
        )
        net = parse_topology(text.splitlines())
        assert len(net.paths) == 3
        path = net.paths[("10.0.0.1", 80)]
        assert path.nodes[0].quote_bytes == 28
        assert net.paths[("10.0.0.2", 443)].per_hop_latency_ms == 2.5
        assert net.paths[("2001:db8::1", 80)].nodes[0].key_seed == 4

        reparsed = parse_topology(format_topology(net).splitlines())
        assert reparsed.paths.keys() == net.paths.keys()
        for key in net.paths:
            assert reparsed.paths[key].nodes == net.paths[key].nodes

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_topology(["route 10.0.0.1 80 tcp_host"])
        with pytest.raises(ValueError):
            parse_topology(["path 10.0.0.1 80 warp_drive"])
        with pytest.raises(ValueError):
            parse_topology(["path 10.0.0.1 80 quoting(hello=1) tcp_host"])

    @pytest.mark.parametrize("token", ["quoting(quote=64)", "quoting(bytes=64)",
                                       "quoting(quote=-5)", "quoting(-5)"])
    def test_quote_size_is_a_bare_count(self, token):
        with pytest.raises(ValueError, match="unknown node argument"):
            parse_topology([f"path 10.0.0.1 80 {token} tcp_host"])

    @pytest.mark.parametrize("latency", ["nan", "inf", "-3"])
    def test_latency_must_be_finite_and_not_negative(self, latency):
        with pytest.raises(ValueError, match="latency must be finite and >= 0"):
            parse_topology([f"path 10.0.0.1 80 latency={latency} tcp_host"])
        with pytest.raises(ValueError, match="latency must be finite and >= 0"):
            sim_path("tcp_host", float(latency))

    def test_zero_and_fractional_latency_parse(self):
        net = parse_topology(["path 10.0.0.1 80 latency=0 tcp_host",
                              "path 10.0.0.2 80 latency=2.5 tcp_host"])
        assert [p.per_hop_latency_ms for p in net.paths.values()] == [0.0, 2.5]

    REPEATED = [
        "path 10.0.0.1 80 key_rewrite(seed=9) quoting(64) true_host(v0,v1)",
        "path 10.0.0.2 80 key_rewrite(seed=9) mirror true_host(v0,v1)",
        "path 10.0.0.3 443 quoting(64) key_rewrite(seed=9) key_rewrite(seed=9) true_host(v0,v1)",
        "path 2001:db8::5 80 latency=2 quoting(64) strip true_host(v0,v1)",
        "path 2001:db8::6 443 key_rewrite quoting(64) true_host(v0,v1)",
        "path 10.0.0.7 80 key_rewrite key_rewrite quoting(64) true_host(v0,v1)",
        "path 10.0.0.8 80 true_host(v0,v1,seed=3)",
        "path 10.0.0.9 80 true_host(v0,v1,seed=3)",
        # Whole paths repeated on other targets, unseeded keys among them.
        "path 10.0.0.10 443 key_rewrite key_rewrite quoting(64) true_host(v0,v1)",
        "path 2001:db8::a 80 key_rewrite key_rewrite quoting(64) true_host(v0,v1)",
        "path 2001:db8::b 443 latency=2 quoting(64) strip true_host(v0,v1)",
        "path 10.0.0.12 443 key_rewrite(seed=9) mirror true_host(v0,v1)",
    ]
    SHARED = [  # targets whose lines have the same text after the port
        [("10.0.0.7", 80), ("10.0.0.10", 443), ("2001:db8::a", 80)],
        [("2001:db8::5", 80), ("2001:db8::b", 443)],
        [("10.0.0.2", 80), ("10.0.0.12", 443)],
        [("10.0.0.8", 80), ("10.0.0.9", 80)],
    ]

    def unshared(self, lines, seed):
        """The network with a fresh node parsed for every token occurrence."""
        net = SimNetwork(seed)
        for line in lines:
            _path, address, port, *rest = line.split()
            latency = 1.0
            if rest[0].startswith("latency="):
                latency = float(rest.pop(0).split("=", 1)[1])
            nodes = [parse_node(token) for token in rest]
            net.add_path(address, int(port), SimPath(nodes, per_hop_latency_ms=latency))
        return net

    def test_repeated_tokens_parse_once_and_behave_alike(self):
        net = parse_topology(self.REPEATED, seed=11)
        ref = self.unshared(self.REPEATED, seed=11)
        assert format_topology(net) == format_topology(ref)
        first, second = net.paths[("10.0.0.1", 80)], net.paths[("10.0.0.2", 80)]
        assert first.nodes[0] is second.nodes[0]  # one instance per distinct token
        assert first.nodes[-1] is second.nodes[-1]
        for targets in self.SHARED:  # one path per distinct text
            assert all(net.paths[t] is net.paths[targets[0]] for t in targets)
        distinct = len(net.paths) - sum(len(targets) - 1 for targets in self.SHARED)
        assert len({id(p) for p in net.paths.values()}) == distinct
        for _ in range(3):  # every round gets the same replies
            for address, port in sorted(net.paths):
                for ctx in (ProbeContext(0, DEFAULT_PROBE_KEY, 11), ProbeContext(1, seed=11)):
                    syn = build_syn_probe(ctx, address, port)
                    assert net.handshake(syn) == ref.handshake(syn)
                    for ttl in range(1, len(net.paths[(address, port)].nodes) + 2):
                        assert net.ttl_probe(syn, ttl) == ref.ttl_probe(syn, ttl)

    @pytest.mark.parametrize("lines, message", [
        (["path 10.0.0.1 80 tcp_host", "path 10.0.0.2 80 warp_drive"],
         "unknown node behavior 'warp_drive'"),
        (["path 10.0.0.1 80 true_host(v0 tcp_host"],
         "unbalanced parens in node token 'true_host(v0'"),
        (["path 10.0.0.1 80 quoting(64) tcp_host", "path 10.0.0.2 80 quoting(hello=1) tcp_host"],
         "unknown node argument 'hello=1' in 'quoting(hello=1)'"),
        (["path 10.0.0.1 80 key_rewrite(seed=x) tcp_host"],
         "invalid literal for int() with base 10: 'x'"),
        (["path 10.0.0.1 80 tcp_host", "path 10.0.0.2 80"],
         "line 2: expected `path <addr> <port> <nodes...>`"),
        (["path 10.0.0.1 80 mirror tcp_host", "path 10.0.0.2 80 tcp_host mirror"],
         "last node must be an endpoint, got BehaviorKind.MIRROR_MIDDLEBOX"),
        (["path 10.0.0.1 80 mirror tcp_host", "path 10.0.0.2 80 tcp_host tcp_host"],
         "endpoint behavior in the path interior"),
        (["# comment and blank lines count", "", "path 10.0.0.1 80 tcp_host  # ok",
          "  path 10.0.0.2  # no nodes"],
         "line 4: expected `path <addr> <port> <nodes...>`"),
        # Each kind takes only the arguments its token writes back.
        (["path 10.0.0.1 80 tcp_host(v0)"], "unknown node argument 'v0' in 'tcp_host(v0)'"),
        (["path 10.0.0.1 80 strip(64) tcp_host"], "unknown node argument '64' in 'strip(64)'"),
        (["path 10.0.0.1 80 drop(7) tcp_host"], "unknown node argument '7' in 'drop(7)'"),
        (["path 10.0.0.1 80 quoting(v1) tcp_host"],
         "unknown node argument 'v1' in 'quoting(v1)'"),
        (["path 10.0.0.1 80 mirror(seed=3) tcp_host"],
         "unknown node argument 'seed=3' in 'mirror(seed=3)'"),
        # A port is an integer in [0, 65535], as in a target list.
        (["path 10.0.0.1 0 tcp_host", "path 10.0.0.1 99999 true_host(v0)"],
         "line 2: port must be an integer in [0, 65535], got '99999'"),
        (["path 10.0.0.1 -1 tcp_host"], "line 1: port must be an integer in [0, 65535], got '-1'"),
        (["path 10.0.0.1 http tcp_host"],
         "line 1: port must be an integer in [0, 65535], got 'http'"),
        # A latency is a finite number of milliseconds, at least 0, written
        # in ASCII that starts with a digit.
        (["", "path 10.0.0.1 80 latency=x tcp_host"],
         "could not convert string to float: 'x'"),
        (["path 10.0.0.1 80 tcp_host", "path 10.0.0.2 80 latency=-1 tcp_host"],
         "latency must be finite and >= 0, in ASCII that starts with a digit, no '_', got '-1'"),
        (["path 10.0.0.2 80 latency=1e999 tcp_host"], "latency must be finite and >= 0, got inf"),
    ])
    def test_bad_tokens_keep_their_messages(self, lines, message):
        # Every error names its line, here the last one: the message of a
        # node token, a latency or an endpoint rule gains its `line N: `.
        prefix = f"line {len(lines)}: "
        expected = message if message.startswith(prefix) else prefix + message
        with pytest.raises(ValueError) as raised:
            parse_topology(lines)
        assert str(raised.value) == expected
        with pytest.raises(ValueError) as again:  # the same bad token, seen twice
            parse_topology(lines + lines)
        assert str(again.value) == expected

    def test_tokens_write_only_the_arguments_a_kind_takes(self):
        unused = [NodeBehavior(BehaviorKind.MIRROR_MIDDLEBOX, key_seed=3),
                  NodeBehavior(BehaviorKind.TCP_ONLY_HOST, frozenset({0, 1}), key_seed=3),
                  NodeBehavior(BehaviorKind.STRIP_MIDDLEBOX, quote_bytes=64)]
        assert [node.spec_token() for node in unused] == ["mirror", "tcp_host", "strip"]
        used = [NodeBehavior(BehaviorKind.TRUE_MPTCP_HOST, frozenset({0, 1}), key_seed=3),
                NodeBehavior(BehaviorKind.KEY_REWRITE_MIDDLEBOX, key_seed=3),
                NodeBehavior(BehaviorKind.QUOTING_ROUTER, quote_bytes=64)]
        tokens = [node.spec_token() for node in used]
        assert tokens == ["true_host(v0,v1,seed=3)", "key_rewrite(seed=3)", "quoting(64)"]
        assert [parse_node(token) for token in tokens] == used

    def test_endpoint_position_enforced(self):
        with pytest.raises(ValueError):
            sim_path("tcp_host mirror")
        with pytest.raises(ValueError):
            sim_path("mirror")
        with pytest.raises(ValueError):
            SimPath([])


def token_split_parse_topology(lines, seed=0):
    """The topology reader that splits every line into all its tokens and keys
    shared paths on the token tuple: the reference for `parse_topology`."""
    net = SimNetwork(seed)
    cached_node = functools.lru_cache(maxsize=None)(parse_node)
    paths_by_text = {}
    for lineno, raw in enumerate(lines, start=1):
        tokens = data_line(raw).split()
        if not tokens:
            continue
        try:
            if tokens[0] != "path" or len(tokens) < 4:
                raise ValueError("expected `path <addr> <port> <nodes...>`")
            text = tuple(tokens[3:])
            path = paths_by_text.get(text)
            if path is None:
                rest, latency = text, 1.0
                if rest[0].startswith("latency="):
                    latency = float(rest[0].split("=", 1)[1])
                    rest = rest[1:]
                nodes = [cached_node(token) for token in rest]
                path = paths_by_text[text] = SimPath(nodes, per_hop_latency_ms=latency)
            try:
                port = int(tokens[2])
            except ValueError:
                port = None
            if port not in range(65536):
                raise ValueError(f"port must be an integer in [0, 65535], got {tokens[2]!r}")
        except ValueError as exc:  # every error names its line
            raise ValueError(f"line {lineno}: {exc}") from exc
        net.add_path(tokens[1], port, path)
    return net


_GAPS = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0"])
_INTERIOR = ["mirror", "strip", "drop", "silent", "quoting(28)", "key_rewrite(seed=9)",
             "key_rewrite"]
_ENDPOINTS = ["tcp_host", "true_host(v0,v1)", "true_host(v1,seed=4)"]
_BAD_TOKENS = ["warp_drive", "true_host(v0", "quoting(hello=1)", "key_rewrite(seed=x)",
               "latency=3", "tcp_host"]


@st.composite
def topology_lines(draw):
    """Mostly valid path lines with varied whitespace, plus comments, blank
    lines and, now and then, a bad keyword, port, latency, token or length,
    or a bad port together with a bad latency or token."""
    kind = draw(st.sampled_from(["path"] * 8 + ["blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":
        return draw(st.sampled_from(["# a comment", "  #", "#path 10.0.0.1 80 tcp_host"]))
    address = draw(st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3", "2001:db8::5"]))
    words = [kind, address, draw(st.sampled_from(["80", "443", "0", "65535"]))]
    if draw(st.booleans()):
        words.append(draw(st.sampled_from(["latency=2", "latency=0.5"])))
    words += draw(st.lists(st.sampled_from(_INTERIOR[:draw(st.integers(1, 7))]), max_size=2))
    words.append(draw(st.sampled_from(_ENDPOINTS)))
    faults = draw(st.sampled_from([()] * 12 + [("keyword",), ("port",), ("latency",), ("token",),
                                                ("cut",), ("port", "latency"), ("port", "token")]))
    if "keyword" in faults:
        words[0] = "route"
    if "port" in faults:
        words[2] = draw(st.sampled_from(["x", "65536", "-1"]))
    if "latency" in faults:
        words.insert(3, "latency=x")
    if "token" in faults:
        words.insert(draw(st.integers(3, len(words))), draw(st.sampled_from(_BAD_TOKENS)))
    if "cut" in faults:
        words = words[:draw(st.integers(1, 3))]
    line = words[0] + "".join(draw(_GAPS) + word for word in words[1:])
    lead = draw(st.sampled_from(["", " ", "\t"]))
    tail = draw(st.sampled_from(["", " ", "  # note", "\n"]))
    return lead + line + tail


@given(st.lists(topology_lines(), max_size=8), st.integers(0, 2**16))
@settings(max_examples=400, deadline=None)
def test_parse_topology_matches_token_split_reference(lines, seed):
    try:
        ref = token_split_parse_topology(lines, seed)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            parse_topology(lines, seed)
        assert str(raised.value) == str(exc)
        return
    net = parse_topology(lines, seed)
    assert list(net.paths) == list(ref.paths)
    assert format_topology(net) == format_topology(ref)
    for target, path in net.paths.items():
        assert path.nodes == ref.paths[target].nodes
        assert path.per_hop_latency_ms == ref.paths[target].per_hop_latency_ms
    # Lines share a path when their text after the port is the same as written.
    texts = {}
    for fields in (data_line(raw).split(None, 3) for raw in lines):
        if fields:
            texts[(fields[1], int(fields[2]))] = fields[3]
    for a, b in itertools.combinations(net.paths, 2):
        assert (net.paths[a] is net.paths[b]) == (texts[a] == texts[b])


def test_paths_are_shared_by_their_text_as_written():
    net = parse_topology(["path 10.0.0.1 80 mirror tcp_host", "path 10.0.0.2 80\tmirror tcp_host",
                          "path 10.0.0.3 80 mirror  tcp_host # note"])
    first, second, third = net.paths.values()
    assert first is second  # the gap before the text is not part of it
    assert third is not first and third.nodes == first.nodes  # the gap inside is


class TestGroundTruth:
    def test_plain_true_host(self):
        truth = ground_truth(sim_path("true_host(v0)"), 0)
        assert truth == GroundTruth(
            ClassificationKind.POTENTIAL_CAPABLE, PathVerdictKind.TRULY_CAPABLE
        )

    def test_mirror_never_truly_capable(self):
        for endpoint in ("tcp_host", "true_host(v0)"):
            truth = ground_truth(sim_path(f"mirror {endpoint}"), 0)
            assert truth.classification is ClassificationKind.MIRRORED_KEY
            assert truth.verdict is PathVerdictKind.NOT_CAPABLE

    def test_strip_is_middlebox_affected_at_its_ttl(self):
        truth = ground_truth(sim_path("silent strip true_host(v0)"), 0)
        assert truth.verdict is PathVerdictKind.MIDDLEBOX_AFFECTED
        assert truth.first_modifying_ttl == 2

    def test_drop_unreachable(self):
        truth = ground_truth(sim_path("strip drop true_host(v0)"), 0)
        assert truth == GroundTruth(
            ClassificationKind.NO_RESPONSE, PathVerdictKind.UNREACHABLE
        )

    def test_rewrite_poses_as_potential_but_flagged(self):
        truth = ground_truth(sim_path("key_rewrite tcp_host"), 0)
        assert truth.classification is ClassificationKind.POTENTIAL_CAPABLE
        assert truth.verdict is PathVerdictKind.MIDDLEBOX_AFFECTED
        assert truth.first_modifying_ttl == 1

    def test_rewrite_inert_for_v1(self):
        truth = ground_truth(sim_path("key_rewrite true_host(v1)"), 1)
        assert truth == GroundTruth(
            ClassificationKind.POTENTIAL_CAPABLE, PathVerdictKind.TRULY_CAPABLE
        )

    def test_truncated_quote_gives_no_evidence(self):
        # the quoting router cannot show the strip: evidence comes from the
        # strip node's own quote at ttl 1
        truth = ground_truth(sim_path("strip quoting(28) tcp_host"), 0)
        assert truth.first_modifying_ttl == 1
        truth2 = ground_truth(sim_path("silent strip quoting(28) tcp_host"), 0)
        assert truth2.first_modifying_ttl == 2


def machinery_labels(path: SimPath, version: int, seed: int = 11, target: str = TARGET):
    from mptcpkit.tracer import inspect_target

    net = SimNetwork(seed)
    net.add_path(target, 80, path)
    ctx = ProbeContext(version, DEFAULT_PROBE_KEY if version == 0 else None, seed)
    cls = classify_response(ctx, net.handshake(build_syn_probe(ctx, target, 80)))
    _trace, verdict = inspect_target(ctx, target, 80, net, max_ttl=len(path.nodes))
    return cls, verdict


def test_oracle_agreement_sampled():
    # exhaustive up to interior length 2 here; full depth in acceptance
    interior = parse_nodes("mirror strip key_rewrite drop silent quoting")
    endpoints = parse_nodes("true_host(v0) true_host(v1) true_host(v0,v1) tcp_host")
    for length in range(0, 3):
        for combo in itertools.product(interior, repeat=length):
            for endpoint in endpoints:
                path = SimPath(list(combo) + [endpoint])
                for version in (0, 1):
                    truth = ground_truth(path, version)
                    cls, verdict = machinery_labels(path, version)
                    assert cls.kind == truth.classification, path.nodes
                    assert verdict.kind == truth.verdict, path.nodes
                    assert verdict.first_modifying_ttl == truth.first_modifying_ttl


@given(
    interior=st.lists(
        st.sampled_from(parse_nodes("mirror strip key_rewrite drop silent"))
        | st.integers(0, 200).map(lambda size: parse_node(f"quoting({size})")),
        max_size=8,
    ),
    endpoint=st.sampled_from([
        *parse_nodes("true_host(v0) true_host(v1) true_host(v0,v1) true_host tcp_host"),
        NodeBehavior(BehaviorKind.TCP_ONLY_HOST, supported_versions=frozenset({0, 1})),
    ]),
    target=st.sampled_from([TARGET, "2001:db8:1::7"]),
    version=st.sampled_from([0, 1]),
)
@settings(max_examples=600, deadline=None)
def test_oracle_agreement_beyond_the_enumeration(interior, endpoint, target, version):
    """Longer paths, any quote size and both families: the labels still
    follow from the path alone."""
    path = SimPath([*interior, endpoint])
    truth = ground_truth(path, version)
    cls, verdict = machinery_labels(path, version, target=target)
    assert cls.kind == truth.classification
    assert verdict.kind == truth.verdict
    assert verdict.first_modifying_ttl == truth.first_modifying_ttl


def test_generate_population_deterministic():
    a = format_topology(generate_population(50, seed=3))
    b = format_topology(generate_population(50, seed=3))
    assert a == b
    assert a != format_topology(generate_population(50, seed=4))


def reference_population(count: int, seed: int) -> SimNetwork:
    """generate_population drawn with rng.choices, and with fresh nodes and a
    fresh SimPath for every target."""
    rng = random.Random(seed)
    net = SimNetwork(seed)
    kinds = [BehaviorKind.MIRROR_MIDDLEBOX, BehaviorKind.STRIP_MIDDLEBOX,
             BehaviorKind.KEY_REWRITE_MIDDLEBOX, BehaviorKind.DROP_FIREWALL,
             BehaviorKind.SILENT_ROUTER, BehaviorKind.QUOTING_ROUTER]
    for i in range(count):
        if rng.random() < V6_SHARE:
            address = f"2001:db8:1::{i + 1:x}"
        else:
            host = i + 1
            address = f"10.{(host >> 16) & 255}.{(host >> 8) & 255}.{host & 255}"
        port = rng.choice((80, 443))
        nodes = []
        for _ in range(rng.choices([0, 1, 2, 3, 4], weights=[30, 28, 22, 12, 8])[0]):
            kind = rng.choices(kinds, weights=[0.18, 0.14, 0.10, 0.08, 0.20, 0.30])[0]
            if kind is BehaviorKind.QUOTING_ROUTER:
                nodes.append(parse_node(f"quoting({rng.choice((28, 64, 128))})"))
            else:
                nodes.append(NodeBehavior(kind))
        if rng.random() < 0.55:
            versions = rng.choices(["v0", "v1", "v0,v1"], weights=[50, 20, 30])[0]
            nodes.append(parse_node(f"true_host({versions})"))
        else:
            nodes.append(parse_node("tcp_host"))
        net.add_path(address, port, SimPath(nodes))
    return net


@given(
    count=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**64),
)
@settings(max_examples=60, deadline=None)
def test_generate_population_matches_reference(count, seed):
    net = generate_population(count, seed)
    ref = reference_population(count, seed)
    assert format_topology(net) == format_topology(ref)
    assert list(net.paths) == list(ref.paths)
    # Targets share a path exactly when their paths are equal, and every path
    # is built from one node instance per distinct node.
    groups: dict[tuple, set[int]] = {}
    for target, path in ref.paths.items():
        groups.setdefault(path.nodes, set()).add(id(net.paths[target]))
    assert all(len(ids) == 1 for ids in groups.values())
    assert len({id(p) for p in net.paths.values()}) == len(groups)
    nodes = [node for path in net.paths.values() for node in path.nodes]
    assert len({id(node) for node in nodes}) == len(set(nodes))


def test_generate_population_covers_behaviors():
    net = generate_population(300, seed=1)
    kinds = {n.kind for p in net.paths.values() for n in p.nodes}
    assert kinds == set(BehaviorKind)


@pytest.mark.parametrize("v6, base", [(False, "10.0.0.0"), (True, "2001:db8:1::")])
def test_generated_address_is_base_plus_target_number(v6, base):
    # Past 0xffff the number spills into the next 16-bit group; every address
    # parses, and the numbers map one to one onto the addresses.
    hosts = (1, 0xFFFE, 0xFFFF, 0x10000, 0x1FFFF, MAX_GENERATED_TARGETS)
    addresses = [_target_address(host, v6) for host in hosts]
    offsets = [int(ipaddress.ip_address(a)) - int(ipaddress.ip_address(base)) for a in addresses]
    assert offsets == list(hosts)
    assert len(set(addresses)) == len(hosts)
    # A topology line of each reads back to the same target.
    net = parse_topology(f"path {a} 80 tcp_host" for a in addresses)
    assert [address for address, _port in net.paths] == addresses


def test_generated_address_text():
    assert [_target_address(h, True) for h in (1, 0xFFFE, 0xFFFF, 0x10000, 0x1FFFF)] == [
        "2001:db8:1::1", "2001:db8:1::fffe", "2001:db8:1::ffff",
        "2001:db8:1::1:0", "2001:db8:1::1:ffff",
    ]
    assert _target_address(0x10203, False) == "10.1.2.3"


def test_generate_population_refuses_more_targets_than_ipv4_plan_holds():
    with pytest.raises(ValueError, match="at most 16777215"):
        generate_population(MAX_GENERATED_TARGETS + 1, seed=1)


# -- the reply model against an encode-decode-parse reference ------------------


def _ref_replace(options: bytes, new_option: bytes | None) -> bytes:
    kept = encode_options([o for o in parse_options_prefix(options)[0] if o.kind != 30])
    return kept if new_option is None else new_option + kept


def _ref_rewrite(option_bytes: bytes, key: Key) -> bytes | None:
    opt = find_mp_capable(parse_options_prefix(option_bytes)[0])
    if opt is None:
        return None
    mc = decode_mp_capable_any(opt)
    if mc is None or mc.sender_key is None:
        return None
    return TcpOption(30, opt.payload[:2] + key.to_bytes() + opt.payload[10:]).encode()


def reference_key(seed: int, address: str, port: int, hop: int, role: int,
                  key_seed: int | None) -> Key:
    """The key at `hop` of (address, port) in `role` (0: a host's key or a
    key_rewrite's rewrite, 1: a key_rewrite's echo), as the README states the
    rule: the 8-byte blake2b of the network seed, address, port, hop and
    role, or of `seed=N` and the role for a node with `seed=N`."""
    text = (f"{seed}|{address}|{port}|{hop}|{role}" if key_seed is None
            else f"seed={key_seed}|{role}")
    return Key(int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"))


class ReferenceNetwork(SimNetwork):
    """Replies built the long way: the options bytes are re-parsed at every
    hop, and every SYN-ACK is encoded with `encode_packet`, decoded with
    `decode_packet` and its options parsed with `parse_options_prefix`.
    Keys come from `reference_key`: each node works out its own, forward
    and back, whether or not a nearer reply hides it."""

    def _ref_key(self, syn, hop, node, role=0):
        return reference_key(self.seed, syn.dst, syn.dst_port, hop, role, node.key_seed)

    def _ref_forward(self, path, syn, up_to):
        options, records = syn.options, {}
        for i, node in enumerate(path.interior[:up_to], start=1):
            if node.kind is BehaviorKind.DROP_FIREWALL:
                return None, records
            if node.kind is BehaviorKind.STRIP_MIDDLEBOX:
                options = _ref_replace(options, None)
            elif node.kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX:
                key = self._ref_key(syn, i, node)
                rewritten = _ref_rewrite(options, key)
                if rewritten is not None:
                    options = _ref_replace(options, rewritten)
                    records[i] = (rewritten, True)
                    continue
            seen = find_mp_capable(parse_options_prefix(options)[0])
            records[i] = (seen.encode() if seen else None, False)
        return options, records

    def handshake(self, syn):
        path = self.paths.get((syn.dst, syn.dst_port))
        if path is None:
            return None
        forward, records = self._ref_forward(path, syn, len(path.interior))
        if forward is None:
            return None
        reply = None
        endpoint = path.endpoint
        opt = find_mp_capable(parse_options_prefix(forward)[0])
        if endpoint.kind is BehaviorKind.TRUE_MPTCP_HOST and opt is not None:
            try:
                mc = decode_mp_capable(opt, HandshakePhase.SYN)
            except OptionError:
                mc = None
            if mc is not None and mc.version in endpoint.supported_versions:
                key = self._ref_key(syn, len(path.nodes), endpoint)
                answer = MpCapable(mc.version, DEFAULT_MP_FLAGS, key)
                reply = encode_mp_capable(answer, HandshakePhase.SYN_ACK)
        for i in range(len(path.interior), 0, -1):
            node = path.interior[i - 1]
            seen, acted = records[i]
            if node.kind is BehaviorKind.MIRROR_MIDDLEBOX and seen is not None:
                reply = seen
            elif node.kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX and acted:
                key = self._ref_key(syn, i, node, role=1)
                reply = _ref_rewrite(seen, key)
        packet = TcpPacket(
            src=syn.dst, dst=syn.src, src_port=syn.dst_port, dst_port=syn.src_port,
            seq=0, ack=(syn.seq + 1) & 0xFFFFFFFF, flags=FLAG_SYN_ACK,
            options=reply or b"",
        )
        seg = decode_packet(encode_packet(packet))
        opts, note = parse_options_prefix(seg.options)
        return ProbeResponse(seg.flags, opts, 2.0 * path.per_hop_latency_ms * len(path.nodes),
                             note=note)

    def ttl_probe(self, syn, ttl):
        path = self.paths.get((syn.dst, syn.dst_port))
        if path is None:
            return None
        if ttl > len(path.interior):
            return self.handshake(syn)
        forward, _records = self._ref_forward(path, syn, ttl)
        node = path.interior[ttl - 1]
        if forward is None or node.kind in (BehaviorKind.SILENT_ROUTER, BehaviorKind.DROP_FIREWALL):
            return None
        quoted = encode_packet(replace(syn, ttl=0, options=forward))
        if node.kind is BehaviorKind.QUOTING_ROUTER:
            quoted = quoted[: node.quote_bytes]
        # Hop `ttl` of a path answers from 198.51.100.<ttl> or 2001:db8:ee::<ttl in hex>.
        responder = str(ipaddress.ip_address("2001:db8:ee::" if ":" in syn.dst
                                             else "198.51.100.0") + ttl)
        return HopReply(responder, quoted, 2.0 * path.per_hop_latency_ms * ttl)


_seeds = st.sampled_from(["", "seed=0", "seed=1", "seed=2", "seed=3"])  # none, or one
_rewrite = _seeds.map(lambda seed: parse_node(f"key_rewrite({seed})"))
_interior = st.one_of(
    st.sampled_from(parse_nodes("mirror strip drop silent quoting(28) quoting(64) quoting")),
    _rewrite,
)
_endpoint = st.one_of(
    st.just(parse_node("tcp_host")),
    st.builds(lambda versions, seed: parse_node(f"true_host({versions},{seed})"),
              st.sampled_from(["", "v0", "v1", "v0,v1"]), _seeds),
)
# Other options around the MP_CAPABLE: NOP, MSS, SACK-permitted, window scale;
# the tail is empty or a truncated timestamps option.
_around = st.lists(st.sampled_from([b"\x01", b"\x02\x04\x05\xb4", b"\x04\x02", b"\x03\x03\x07"]),
                   max_size=3).map(b"".join)


@given(
    interior=st.lists(_interior, max_size=5),
    endpoint=_endpoint,
    address=st.sampled_from(["10.1.2.3", "2001:db8::7"]),
    probe_key=st.integers(0, 2**64 - 1).map(Key),
    before=_around,
    after=_around,
    tail=st.sampled_from([b"", b"\x08\x0a\x00"]),
    seed=st.integers(0, 3),
)
# A rewriting key_rewrite before a drop sends no echo; a mirror before a host
# of the probed version hides the host's key.
@example(interior=parse_nodes("key_rewrite drop"), endpoint=parse_node("tcp_host"),
         address="10.1.2.3", probe_key=DEFAULT_PROBE_KEY, before=b"", after=b"", tail=b"", seed=0)
@example(interior=parse_nodes("mirror"), endpoint=parse_node("true_host(v0,v1)"),
         address="10.1.2.3", probe_key=DEFAULT_PROBE_KEY, before=b"", after=b"", tail=b"", seed=0)
@settings(max_examples=300, deadline=None)
def test_replies_match_encoded_reference(interior, endpoint, address, probe_key, before,
                                         after, tail, seed):
    path = SimPath([*interior, endpoint])
    net, ref = SimNetwork(seed), ReferenceNetwork(seed)
    net.add_path(address, 443, path)
    ref.add_path(address, 443, path)
    contexts = [ProbeContext(0, probe_key, seed), ProbeContext(1, seed=seed)]
    for _ in range(2):  # a repeat gets the same replies
        for ctx in contexts:
            syn = build_syn_probe(ctx, address, 443)
            syn = replace(syn, options=before + syn.options + after + tail)
            sent = replace(syn)
            want = ref.handshake(syn)
            assert net.handshake(syn) == want
            assert want is None or want.note is None  # replies come from encoders
            for ttl in range(1, len(path.nodes) + 2):  # the last ones reach the host
                assert net.ttl_probe(syn, ttl) == ref.ttl_probe(syn, ttl)
            assert syn == sent  # the simulator does not change the caller's SYN


_calls = st.lists(
    st.tuples(st.sampled_from(["handshake", "ttl_probe"]), st.integers(1, 7),
              st.sampled_from([0, 1])),
    min_size=1, max_size=14,
)


@given(
    interior=st.lists(_interior, max_size=3).flatmap(
        lambda nodes: st.builds(lambda i, rewrite: [*nodes[:i], rewrite, *nodes[i:]],
                                st.integers(0, len(nodes)), _rewrite)
    ),
    endpoint=_endpoint,
    address=st.sampled_from(["10.1.2.3", "2001:db8::7"]),
    probe_key=st.integers(0, 2**64 - 1).map(Key),
    calls=_calls,
    seed=st.integers(0, 3),
)
@example(interior=parse_nodes("key_rewrite drop"), endpoint=parse_node("true_host(v0)"),
         address="10.1.2.3", probe_key=DEFAULT_PROBE_KEY,
         calls=[("handshake", 1, 0), ("ttl_probe", 1, 0)], seed=0)
@example(interior=parse_nodes("mirror key_rewrite"), endpoint=parse_node("true_host(v0,v1)"),
         address="10.1.2.3", probe_key=DEFAULT_PROBE_KEY,
         calls=[("handshake", 1, 0), ("handshake", 1, 1)], seed=0)
@settings(max_examples=300, deadline=None)
def test_call_sequences_match_the_reference_and_a_fresh_network(interior, endpoint, address,
                                                                probe_key, calls, seed):
    # One network fed a mixed sequence (repeats, TTLs out of order, both
    # versions) answers each call as the reference does, and as a network
    # that was never asked before: no reply depends on the calls before it.
    path = SimPath([*interior, endpoint])
    net, ref = SimNetwork(seed), ReferenceNetwork(seed)
    net.add_path(address, 443, path)
    ref.add_path(address, 443, path)
    syns = {0: build_syn_probe(ProbeContext(0, probe_key, seed), address, 443),
            1: build_syn_probe(ProbeContext(1, seed=seed), address, 443)}
    for op, ttl, version in calls:
        syn = syns[version]
        fresh = SimNetwork(seed)
        fresh.add_path(address, 443, path)
        if op == "handshake":
            assert net.handshake(syn) == ref.handshake(syn) == fresh.handshake(syn)
        else:
            assert net.ttl_probe(syn, ttl) == ref.ttl_probe(syn, ttl) == fresh.ttl_probe(syn, ttl)
    # The network holds its paths, its seed and its seed-keyed hash, and nothing else.
    assert vars(net).keys() == {"paths", "seed", "_key_hash"}
    assert net.paths == {(address, 443): path}


# -- keys ------------------------------------------------------------------------


def _handshake_keys(net, targets):
    """The SYN-ACK sender's key of one v0 handshake to each of `targets`, in turn."""
    keys = []
    for address, port in targets:
        syn = build_syn_probe(ProbeContext(0, DEFAULT_PROBE_KEY), address, port)
        option = find_mp_capable(net.handshake(syn).options)
        keys.append(decode_mp_capable(option, HandshakePhase.SYN_ACK).sender_key)
    return keys


_KEYED_PATHS = ["true_host(v0)", "key_rewrite tcp_host", "key_rewrite quoting(64) true_host(v0)",
                "true_host(v0,seed=7)", "key_rewrite(seed=7) true_host(v0)"]


@given(
    order=st.lists(st.integers(0, 2 * len(_KEYED_PATHS) - 1), max_size=30),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_stream_keys_do_not_depend_on_interleaving(order, seed):
    # Each path on an IPv4 and an IPv6 target; handshakes go in `order`, and
    # each target's keys equal those of a network that probes only that target.
    lines = [f"path {address} 443 {nodes}" for i, nodes in enumerate(_KEYED_PATHS, start=1)
             for address in (f"10.0.0.{i}", f"2001:db8::{i}")]
    net = parse_topology(lines, seed=seed)
    targets = sorted(net.paths)
    drawn = dict.fromkeys(targets, ())
    for i in order:
        drawn[targets[i]] += tuple(_handshake_keys(net, [targets[i]]))
    for target, keys in drawn.items():
        alone = parse_topology(lines, seed=seed)
        assert tuple(_handshake_keys(alone, [target] * len(keys))) == keys


@given(
    key_seed=st.integers(),
    seed=st.integers(0, 2**64 - 1),
    addresses=st.lists(st.sampled_from(["10.0.0.1", "10.9.8.7", "2001:db8::1", "2001:db8::2"]),
                       min_size=2, max_size=2, unique=True),
    port=st.sampled_from([80, 443]),
    path=st.sampled_from(["key_rewrite(seed={}) tcp_host", "true_host(v0,seed={})",
                          "quoting(64) key_rewrite(seed={}) true_host(v1)"]),
    repeats=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_seeded_node_gives_one_key_at_every_target_and_repeat(key_seed, seed, addresses, port,
                                                              path, repeats):
    net = parse_topology([f"path {a} {port} {path.format(key_seed)}" for a in addresses],
                         seed=seed)
    keys = _handshake_keys(net, [(a, port) for a in addresses for _ in range(repeats)])
    # The SYN-ACK carries a host's own key (role 0) or a key_rewrite's echo
    # (role 1); a seeded node's key reads neither the target nor the hop.
    role = 0 if path.startswith("true_host") else 1
    assert keys == [reference_key(seed, addresses[0], port, 1, role, key_seed)] * len(keys)


@given(
    seed=st.integers(0, 2**64 - 1),
    address=st.sampled_from(["10.1.2.3", "2001:db8::7"]),
    port=st.sampled_from([80, 443]),
)
@settings(max_examples=50, deadline=None)
def test_two_hops_of_one_target_draw_different_keys(seed, address, port):
    # A v0 SYN through two unseeded key_rewrite hops: the TTL 1 quote carries
    # hop 1's rewrite, the TTL 2 quote hop 2's.
    line = f"path {address} {port} key_rewrite key_rewrite true_host(v0)"
    syn = build_syn_probe(ProbeContext(0, DEFAULT_PROBE_KEY), address, port)
    quoted = []
    for ttl in (1, 2):
        reply = parse_topology([line], seed=seed).ttl_probe(syn, ttl)
        mp = find_mp_capable(extract_quoted_options(reply.quote))
        quoted.append(decode_mp_capable(mp, HandshakePhase.SYN).sender_key)
    assert quoted[0] != quoted[1]
    assert quoted[0] == reference_key(seed, address, port, 1, 0, None)
    assert quoted[1] == reference_key(seed, address, port, 2, 0, None)


@pytest.mark.parametrize("key_seed", [-3, 2**70])
@pytest.mark.parametrize("node", ["true_host(v0,v1,seed={})", "key_rewrite(seed={})"])
def test_seed_outside_64_bits_parses_and_draws(key_seed, node):
    token = node.format(key_seed)
    path = token if token.startswith("true_host") else f"{token} tcp_host"
    net = parse_topology([f"path 10.0.0.1 80 {path}"], seed=1)
    assert net.paths[("10.0.0.1", 80)].nodes[0].key_seed == key_seed
    assert format_topology(net) == f"path 10.0.0.1 80 {path}\n"
    keys = _handshake_keys(net, [("10.0.0.1", 80)] * 2)
    # The reply carries a host's own key (role 0) or a key_rewrite's echo
    # (role 1), the same on the repeat.
    role = 0 if token.startswith("true_host") else 1
    assert keys == [reference_key(1, "10.0.0.1", 80, 1, role, key_seed)] * 2
    assert DEFAULT_PROBE_KEY not in keys


def test_scan_keeps_a_few_bytes_per_target():
    # A v0 scan, then a trace of its positives, leaves the network no
    # per-target state: the memory held afterwards grows by under 20 B per
    # target, the bar of a paper-scale campaign.
    from mptcpkit.probe import Blocklist, CampaignGuard, RatePacer, VirtualClock, run_campaign
    from mptcpkit.tracer import trace_campaign

    count = 20000
    net = generate_population(count, seed=5)
    targets = sorted(net.paths)
    clock = VirtualClock()
    guard = CampaignGuard(Blocklist(), RatePacer(1e6, clock=clock, sleep=clock.sleep))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = run_campaign(targets, version=0, guard=guard, transport=net, seed=5)
        positives = [(r.address, r.port) for r in records if r.label == "potential_capable"]
        assert len(positives) > count // 4
        verdicts = list(trace_campaign(positives, version=0, guard=guard, transport=net, seed=5))
        assert {v.verdict for v in verdicts} >= {"truly_capable", "middlebox_affected"}
        del records, positives, verdicts
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / count < 20, f"{held / count:.1f} B per target"
    assert vars(net).keys() == {"paths", "seed", "_key_hash"}


# -- no per-target state: only __init__ and add_path store into the network -----

# Methods of a container or a hasher that change it in place.
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
             "remove", "discard", "clear", "__setitem__", "__delitem__"}


def _rooted_at_self(node: ast.expr) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _stores_into_self(func: ast.AST) -> list[int]:
    """The lines of `func` that change `self`: an assignment (plain,
    augmented or annotated) or a `del` of something under `self`, a mutating
    call on a `self.` attribute, or `setattr(self, ...)`."""
    lines = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call):
            f = node.func
            mutates = (isinstance(f, ast.Attribute) and f.attr in _MUTATORS
                       and isinstance(f.value, (ast.Attribute, ast.Subscript))
                       and _rooted_at_self(f.value))
            set_attr = (isinstance(f, ast.Name) and f.id == "setattr" and node.args
                        and _rooted_at_self(node.args[0]))
            if mutates or set_attr:
                lines.append(node.lineno)
            continue
        else:
            continue
        for target in targets:  # tuple and starred targets unpacked
            if any(isinstance(t, (ast.Attribute, ast.Subscript)) and _rooted_at_self(t)
                   for t in ast.walk(target)):
                lines.append(node.lineno)
                break
    return lines


def test_only_init_and_add_path_store_into_the_network():
    tree = ast.parse(inspect.getsource(SimNetwork))
    methods = [node for node in tree.body[0].body if isinstance(node, ast.FunctionDef)]
    assert {"__init__", "add_path", "handshake", "ttl_probe", "_walk"} <= {m.name for m in methods}
    found = [f"{m.name}:{line}" for m in methods if m.name not in ("__init__", "add_path")
             for line in _stores_into_self(m)]
    assert found == []


# The per-stream draw counter the network once kept, which the check refuses.
_COUNTED_KEY = """
def _next_key(self, address, port, index, node):
    ident = f"{address}|{port}|{index}".encode()
    n = self._key_draws.get(ident, 0)
    self._key_draws[ident] = n + 1
    return n
"""


@pytest.mark.parametrize("body, stores", [
    (_COUNTED_KEY, 1),
    ("def f(self):\n    self.seen = 1", 1),
    ("def f(self):\n    self.count += 1", 1),
    ("def f(self):\n    self.memo: dict = {}", 1),
    ("def f(self):\n    a, self.b[1] = 1, 2", 1),
    ("def f(self):\n    del self.memo[1]", 1),
    ("def f(self, k):\n    self._draws.setdefault(k, 0)", 1),
    ("def f(self):\n    self.a.b.append(1)", 1),
    ("def f(self):\n    self._key_hash.update(b'x')", 1),
    ("def f(self):\n    self.paths.clear()", 1),
    ("def f(self):\n    setattr(self, 'seen', 1)", 1),
    # Reading `self` and changing a local copy store nothing into it.
    ("def f(self, k):\n    h = self._key_hash.copy()\n    h.update(k)\n"
     "    return self.paths.get(k)", 0),
    ("def f(self, k):\n    memo = {}\n    memo[k] = self.seed\n    memo.pop(k)", 0),
])
def test_the_state_check_sees_each_kind_of_store(body, stores):
    assert len(_stores_into_self(ast.parse(body))) == stores


class TestSimPath:
    def test_derived_fields_follow_the_nodes(self):
        for path in generate_population(400, seed=8).paths.values():
            kinds = [node.kind for node in path.nodes[:-1]]
            assert path.interior == path.nodes[:-1]
            assert path.interior is path.interior  # built once, not sliced per read
            assert path.endpoint is path.nodes[-1]
            assert path.drops == (BehaviorKind.DROP_FIREWALL in kinds)
            assert path.strips == (BehaviorKind.STRIP_MIDDLEBOX in kinds)
            assert path.rtt_ms == 2.0 * path.per_hop_latency_ms * len(path.nodes)

    def test_nodes_kept_as_a_tuple(self):
        nodes = parse_nodes("strip tcp_host")
        path = SimPath(nodes)
        nodes.append(parse_node("mirror"))  # the caller's list is not the path's
        assert path.nodes == tuple(parse_nodes("strip tcp_host"))
        assert path == SimPath(tuple(parse_nodes("strip tcp_host")))


def test_campaign_memo_tables_do_not_grow_with_targets():
    # The one memo table, `options.syn_view`, is keyed by a campaign constant
    # (the SYN's option bytes): a scan and a trace of both versions fill the
    # same two entries whether they cover 200 targets or 2,000.
    from mptcpkit import options
    from mptcpkit.probe import Blocklist, CampaignGuard, RatePacer, VirtualClock, run_campaign
    from mptcpkit.tracer import inspect_target

    sizes = {}
    for count in (200, 2000):
        options.syn_view.cache_clear()
        net = generate_population(count, seed=5)
        for version in (0, 1):
            clock = VirtualClock()
            guard = CampaignGuard(Blocklist(), RatePacer(1e6, clock=clock, sleep=clock.sleep))
            records = run_campaign(sorted(net.paths), version=version, guard=guard,
                                   transport=net, seed=5)
            ctx = ProbeContext(version, DEFAULT_PROBE_KEY if version == 0 else None, 5)
            for record in records:
                if record.label == "potential_capable":
                    inspect_target(ctx, record.address, record.port, net)
        info = options.syn_view.cache_info()
        sizes[count] = info.currsize
        assert info.misses == sizes[count]  # each entry built once
        assert info.hits >= count  # the simulator reads every SYN through it
    assert sizes[200] == sizes[2000] == 2
