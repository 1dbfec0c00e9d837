import functools
import gc
import hashlib
import ipaddress
import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.errors import OptionError
from mptcpkit.inputs import data_line
from mptcpkit.netsim import (
    MAX_GENERATED_TARGETS,
    BehaviorKind,
    GroundTruth,
    NodeBehavior,
    SimNetwork,
    SimPath,
    drop,
    format_topology,
    generate_population,
    ground_truth,
    key_rewrite,
    mirror,
    parse_topology,
    quoting,
    silent,
    strip,
    tcp_host,
    true_host,
    _parse_node,
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
from mptcpkit.packet import (TcpFlags, TcpPacket, decode_packet, encode_packet,
                             extract_quoted_options)
from mptcpkit.probe import (
    ClassificationKind,
    DEFAULT_PROBE_KEY,
    HopReply,
    ProbeResponse,
    ProbeSpec,
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
    return build_syn_probe(ProbeSpec(TARGET, 80, 0, DEFAULT_PROBE_KEY), seed)


def v1_syn(seed: int = 0):
    return build_syn_probe(ProbeSpec(TARGET, 80, 1), seed)


class TestHandshake:
    def test_mirror_before_tcp_host_echoes_key(self):
        net = network_for(SimPath([mirror(), tcp_host()]))
        resp = net.handshake(v0_syn())
        mc = decode_mp_capable(find_mp_capable(resp.options), HandshakePhase.SYN_ACK)
        assert mc.sender_key == DEFAULT_PROBE_KEY

    def test_dual_version_host_answers_probed_version(self):
        net = network_for(SimPath([true_host(0, 1)]))
        resp = net.handshake(v1_syn())
        mc = decode_mp_capable(find_mp_capable(resp.options), HandshakePhase.SYN_ACK)
        assert mc.version == 1
        assert mc.sender_key is not None
        assert mc.sender_key != DEFAULT_PROBE_KEY

    def test_drop_firewall_yields_absence(self):
        net = network_for(SimPath([drop(), true_host(0)]))
        assert net.handshake(v0_syn()) is None

    def test_no_version_overlap_falls_back_to_plain(self):
        net = network_for(SimPath([true_host(1)]))
        resp = net.handshake(v0_syn())
        assert resp is not None
        assert find_mp_capable(resp.options) is None

    def test_tcp_host_plain_syn_ack(self):
        net = network_for(SimPath([tcp_host()]))
        resp = net.handshake(v0_syn())
        assert resp is not None
        assert find_mp_capable(resp.options) is None

    def test_unknown_target_is_silent(self):
        net = SimNetwork(1)
        assert net.handshake(v0_syn()) is None

    def test_strip_hides_option_from_endpoint(self):
        net = network_for(SimPath([strip(), true_host(0)]))
        resp = net.handshake(v0_syn())
        assert find_mp_capable(resp.options) is None

    def test_key_rewrite_fakes_a_fresh_key(self):
        net = network_for(SimPath([key_rewrite(), tcp_host()]))
        resp = net.handshake(v0_syn())
        mc = decode_mp_capable(find_mp_capable(resp.options), HandshakePhase.SYN_ACK)
        assert mc.sender_key != DEFAULT_PROBE_KEY

    def test_key_rewrite_inert_for_keyless_v1(self):
        net = network_for(SimPath([key_rewrite(), tcp_host()]))
        resp = net.handshake(v1_syn())
        assert find_mp_capable(resp.options) is None


class TestTtlProbe:
    def path(self):
        return SimPath([quoting(64), strip(), true_host(0)])

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
        net = network_for(SimPath([silent(), true_host(0)]))
        assert net.ttl_probe(v0_syn(), 1) is None

    def test_truncated_quote_hides_options(self):
        net = network_for(SimPath([quoting(28), true_host(0)]))
        reply = net.ttl_probe(v0_syn(), 1)
        assert isinstance(reply, HopReply)
        assert len(reply.quote) == 28
        from mptcpkit.packet import extract_quoted_options

        assert extract_quoted_options(reply.quote) is None

    def test_drop_blocks_ttl_probes_beyond_it(self):
        net = network_for(SimPath([quoting(), drop(), true_host(0)]))
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
            for address, port in net.targets():
                spec = ProbeSpec(address, port, 0, DEFAULT_PROBE_KEY)
                syn = build_syn_probe(spec, seed=9)
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

    def test_repeated_handshakes_draw_fresh_keys(self):
        net = network_for(SimPath([true_host(0)]))
        r1 = net.handshake(v0_syn())
        r2 = net.handshake(v0_syn())
        k1 = decode_mp_capable(find_mp_capable(r1.options), HandshakePhase.SYN_ACK).sender_key
        k2 = decode_mp_capable(find_mp_capable(r2.options), HandshakePhase.SYN_ACK).sender_key
        assert k1 != k2


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
            nodes = [_parse_node(token) for token in rest]
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
        for _ in range(3):  # keyed nodes draw a fresh key every round
            for address, port in net.targets():
                for spec in (ProbeSpec(address, port, 0, DEFAULT_PROBE_KEY),
                             ProbeSpec(address, port, 1)):
                    syn = build_syn_probe(spec, seed=11)
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
    ])
    def test_bad_tokens_keep_their_messages(self, lines, message):
        with pytest.raises(ValueError) as raised:
            parse_topology(lines)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as again:  # the same bad token, seen twice
            parse_topology(lines + lines)
        assert str(again.value) == message

    def test_endpoint_position_enforced(self):
        with pytest.raises(ValueError):
            SimPath([tcp_host(), mirror()])
        with pytest.raises(ValueError):
            SimPath([mirror()])
        with pytest.raises(ValueError):
            SimPath([])


def token_split_parse_topology(lines, seed=0):
    """The topology reader that splits every line into all its tokens and keys
    shared paths on the token tuple: the reference for `parse_topology`."""
    net = SimNetwork(seed)
    parse_node = functools.lru_cache(maxsize=None)(_parse_node)
    paths_by_text = {}
    for lineno, raw in enumerate(lines, start=1):
        tokens = data_line(raw).split()
        if not tokens:
            continue
        if tokens[0] != "path" or len(tokens) < 4:
            raise ValueError(f"line {lineno}: expected `path <addr> <port> <nodes...>`")
        text = tuple(tokens[3:])
        path = paths_by_text.get(text)
        if path is None:
            rest, latency = text, 1.0
            if rest[0].startswith("latency="):
                latency = float(rest[0].split("=", 1)[1])
                rest = rest[1:]
            nodes = [parse_node(token) for token in rest]
            path = paths_by_text[text] = SimPath(nodes, per_hop_latency_ms=latency)
        net.add_path(tokens[1], int(tokens[2]), path)
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
    words = [kind, address, draw(st.sampled_from(["80", "443"]))]
    if draw(st.booleans()):
        words.append(draw(st.sampled_from(["latency=2", "latency=0.5"])))
    words += draw(st.lists(st.sampled_from(_INTERIOR[:draw(st.integers(1, 7))]), max_size=2))
    words.append(draw(st.sampled_from(_ENDPOINTS)))
    faults = draw(st.sampled_from([()] * 12 + [("keyword",), ("port",), ("latency",), ("token",),
                                                ("cut",), ("port", "latency"), ("port", "token")]))
    if "keyword" in faults:
        words[0] = "route"
    if "port" in faults:
        words[2] = "x"
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
        truth = ground_truth(SimPath([true_host(0)]), 0)
        assert truth == GroundTruth(
            ClassificationKind.POTENTIAL_CAPABLE, PathVerdictKind.TRULY_CAPABLE
        )

    def test_mirror_never_truly_capable(self):
        for endpoint in (tcp_host(), true_host(0)):
            truth = ground_truth(SimPath([mirror(), endpoint]), 0)
            assert truth.classification is ClassificationKind.MIRRORED_KEY
            assert truth.verdict is PathVerdictKind.NOT_CAPABLE

    def test_strip_is_middlebox_affected_at_its_ttl(self):
        truth = ground_truth(SimPath([silent(), strip(), true_host(0)]), 0)
        assert truth.verdict is PathVerdictKind.MIDDLEBOX_AFFECTED
        assert truth.first_modifying_ttl == 2

    def test_drop_unreachable(self):
        truth = ground_truth(SimPath([strip(), drop(), true_host(0)]), 0)
        assert truth == GroundTruth(
            ClassificationKind.NO_RESPONSE, PathVerdictKind.UNREACHABLE
        )

    def test_rewrite_poses_as_potential_but_flagged(self):
        truth = ground_truth(SimPath([key_rewrite(), tcp_host()]), 0)
        assert truth.classification is ClassificationKind.POTENTIAL_CAPABLE
        assert truth.verdict is PathVerdictKind.MIDDLEBOX_AFFECTED
        assert truth.first_modifying_ttl == 1

    def test_rewrite_inert_for_v1(self):
        truth = ground_truth(SimPath([key_rewrite(), true_host(1)]), 1)
        assert truth == GroundTruth(
            ClassificationKind.POTENTIAL_CAPABLE, PathVerdictKind.TRULY_CAPABLE
        )

    def test_truncated_quote_gives_no_evidence(self):
        # the quoting router cannot show the strip: evidence comes from the
        # strip node's own quote at ttl 1
        truth = ground_truth(SimPath([strip(), quoting(28), tcp_host()]), 0)
        assert truth.first_modifying_ttl == 1
        truth2 = ground_truth(SimPath([silent(), strip(), quoting(28), tcp_host()]), 0)
        assert truth2.first_modifying_ttl == 2


def machinery_labels(path: SimPath, version: int, seed: int = 11):
    from mptcpkit.tracer import inspect_target

    net = SimNetwork(seed)
    net.add_path(TARGET, 80, path)
    key = DEFAULT_PROBE_KEY if version == 0 else None
    spec = ProbeSpec(TARGET, 80, version, key)
    cls = classify_response(spec, net.handshake(build_syn_probe(spec, seed)))
    _trace, verdict = inspect_target(
        TARGET, 80, version, net, max_ttl=len(path.nodes), seed=seed
    )
    return cls, verdict


def test_oracle_agreement_sampled():
    # exhaustive up to interior length 2 here; full depth in acceptance
    interior = [mirror(), strip(), key_rewrite(), drop(), silent(), quoting()]
    endpoints = [true_host(0), true_host(1), true_host(0, 1), tcp_host()]
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


def test_generate_population_deterministic():
    a = format_topology(generate_population(50, seed=3))
    b = format_topology(generate_population(50, seed=3))
    assert a == b
    assert a != format_topology(generate_population(50, seed=4))


def reference_population(count: int, seed: int, v6_share: float) -> SimNetwork:
    """generate_population drawn with rng.choices, and with fresh nodes and a
    fresh SimPath for every target."""
    rng = random.Random(seed)
    net = SimNetwork(seed)
    kinds = [BehaviorKind.MIRROR_MIDDLEBOX, BehaviorKind.STRIP_MIDDLEBOX,
             BehaviorKind.KEY_REWRITE_MIDDLEBOX, BehaviorKind.DROP_FIREWALL,
             BehaviorKind.SILENT_ROUTER, BehaviorKind.QUOTING_ROUTER]
    for i in range(count):
        if rng.random() < v6_share:
            address = f"2001:db8:1::{i + 1:x}"
        else:
            host = i + 1
            address = f"10.{(host >> 16) & 255}.{(host >> 8) & 255}.{host & 255}"
        port = rng.choice((80, 443))
        nodes = []
        for _ in range(rng.choices([0, 1, 2, 3, 4], weights=[30, 28, 22, 12, 8])[0]):
            kind = rng.choices(kinds, weights=[0.18, 0.14, 0.10, 0.08, 0.20, 0.30])[0]
            if kind is BehaviorKind.QUOTING_ROUTER:
                nodes.append(quoting(rng.choice((28, 64, 128))))
            else:
                nodes.append(NodeBehavior(kind))
        if rng.random() < 0.55:
            versions = rng.choices([(0,), (1,), (0, 1)], weights=[50, 20, 30])[0]
            nodes.append(true_host(*versions))
        else:
            nodes.append(tcp_host())
        net.add_path(address, port, SimPath(nodes))
    return net


@given(
    count=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**64),
    v6_share=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_generate_population_matches_reference(count, seed, v6_share):
    net = generate_population(count, seed, v6_share)
    ref = reference_population(count, seed, v6_share)
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


def reference_key(seed: int, address: str, port: int, hop: int, n: int,
                  key_seed: int | None) -> Key:
    """Key `n` of the stream at `hop` of (address, port), as the README states
    the rule: the 8-byte blake2b of the network seed, address, port, hop and
    `n`, or of `seed=N` and `n` for a node with `seed=N`."""
    text = f"{seed}|{address}|{port}|{hop}|{n}" if key_seed is None else f"seed={key_seed}|{n}"
    return Key(int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"))


class ReferenceNetwork(SimNetwork):
    """Replies built the long way: the options bytes are re-parsed at every
    hop, and every SYN-ACK is encoded with `encode_packet`, decoded with
    `decode_packet` and its options parsed with `parse_options_prefix`.
    Keys come from `reference_key`, counted per stream with its own
    counters, drawn in path order forward and in reverse order back."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self._ref_counters = {}

    def _ref_key(self, syn, hop, node):
        n = next(self._ref_counters.setdefault((syn.dst, syn.dst_port, hop), itertools.count()))
        return reference_key(self.seed, syn.dst, syn.dst_port, hop, n, node.key_seed)

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
                key = self._ref_key(syn, len(path.nodes) - 1, endpoint)
                answer = MpCapable(mc.version, DEFAULT_MP_FLAGS, key)
                reply = encode_mp_capable(answer, HandshakePhase.SYN_ACK)
        for i in range(len(path.interior), 0, -1):
            node = path.interior[i - 1]
            seen, acted = records[i]
            if node.kind is BehaviorKind.MIRROR_MIDDLEBOX and seen is not None:
                reply = seen
            elif node.kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX and acted:
                key = self._ref_key(syn, i, node)
                reply = _ref_rewrite(seen, key)
        packet = TcpPacket(
            src=syn.dst, dst=syn.src, src_port=syn.dst_port, dst_port=syn.src_port,
            seq=0, ack=(syn.seq + 1) & 0xFFFFFFFF, flags=int(TcpFlags.SYN | TcpFlags.ACK),
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
        return HopReply(self._hop_address(syn.dst, ttl), quoted,
                        2.0 * path.per_hop_latency_ms * ttl)


_seeds = st.one_of(st.none(), st.integers(0, 3))
_interior = st.one_of(
    st.sampled_from([mirror(), strip(), drop(), silent()]),
    st.builds(key_rewrite, _seeds),
    st.builds(quoting, st.sampled_from([28, 64, 128])),
)
_endpoint = st.one_of(
    st.just(tcp_host()),
    st.builds(lambda versions, seed: true_host(*versions, key_seed=seed),
              st.sets(st.sampled_from([0, 1])), _seeds),
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
@settings(max_examples=300, deadline=None)
def test_replies_match_encoded_reference(interior, endpoint, address, probe_key, before,
                                         after, tail, seed):
    path = SimPath([*interior, endpoint])
    net, ref = SimNetwork(seed), ReferenceNetwork(seed)
    net.add_path(address, 443, path)
    ref.add_path(address, 443, path)
    specs = [ProbeSpec(address, 443, 0, probe_key), ProbeSpec(address, 443, 1)]
    for _ in range(2):  # keyed nodes draw fresh keys every round
        for spec in specs:
            syn = build_syn_probe(spec, seed)
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
                                st.integers(0, len(nodes)), st.builds(key_rewrite, _seeds))
    ),
    endpoint=_endpoint,
    address=st.sampled_from(["10.1.2.3", "2001:db8::7"]),
    probe_key=st.integers(0, 2**64 - 1).map(Key),
    calls=_calls,
    seed=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_call_sequences_draw_keys_as_the_reference_does(interior, endpoint, address,
                                                        probe_key, calls, seed):
    # Every pass through a key_rewrite node draws a key, so one network fed a
    # mixed sequence (repeats, TTLs out of order, both versions) must draw them
    # in the reference's order for every later reply to match.
    path = SimPath([*interior, endpoint])
    net, ref = SimNetwork(seed), ReferenceNetwork(seed)
    net.add_path(address, 443, path)
    ref.add_path(address, 443, path)
    syns = {0: build_syn_probe(ProbeSpec(address, 443, 0, probe_key), seed),
            1: build_syn_probe(ProbeSpec(address, 443, 1), seed)}
    for op, ttl, version in calls:
        syn = syns[version]
        if op == "handshake":
            assert net.handshake(syn) == ref.handshake(syn)
        else:
            assert net.ttl_probe(syn, ttl) == ref.ttl_probe(syn, ttl)
    # The network keeps one draw count per stream, and nothing else.
    assert net._key_draws == {ident: next(c) for ident, c in ref._ref_counters.items()}


# -- key draws -------------------------------------------------------------------


def _handshake_keys(net, targets):
    """The SYN-ACK sender's key of one v0 handshake to each of `targets`, in turn."""
    keys = []
    for address, port in targets:
        syn = build_syn_probe(ProbeSpec(address, port, 0, DEFAULT_PROBE_KEY), 0)
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
    # Each path on an IPv4 and an IPv6 target; draws go in `order`, and each
    # target's keys equal those of a network that probes only that target.
    lines = [f"path {address} 443 {nodes}" for i, nodes in enumerate(_KEYED_PATHS, start=1)
             for address in (f"10.0.0.{i}", f"2001:db8::{i}")]
    net = parse_topology(lines, seed=seed)
    targets = net.targets()
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
    draws=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_seeded_node_draws_one_sequence_at_every_target(key_seed, seed, addresses, port, path,
                                                        draws):
    net = parse_topology([f"path {a} {port} {path.format(key_seed)}" for a in addresses],
                         seed=seed)
    first, second = ([(a, port)] * draws for a in addresses)
    keys = _handshake_keys(net, first)
    assert _handshake_keys(net, second) == keys
    assert len(set(keys)) == draws  # still a fresh key on every draw


@given(
    seed=st.integers(0, 2**64 - 1),
    address=st.sampled_from(["10.1.2.3", "2001:db8::7"]),
    port=st.sampled_from([80, 443]),
)
@settings(max_examples=50, deadline=None)
def test_two_hops_of_one_target_draw_different_keys(seed, address, port):
    # A v0 SYN through two unseeded key_rewrite hops: the TTL 1 quote carries
    # hop 1's first key, the TTL 2 quote (in a fresh network) hop 2's first key.
    line = f"path {address} {port} key_rewrite key_rewrite true_host(v0)"
    syn = build_syn_probe(ProbeSpec(address, port, 0, DEFAULT_PROBE_KEY), 0)
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
    # A host draws once per handshake; a key_rewrite hop draws on the way out
    # and again on the way back, and the reply carries the second draw.
    hop, draws = (0, (0, 1)) if token.startswith("true_host") else (1, (1, 3))
    assert keys == [reference_key(1, "10.0.0.1", 80, hop, n, key_seed) for n in draws]
    assert DEFAULT_PROBE_KEY not in keys


def test_scan_keeps_a_few_bytes_per_target():
    # A v0 scan leaves the network only a draw count per key stream: the
    # memory it holds afterwards grows by well under 200 B per target.
    from mptcpkit.probe import Blocklist, CampaignGuard, RatePacer, VirtualClock, run_campaign

    count = 20000
    net = generate_population(count, seed=5)
    targets = net.targets()
    clock = VirtualClock()
    guard = CampaignGuard(Blocklist(), RatePacer(1e6, clock=clock, sleep=clock.sleep))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = run_campaign(targets, version=0, guard=guard, transport=net, seed=5)
        assert sum(r.label == "potential_capable" for r in records) > count // 4
        del records
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert net._key_draws  # the scan drew keys
    assert held / count < 200, f"{held / count:.0f} B per target"


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
        nodes = [strip(), tcp_host()]
        path = SimPath(nodes)
        nodes.append(mirror())  # the caller's list is not the path's
        assert path.nodes == (strip(), tcp_host())
        assert path == SimPath((strip(), tcp_host()))


def test_campaign_memo_tables_do_not_grow_with_targets():
    # The memo tables are keyed by campaign constants (version, key, seed, SYN
    # option bytes): a scan and a trace of both versions fill the same few
    # entries whether they cover 200 targets or 2,000.
    from mptcpkit import netsim, probe, tracer
    from mptcpkit.probe import Blocklist, CampaignGuard, RatePacer, VirtualClock, run_campaign
    from mptcpkit.tracer import inspect_target

    memos = (probe._syn_option, netsim._syn_view, tracer._sent_options, probe._keyed_blake2b)
    sizes = {}
    for count in (200, 2000):
        for memo in memos:
            memo.cache_clear()
        net = generate_population(count, seed=5)
        for version in (0, 1):
            clock = VirtualClock()
            guard = CampaignGuard(Blocklist(), RatePacer(1e6, clock=clock, sleep=clock.sleep))
            records = run_campaign(net.targets(), version=version, guard=guard,
                                   transport=net, seed=5)
            for record in records:
                if record.label == "potential_capable":
                    inspect_target(record.address, record.port, version, net, seed=5)
        infos = [memo.cache_info() for memo in memos]
        sizes[count] = [info.currsize for info in infos]
        assert [info.misses for info in infos] == sizes[count]  # each entry built once
        assert all(info.hits >= count for info in infos[:2])  # every probe reads them
    assert sizes[200] == sizes[2000] == [2, 2, 2, 2]  # _keyed_blake2b: seq and port sizes
