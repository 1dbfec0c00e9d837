"""Deterministic in-process network simulator.

Implements the packet-transport contract behind the scanner and the path
inspector, modeling the endpoint and middlebox behaviors observed on real
paths:

    true_host     MPTCP endpoint; answers with a fresh key for the probed
                  version when it supports it, plain SYN-ACK otherwise
    tcp_host      plain TCP endpoint
    mirror        copies the MP_CAPABLE bytes it saw in the SYN into the
                  SYN-ACK (the classic false-positive middlebox)
    strip         removes MP_CAPABLE from the forward SYN
    key_rewrite   replaces the sender's key of a keyed MP_CAPABLE in flight
                  and echoes a rewritten option into the SYN-ACK; inert for
                  keyless (v1 SYN) probes
    drop          firewall; absorbs everything
    silent        forwards but never answers TTL expiry
    quoting       forwards and answers TTL expiry with a quote of the first
                  `quote_bytes` bytes of the transformed packet

Transforming middleboxes (mirror/strip/key_rewrite) answer TTL expiry with a
full quote of the packet as they would forward it; silent and drop nodes
reveal nothing. A change to the option therefore always shows at the hop that
makes it. `SimNetwork` works out every reply, hop quote or SYN-ACK, in one
forward walk, by the rule `ground_truth` reads the labels with: the first
mirror that sees an MP_CAPABLE, or the first key_rewrite that rewrites one,
answers; else the endpoint does. `ground_truth` reads them from the path
alone, up to the first strip; neither the target's address family nor a
quoting router's size decides a label.
The network keeps no per-target state: a reply is a function of the
topology, the seed and the packet, so a repeated SYN gets the same reply,
keys included, as from a TCP stack that retransmits its SYN-ACK. Each key is
the 8-byte blake2b of `seed|address|port|hop|role`: the hop is the TTL the
node answers at, and role 0 is a host's key or a key_rewrite's rewrite, role
1 a key_rewrite's echo into the SYN-ACK. A `seed=N` node hashes
`seed=N|role`, the same at every target. The simulator reads each SYN through
`options.syn_view` and rewrites a key with `options.with_sender_key`; it
knows no MP_CAPABLE byte layout of its own.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator

from .inputs import open_in, rows, unsigned_field
from .options import (
    DEFAULT_MP_FLAGS,
    HandshakePhase,
    Key,
    MpCapable,
    TcpOption,
    encode_mp_capable,
    encode_options,
    syn_view,
    with_sender_key,
)
from .packet import FLAG_SYN, FLAG_SYN_ACK, TcpPacket, encode_packet
from .probe import ClassificationKind, HopReply, ProbeResponse, blake2b
from .record import Frozen, Record
from .tracer import PathVerdictKind


class BehaviorKind(Enum):
    TRUE_MPTCP_HOST = "true_host"
    TCP_ONLY_HOST = "tcp_host"
    MIRROR_MIDDLEBOX = "mirror"
    STRIP_MIDDLEBOX = "strip"
    KEY_REWRITE_MIDDLEBOX = "key_rewrite"
    DROP_FIREWALL = "drop"
    SILENT_ROUTER = "silent"
    QUOTING_ROUTER = "quoting"

    __hash__ = object.__hash__  # as for HandshakePhase: members are singletons


ENDPOINT_KINDS = {BehaviorKind.TRUE_MPTCP_HOST, BehaviorKind.TCP_ONLY_HOST}
SEEDED_KINDS = {BehaviorKind.TRUE_MPTCP_HOST, BehaviorKind.KEY_REWRITE_MIDDLEBOX}  # hash keys
DEFAULT_QUOTE_BYTES = 128


class NodeBehavior(Frozen):
    __slots__ = ("kind", "supported_versions", "key_seed", "quote_bytes")

    def __init__(self, kind: BehaviorKind, supported_versions: frozenset[int] = frozenset(),
                 key_seed: int | None = None, quote_bytes: int = DEFAULT_QUOTE_BYTES) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "supported_versions", supported_versions)
        object.__setattr__(self, "key_seed", key_seed)
        object.__setattr__(self, "quote_bytes", quote_bytes)

    def spec_token(self) -> str:
        """The topology-file token that reproduces this node."""
        args = []
        if self.kind is BehaviorKind.TRUE_MPTCP_HOST:
            args.extend(f"v{v}" for v in sorted(self.supported_versions))
        if self.key_seed is not None and self.kind in SEEDED_KINDS:
            args.append(f"seed={self.key_seed}")
        if self.kind is BehaviorKind.QUOTING_ROUTER and self.quote_bytes != DEFAULT_QUOTE_BYTES:
            args.append(str(self.quote_bytes))
        name = self.kind.value
        return f"{name}({','.join(args)})" if args else name


def true_host(*versions: int, key_seed: int | None = None) -> NodeBehavior:
    return NodeBehavior(
        BehaviorKind.TRUE_MPTCP_HOST,
        supported_versions=frozenset(versions),
        key_seed=key_seed,
    )


def tcp_host() -> NodeBehavior:
    return NodeBehavior(BehaviorKind.TCP_ONLY_HOST)


def mirror() -> NodeBehavior:
    return NodeBehavior(BehaviorKind.MIRROR_MIDDLEBOX)


def strip() -> NodeBehavior:
    return NodeBehavior(BehaviorKind.STRIP_MIDDLEBOX)


def key_rewrite(key_seed: int | None = None) -> NodeBehavior:
    return NodeBehavior(BehaviorKind.KEY_REWRITE_MIDDLEBOX, key_seed=key_seed)


def drop() -> NodeBehavior:
    return NodeBehavior(BehaviorKind.DROP_FIREWALL)


def silent() -> NodeBehavior:
    return NodeBehavior(BehaviorKind.SILENT_ROUTER)


def quoting(quote_bytes: int = DEFAULT_QUOTE_BYTES) -> NodeBehavior:
    return NodeBehavior(BehaviorKind.QUOTING_ROUTER, quote_bytes=quote_bytes)


class SimPath(Record):
    """One forward path: interior nodes then exactly one endpoint at the tail.

    What the simulator asks of a path on every probe (its interior, whether
    it drops or strips, its round trip) is worked out once, at construction;
    the nodes are kept as a tuple, and a path is not changed afterwards.
    A path holds no per-target state (a key hashes its target's address and
    port), so targets with equal paths share one. Paths compare by nodes and
    latency.
    """

    __slots__ = ("nodes", "per_hop_latency_ms", "interior", "endpoint", "drops", "strips",
                 "rtt_ms")
    _fields = __slots__[:2]

    def __init__(self, nodes: Iterable[NodeBehavior], per_hop_latency_ms: float = 1.0) -> None:
        nodes = self.nodes = tuple(nodes)
        self.per_hop_latency_ms = per_hop_latency_ms
        if not nodes:
            raise ValueError("a path needs at least the endpoint node")
        if nodes[-1].kind not in ENDPOINT_KINDS:
            raise ValueError(f"last node must be an endpoint, got {nodes[-1].kind}")
        if not 0.0 <= self.per_hop_latency_ms < math.inf:  # NaN fails too
            raise ValueError(f"latency must be finite and >= 0, got {self.per_hop_latency_ms}")
        drops = strips = False
        for node in nodes[:-1]:
            kind = node.kind
            if kind in ENDPOINT_KINDS:
                raise ValueError("endpoint behavior in the path interior")
            drops = drops or kind is BehaviorKind.DROP_FIREWALL
            strips = strips or kind is BehaviorKind.STRIP_MIDDLEBOX
        self.interior = nodes[:-1]
        self.endpoint = nodes[-1]
        self.drops = drops
        self.strips = strips
        self.rtt_ms = 2.0 * self.per_hop_latency_ms * len(nodes)


class GroundTruth(Record):
    """Construction-time labels a correct scan + trace must reproduce."""

    __slots__ = ("classification", "verdict", "first_modifying_ttl")

    def __init__(self, classification: ClassificationKind, verdict: PathVerdictKind,
                 first_modifying_ttl: int | None = None) -> None:
        self.classification, self.verdict = classification, verdict
        self.first_modifying_ttl = first_modifying_ttl


class SimNetwork:
    """A population of simulated paths addressed by (address, port)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.paths: dict[tuple[str, int], SimPath] = {}
        # Has absorbed `seed|`: a node without a seed of its own hashes each key from a copy.
        self._key_hash = blake2b(b"%d|" % seed, digest_size=8)

    def add_path(self, address: str, port: int, path: SimPath) -> None:
        self.paths[(address, port)] = path

    def _key(self, address: str, port: int, hop: int, node: NodeBehavior, role: int = 0) -> Key:
        """The key of `node` at `hop` of (address, port) in `role`: the blake2b
        of `seed|address|port|hop|role`. A `seed=N` node hashes `seed=N|role`
        alone (no network seed's text starts so), the same at every target."""
        seed = node.key_seed
        if seed is None:
            h = self._key_hash.copy()
            h.update(f"{address}|{port}|{hop}|{role}".encode())
        else:
            h = blake2b(b"seed=%d|%d" % (seed, role), digest_size=8)
        return Key(int.from_bytes(h.digest(), "big"))

    # -- the one walk -------------------------------------------------------

    def _walk(self, path: SimPath, syn: TcpPacket, ttl: int) -> HopReply | ProbeResponse | None:
        """The reply to `syn` sent with `ttl`: the quote of hop `ttl` when that
        hop lies inside the path, else the endpoint's SYN-ACK; None when a drop
        or a silent hop absorbs it. One forward walk over `path.interior[:ttl]`
        transforms the options bytes and hashes keys as the module docstring
        states. The SYN-ACK's one option, if any, comes from an encoder or a
        parse, so it is not parsed again and carries no note.
        """
        if not syn.flags & FLAG_SYN:
            raise ValueError("the simulator answers only SYNs")
        view = syn_view(syn.options)
        options, parsed, mp, mc = syn.options, view.parsed, view.mp, view.any_mc
        keyed = mc is not None and mc.sender_key is not None
        address, port, interior = syn.dst, syn.dst_port, path.interior
        reply = None
        for i, node in enumerate(interior[:ttl], start=1):
            kind = node.kind
            if kind is BehaviorKind.DROP_FIREWALL:
                return None
            if kind is BehaviorKind.STRIP_MIDDLEBOX:
                parsed = [o for o in parsed if o.kind != 30]
                options = encode_options(parsed)
                mp, keyed = None, False
            elif kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX and keyed:
                # A rewrite keeps the option's form, so it stays keyed. Its echo
                # is the reply only if the SYN reaches the endpoint.
                mp = with_sender_key(mp, self._key(address, port, i, node))
                parsed = [mp, *(o for o in parsed if o.kind != 30)]
                options = encode_options(parsed)
                reply = reply or with_sender_key(mp, self._key(address, port, i, node, 1))
            elif kind is BehaviorKind.MIRROR_MIDDLEBOX:
                reply = reply or mp
        if ttl <= len(interior):
            node = interior[ttl - 1]
            if node.kind is BehaviorKind.SILENT_ROUTER:
                return None
            # The packet as this hop would forward it, TTL spent.
            quoted = encode_packet(syn, ttl=0, options=options)
            if node.kind is BehaviorKind.QUOTING_ROUTER:
                quoted = quoted[: node.quote_bytes]
            responder = f"2001:db8:ee::{ttl:x}" if ":" in address else f"198.51.100.{ttl}"
            return HopReply(responder, quoted, 2.0 * path.per_hop_latency_ms * ttl)
        # `mp` is the SYN's own option or a key_rewrite of it, which changes
        # only the key bytes, so it decodes as `view.syn_mc` does.
        endpoint, mc = path.endpoint, view.syn_mc
        if (reply is None and mp is not None and mc is not None
                and endpoint.kind is BehaviorKind.TRUE_MPTCP_HOST
                and mc.version in endpoint.supported_versions):
            # The endpoint's hop is the TTL it answers at.
            key = self._key(address, port, len(path.nodes), endpoint)
            answer = MpCapable(mc.version, DEFAULT_MP_FLAGS, key)
            reply = TcpOption(30, encode_mp_capable(answer, HandshakePhase.SYN_ACK)[2:])
        return ProbeResponse(FLAG_SYN_ACK, [] if reply is None else [reply], path.rtt_ms)

    # -- transport contract -------------------------------------------------

    def handshake(self, syn: TcpPacket) -> ProbeResponse | None:
        path = self.paths.get((syn.dst, syn.dst_port))
        return None if path is None else self._walk(path, syn, len(path.nodes))

    def ttl_probe(self, syn: TcpPacket, ttl: int) -> HopReply | ProbeResponse | None:
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        path = self.paths.get((syn.dst, syn.dst_port))
        return None if path is None else self._walk(path, syn, ttl)


# -- construction ground truth ------------------------------------------------


def ground_truth(path: SimPath, version: int) -> GroundTruth:
    """Labels the scan and trace machinery must produce for this topology.

    Read from the path alone, in one forward walk up to the first strip,
    independent of the byte-level codec and packet plumbing it checks:
    any drop leaves no reply; the first strip, or the first key_rewrite of a
    keyed (v0) option, is the first modifying TTL, since a node that changes
    the option quotes the whole packet it forwards; the nearest mirror
    (`mirrored_key`) or keyed key_rewrite (`potential_capable`) answers;
    past them, an unstripped option reaching a true_host of `version` gets a
    key of the host's own. Anything else gets no MP_CAPABLE.
    """
    if path.drops:
        return GroundTruth(ClassificationKind.NO_RESPONSE, PathVerdictKind.UNREACHABLE)
    keyed = version == 0
    first_mod = reply = None
    for ttl, node in enumerate(path.interior, start=1):
        kind = node.kind
        if kind is BehaviorKind.STRIP_MIDDLEBOX:
            first_mod = first_mod or ttl
            break
        if kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX and keyed:
            first_mod = first_mod or ttl
            reply = reply or ClassificationKind.POTENTIAL_CAPABLE
        elif kind is BehaviorKind.MIRROR_MIDDLEBOX:
            reply = reply or ClassificationKind.MIRRORED_KEY
    else:
        endpoint = path.endpoint
        if (reply is None and endpoint.kind is BehaviorKind.TRUE_MPTCP_HOST
                and version in endpoint.supported_versions):
            return GroundTruth(ClassificationKind.POTENTIAL_CAPABLE, PathVerdictKind.TRULY_CAPABLE)
    verdict = PathVerdictKind.MIDDLEBOX_AFFECTED if first_mod else PathVerdictKind.NOT_CAPABLE
    return GroundTruth(reply or ClassificationKind.NO_MP_CAPABLE, verdict, first_mod)


# -- topology files ------------------------------------------------------------


def _parse_node(token: str) -> NodeBehavior:
    name, _, arg_text = token.partition("(")
    name = name.strip()
    args = []
    if arg_text:
        if not arg_text.endswith(")"):
            raise ValueError(f"unbalanced parens in node token {token!r}")
        args = [a.strip() for a in arg_text[:-1].split(",") if a.strip()]
    try:
        kind = BehaviorKind(name)
    except ValueError:
        raise ValueError(f"unknown node behavior {name!r}") from None
    versions: set[int] = set()
    key_seed: int | None = None
    quote_bytes = DEFAULT_QUOTE_BYTES
    for arg in args:  # each kind takes only the arguments `spec_token` writes for it
        if arg in ("v0", "v1") and kind is BehaviorKind.TRUE_MPTCP_HOST:
            versions.add(1 if arg == "v1" else 0)
        elif arg.startswith("seed=") and kind in SEEDED_KINDS:
            key_seed = int(arg.split("=", 1)[1])  # signed: a key hashes its decimal text
        elif arg.isdigit() and kind is BehaviorKind.QUOTING_ROUTER:
            quote_bytes = unsigned_field(arg, "quote size")
        else:
            raise ValueError(f"unknown node argument {arg!r} in {token!r}")
    return NodeBehavior(kind, frozenset(versions), key_seed, quote_bytes)


def _latency(text: str) -> float:
    """A `latency=` value as `topology_lines` writes it with `:g`: a number
    (`SimPath` checks its range) in ASCII that starts with a digit, no `_`."""
    value = float(text)
    if text[:1].isdigit() and text.isascii() and "_" not in text:
        return value
    raise ValueError(f"latency must be finite and >= 0, in ASCII that starts with a digit, "
                     f"no '_', got {text!r}")


def parse_topology(lines: Iterable[str], seed: int = 0) -> SimNetwork:
    """Build a SimNetwork from line-oriented text.

    Grammar, one path per line (`#` comments allowed):

        path <address> <port> [latency=<ms>] <node> [<node> ...]

    `<port>` is an integer in [0, 65535].
    Node tokens, each with only the arguments shown: true_host(v0,v1,seed=N)
    tcp_host mirror strip key_rewrite(seed=N) drop silent quoting(<bytes>)

    Lines with the same text after the port, compared as written (inner
    whitespace included), share one SimPath, which holds no per-target state;
    lines with the same port text share one port int. Every error names its
    line: `line N: <message>`, N counting comment and blank lines too.
    """
    net = SimNetwork(seed)
    # Node behaviors are frozen and keys are hashed by position, not by node,
    # so paths can share one instance per distinct token.
    parse_node = functools.lru_cache(maxsize=None)(_parse_node)
    paths_by_text: dict[str, SimPath] = {}
    ports: dict[str, int] = {}

    def path_line(line: str) -> tuple[str, int, SimPath]:
        fields = line.split(None, 3)
        if fields[0] != "path" or len(fields) < 4:
            raise ValueError("expected `path <addr> <port> <nodes...>`")
        _, address, port, text = fields
        path = paths_by_text.get(text)
        if path is None:
            tokens, latency = text.split(), 1.0
            if tokens[0].startswith("latency="):
                latency = _latency(tokens.pop(0).split("=", 1)[1])
            nodes = [parse_node(token) for token in tokens]
            path = paths_by_text[text] = SimPath(nodes, per_hop_latency_ms=latency)
        number = ports.get(port)
        if number is None:
            try:
                number = unsigned_field(port, "port")
            except ValueError:
                number = -1
            if not 0 <= number <= 65535:
                raise ValueError(f"port must be an integer in [0, 65535], got {port!r}")
            ports[port] = number
        return address, number, path

    for address, port, path in rows(lines, path_line):
        net.add_path(address, port, path)
    return net


def load_topology(path: str | Path, seed: int = 0) -> SimNetwork:
    with open_in(path) as f:
        return parse_topology(f, seed=seed)


def topology_lines(net: SimNetwork) -> Iterator[str]:
    """The topology file of `net`, one line (newline included) at a time, in
    target order; an empty network is one blank line."""
    paths = net.paths
    if not paths:
        yield "\n"
        return
    text_by_path: dict[int, str] = {}  # targets share paths; `net` keeps them alive
    spec_token = functools.lru_cache(maxsize=None)(NodeBehavior.spec_token)  # few distinct nodes
    for address, port in sorted(paths):
        path = paths[address, port]
        text = text_by_path.get(id(path))
        if text is None:
            latency = ""
            if path.per_hop_latency_ms != 1.0:
                latency = f"latency={path.per_hop_latency_ms:g} "
            text = text_by_path[id(path)] = latency + " ".join(map(spec_token, path.nodes))
        yield f"path {address} {port} {text}\n"


def format_topology(net: SimNetwork) -> str:
    return "".join(topology_lines(net))


# Targets the IPv4 plan 10.x.y.z can number, from 1.
MAX_GENERATED_TARGETS = 2**24 - 1

# The chance that a generated target is an IPv6 address.
V6_SHARE = 0.2


def _target_address(host: int, v6: bool) -> str:
    """The address of generated target number `host`: the number in the low
    bits of 10.0.0.0/8 or of 2001:db8:1::/64, one 16-bit group per 0xffff."""
    if not v6:
        return f"10.{host >> 16}.{(host >> 8) & 255}.{host & 255}"
    if host <= 0xFFFF:
        return f"2001:db8:1::{host:x}"
    return f"2001:db8:1::{host >> 16:x}:{host & 0xFFFF:x}"


def generate_population(count: int, seed: int) -> SimNetwork:
    """Generate a mixed target population with every behavior represented."""
    if count > MAX_GENERATED_TARGETS:
        raise ValueError(f"cannot generate {count} targets: at most {MAX_GENERATED_TARGETS}")
    rng = random.Random(seed)
    draw = rng.random
    net = SimNetwork(seed)
    kinds = [BehaviorKind.MIRROR_MIDDLEBOX, BehaviorKind.STRIP_MIDDLEBOX,
             BehaviorKind.KEY_REWRITE_MIDDLEBOX, BehaviorKind.DROP_FIREWALL,
             BehaviorKind.SILENT_ROUTER, BehaviorKind.QUOTING_ROUTER]
    quote_sizes = (28, 64, DEFAULT_QUOTE_BYTES)
    endpoints = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
    # rng.choices(pop, cum_weights=cw)[0] is pop[bisect_right(cw, random() * cw[-1],
    # 0, len(cw) - 1)]; it is inlined here with the same draws.
    kind_cum = list(accumulate([0.18, 0.14, 0.10, 0.08, 0.20, 0.30]))  # weights of `kinds`
    length_cum = list(accumulate([30, 28, 22, 12, 8]))
    versions_cum = list(accumulate([50, 20, 30]))
    # A path is drawn as a tuple of keys (interior kinds, a quote size for a quoting
    # router, then the endpoint's versions or None); equal draws share one SimPath.
    node_for: dict = {None: tcp_host(), **{kind: NodeBehavior(kind) for kind in kinds},
                      **{size: quoting(size) for size in quote_sizes},
                      **{versions: true_host(*versions) for versions in endpoints}}
    paths: dict[tuple, SimPath] = {}
    for i in range(count):
        address = _target_address(i + 1, draw() < V6_SHARE)
        port = rng.choice((80, 443))
        shape = []
        for _ in range(bisect_right(length_cum, draw() * length_cum[-1], 0, 4)):
            kind = kinds[bisect_right(kind_cum, draw() * kind_cum[-1], 0, 5)]
            if kind is BehaviorKind.QUOTING_ROUTER:
                kind = rng.choice(quote_sizes)
            shape.append(kind)
        versions = None  # a TCP host
        if draw() < 0.55:
            versions = endpoints[bisect_right(versions_cum, draw() * versions_cum[-1], 0, 2)]
        key = (*shape, versions)
        path = paths.get(key)
        if path is None:
            path = paths[key] = SimPath([node_for[k] for k in key])
        net.add_path(address, port, path)
    return net
