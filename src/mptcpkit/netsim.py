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
reveal nothing. Identical seeds and topologies produce byte-identical
traffic.
"""

from __future__ import annotations

import functools
import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import OptionError
from .inputs import data_line
from .options import (
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
from .packet import (
    FLAG_SYN,
    FLAG_SYN_ACK,
    IPV4_HEADER_LEN,
    IPV6_HEADER_LEN,
    TcpPacket,
    encode_packet,
    ip_family,
)
from .probe import ClassificationKind, HopReply, ProbeResponse
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
DEFAULT_QUOTE_BYTES = 128


@dataclass(frozen=True, slots=True)
class NodeBehavior:
    kind: BehaviorKind
    supported_versions: frozenset[int] = frozenset()
    key_seed: int | None = None
    quote_bytes: int = DEFAULT_QUOTE_BYTES

    def spec_token(self) -> str:
        """The topology-file token that reproduces this node."""
        args = []
        if self.kind is BehaviorKind.TRUE_MPTCP_HOST:
            args.extend(f"v{v}" for v in sorted(self.supported_versions))
        if self.key_seed is not None:
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


@dataclass(slots=True)
class SimPath:
    """One forward path: interior nodes then exactly one endpoint at the tail.

    What the simulator asks of a path on every probe (its interior, whether
    it drops or strips, its round trip) is worked out once, at construction;
    the nodes are kept as a tuple, and a path is not changed afterwards.
    A path holds no per-target state (key streams live in the SimNetwork,
    keyed by address, port and hop), so targets with equal paths share one.
    """

    nodes: tuple[NodeBehavior, ...]
    per_hop_latency_ms: float = 1.0
    interior: tuple[NodeBehavior, ...] = field(init=False, repr=False, compare=False)
    endpoint: NodeBehavior = field(init=False, repr=False, compare=False)
    drops: bool = field(init=False, repr=False, compare=False)
    strips: bool = field(init=False, repr=False, compare=False)
    rtt_ms: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = self.nodes = tuple(self.nodes)
        if not nodes:
            raise ValueError("a path needs at least the endpoint node")
        if nodes[-1].kind not in ENDPOINT_KINDS:
            raise ValueError(f"last node must be an endpoint, got {nodes[-1].kind}")
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


@dataclass(slots=True)
class GroundTruth:
    """Construction-time labels a correct scan + trace must reproduce."""

    classification: ClassificationKind
    verdict: PathVerdictKind
    first_modifying_ttl: int | None = None


def _derive_seed(*parts) -> int:
    digest = hashlib.blake2b(
        "|".join(str(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class _KeySource(random.Random):
    """Seeded deterministic 64-bit key generator."""

    def next_key(self) -> Key:
        return Key(self.getrandbits(64))


def _replace_mp_capable(
    parsed: Sequence[TcpOption], new_option: TcpOption | None
) -> list[TcpOption]:
    """Drop every kind-30 option; put `new_option` (if any) at the front.
    Options from a parse encode to bytes that parse back to the same list."""
    kept = [o for o in parsed if o.kind != 30]
    return kept if new_option is None else [new_option, *kept]


def _with_sender_key(opt: TcpOption, key: Key) -> TcpOption:
    """The keyed MP_CAPABLE `opt` with its sender's key swapped for `key`."""
    return TcpOption(30, opt.payload[:2] + key.to_bytes() + opt.payload[10:])


class _SynView(NamedTuple):
    """What the simulator reads from one SYN's option bytes."""

    parsed: tuple[TcpOption, ...]
    mp: TcpOption | None  # the first MP_CAPABLE
    keyed: bool  # `mp` decodes, in some phase, with a sender's key
    syn_mc: MpCapable | None  # `mp` decoded as a SYN; None if it does not decode


# Keyed by the SYN's option bytes, which every probe of a campaign shares.
@functools.lru_cache(maxsize=16)
def _syn_view(options: bytes) -> _SynView:
    parsed, _ = parse_options_prefix(options)
    mp = find_mp_capable(parsed)
    if mp is None:
        return _SynView(tuple(parsed), None, False, None)
    any_mc = decode_mp_capable_any(mp)
    try:
        syn_mc = decode_mp_capable(mp, HandshakePhase.SYN)
    except OptionError:
        syn_mc = None
    return _SynView(tuple(parsed), mp, any_mc is not None and any_mc.sender_key is not None,
                    syn_mc)


class SimNetwork:
    """A population of simulated paths addressed by (address, port)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.paths: dict[tuple[str, int], SimPath] = {}
        self._key_sources: dict[tuple, _KeySource] = {}

    def add_path(self, address: str, port: int, path: SimPath) -> None:
        self.paths[(address, port)] = path

    def targets(self) -> list[tuple[str, int]]:
        return sorted(self.paths)

    def _keys_for(self, address: str, port: int, index: int, node: NodeBehavior) -> _KeySource:
        ident = (address, port, index)
        source = self._key_sources.get(ident)
        if source is None:
            seed = node.key_seed
            if seed is None:
                seed = _derive_seed(self.seed, address, port, index)
            source = self._key_sources[ident] = _KeySource(seed)
        return source

    def _hop_address(self, target: str, ttl: int) -> str:
        if ip_family(target) == 4:
            return f"198.51.100.{ttl}"
        return f"2001:db8:ee::{ttl:x}"

    # -- forward/response passes ------------------------------------------

    def _forward(
        self, path: SimPath, syn: TcpPacket, view: _SynView, up_to: int
    ) -> tuple[bytes | None, TcpOption | None, list[tuple[TcpOption | None, bool]]]:
        """Apply interior transforms for hops 1..up_to to the SYN `view` reads.

        Returns the options bytes (None when dropped), the MP_CAPABLE they
        carry, and per node in path order (MP_CAPABLE seen after its own
        transform, rewrite acted). A key_rewrite node draws a key on every
        pass, whether or not it can use it.
        """
        options, parsed, mp, keyed = syn.options, view.parsed, view.mp, view.keyed
        records: list[tuple[TcpOption | None, bool]] = []
        for i, node in enumerate(path.interior[:up_to], start=1):
            kind = node.kind
            if kind is BehaviorKind.DROP_FIREWALL:
                return None, mp, records
            if kind is BehaviorKind.STRIP_MIDDLEBOX:
                parsed = _replace_mp_capable(parsed, None)
                options = encode_options(parsed)
                mp, keyed = None, False
            elif kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX:
                key = self._keys_for(syn.dst, syn.dst_port, i, node).next_key()
                if keyed:  # a rewrite keeps the option's form, so it stays keyed
                    mp = _with_sender_key(mp, key)
                    parsed = _replace_mp_capable(parsed, mp)
                    options = encode_options(parsed)
                    records.append((mp, True))
                    continue
            records.append((mp, False))
        return options, mp, records

    def _endpoint_reply(
        self, path: SimPath, syn: TcpPacket, view: _SynView, mp: TcpOption | None
    ) -> TcpOption | None:
        """MP_CAPABLE of the endpoint's SYN-ACK to a SYN arriving with `mp`;
        None means plain TCP.

        `mp` is the SYN's own option or a key_rewrite of it, which changes
        only the key bytes, so it decodes as `view.syn_mc` does (same
        version, or no decode at all).
        """
        endpoint = path.endpoint
        if endpoint.kind is BehaviorKind.TCP_ONLY_HOST or mp is None:
            return None
        mc = view.syn_mc
        if mc is None or mc.version not in endpoint.supported_versions:
            return None  # no version overlap: fall back to plain TCP
        src = self._keys_for(syn.dst, syn.dst_port, len(path.nodes) - 1, endpoint)
        reply = MpCapable(mc.version, DEFAULT_MP_FLAGS, src.next_key())
        return TcpOption(30, encode_mp_capable(reply, HandshakePhase.SYN_ACK)[2:])

    def _respond(self, path: SimPath, syn: TcpPacket) -> ProbeResponse | None:
        """The target's SYN-ACK as it arrives back; None when the SYN is dropped.

        Its one option, if any, comes from an encoder or a parse, so it is
        not parsed again and carries no note.
        """
        view = _syn_view(syn.options)
        forward, mp, records = self._forward(path, syn, view, len(path.interior))
        if forward is None:
            return None
        reply = self._endpoint_reply(path, syn, view, mp)
        interior = path.interior
        for i in range(len(records), 0, -1):
            node = interior[i - 1]
            seen, acted = records[i - 1]
            if node.kind is BehaviorKind.MIRROR_MIDDLEBOX and seen is not None:
                reply = seen
            elif node.kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX and acted:
                src = self._keys_for(syn.dst, syn.dst_port, i, node)
                reply = _with_sender_key(seen, src.next_key())
        return ProbeResponse(FLAG_SYN_ACK, [] if reply is None else [reply], path.rtt_ms)

    # -- transport contract -------------------------------------------------

    def handshake(self, syn: TcpPacket) -> ProbeResponse | None:
        if not syn.flags & FLAG_SYN:
            raise ValueError("handshake needs a SYN")
        path = self.paths.get((syn.dst, syn.dst_port))
        return None if path is None else self._respond(path, syn)

    def ttl_probe(self, syn: TcpPacket, ttl: int) -> HopReply | ProbeResponse | None:
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        path = self.paths.get((syn.dst, syn.dst_port))
        if path is None:
            return None
        interior = path.interior
        if ttl <= len(interior):
            forward, _mp, _records = self._forward(path, syn, _syn_view(syn.options), ttl)
            if forward is None:
                return None
            node = interior[ttl - 1]
            if node.kind in (BehaviorKind.SILENT_ROUTER, BehaviorKind.DROP_FIREWALL):
                return None
            # The packet as this hop would forward it, TTL spent.
            quoted = encode_packet(syn, ttl=0, options=forward)
            if node.kind is BehaviorKind.QUOTING_ROUTER:
                quoted = quoted[: node.quote_bytes]
            rtt = 2.0 * path.per_hop_latency_ms * ttl
            return HopReply(self._hop_address(syn.dst, ttl), quoted, rtt)
        return self._respond(path, syn)


# -- construction ground truth ------------------------------------------------


def _quote_reaches_options(node: NodeBehavior, family: int, options_len: int) -> bool:
    if node.kind is not BehaviorKind.QUOTING_ROUTER:
        return True  # transforming middleboxes quote the whole packet
    ip_len = IPV4_HEADER_LEN if family == 4 else IPV6_HEADER_LEN
    padded = options_len + (-options_len % 4)
    return node.quote_bytes >= ip_len + 20 + padded


def ground_truth(path: SimPath, version: int, target_family: int = 4) -> GroundTruth:
    """Labels the scan and trace machinery must produce for this topology.

    Derived from path structure alone (an abstract walk over option states),
    independent of the byte-level codec and packet plumbing it checks.
    """
    keyed = version == 0
    sent_len = 12 if keyed else 4
    fwd = "intact"  # intact | rewritten | stripped
    first_mod: int | None = None
    dropped = False
    record: dict[int, str] = {}

    for i, node in enumerate(path.interior, start=1):
        kind = node.kind
        if kind is BehaviorKind.DROP_FIREWALL:
            dropped = True
            break
        if kind is BehaviorKind.STRIP_MIDDLEBOX:
            fwd = "stripped"
        elif kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX and keyed and fwd != "stripped":
            fwd = "rewritten"
        record[i] = fwd
        quotes = kind is not BehaviorKind.SILENT_ROUTER
        opt_len = 0 if fwd == "stripped" else sent_len
        if (
            quotes
            and fwd != "intact"
            and first_mod is None
            and _quote_reaches_options(node, target_family, opt_len)
        ):
            first_mod = i

    if dropped:
        return GroundTruth(ClassificationKind.NO_RESPONSE, PathVerdictKind.UNREACHABLE)

    endpoint = path.endpoint
    if (
        endpoint.kind is BehaviorKind.TRUE_MPTCP_HOST
        and version in endpoint.supported_versions
        and fwd != "stripped"
    ):
        reply = "fresh"
    else:
        reply = "none"

    for i in range(len(path.interior), 0, -1):
        node = path.interior[i - 1]
        state = record[i]
        if node.kind is BehaviorKind.MIRROR_MIDDLEBOX and state != "stripped":
            reply = "echo" if state == "intact" else "rewritten"
        elif (
            node.kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX
            and keyed
            and state != "stripped"
        ):
            reply = "rewritten"

    classification = {
        "none": ClassificationKind.NO_MP_CAPABLE,
        "echo": ClassificationKind.MIRRORED_KEY,
        "fresh": ClassificationKind.POTENTIAL_CAPABLE,
        "rewritten": ClassificationKind.POTENTIAL_CAPABLE,
    }[reply]

    if first_mod is not None:
        verdict = PathVerdictKind.MIDDLEBOX_AFFECTED
    elif reply == "fresh":
        verdict = PathVerdictKind.TRULY_CAPABLE
    else:
        verdict = PathVerdictKind.NOT_CAPABLE
    return GroundTruth(classification, verdict, first_mod)


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
    for arg in args:
        if arg in ("v0", "v1"):
            versions.add(int(arg[1]))
        elif arg.startswith("seed="):
            key_seed = int(arg.split("=", 1)[1])
        elif arg.startswith(("quote=", "bytes=")):
            quote_bytes = int(arg.split("=", 1)[1])
        elif arg.isdigit():
            quote_bytes = int(arg)
        else:
            raise ValueError(f"unknown node argument {arg!r} in {token!r}")
    return NodeBehavior(
        kind,
        supported_versions=frozenset(versions),
        key_seed=key_seed,
        quote_bytes=quote_bytes,
    )


def parse_topology(lines: Iterable[str], seed: int = 0) -> SimNetwork:
    """Build a SimNetwork from line-oriented text.

    Grammar, one path per line (`#` comments allowed):

        path <address> <port> [latency=<ms>] <node> [<node> ...]

    Node tokens: true_host(v0,v1,seed=N) tcp_host mirror strip
    key_rewrite(seed=N) drop silent quoting(<bytes>)

    Lines with the same text after the port share one SimPath, which holds
    no per-target state.
    """
    net = SimNetwork(seed)
    # Node behaviors are frozen and key streams are keyed by position, not by
    # node, so paths can share one instance per distinct token.
    parse_node = functools.lru_cache(maxsize=None)(_parse_node)
    paths_by_text: dict[tuple[str, ...], SimPath] = {}
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


def load_topology(path: str | Path, seed: int = 0) -> SimNetwork:
    with open(path, encoding="utf-8") as f:
        return parse_topology(f, seed=seed)


def format_topology(net: SimNetwork) -> str:
    lines = []
    text_by_path: dict[int, str] = {}  # targets share paths; `net` keeps them alive
    spec_token = functools.lru_cache(maxsize=None)(NodeBehavior.spec_token)  # few distinct nodes
    for (address, port), path in sorted(net.paths.items()):
        text = text_by_path.get(id(path))
        if text is None:
            latency = ""
            if path.per_hop_latency_ms != 1.0:
                latency = f"latency={path.per_hop_latency_ms:g} "
            text = text_by_path[id(path)] = latency + " ".join(map(spec_token, path.nodes))
        lines.append(f"path {address} {port} {text}")
    return "\n".join(lines) + "\n"


# Targets the IPv4 plan 10.x.y.z can number, from 1.
MAX_GENERATED_TARGETS = 2**24 - 1


def _target_address(host: int, v6: bool) -> str:
    """The address of generated target number `host`: the number in the low
    bits of 10.0.0.0/8 or of 2001:db8:1::/64, one 16-bit group per 0xffff."""
    if not v6:
        return f"10.{host >> 16}.{(host >> 8) & 255}.{host & 255}"
    if host <= 0xFFFF:
        return f"2001:db8:1::{host:x}"
    return f"2001:db8:1::{host >> 16:x}:{host & 0xFFFF:x}"


def generate_population(count: int, seed: int, v6_share: float = 0.2) -> SimNetwork:
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
        address = _target_address(i + 1, draw() < v6_share)
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
