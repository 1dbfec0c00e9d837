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

import hashlib
import random
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import Iterable

from .errors import OptionError
from .inputs import data_lines
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
from .packet import IPV4_HEADER_LEN, IPV6_HEADER_LEN, TcpFlags, TcpPacket, encode_packet, ip_family
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


ENDPOINT_KINDS = {BehaviorKind.TRUE_MPTCP_HOST, BehaviorKind.TCP_ONLY_HOST}
DEFAULT_QUOTE_BYTES = 128
_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)


@dataclass(frozen=True)
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


@dataclass
class SimPath:
    """One forward path: interior nodes then exactly one endpoint at the tail."""

    nodes: list[NodeBehavior]
    per_hop_latency_ms: float = 1.0

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a path needs at least the endpoint node")
        if self.nodes[-1].kind not in ENDPOINT_KINDS:
            raise ValueError(f"last node must be an endpoint, got {self.nodes[-1].kind}")
        for node in self.nodes[:-1]:
            if node.kind in ENDPOINT_KINDS:
                raise ValueError("endpoint behavior in the path interior")

    @property
    def interior(self) -> list[NodeBehavior]:
        return self.nodes[:-1]

    @property
    def endpoint(self) -> NodeBehavior:
        return self.nodes[-1]


@dataclass(frozen=True)
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


class _KeySource:
    """Seeded deterministic 64-bit key generator."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def next_key(self) -> Key:
        return Key(self._rng.getrandbits(64))


def _replace_mp_capable(parsed: list[TcpOption], new_option: TcpOption | None) -> list[TcpOption]:
    """Drop every kind-30 option; put `new_option` (if any) at the front.
    Options from a parse encode to bytes that parse back to the same list."""
    kept = [o for o in parsed if o.kind != 30]
    return kept if new_option is None else [new_option, *kept]


def _rewrite_sender_key(opt: TcpOption | None, key: Key) -> TcpOption | None:
    """The MP_CAPABLE `opt` with the sender's key swapped; None if keyless."""
    if opt is None:
        return None
    mc = decode_mp_capable_any(opt)
    if mc is None or mc.sender_key is None:
        return None
    return TcpOption(30, opt.payload[:2] + key.to_bytes() + opt.payload[10:])


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
        if ident not in self._key_sources:
            seed = node.key_seed
            if seed is None:
                seed = _derive_seed(self.seed, address, port, index)
            self._key_sources[ident] = _KeySource(seed)
        return self._key_sources[ident]

    def _hop_address(self, target: str, ttl: int) -> str:
        if ip_family(target) == 4:
            return f"198.51.100.{ttl}"
        return f"2001:db8:ee::{ttl:x}"

    # -- forward/response passes ------------------------------------------

    def _forward(
        self, path: SimPath, syn: TcpPacket, up_to: int
    ) -> tuple[bytes | None, list[TcpOption], list[tuple[TcpOption | None, bool]]]:
        """Apply interior transforms for hops 1..up_to.

        Returns the options bytes (None when dropped), their parse (kept in
        step, never re-parsed), and per node in path order (MP_CAPABLE seen
        after its own transform, rewrite acted).
        """
        options = syn.options
        parsed, _ = parse_options_prefix(options)
        records: list[tuple[TcpOption | None, bool]] = []
        for i, node in enumerate(path.interior[:up_to], start=1):
            if node.kind is BehaviorKind.DROP_FIREWALL:
                return None, parsed, records
            if node.kind is BehaviorKind.STRIP_MIDDLEBOX:
                parsed = _replace_mp_capable(parsed, None)
                options = encode_options(parsed)
            elif node.kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX:
                src = self._keys_for(syn.dst, syn.dst_port, i, node)
                rewritten = _rewrite_sender_key(find_mp_capable(parsed), src.next_key())
                if rewritten is not None:
                    parsed = _replace_mp_capable(parsed, rewritten)
                    options = encode_options(parsed)
                    records.append((rewritten, True))
                    continue
            records.append((find_mp_capable(parsed), False))
        return options, parsed, records

    def _endpoint_reply(
        self, path: SimPath, syn: TcpPacket, forward: list[TcpOption]
    ) -> TcpOption | None:
        """MP_CAPABLE of the endpoint's SYN-ACK; None means plain TCP."""
        endpoint = path.endpoint
        if endpoint.kind is BehaviorKind.TCP_ONLY_HOST:
            return None
        opt = find_mp_capable(forward)
        if opt is None:
            return None
        try:
            mc = decode_mp_capable(opt, HandshakePhase.SYN)
        except OptionError:
            return None
        if mc.version not in endpoint.supported_versions:
            return None  # no version overlap: fall back to plain TCP
        src = self._keys_for(syn.dst, syn.dst_port, len(path.nodes) - 1, endpoint)
        reply = MpCapable(mc.version, DEFAULT_MP_FLAGS, src.next_key())
        return TcpOption(30, encode_mp_capable(reply, HandshakePhase.SYN_ACK)[2:])

    def _respond(self, path: SimPath, syn: TcpPacket) -> ProbeResponse | None:
        """The target's SYN-ACK as it arrives back; None when the SYN is dropped.

        Its one option, if any, comes from an encoder or a parse, so it is
        not parsed again and carries no note.
        """
        forward, parsed, records = self._forward(path, syn, len(path.interior))
        if forward is None:
            return None
        reply = self._endpoint_reply(path, syn, parsed)
        for i in range(len(records), 0, -1):
            node = path.interior[i - 1]
            seen, acted = records[i - 1]
            if node.kind is BehaviorKind.MIRROR_MIDDLEBOX and seen is not None:
                reply = seen
            elif node.kind is BehaviorKind.KEY_REWRITE_MIDDLEBOX and acted:
                src = self._keys_for(syn.dst, syn.dst_port, i, node)
                reply = _rewrite_sender_key(seen, src.next_key())
        rtt = 2.0 * path.per_hop_latency_ms * len(path.nodes)
        return ProbeResponse(_SYN_ACK, [] if reply is None else [reply], rtt)

    # -- transport contract -------------------------------------------------

    def handshake(self, syn: TcpPacket) -> ProbeResponse | None:
        if not syn.flags & TcpFlags.SYN:
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
            forward, _parsed, _records = self._forward(path, syn, ttl)
            if forward is None:
                return None
            node = interior[ttl - 1]
            if node.kind in (BehaviorKind.SILENT_ROUTER, BehaviorKind.DROP_FIREWALL):
                return None
            # The packet as this hop would forward it, TTL spent.
            quoted = encode_packet(replace(syn, ttl=0, options=forward))
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
    """
    net = SimNetwork(seed)
    # Node behaviors are frozen and key streams are keyed by position, not by
    # node, so paths can share one instance per distinct token.
    nodes_by_token: dict[str, NodeBehavior] = {}
    for lineno, raw in enumerate(lines, start=1):
        for line in data_lines((raw,)):  # one line at a time, to keep its number
            tokens = line.split()
            if tokens[0] != "path" or len(tokens) < 4:
                raise ValueError(f"line {lineno}: expected `path <addr> <port> <nodes...>`")
            address, port_text = tokens[1], tokens[2]
            rest = tokens[3:]
            latency = 1.0
            if rest and rest[0].startswith("latency="):
                latency = float(rest[0].split("=", 1)[1])
                rest = rest[1:]
            nodes = []
            for token in rest:
                node = nodes_by_token.get(token)
                if node is None:
                    node = nodes_by_token[token] = _parse_node(token)
                nodes.append(node)
            net.add_path(address, int(port_text), SimPath(nodes, per_hop_latency_ms=latency))
    return net


def load_topology(path: str | Path, seed: int = 0) -> SimNetwork:
    with open(path, encoding="utf-8") as f:
        return parse_topology(f, seed=seed)


def format_topology(net: SimNetwork) -> str:
    lines = []
    for (address, port), path in sorted(net.paths.items()):
        tokens = [node.spec_token() for node in path.nodes]
        latency = ""
        if path.per_hop_latency_ms != 1.0:
            latency = f"latency={path.per_hop_latency_ms:g} "
        lines.append(f"path {address} {port} {latency}{' '.join(tokens)}")
    return "\n".join(lines) + "\n"


def generate_population(
    count: int, seed: int, v6_share: float = 0.2
) -> SimNetwork:
    """Generate a mixed target population with every behavior represented."""
    rng = random.Random(seed)
    net = SimNetwork(seed)
    interior_choices = [
        (BehaviorKind.MIRROR_MIDDLEBOX, 0.18),
        (BehaviorKind.STRIP_MIDDLEBOX, 0.14),
        (BehaviorKind.KEY_REWRITE_MIDDLEBOX, 0.10),
        (BehaviorKind.DROP_FIREWALL, 0.08),
        (BehaviorKind.SILENT_ROUTER, 0.20),
        (BehaviorKind.QUOTING_ROUTER, 0.30),
    ]
    kinds = [k for k, _ in interior_choices]
    # rng.choices(weights=w) accumulates w on every call and then draws
    # exactly as with cum_weights=accumulate(w), so accumulate them once.
    kind_cum = list(accumulate(w for _, w in interior_choices))
    length_cum = list(accumulate([30, 28, 22, 12, 8]))
    versions_cum = list(accumulate([50, 20, 30]))
    for i in range(count):
        if rng.random() < v6_share:
            address = f"2001:db8:1::{i + 1:x}"
        else:
            host = i + 1
            address = f"10.{(host >> 16) & 255}.{(host >> 8) & 255}.{host & 255}"
        port = rng.choice((80, 443))
        interior_len = rng.choices([0, 1, 2, 3, 4], cum_weights=length_cum)[0]
        nodes = []
        for _ in range(interior_len):
            kind = rng.choices(kinds, cum_weights=kind_cum)[0]
            if kind is BehaviorKind.QUOTING_ROUTER:
                nodes.append(quoting(rng.choice((28, 64, DEFAULT_QUOTE_BYTES))))
            else:
                nodes.append(NodeBehavior(kind))
        if rng.random() < 0.55:
            versions = rng.choices(
                [frozenset({0}), frozenset({1}), frozenset({0, 1})], cum_weights=versions_cum
            )[0]
            nodes.append(NodeBehavior(BehaviorKind.TRUE_MPTCP_HOST, supported_versions=versions))
        else:
            nodes.append(tcp_host())
        net.add_path(address, port, SimPath(nodes))
    return net
