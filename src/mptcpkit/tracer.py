"""TTL-stepping path inspection with per-hop option diffing.

Sends the same MP_CAPABLE SYN with increasing TTLs, reads the option bytes
quoted back by intermediate hops, and diffs them against what was sent. The
verdict separates targets that rewrite the option themselves (capable) from
paths where some hop strips or rewrites it (middlebox-affected) and targets
that never answer (unreachable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .options import (
    Key,
    TcpOption,
    decode_mp_capable_any,
    find_mp_capable,
    parse_options,
)
from .packet import TcpFlags, extract_quoted_options
from .probe import (
    DEFAULT_PROBE_KEY,
    HopReply,
    PacketTransport,
    ProbeResponse,
    ProbeSpec,
    build_syn_probe,
)

# Tries per TTL before the hop is recorded as unobserved; the first reply wins.
ATTEMPTS_PER_TTL = 3


class OptionDiffKind(Enum):
    UNOBSERVED = "unobserved"
    UNTOUCHED = "untouched"
    STRIPPED = "stripped"
    KEY_CHANGED = "key_changed"
    OTHER_MODIFICATION = "other_modification"


MODIFYING_DIFFS = {
    OptionDiffKind.STRIPPED,
    OptionDiffKind.KEY_CHANGED,
    OptionDiffKind.OTHER_MODIFICATION,
}


@dataclass(frozen=True)
class OptionDiff:
    kind: OptionDiffKind
    new_key: Key | None = None
    description: str | None = None

    @property
    def modifying(self) -> bool:
        return self.kind in MODIFYING_DIFFS


@dataclass(frozen=True)
class HopRecord:
    ttl: int
    responder: str | None
    quoted_options: list[TcpOption] | None
    diff: OptionDiff


class PathVerdictKind(Enum):
    TRULY_CAPABLE = "truly_capable"
    MIDDLEBOX_AFFECTED = "middlebox_affected"
    UNREACHABLE = "unreachable"
    NOT_CAPABLE = "not_capable"


@dataclass(frozen=True)
class PathVerdict:
    kind: PathVerdictKind
    sender_key: Key | None = None
    first_modifying_ttl: int | None = None

    @property
    def label(self) -> str:
        return self.kind.value


@dataclass
class PathTrace:
    """probe_path output: one record per TTL plus the target's final answer."""

    hops: list[HopRecord]
    final_response: ProbeResponse | None


def diff_options(sent: list[TcpOption], observed: list[TcpOption]) -> OptionDiff:
    """Compare the MP_CAPABLE we sent against what a hop observed."""
    sent_opt = find_mp_capable(sent)
    if sent_opt is None:
        raise ValueError("sent options carry no MP_CAPABLE")
    seen = find_mp_capable(observed)
    if seen is None:
        return OptionDiff(OptionDiffKind.STRIPPED)
    if seen == sent_opt:
        return OptionDiff(OptionDiffKind.UNTOUCHED)
    sent_mc = decode_mp_capable_any(sent_opt)
    seen_mc = decode_mp_capable_any(seen)
    if seen_mc is None:
        return OptionDiff(
            OptionDiffKind.OTHER_MODIFICATION, description="option no longer decodes"
        )
    if sent_mc is not None and seen_mc.sender_key != sent_mc.sender_key:
        return OptionDiff(OptionDiffKind.KEY_CHANGED, new_key=seen_mc.sender_key)
    return OptionDiff(
        OptionDiffKind.OTHER_MODIFICATION,
        description=f"bytes changed: {sent_opt.encode().hex()} -> {seen.encode().hex()}",
    )


def probe_path(
    target: str,
    port: int,
    version: int,
    max_ttl: int,
    transport: PacketTransport,
    *,
    probe_key: Key | None = None,
    seed: int = 0,
) -> PathTrace:
    """Walk TTLs 1..max_ttl, stopping early on an answer from the target.

    Each TTL is tried up to ATTEMPTS_PER_TTL times, first response wins.
    Hops whose quotes are missing or too short to show the options region
    are recorded as unobserved.
    """
    if not 1 <= max_ttl <= 64:
        raise ValueError(f"max_ttl must be in [1, 64], got {max_ttl}")
    if version == 0 and probe_key is None:
        probe_key = DEFAULT_PROBE_KEY
    spec = ProbeSpec(target, port, version, probe_key)
    syn = build_syn_probe(spec, seed)
    sent_options = parse_options(syn.options)
    hops: list[HopRecord] = []
    final: ProbeResponse | None = None

    for ttl in range(1, max_ttl + 1):
        reply: HopReply | ProbeResponse | None = None
        probe = replace(syn, ttl=ttl)
        for _ in range(ATTEMPTS_PER_TTL):
            reply = transport.ttl_probe(probe, ttl)
            if reply is not None:
                break
        if reply is None:
            hops.append(HopRecord(ttl, None, None, OptionDiff(OptionDiffKind.UNOBSERVED)))
            continue
        if isinstance(reply, HopReply):
            quoted = extract_quoted_options(reply.quote)
            if quoted is None:
                diff = OptionDiff(OptionDiffKind.UNOBSERVED)
            else:
                diff = diff_options(sent_options, quoted)
            hops.append(HopRecord(ttl, reply.responder, quoted, diff))
            continue
        # The target answered (SYN-ACK or RST): terminal record.
        diff = diff_options(sent_options, reply.options)
        hops.append(HopRecord(ttl, target, reply.options, diff))
        final = reply
        break
    return PathTrace(hops, final)


def classify_path(
    hops: list[HopRecord], final_response: ProbeResponse | None
) -> PathVerdict:
    """Three-way verdict with fixed precedence.

    Unreachable is checked first, then middlebox evidence on any non-final
    hop, then the target's own answer. A final answer whose MP_CAPABLE does
    not carry a changed (fresh) key is reported not_capable.
    """
    if final_response is None:
        return PathVerdict(PathVerdictKind.UNREACHABLE)
    interior = hops[:-1] if hops else []
    for hop in interior:
        if hop.diff.modifying:
            return PathVerdict(
                PathVerdictKind.MIDDLEBOX_AFFECTED, first_modifying_ttl=hop.ttl
            )
    if not hops:
        return PathVerdict(PathVerdictKind.NOT_CAPABLE)
    last = hops[-1]
    if (
        last.diff.kind is OptionDiffKind.KEY_CHANGED
        and bool(final_response.tcp_flags & TcpFlags.SYN)
        and bool(final_response.tcp_flags & TcpFlags.ACK)
    ):
        return PathVerdict(PathVerdictKind.TRULY_CAPABLE, sender_key=last.diff.new_key)
    return PathVerdict(PathVerdictKind.NOT_CAPABLE)


def inspect_target(
    target: str,
    port: int,
    version: int,
    transport: PacketTransport,
    *,
    max_ttl: int = 30,
    probe_key: Key | None = None,
    seed: int = 0,
) -> tuple[PathTrace, PathVerdict]:
    trace = probe_path(
        target, port, version, max_ttl, transport, probe_key=probe_key, seed=seed
    )
    return trace, classify_path(trace.hops, trace.final_response)


@dataclass
class TraceRecord:
    """One verdict per inspected target, in wire-file form."""

    address: str
    port: int
    verdict: str
    first_modifying_ttl: int | None = None
    final_key: Key | None = None

    def to_csv(self) -> str:
        ttl = "" if self.first_modifying_ttl is None else str(self.first_modifying_ttl)
        key = self.final_key.hex if self.final_key is not None else ""
        return f"{self.address},{self.port},{self.verdict},{ttl},{key}"

    @classmethod
    def from_csv(cls, line: str) -> "TraceRecord":
        parts = line.rstrip("\n").split(",")
        if len(parts) != 5:
            raise ValueError(f"expected 5 fields, got {len(parts)}: {line!r}")
        address, port, verdict, ttl, key = parts
        return cls(
            address=address,
            port=int(port),
            verdict=verdict,
            first_modifying_ttl=int(ttl) if ttl else None,
            final_key=Key.from_hex(key) if key else None,
        )

    @classmethod
    def from_verdict(cls, address: str, port: int, verdict: PathVerdict) -> "TraceRecord":
        return cls(
            address=address,
            port=port,
            verdict=verdict.label,
            first_modifying_ttl=verdict.first_modifying_ttl,
            final_key=verdict.sender_key,
        )
