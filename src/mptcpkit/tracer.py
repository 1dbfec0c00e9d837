"""TTL-stepping path inspection with per-hop option diffing.

Sends the same MP_CAPABLE SYN with increasing TTLs, reads the option bytes
quoted back by intermediate hops, and diffs them against what was sent. The
verdict separates targets that rewrite the option themselves (capable) from
paths where some hop strips or rewrites it (middlebox-affected) and targets
that never answer (unreachable). What was sent is read once per campaign, as
the `syn_view` its `probe.ProbeContext` holds, and every hop is diffed
against that view.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .inputs import unsigned_field
from .options import Key, SynView, TcpOption, decode_mp_capable_any, find_mp_capable
from .packet import FLAG_SYN_ACK, extract_quoted_options
from .probe import (
    CampaignGuard,
    HopReply,
    PacedTransport,
    PacketTransport,
    ProbeContext,
    ProbeResponse,
    build_syn_probe,
    checked_target,
    probe_targets,
)
from .record import Record

# Tries per TTL before the hop is recorded as unobserved; the first reply wins.
ATTEMPTS_PER_TTL = 3
MAX_TTL = 64  # the highest TTL a trace walks to


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


class OptionDiff(Record):
    __slots__ = ("kind", "new_key", "description")

    def __init__(self, kind: OptionDiffKind, new_key: Key | None = None,
                 description: str | None = None) -> None:
        self.kind, self.new_key, self.description = kind, new_key, description

    @property
    def modifying(self) -> bool:
        return self.kind in MODIFYING_DIFFS


class HopRecord(Record):
    __slots__ = ("ttl", "responder", "quoted_options", "diff")

    def __init__(self, ttl: int, responder: str | None, quoted_options: list[TcpOption] | None,
                 diff: OptionDiff) -> None:
        self.ttl, self.responder, self.quoted_options = ttl, responder, quoted_options
        self.diff = diff


class PathVerdictKind(Enum):
    TRULY_CAPABLE = "truly_capable"
    MIDDLEBOX_AFFECTED = "middlebox_affected"
    UNREACHABLE = "unreachable"
    NOT_CAPABLE = "not_capable"


class PathVerdict(Record):
    __slots__ = ("kind", "sender_key", "first_modifying_ttl")

    def __init__(self, kind: PathVerdictKind, sender_key: Key | None = None,
                 first_modifying_ttl: int | None = None) -> None:
        self.kind, self.sender_key = kind, sender_key
        self.first_modifying_ttl = first_modifying_ttl

    @property
    def label(self) -> str:
        return self.kind.value


class PathTrace(Record):
    """probe_path output: one record per TTL plus the target's final answer."""

    __slots__ = ("hops", "final_response")

    def __init__(self, hops: list[HopRecord], final_response: ProbeResponse | None) -> None:
        self.hops, self.final_response = hops, final_response


def diff_options(sent: SynView, observed: list[TcpOption]) -> OptionDiff:
    """Compare the MP_CAPABLE we sent, as `sent` reads it, against what a hop
    observed."""
    sent_opt = sent.mp
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
    if sent.any_mc is not None and seen_mc.sender_key != sent.any_mc.sender_key:
        return OptionDiff(OptionDiffKind.KEY_CHANGED, new_key=seen_mc.sender_key)
    return OptionDiff(
        OptionDiffKind.OTHER_MODIFICATION,
        description=f"bytes changed: {sent_opt.encode().hex()} -> {seen.encode().hex()}",
    )


def probe_path(
    ctx: ProbeContext, target: str, port: int, max_ttl: int, transport: PacketTransport
) -> PathTrace:
    """Walk TTLs 1..max_ttl with `ctx`'s SYN to the target, stopping early
    on an answer from the target.

    Each TTL is tried up to ATTEMPTS_PER_TTL times, first response wins.
    Hops whose quotes are missing or too short to show the options region
    are recorded as unobserved.
    """
    if not 1 <= max_ttl <= MAX_TTL:
        raise ValueError(f"max_ttl must be in [1, {MAX_TTL}], got {max_ttl}")
    syn = build_syn_probe(ctx, target, port)
    sent = ctx.view
    hops: list[HopRecord] = []
    final: ProbeResponse | None = None

    for ttl in range(1, max_ttl + 1):
        reply: HopReply | ProbeResponse | None = None
        for _ in range(ATTEMPTS_PER_TTL):
            reply = transport.ttl_probe(syn, ttl)
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
                diff = diff_options(sent, quoted)
            hops.append(HopRecord(ttl, reply.responder, quoted, diff))
            continue
        # The target answered (SYN-ACK or RST): terminal record.
        diff = diff_options(sent, reply.options)
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
        and (final_response.tcp_flags & FLAG_SYN_ACK) == FLAG_SYN_ACK
    ):
        return PathVerdict(PathVerdictKind.TRULY_CAPABLE, sender_key=last.diff.new_key)
    return PathVerdict(PathVerdictKind.NOT_CAPABLE)


def inspect_target(
    ctx: ProbeContext, target: str, port: int, transport: PacketTransport, *, max_ttl: int = 30
) -> tuple[PathTrace, PathVerdict]:
    trace = probe_path(ctx, target, port, max_ttl, transport)
    return trace, classify_path(trace.hops, trace.final_response)


# A trace row's verdict: a path verdict, or why the target has none.
TRACE_VERDICTS = frozenset({k.value for k in PathVerdictKind} | {"skipped", "error"})


class TraceRecord(Record):
    """One verdict per inspected target, in wire-file form, of TRACE_VERDICTS."""

    __slots__ = ("address", "port", "verdict", "first_modifying_ttl", "final_key")

    def __init__(self, address: str, port: int, verdict: str,
                 first_modifying_ttl: int | None = None, final_key: Key | None = None) -> None:
        self.address, self.port, self.verdict = address, port, verdict
        self.first_modifying_ttl, self.final_key = first_modifying_ttl, final_key

    def to_csv(self) -> str:
        ttl = "" if self.first_modifying_ttl is None else str(self.first_modifying_ttl)
        key = self.final_key.hex if self.final_key is not None else ""
        return f"{self.address},{self.port},{self.verdict},{ttl},{key}"

    @classmethod
    def from_csv(cls, line: str) -> "TraceRecord":
        """A row as `classify_path` makes one: a TTL in [1, MAX_TTL] on none
        but a middlebox_affected row, and a key on none but a truly_capable one."""
        parts = line.rstrip("\n").split(",")
        if len(parts) != 5:
            raise ValueError(f"expected 5 fields, got {len(parts)}: {line!r}")
        address, port, verdict, ttl, key = parts
        if verdict not in TRACE_VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        first_ttl = unsigned_field(ttl, "TTL") if ttl else None
        if ttl and (verdict != "middlebox_affected" or not 1 <= first_ttl <= MAX_TTL):
            raise ValueError(f"a TTL in [1, {MAX_TTL}] is only on a middlebox_affected row, "
                             f"got {ttl!r} on {verdict}")
        if key and verdict != "truly_capable":
            raise ValueError(f"a key is only on a truly_capable row, got {key!r} on {verdict}")
        return cls(*checked_target(address, unsigned_field(port, "port")), verdict, first_ttl,
                   Key.from_row(key) if key else None)


def trace_campaign(targets: Iterable[tuple[str, int]], *, version: int, guard: CampaignGuard,
                   transport: PacketTransport, max_ttl: int = 30, probe_key: Key | None = None,
                   seed: int = 0) -> Iterator[TraceRecord]:
    """Inspect each target's path through `probe_targets`: one verdict row
    per target, each TTL probe of which first waits on `guard.pacer`. The
    campaign's `ProbeContext` is built once, at the first row."""
    ctx = ProbeContext.for_campaign(version, probe_key, seed)
    paced = PacedTransport(transport, guard.pacer)

    def probe(address: str, port: int) -> TraceRecord:
        _trace, verdict = inspect_target(ctx, address, port, paced, max_ttl=max_ttl)
        return TraceRecord(address, port, verdict.label, verdict.first_modifying_ttl,
                           verdict.sender_key)

    yield from probe_targets(targets, guard.blocklist, probe,
                             lambda address, port, label, _note: TraceRecord(address, port, label))
