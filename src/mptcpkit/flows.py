"""Passive capture analysis: flow aggregation and MPTCP traffic statistics.

Flows are bidirectional by default (a flow and its reverse share one key);
byte accounting uses the IP total length so captures with different link
layers compare cleanly. A flow counts as MPTCP as soon as any of its packets
carries a decodable MP_CAPABLE, whether or not the handshake completed.

A `FlowKey` holds packed addresses, (src, dst, src_port, dst_port) with
4- or 16-byte address bytes; `packet.address_text(key.src)` gives the text
form of an address. Ingest keeps one table, makes a key once per flow and
adds to its counts inline. Only packets whose options hold the byte 30 and
whose flow has no version are read for MP_CAPABLE, in place
(`options.mp_capable_version`): other options are skipped, not built.

Ingest reads each packet where it lies in its block (`pcapio.read_blocks`),
with one `packet.flow_fields` call bounded by the end of its record: the flow
fields of a TCP packet, or the code that counts it as non-TCP, as a later
fragment or as a parse failure.
"""

from __future__ import annotations

import struct
from itertools import islice
from math import ceil
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple

from .errors import EmptyInput
from .inputs import bounded_field, read_rows
from .options import mp_capable_version
from .packet import LATER_FRAGMENT, NON_TCP, flow_fields
from .pcapio import LINKTYPE_NULL, LINKTYPE_RAW, read_blocks
from .record import Record

_U16 = struct.Struct("!H")

EPHEMERAL_START = 49152

# Minimal well-known service registry; a registry file extends or replaces it.
WELL_KNOWN_SERVICES = {
    20: "FTP-Data",
    21: "FTP",
    22: "SSH",
    23: "Telnet",
    25: "SMTP",
    53: "DNS",
    80: "HTTP",
    110: "POP3",
    113: "Ident",
    119: "NNTP",
    123: "NTP",
    143: "IMAP",
    179: "BGP",
    443: "HTTPS",
    445: "SMB",
    465: "SMTPS",
    587: "Submission",
    993: "IMAPS",
    995: "POP3S",
    1723: "PPTP",
    3306: "MySQL",
    3389: "RDP",
    5060: "SIP",
    8080: "HTTP-Alt",
}


class FlowKey(NamedTuple):
    src: bytes  # packed, 4 or 16 bytes
    dst: bytes
    src_port: int
    dst_port: int

    def canonical(self) -> "FlowKey":
        """Order endpoints so a flow and its reverse map to the same key."""
        if (self.src, self.src_port) <= (self.dst, self.dst_port):
            return self
        return FlowKey(self.dst, self.src, self.dst_port, self.src_port)


class FlowStats(Record):
    __slots__ = ("packets", "bytes", "mptcp_version")

    def __init__(self, packets: int = 0, bytes: int = 0, mptcp_version: int | None = None) -> None:
        self.packets, self.bytes, self.mptcp_version = packets, bytes, mptcp_version

    @property
    def mp_capable_seen(self) -> bool:
        return self.mptcp_version is not None

    def update(self, ip_bytes: int, mp_version: int | None) -> None:
        self.packets += 1
        self.bytes += ip_bytes
        if self.mptcp_version is None:
            self.mptcp_version = mp_version


class FlowTable(Record):
    """Flows by key and the capture's counts; `fragments` counts TCP fragments
    after the first, which have no TCP header."""

    __slots__ = ("flows", "frames_seen", "tcp_packets", "tcp_bytes", "parse_failures", "non_tcp",
                 "fragments")

    def __init__(self, flows: dict[FlowKey, FlowStats] | None = None, frames_seen: int = 0,
                 tcp_packets: int = 0, tcp_bytes: int = 0, parse_failures: int = 0,
                 non_tcp: int = 0, fragments: int = 0) -> None:
        self.flows = {} if flows is None else flows
        self.frames_seen, self.tcp_packets, self.tcp_bytes = frames_seen, tcp_packets, tcp_bytes
        self.parse_failures, self.non_tcp, self.fragments = parse_failures, non_tcp, fragments


def _ip_start(linktype: int, data: bytes, start: int, end: int) -> int | None:
    """Offset of the IP packet in the NULL or Ethernet frame `data[start:end]`;
    None when the link header is cut short or names no IPv4 or IPv6 payload."""
    size = end - start
    if linktype == LINKTYPE_NULL:
        return start + 4 if size > 4 else None
    if size < 14:
        return None
    ethertype = _U16.unpack_from(data, start + 12)[0]
    offset = start + 14
    if ethertype == 0x8100:  # one VLAN tag
        if size < 18:
            return None
        ethertype = _U16.unpack_from(data, start + 16)[0]
        offset = start + 18
    return offset if ethertype in (0x0800, 0x86DD) else None


def ingest_capture(
    source: str | Path | IO[bytes], bidirectional: bool = True
) -> FlowTable:
    """Aggregate every TCP packet of a pcap into per-flow counters."""
    linktype, blocks = read_blocks(source)
    flows: dict[FlowKey, FlowStats] = {}
    frames_seen = tcp_packets = tcp_bytes = parse_failures = non_tcp = fragments = 0
    raw = linktype == LINKTYPE_RAW  # every frame is an IP packet: no link header
    for data, offsets in blocks:
        frames_seen += len(offsets) - 1
        record = 0
        for end in islice(offsets, 1, None):
            start = record + 16  # the frame, past its record header
            record = end
            ip = start if raw else _ip_start(linktype, data, start, end)
            if ip is None:
                parse_failures += 1
                continue
            fields = flow_fields(data, ip, end)
            if fields.__class__ is not tuple:
                if fields == NON_TCP:
                    non_tcp += 1
                elif fields == LATER_FRAGMENT:
                    fragments += 1
                else:
                    parse_failures += 1
                continue
            src, dst, sport, dport, ip_bytes, opt_start, opt_end = fields
            # Same endpoint order as FlowKey.canonical: (packed address, port).
            if bidirectional and (dst < src or (dst == src and dport < sport)):
                key = (dst, src, dport, sport)
            else:
                key = (src, dst, sport, dport)
            stats = flows.get(key)  # a FlowKey hashes and compares as its tuple
            if stats is None:
                stats = flows[FlowKey._make(key)] = FlowStats()
            stats.packets += 1
            stats.bytes += ip_bytes
            # The version is set once and never changes, and a kind-30 option
            # needs the byte 30, so other packets cannot change the flow.
            if stats.mptcp_version is None and data.find(30, opt_start, opt_end) >= 0:
                stats.mptcp_version = mp_capable_version(data, opt_start, opt_end)
            tcp_packets += 1
            tcp_bytes += ip_bytes
    return FlowTable(
        flows, frames_seen=frames_seen, tcp_packets=tcp_packets, tcp_bytes=tcp_bytes,
        parse_failures=parse_failures, non_tcp=non_tcp, fragments=fragments,
    )


def filter_min_packets(
    flows: Mapping[FlowKey, FlowStats], min_packets: int = 5
) -> dict[FlowKey, FlowStats]:
    """Drop short flows (scanner noise); keeps flows with >= min_packets."""
    return {k: v for k, v in flows.items() if v.packets >= min_packets}


class ShareReport(Record):
    __slots__ = ("tcp_flows", "tcp_bytes", "mptcp_flows", "mptcp_bytes", "flow_share",
                 "byte_share")

    def __init__(self, tcp_flows: int, tcp_bytes: int, mptcp_flows: int, mptcp_bytes: int,
                 flow_share: float | None, byte_share: float | None) -> None:
        self.tcp_flows, self.tcp_bytes = tcp_flows, tcp_bytes
        self.mptcp_flows, self.mptcp_bytes = mptcp_flows, mptcp_bytes
        self.flow_share, self.byte_share = flow_share, byte_share


def mptcp_share(flows: Mapping[FlowKey, FlowStats]) -> ShareReport:
    """MPTCP share of flows and bytes; MPTCP totals count inside TCP totals.

    Shares are absent (None) when the TCP totals are zero.
    """
    tcp_flows = len(flows)
    tcp_bytes = sum(f.bytes for f in flows.values())
    mptcp = [f for f in flows.values() if f.mp_capable_seen]
    mptcp_flows = len(mptcp)
    mptcp_bytes = sum(f.bytes for f in mptcp)
    return ShareReport(
        tcp_flows=tcp_flows,
        tcp_bytes=tcp_bytes,
        mptcp_flows=mptcp_flows,
        mptcp_bytes=mptcp_bytes,
        flow_share=mptcp_flows / tcp_flows if tcp_flows else None,
        byte_share=mptcp_bytes / tcp_bytes if tcp_bytes else None,
    )


class ConcentrationReport(Record):
    __slots__ = ("top1_share", "top5_share", "top_half_share")

    def __init__(self, top1_share: float, top5_share: float, top_half_share: float) -> None:
        self.top1_share, self.top5_share = top1_share, top5_share
        self.top_half_share = top_half_share


def concentration(flow_bytes: Iterable[int]) -> ConcentrationReport:
    """Traffic concentration: byte share of the largest, top five, and top
    half of flows (half rounds up), from each flow's byte count."""
    sizes = sorted(flow_bytes, reverse=True)
    if not sizes:
        raise EmptyInput("concentration needs at least one flow")
    total = sum(sizes)
    if total == 0:
        return ConcentrationReport(0.0, 0.0, 0.0)
    top1 = sizes[0] / total
    top5 = sum(sizes[:5]) / total
    top_half = sum(sizes[: ceil(len(sizes) / 2)]) / total
    return ConcentrationReport(top1, top5, top_half)


def ewma(series: Iterable[float], alpha: float = 0.2) -> list[float]:
    """out[0] = in[0]; out[t] = alpha*in[t] + (1-alpha)*out[t-1]."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    values = list(series)
    if not values:
        raise EmptyInput("ewma needs a nonempty series")
    out = [float(values[0])]
    for x in values[1:]:
        out.append(alpha * float(x) + (1 - alpha) * out[-1])
    return out


class ServiceTables(Record):
    """Port-to-service mapping: a well-known registry plus a supplementary
    vendor table that takes precedence."""

    __slots__ = ("registry", "supplementary")

    def __init__(self, registry: dict[int, str],
                 supplementary: dict[int, str] | None = None) -> None:
        self.registry = registry
        self.supplementary = {} if supplementary is None else supplementary

    @classmethod
    def load(cls, registry_path: str | Path | None = None,
             supplementary_path: str | Path | None = None) -> "ServiceTables":
        registry = dict(filter(None, read_rows(registry_path, service_row)) if registry_path
                        else WELL_KNOWN_SERVICES)
        supplementary = dict(filter(None, read_rows(supplementary_path, service_row))
                             if supplementary_path else ())
        return cls(registry, supplementary)


def service_row(line: str) -> tuple[int, str] | None:
    """(port, label) of one `port,protocol,label` service table row; None for a
    protocol other than `tcp`, since every flow is TCP. A label may hold `,`."""
    fields = line.split(",", 2)
    if len(fields) != 3:
        raise ValueError(f"expected port,protocol,label, got {line!r}")
    port, protocol, label = fields
    port = bounded_field(port.strip(), "port", 65535)
    return (port, label.strip()) if protocol.strip().lower() == "tcp" else None


def map_service(key: FlowKey, tables: ServiceTables) -> str:
    """Service label for a flow from its non-ephemeral port.

    Port zero is a reserved value and flagged as such; flows with both ports
    in the ephemeral range are Unknown.
    """
    if key.src_port == 0 or key.dst_port == 0:
        return "ReservedZero"
    candidates = [p for p in sorted((key.src_port, key.dst_port)) if p < EPHEMERAL_START]
    if not candidates:
        return "Unknown"
    for port in candidates:
        if port in tables.supplementary:
            return tables.supplementary[port]
    for port in candidates:
        if port in tables.registry:
            return tables.registry[port]
    return "Unknown"
