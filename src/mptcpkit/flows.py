"""Passive capture analysis: flow aggregation and MPTCP traffic statistics.

Flows are bidirectional by default (a flow and its reverse share one key);
byte accounting uses the IP total length so captures with different link
layers compare cleanly. A flow counts as MPTCP as soon as any of its packets
carries a decodable MP_CAPABLE, whether or not the handshake completed.

Ingest keys flows by packed addresses, (src, dst, src_port, dst_port) with
4- or 16-byte address bytes, and builds the text `FlowKey` once per flow
when the capture has been read. MP_CAPABLE is decoded only for packets
whose options contain the kind byte 30 and whose flow has no version yet.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import IO, Iterable, Mapping

from .errors import EmptyInput, MalformedCapture, MissingTables
from .inputs import data_lines
from .options import decode_mp_capable_any, parse_options_prefix
from .packet import address_text, decode_tcp, is_later_fragment, pack_address
from .pcapio import LINKTYPE_ETHERNET, LINKTYPE_NULL, LINKTYPE_RAW, read_pcap

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


@dataclass(frozen=True)
class FlowKey:
    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: str = "tcp"

    def _endpoint_sort_key(self, addr: str, port: int) -> tuple[bytes, int]:
        return pack_address(addr), port

    def canonical(self) -> "FlowKey":
        """Order endpoints so a flow and its reverse map to the same key."""
        a = self._endpoint_sort_key(self.src_addr, self.src_port)
        b = self._endpoint_sort_key(self.dst_addr, self.dst_port)
        if a <= b:
            return self
        return FlowKey(
            self.dst_addr, self.src_addr, self.dst_port, self.src_port, self.protocol
        )


@dataclass
class FlowStats:
    packets: int = 0
    bytes: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0
    mp_capable_seen: bool = False
    mptcp_version: int | None = None
    service_label: str | None = None

    def update(self, ts: float, ip_bytes: int, mp_version: int | None) -> None:
        if self.packets == 0:
            self.first_ts = ts
            self.last_ts = ts
        else:
            self.first_ts = min(self.first_ts, ts)
            self.last_ts = max(self.last_ts, ts)
        self.packets += 1
        self.bytes += ip_bytes
        if mp_version is not None:
            self.mp_capable_seen = True
            if self.mptcp_version is None:
                self.mptcp_version = mp_version


@dataclass
class FlowTable:
    flows: dict[FlowKey, FlowStats] = field(default_factory=dict)
    frames_seen: int = 0
    tcp_packets: int = 0
    tcp_bytes: int = 0
    parse_failures: int = 0
    non_tcp: int = 0
    fragments: int = 0  # IPv4 TCP fragments after the first: no TCP header


def _strip_link_layer(linktype: int, frame: bytes) -> bytes | None:
    if linktype == LINKTYPE_RAW:
        return frame
    if linktype == LINKTYPE_ETHERNET:
        if len(frame) < 14:
            return None
        ethertype = _U16.unpack_from(frame, 12)[0]
        offset = 14
        if ethertype == 0x8100:  # one VLAN tag
            if len(frame) < 18:
                return None
            ethertype = _U16.unpack_from(frame, 16)[0]
            offset = 18
        if ethertype not in (0x0800, 0x86DD):
            return None
        return frame[offset:]
    if linktype == LINKTYPE_NULL:
        return frame[4:] if len(frame) > 4 else None
    return None


def _is_non_tcp(ip_data: bytes) -> bool:
    """An IPv4/IPv6 header naming a protocol other than TCP."""
    if len(ip_data) < 10:
        return False
    version = ip_data[0] >> 4
    return (version == 4 and ip_data[9] != 6) or (version == 6 and ip_data[6] != 6)


def _mp_version(options: bytes) -> int | None:
    opts, _err = parse_options_prefix(options)
    for opt in opts:
        if opt.kind != 30:
            continue
        mc = decode_mp_capable_any(opt)
        if mc is not None:
            return mc.version
    return None


def ingest_capture(
    source: str | Path | IO[bytes], bidirectional: bool = True
) -> FlowTable:
    """Aggregate every TCP packet of a pcap into per-flow counters."""
    linktype, frames = read_pcap(source)
    if linktype not in (LINKTYPE_RAW, LINKTYPE_ETHERNET, LINKTYPE_NULL):
        raise MalformedCapture(f"unsupported link type {linktype}")
    table = FlowTable()
    flows: dict[tuple[bytes, bytes, int, int], FlowStats] = {}
    for ts, frame in frames:
        table.frames_seen += 1
        ip_data = _strip_link_layer(linktype, frame)
        if ip_data is None:
            table.parse_failures += 1
            continue
        segment = decode_tcp(ip_data)
        if segment is None:
            if _is_non_tcp(ip_data):
                table.non_tcp += 1
            elif is_later_fragment(ip_data):
                table.fragments += 1
            else:
                table.parse_failures += 1
            continue
        src, dst, sport, dport, _seq, _ack, _flags, _ttl, _win, options, ip_bytes, _len = (
            segment
        )
        # Same endpoint order as FlowKey.canonical: (packed address, port).
        if bidirectional and (dst, dport) < (src, sport):
            key = (dst, src, dport, sport)
        else:
            key = (src, dst, sport, dport)
        stats = flows.get(key)
        if stats is None:
            stats = flows[key] = FlowStats()
        # The version is set once and never changes, and a kind-30 option
        # needs the byte 30, so other packets cannot change the flow.
        mp_version = None
        if options and stats.mptcp_version is None and 30 in options:
            mp_version = _mp_version(options)
        stats.update(ts, ip_bytes, mp_version)
        table.tcp_packets += 1
        table.tcp_bytes += ip_bytes
    table.flows = {
        FlowKey(address_text(src), address_text(dst), sport, dport): stats
        for (src, dst, sport, dport), stats in flows.items()
    }
    return table


def filter_min_packets(
    flows: Mapping[FlowKey, FlowStats], min_packets: int = 5
) -> dict[FlowKey, FlowStats]:
    """Drop short flows (scanner noise); keeps flows with >= min_packets."""
    return {k: v for k, v in flows.items() if v.packets >= min_packets}


@dataclass(frozen=True)
class ShareReport:
    tcp_flows: int
    tcp_bytes: int
    mptcp_flows: int
    mptcp_bytes: int
    flow_share: float | None
    byte_share: float | None


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


@dataclass(frozen=True)
class ConcentrationReport:
    top1_share: float
    top5_share: float
    top_half_share: float


def concentration(mptcp_flows: Iterable[FlowStats | int]) -> ConcentrationReport:
    """Traffic concentration: byte share of the largest, top five, and top
    half of flows (half rounds up)."""
    sizes = sorted(
        (f.bytes if isinstance(f, FlowStats) else int(f) for f in mptcp_flows),
        reverse=True,
    )
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


@dataclass
class ServiceTables:
    """Port-to-service mapping: a well-known registry plus a supplementary
    vendor table that takes precedence."""

    registry: dict[int, str]
    supplementary: dict[int, str] = field(default_factory=dict)

    @staticmethod
    def _read(path: str | Path) -> dict[int, str]:
        table: dict[int, str] = {}
        with open(path, encoding="utf-8") as f:
            for line in data_lines(f):
                port, _protocol, label = line.split(",", 2)
                table[int(port)] = label.strip()
        return table

    @classmethod
    def load(
        cls,
        registry_path: str | Path | None = None,
        supplementary_path: str | Path | None = None,
    ) -> "ServiceTables":
        registry = (
            cls._read(registry_path) if registry_path else dict(WELL_KNOWN_SERVICES)
        )
        supplementary = cls._read(supplementary_path) if supplementary_path else {}
        return cls(registry, supplementary)


def map_service(key: FlowKey, tables: ServiceTables | None) -> str:
    """Service label for a flow from its non-ephemeral port.

    Port zero is a reserved value and flagged as such; flows with both ports
    in the ephemeral range are Unknown.
    """
    if tables is None:
        raise MissingTables("service tables not loaded")
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
