"""Raw-socket transport for live probing (IPv4 only).

Needs CAP_NET_RAW; construction raises TransportUnavailable otherwise.
Replies are matched statelessly against the probe's 4-tuple and expected
acknowledgment number, so no per-target state survives a send.
"""

from __future__ import annotations

import select
import socket
import struct
import time

from .errors import TransportUnavailable
from .packet import FLAG_ACK, IPV4_HEADER_LEN, TcpPacket, decode_packet, encode_packet
from .probe import HopReply, ProbeResponse, make_response

ICMP_TIME_EXCEEDED = 11
ICMP_DEST_UNREACHABLE = 3


def local_source_address(target: str) -> str:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.connect((target, 53))
        return s.getsockname()[0]


class LiveTransport:
    """Send crafted SYNs and collect TCP or ICMP answers."""

    def __init__(self, timeout_ms: float = 2000.0):
        self.timeout_ms = timeout_ms
        self._sources: dict[str, str] = {}  # destination -> our source address
        try:
            self._send = socket.socket(
                socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_RAW
            )
            self._tcp = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_TCP)
            self._icmp = socket.socket(
                socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP
            )
        except (PermissionError, OSError) as exc:
            raise TransportUnavailable(f"raw sockets unavailable: {exc}") from exc
        self._tcp.setblocking(False)
        self._icmp.setblocking(False)

    def close(self) -> None:
        for sock in (self._send, self._tcp, self._icmp):
            try:
                sock.close()
            except OSError:
                pass

    def _send_packet(self, pkt: TcpPacket) -> None:
        if pkt.src.startswith("192.0.2."):  # placeholder source: fill in ours
            src = self._sources.get(pkt.dst)
            if src is None:
                src = self._sources[pkt.dst] = local_source_address(pkt.dst)
            pkt = TcpPacket(**{**vars(pkt), "src": src})
        self._send.sendto(encode_packet(pkt), (pkt.dst, 0))

    def _matches(self, pkt: TcpPacket, data: bytes) -> bool:
        """Whether a TCP packet answers `pkt`: its 4-tuple and, if it acks, the ack."""
        seg = decode_packet(data)
        return (
            seg is not None
            and seg.src == pkt.dst
            and seg.src_port == pkt.dst_port
            and seg.dst_port == pkt.src_port
            and (not seg.flags & FLAG_ACK or seg.ack == (pkt.seq + 1) & 0xFFFFFFFF)
        )

    def _icmp_quote(self, pkt: TcpPacket, data: bytes, rtt_ms: float = 0.0) -> HopReply | None:
        if len(data) < IPV4_HEADER_LEN + 8:  # IPv4 header plus the ICMP header
            return None
        seg_start = (data[0] & 0x0F) * 4
        icmp = data[seg_start:]
        if len(icmp) < 8 or icmp[0] not in (ICMP_TIME_EXCEEDED, ICMP_DEST_UNREACHABLE):
            return None
        quote = icmp[8:]
        quoted = decode_packet(quote)
        responder = str(socket.inet_ntoa(data[12:16]))
        if quoted is None:
            # Quote may be truncated below a parseable TCP header; match on
            # the embedded IP destination alone.
            if len(quote) >= 20 and socket.inet_ntoa(quote[16:20]) == pkt.dst:
                return HopReply(responder, quote, rtt_ms)
            return None
        if quoted.dst == pkt.dst and quoted.dst_port == pkt.dst_port:
            return HopReply(responder, quote, rtt_ms)
        return None

    def _await(self, pkt: TcpPacket, want_icmp: bool):
        start = time.monotonic()
        deadline = start + self.timeout_ms / 1000.0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            readable, _, _ = select.select([self._tcp, self._icmp], [], [], remaining)
            for sock in readable:
                try:
                    data = sock.recv(65535)
                except OSError:
                    continue
                rtt = (time.monotonic() - start) * 1000
                if sock is self._tcp:
                    if self._matches(pkt, data):
                        return make_response(data, rtt)
                elif want_icmp:
                    hop = self._icmp_quote(pkt, data, rtt)
                    if hop is not None:
                        return hop

    def handshake(self, syn: TcpPacket) -> ProbeResponse | None:
        self._send_packet(syn)
        return self._await(syn, want_icmp=False)

    def ttl_probe(self, syn: TcpPacket, ttl: int) -> HopReply | ProbeResponse | None:
        self._send_packet(TcpPacket(**{**vars(syn), "ttl": ttl}))
        return self._await(syn, want_icmp=True)
