"""Raw-socket transport for live probing (IPv4 only).

Needs CAP_NET_RAW; construction raises TransportUnavailable otherwise.
Replies are matched statelessly against the probe's 4-tuple and expected
acknowledgment number, so no per-target state survives a send. The match
runs on the packed bytes as read: a packet's source address and port pair
are compared with the probe's before anything is decoded, and only a
matching reply is decoded, once, with its addresses left packed. Packets
already queued are read before the transport waits on a `poll` set.
"""

from __future__ import annotations

import select
import socket
import struct
import time

from .errors import TransportUnavailable
from .packet import (
    FLAG_ACK,
    IPV4_HEADER_LEN,
    RawSegment,
    TcpPacket,
    decode_tcp,
    encode_packet,
    pack_address,
)
from .probe import HopReply, ProbeResponse, make_response

ICMP_TIME_EXCEEDED = 11
ICMP_DEST_UNREACHABLE = 3

_PORTS = struct.Struct("!HH")  # a TCP header's (source, destination) ports


def local_source_address(target: str) -> str:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.connect((target, 53))
        return s.getsockname()[0]


def _reply_keys(pkt: TcpPacket) -> tuple[bytes, bytes, int]:
    """What a reply to `pkt` carries, in wire form: `_match_reply`'s keys."""
    ports = _PORTS.pack(pkt.dst_port, pkt.src_port)
    return pack_address(pkt.dst), ports, (pkt.seq + 1) & 0xFFFFFFFF


def _match_reply(data: bytes, peer: bytes, ports: bytes, ack: int) -> RawSegment | None:
    """`data` decoded, if it is an IPv4 TCP reply to a probe; else None.

    `peer` is the probe's packed destination, `ports` the probe's
    (destination, source) ports packed in the reply's order, and `ack` the
    probe's seq + 1, which a reply with the ACK flag must acknowledge.
    """
    if data[12:16] != peer or data[0] >> 4 != 4:
        return None
    ihl = (data[0] & 0x0F) * 4
    if data[ihl : ihl + 4] != ports:
        return None
    seg = decode_tcp(data)
    if seg is None or (seg[6] & FLAG_ACK and seg[5] != ack):
        return None
    return seg


def _icmp_quote(data: bytes, peer: bytes, port: int, rtt_ms: float) -> HopReply | None:
    """An ICMP time-exceeded or unreachable packet that quotes a probe to
    `peer` (packed) and `port`, as a HopReply; else None."""
    if len(data) < IPV4_HEADER_LEN + 8:  # IPv4 header plus the ICMP header
        return None
    ihl = (data[0] & 0x0F) * 4
    if len(data) < ihl + 8 or data[ihl] not in (ICMP_TIME_EXCEEDED, ICMP_DEST_UNREACHABLE):
        return None
    quote = ihl + 8  # where the quoted packet starts
    quoted = decode_tcp(data, quote)
    if quoted is None:
        # Quote may be truncated below a parseable TCP header; match on
        # the embedded IP destination alone.
        matched = data[quote + 16 : quote + 20] == peer
    else:
        matched = quoted[1] == peer and quoted[3] == port
    return HopReply(socket.inet_ntoa(data[12:16]), data[quote:], rtt_ms) if matched else None


class LiveTransport:
    """Send crafted SYNs and collect TCP or ICMP answers."""

    _polls = None  # (TCP only, TCP and ICMP) poll sets, see _poll_set

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

    def _send_packet(self, pkt: TcpPacket, ttl: int | None = None) -> None:
        src = None
        if pkt.src.startswith("192.0.2."):  # placeholder source: send from ours
            src = self._sources.get(pkt.dst)
            if src is None:
                src = self._sources[pkt.dst] = local_source_address(pkt.dst)
        self._send.sendto(encode_packet(pkt, src, ttl), (pkt.dst, 0))

    def _poll_set(self, want_icmp: bool):
        """A poll set over the TCP socket, and the ICMP one when wanted.

        Built on first use: tests swap the sockets after construction.
        `poll`, unlike `select`, takes descriptors at 1024 and above.
        """
        if self._polls is None:
            tcp, both = select.poll(), select.poll()
            for polls in (tcp, both):
                polls.register(self._tcp, select.POLLIN)
            both.register(self._icmp, select.POLLIN)
            self._polls = (tcp, both)
        return self._polls[want_icmp]

    def _await(self, pkt: TcpPacket, want_icmp: bool):
        peer, ports, ack = _reply_keys(pkt)
        start = time.monotonic()
        deadline = start + self.timeout_ms / 1000.0
        sockets = (self._tcp, self._icmp) if want_icmp else (self._tcp,)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            # On loopback the reply is usually queued by the time sendto
            # returns: read what is there before waiting for more.
            for sock in sockets:
                while True:
                    try:
                        data = sock.recv(65535, socket.MSG_DONTWAIT)
                    except OSError:  # nothing queued, or a socket error
                        break
                    rtt = (time.monotonic() - start) * 1000
                    if sock is self._tcp:
                        seg = _match_reply(data, peer, ports, ack)
                        if seg is not None:
                            return make_response(seg, rtt)
                    else:
                        hop = _icmp_quote(data, peer, pkt.dst_port, rtt)
                        if hop is not None:
                            return hop
            self._poll_set(want_icmp).poll(remaining * 1000)

    def handshake(self, syn: TcpPacket) -> ProbeResponse | None:
        self._send_packet(syn)
        return self._await(syn, want_icmp=False)

    def ttl_probe(self, syn: TcpPacket, ttl: int) -> HopReply | ProbeResponse | None:
        self._send_packet(syn, ttl)
        return self._await(syn, want_icmp=True)
