"""Synthetic packet and capture construction shared by the tests."""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import IO, Iterable

from mptcpkit.options import HandshakePhase, Key, MpCapable, encode_mp_capable
from mptcpkit.packet import FLAG_ACK, FLAG_SYN, FLAG_SYN_ACK, TcpPacket, encode_packet
from mptcpkit.pcapio import LINKTYPE_RAW, MAGIC_US

FLAG_PSH = 0x08  # the push bit, which the package never reads


def replace(record, **changes):
    """A copy of a record with the named fields changed: every field is
    passed to the constructor by name."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def write_pcap(
    dest: str | Path | IO[bytes],
    frames: Iterable[tuple[float, bytes]],
    linktype: int = LINKTYPE_RAW,
) -> None:
    """Write frames of (timestamp seconds, bytes) as a little-endian
    microsecond pcap."""
    f = open(dest, "wb") if isinstance(dest, (str, Path)) else dest
    try:
        f.write(struct.pack("<IHHiIII", MAGIC_US, 2, 4, 0, 0, 65535, linktype))
        for ts, data in frames:
            sec = int(ts)
            usec = int(round((ts - sec) * 1e6))
            f.write(struct.pack("<IIII", sec, usec, len(data), len(data)))
            f.write(data)
    finally:
        if isinstance(dest, (str, Path)):
            f.close()


def tcp_frame(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    flags: int = FLAG_ACK,
    options: bytes = b"",
    payload_len: int = 0,
    seq: int = 1000,
) -> bytes:
    return encode_packet(
        TcpPacket(
            src=src, dst=dst, src_port=sport, dst_port=dport, seq=seq,
            flags=flags, options=options, payload=bytes(payload_len),
        )
    )


def handshake_frames(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    mptcp_version: int | None = None,
    key: Key | None = None,
    extra_data_packets: int = 0,
    payload_len: int = 100,
    t0: float = 0.0,
):
    """A 3-way handshake, optionally MPTCP, plus data packets from the client."""
    syn_opts = b""
    synack_opts = b""
    if mptcp_version is not None:
        if mptcp_version == 0 and key is None:
            key = Key(0xA5A5A5A5A5A5A5A5)
        sender = key if mptcp_version == 0 else None
        syn_opts = encode_mp_capable(
            MpCapable(mptcp_version, sender_key=sender), HandshakePhase.SYN
        )
        synack_opts = encode_mp_capable(
            MpCapable(mptcp_version, sender_key=key or Key(0x1111)), HandshakePhase.SYN_ACK
        )
    frames = [
        (t0, tcp_frame(src, dst, sport, dport, FLAG_SYN, syn_opts)),
        (t0 + 0.01, tcp_frame(dst, src, dport, sport, FLAG_SYN_ACK, synack_opts)),
        (t0 + 0.02, tcp_frame(src, dst, sport, dport, FLAG_ACK)),
    ]
    for i in range(extra_data_packets):
        frames.append(
            (
                t0 + 0.03 + i * 0.01,
                tcp_frame(src, dst, sport, dport, FLAG_ACK | FLAG_PSH,
                          payload_len=payload_len),
            )
        )
    return frames


def capture_bytes(frames, linktype: int = LINKTYPE_RAW) -> io.BytesIO:
    buf = io.BytesIO()
    write_pcap(buf, frames, linktype=linktype)
    buf.seek(0)
    return buf


def with_v6_headers(
    packet: bytes, kinds: tuple[int, ...], fragment_offset: int = 0, size: int = 8
) -> bytes:
    """An IPv6 packet with extension headers of `kinds` inserted, in order,
    after its fixed header. Fragment (44) headers are 8 bytes and carry
    `fragment_offset` (8-byte units); the others are `size` bytes of padding."""
    chain = b""
    for kind, carried in zip(kinds, (*kinds[1:], packet[6])):
        if kind == 44:
            chain += struct.pack("!BBHI", carried, 0, fragment_offset << 3, 0)
        else:
            chain += bytes([carried, size // 8 - 1]) + bytes(size - 2)
    header = bytearray(packet[:40])
    header[6] = kinds[0]
    struct.pack_into("!H", header, 4, len(packet) - 40 + len(chain))
    return bytes(header) + chain + packet[40:]
