"""Seeded inputs the program does not make itself.

Blocklists, prefix and ASN tables, pcap captures, service tables and the
loopback target plan are all built here, in the parent process and before
any timing starts, so they never inflate the measured process. Every
generator takes its parameters and a seed; the same seed gives the same
bytes. This module does not import mptcpkit: the captures are assembled
with `struct` and the expected analysis rows are derived from what the
generator itself wrote.
"""

from __future__ import annotations

import ipaddress
import os
import random
import struct
from math import ceil
from pathlib import Path

PCAP_MAGIC_US = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

SYN, PSH, ACK = 0x02, 0x08, 0x10
PROTO_TCP, PROTO_UDP = 6, 17
EPHEMERAL_START = 49152
EWMA_ALPHA = 0.2  # analyze-pcap's default --ewma-alpha

_IP4 = struct.Struct("!BBHHHBBH4s4s")
_IP6 = struct.Struct("!IHBB16s16s")
_TCP = struct.Struct("!HHIIBBHHH")
_PCAP_REC = struct.Struct("<IIII")

# Linux-style SYN options: MSS, SACK permitted, timestamps, NOP, window scale.
_MSS = b"\x02\x04\x05\xb4"
_SACK_OK = b"\x04\x02"
_WSCALE = b"\x01\x03\x03\x07"


# -- campaign tables ---------------------------------------------------------


def sim_v4(host: int) -> str:
    """Address `generate_population` gives IPv4 target number `host` (1-based)."""
    return f"10.{(host >> 16) & 255}.{(host >> 8) & 255}.{host & 255}"


def sim_v6(host: int) -> str:
    return f"2001:db8:1::{host:x}"


def write_blocklist(path: Path, rng: random.Random, blocked_hosts: list[str], total: int) -> None:
    """`blocked_hosts` as host prefixes, padded with decoys that match nothing."""
    lines = [f"{a}/{32 if ':' not in a else 128}" for a in blocked_hosts]
    while len(lines) < total:
        if rng.random() < 0.7:
            length = rng.choice((16, 20, 24, 28, 32))
            base = ipaddress.ip_address("172.16.0.0") + rng.randrange(1 << 20)
            net = ipaddress.ip_network(f"{base}/{length}", strict=False)
        else:
            length = rng.choice((48, 56, 64, 96, 128))
            base = ipaddress.ip_address("2001:db8:2::") + rng.getrandbits(80)
            net = ipaddress.ip_network(f"{base}/{length}", strict=False)
        lines.append(str(net))
    rng.shuffle(lines)
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def campaign_tables(workdir: Path, seed: int, targets: int, blocked_share: float,
                    blocklist_size: int, prefixes: int, asns: int) -> dict:
    """Blocklist, prefix table and ASN metadata for the simulated campaign.

    Blocked targets are listed in both address forms the simulator may give
    them, so the share blocked does not depend on which family each target
    drew.
    """
    rng = random.Random(f"campaign-tables:{seed}")
    blocked = rng.sample(range(1, targets + 1), max(1, round(targets * blocked_share)))
    hosts = [f(h) for h in blocked for f in (sim_v4, sim_v6)]
    write_blocklist(workdir / "blocklist.txt", rng, hosts, blocklist_size)

    asn_ids = [64512 + i for i in range(asns)]
    countries = ("US", "DE", "FR", "JP", "BR", "IN", "GB", "NL", "KR", "CN",
                 "BE", "IT", "ES", "SE", "CA", "AU", "CH", "PL", "RU", "ZA")
    with open(workdir / "asn_meta.txt", "w", encoding="utf-8") as f:
        for asn in asn_ids:
            rank = "" if rng.random() < 0.2 else str(rng.randint(1, 5000))
            f.write(f"{asn},Org-{asn:x},{rng.choice(countries)},{rank}\n")
    v4_base = int(ipaddress.ip_address("10.0.0.0"))
    v6_base = int(ipaddress.ip_address("2001:db8:1::"))
    with open(workdir / "prefixes.txt", "w", encoding="utf-8") as f:
        for _ in range(prefixes):
            host = rng.randint(1, targets)
            if rng.random() < 0.75:
                length = rng.choice((8, 12, 16, 18, 20, 22, 23, 24, 25, 26, 28, 30, 32))
                addr = ipaddress.IPv4Address(v4_base + (host & 0xFFFFFF))
            else:
                length = rng.choice((48, 64, 96, 104, 112, 116, 120, 124, 128))
                addr = ipaddress.IPv6Address(v6_base + host)
            net = ipaddress.ip_network(f"{addr}/{length}", strict=False)
            f.write(f"{net},{rng.choice(asn_ids)}\n")
    return {"blocklist_entries": blocklist_size, "blocked_targets": len(blocked),
            "prefixes": prefixes, "asns": asns}


# -- packets -----------------------------------------------------------------


def _tcp_header(sport, dport, seq, ack, flags, options: bytes) -> bytes:
    options += b"\x00" * (-len(options) % 4)
    return _TCP.pack(sport, dport, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF,
                     (5 + len(options) // 4) << 4, flags, 65535, 0, 0) + options


def ip_packet(src: bytes, dst: bytes, transport: bytes, payload_len: int,
              proto: int = PROTO_TCP) -> bytes:
    """IP header plus transport header; the payload follows separately.

    Checksums are left zero, as with checksum offload; mptcpkit does not
    verify them.
    """
    if len(src) == 4:
        total = 20 + len(transport) + payload_len
        return _IP4.pack(0x45, 0, total, 0, 0x4000, 64, proto, 0, src, dst) + transport
    return _IP6.pack(0x60000000, len(transport) + payload_len, proto, 64, src, dst) + transport


def timestamps(tsval: int, tsecr: int) -> bytes:
    return b"\x01\x01\x08\x0a" + struct.pack("!II", tsval & 0xFFFFFFFF, tsecr & 0xFFFFFFFF)


def mp_capable(version: int, key: int | None) -> bytes:
    body = bytes([version, 0x81]) + (key.to_bytes(8, "big") if key is not None else b"")
    return bytes([30, len(body) + 2]) + body


def dss(data_ack: int, dsn: int | None, subflow_seq: int = 0, length: int = 0) -> bytes:
    """DSS option (kind 30, subtype 2): 4-byte data ACK, optional mapping."""
    if dsn is None:
        return bytes([30, 8, 0x20, 0x01]) + struct.pack("!I", data_ack & 0xFFFFFFFF)
    return bytes([30, 20, 0x20, 0x05]) + struct.pack(
        "!IIIHH", data_ack & 0xFFFFFFFF, dsn & 0xFFFFFFFF, subflow_seq & 0xFFFFFFFF,
        length, 0,
    )


class PcapWriter:
    """Microsecond pcap writer for frames given as parts."""

    def __init__(self, path: Path, linktype: int):
        self.f = open(path, "wb")
        self.f.write(struct.pack("<IHHiIII", PCAP_MAGIC_US, 2, 4, 0, 0, 65535, linktype))
        self.bytes = 24

    def write(self, ts: float, *parts: bytes) -> None:
        size = sum(len(p) for p in parts)
        sec = int(ts)
        self.f.write(_PCAP_REC.pack(sec, int(round((ts - sec) * 1e6)), size, size))
        for p in parts:
            self.f.write(p)
        self.bytes += 16 + size

    def close(self) -> None:
        # Flush to disk now, so write-back does not compete with the timed reads.
        self.f.flush()
        os.fsync(self.f.fileno())
        self.f.close()


# -- expected analyze-pcap output ------------------------------------------


def service_label(ports: tuple[int, int], registry: dict, supplementary: dict) -> str:
    """The labelling rule analyze-pcap documents for `--services`."""
    if 0 in ports:
        return "ReservedZero"
    candidates = [p for p in sorted(ports) if p < EPHEMERAL_START]
    for table in (supplementary, registry):
        for port in candidates:
            if port in table:
                return table[port]
    return "Unknown"


def expected_rows(capture: str, flows: list[dict], min_packets: int,
                  services: tuple[dict, dict] | None) -> tuple[list[str], tuple[int, int]]:
    """Share, concentration and service rows for one capture's flows."""
    kept = [f for f in flows if f["packets"] >= min_packets]
    mptcp = [f for f in kept if f["mptcp"]]
    tcp_bytes = sum(f["bytes"] for f in kept)
    mptcp_bytes = sum(f["bytes"] for f in mptcp)
    flow_share = f"{len(mptcp) / len(kept):.9f}" if kept else ""
    byte_share = f"{mptcp_bytes / tcp_bytes:.9f}" if tcp_bytes else ""
    rows = [f"share,{capture},{len(kept)},{tcp_bytes},{len(mptcp)},{mptcp_bytes},"
            f"{flow_share},{byte_share}"]
    if mptcp:
        sizes = sorted((f["bytes"] for f in mptcp), reverse=True)
        total = sum(sizes)
        top1, top5, half = (sizes[0] / total, sum(sizes[:5]) / total,
                            sum(sizes[: ceil(len(sizes) / 2)]) / total)
        rows.append(f"concentration,{capture},{top1:.6f},{top5:.6f},{half:.6f}")
    if services is not None:
        by_label: dict[str, list[int]] = {}
        for f in mptcp:
            counts = by_label.setdefault(service_label(f["ports"], *services), [0, 0])
            counts[0] += 1
            counts[1] += f["bytes"]
        rows += [f"service,{capture},{label},{n},{b}"
                 for label, (n, b) in sorted(by_label.items())]
    return rows, (len(kept), len(mptcp))


def ewma_rows(captures: list[str], series: list[tuple[int, int]]) -> list[str]:
    out, prev = [], None
    for capture, (tcp, mp) in zip(captures, series):
        cur = (float(tcp), float(mp)) if prev is None else (
            EWMA_ALPHA * float(tcp) + (1 - EWMA_ALPHA) * prev[0],
            EWMA_ALPHA * float(mp) + (1 - EWMA_ALPHA) * prev[1],
        )
        out.append(f"ewma,{capture},{cur[0]:.6f},{cur[1]:.6f}")
        prev = cur
    return out


def _counters() -> dict:
    return {"frames_seen": 0, "tcp_packets": 0, "tcp_bytes": 0, "non_tcp": 0,
            "parse_failures": 0}


# -- pcap-mice ---------------------------------------------------------------


def _v4(n: int) -> bytes:
    return bytes([10, (n >> 16) & 255, (n >> 8) & 255, n & 255])


def _v6(prefix: bytes, n: int) -> bytes:
    return prefix + n.to_bytes(16 - len(prefix), "big")


def mice_captures(workdir: Path, seed: int, captures: int, flows_per_capture: int,
                  mptcp_share: float, v6_share: float, udp_share: float,
                  truncated_share: float, min_packets: int) -> dict:
    """Raw-IP captures of short flows, plus registry and vendor service tables.

    Each flow is a handshake plus 0-5 further segments in alternating
    directions, so about a third of flows fall under `min_packets`. UDP and
    truncated TCP frames are added as shares of the TCP frames.
    """
    rng = random.Random(f"pcap-mice:{seed}")
    registry = {22: "SSH", 25: "SMTP", 80: "HTTP", 443: "HTTPS", 993: "IMAPS"}
    supplementary = {443: "Vendor-CDN", 5223: "Push", 8080: "Proxy"}
    (workdir / "registry.txt").write_text(
        "# port,protocol,label\n" + "".join(f"{p},tcp,{l}\n" for p, l in registry.items()),
        encoding="utf-8")
    (workdir / "vendor.txt").write_text(
        "".join(f"{p},tcp,{l}\n" for p, l in supplementary.items()), encoding="utf-8")
    server_ports = [80, 443, 443, 443, 22, 25, 993, 5223, 8080, 8443, 7000]
    servers4 = [bytes([198, 51, 100, i]) for i in range(1, 255)]
    servers6 = [_v6(bytes.fromhex("20010db8000b0000"), i) for i in range(1, 255)]

    names, expected, counters, series = [], [], [], []
    total_bytes = 0
    for c in range(captures):
        name = f"mice-{c}.pcap"
        frames: list[tuple[float, bytes]] = []
        flows: list[dict] = []
        count = _counters()
        for i in range(flows_per_capture):
            ident = c * flows_per_capture + i + 1
            if rng.random() < v6_share:
                client, server = _v6(bytes.fromhex("20010db8000a0000"), ident), rng.choice(servers6)
            else:
                client, server = _v4(ident), rng.choice(servers4)
            sport, dport = rng.randint(EPHEMERAL_START, 65535), rng.choice(server_ports)
            version = None
            if rng.random() < mptcp_share:
                version = rng.choice((0, 1))
            t = rng.uniform(0, 60.0)
            ts = rng.getrandbits(32)
            cseq, sseq = rng.getrandbits(32), rng.getrandbits(32)
            syn_opts = _MSS + _SACK_OK + timestamps(ts, 0) + _WSCALE
            synack_opts = _MSS + _SACK_OK + timestamps(ts + 7, ts) + _WSCALE
            if version is not None:
                syn_opts += mp_capable(version, rng.getrandbits(64) if version == 0 else None)
                synack_opts += mp_capable(version, rng.getrandbits(64))
            packets = [
                ip_packet(client, server, _tcp_header(sport, dport, cseq, 0, SYN, syn_opts), 0),
                ip_packet(server, client, _tcp_header(dport, sport, sseq, cseq + 1, SYN | ACK,
                                                      synack_opts), 0),
                ip_packet(client, server, _tcp_header(sport, dport, cseq + 1, sseq + 1, ACK,
                                                      timestamps(ts + 1, ts + 7)), 0),
            ]
            for k in range(rng.randint(0, 5)):
                n = rng.randint(0, 40)
                src, dst, a, b = (client, server, sport, dport) if k % 2 == 0 else (
                    server, client, dport, sport)
                header = ip_packet(src, dst, _tcp_header(a, b, cseq + 1 + k, sseq + 1,
                                                         ACK | (PSH if n else 0),
                                                         timestamps(ts + 2 + k, ts + 7)), n)
                packets.append(header + rng.randbytes(n))
            flow_bytes = sum(len(p) for p in packets)
            for p in packets:
                frames.append((t, p))
                t += rng.uniform(0.0005, 0.02)
            flows.append({"packets": len(packets), "bytes": flow_bytes,
                          "mptcp": version is not None, "ports": (sport, dport)})
            count["tcp_packets"] += len(packets)
            count["tcp_bytes"] += flow_bytes
        tcp_frames = count["tcp_packets"]
        for _ in range(round(tcp_frames * udp_share)):
            client = _v4(rng.randrange(1 << 20))
            udp = struct.pack("!HHHH", rng.randint(1024, 65535), 53, 8 + 32, 0)
            frames.append((rng.uniform(0, 60.0),
                           ip_packet(client, rng.choice(servers4), udp, 32, PROTO_UDP)
                           + rng.randbytes(32)))
            count["non_tcp"] += 1
        for _ in range(round(tcp_frames * truncated_share)):
            header = ip_packet(_v4(rng.randrange(1 << 20)), rng.choice(servers4),
                               _tcp_header(50000, 80, 1, 1, ACK, timestamps(1, 1)), 0)
            frames.append((rng.uniform(0, 60.0), header[:30]))
            count["parse_failures"] += 1
        frames.sort(key=lambda fr: fr[0])
        writer = PcapWriter(workdir / name, LINKTYPE_RAW)
        for t, data in frames:
            writer.write(t, data)
        writer.close()
        count["frames_seen"] = len(frames)
        total_bytes += writer.bytes
        rows, share = expected_rows(name, flows, min_packets, (registry, supplementary))
        names.append(name)
        expected += rows
        series.append(share)
        counters.append(count)
    expected += ewma_rows(names, series)
    return {"captures": names, "expected_rows": expected, "counters": counters,
            "capture_bytes": total_bytes}


# -- pcap-elephants ------------------------------------------------------------


def elephant_captures(workdir: Path, seed: int, captures: int, flows_per_capture: int,
                      data_packets: int, payload: int, mptcp_share: float,
                      v6_share: float, other_frames: int, min_packets: int) -> dict:
    """Ethernet captures of long bulk flows; odd-numbered captures VLAN-tagged.

    Each flow is a handshake, then `data_packets` full-size segments each
    answered by a pure ACK, interleaved across flows in time order. In MPTCP
    flows every data segment carries a DSS mapping and every ACK a DSS data
    ACK. Every segment carries timestamps. Each capture also holds
    `other_frames` UDP frames and as many ARP frames, which mptcpkit counts
    as non-TCP and as link-layer parse failures.
    """
    rng = random.Random(f"pcap-elephants:{seed}")
    names, expected, counters, series = [], [], [], []
    total_bytes = 0
    for c in range(captures):
        name = f"elephants-{c}.pcap"
        vlan = c % 2 == 1
        block = rng.randbytes(payload)
        count = _counters()

        def link(ethertype: int) -> bytes:
            head = b"\x02\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x02"
            if vlan:
                head += struct.pack("!HH", 0x8100, 100 + c)
            return head + struct.pack("!H", ethertype)

        eth4, eth6 = link(0x0800), link(0x86DD)
        flows, plans = [], []
        for i in range(flows_per_capture):
            ident = c * flows_per_capture + i + 1
            v6 = rng.random() < v6_share
            client = _v6(bytes.fromhex("20010db8000c0000"), ident) if v6 else _v4(ident)
            server = (_v6(bytes.fromhex("20010db8000d0000"), rng.randint(1, 50)) if v6
                      else bytes([203, 0, 113, rng.randint(1, 50)]))
            plans.append({
                "client": client, "server": server, "eth": eth6 if v6 else eth4,
                "sport": rng.randint(EPHEMERAL_START, 65535), "dport": rng.choice((80, 443)),
                "mptcp": rng.random() < mptcp_share, "ts": rng.getrandbits(32),
                "cseq": rng.getrandbits(32), "sseq": rng.getrandbits(32),
                "offset": rng.uniform(0, 0.001), "bytes": 0,
            })
        writer = PcapWriter(workdir / name, LINKTYPE_ETHERNET)
        steps = 3 + 2 * data_packets
        for step in range(steps):
            for p in plans:
                t = 1000.0 + step * 0.002 + p["offset"]
                cl, sv, sp, dp = p["client"], p["server"], p["sport"], p["dport"]
                ts, mp = p["ts"] + step, p["mptcp"]
                if step == 0:
                    opts = _MSS + _SACK_OK + timestamps(ts, 0) + _WSCALE
                    opts += mp_capable(0, rng.getrandbits(64)) if mp else b""
                    hdr, n = ip_packet(cl, sv, _tcp_header(sp, dp, p["cseq"], 0, SYN, opts), 0), 0
                elif step == 1:
                    opts = _MSS + _SACK_OK + timestamps(ts, ts - 1) + _WSCALE
                    opts += mp_capable(0, rng.getrandbits(64)) if mp else b""
                    hdr, n = ip_packet(sv, cl, _tcp_header(dp, sp, p["sseq"], p["cseq"] + 1,
                                                           SYN | ACK, opts), 0), 0
                elif step == 2:
                    opts = timestamps(ts, ts - 1)
                    hdr, n = ip_packet(cl, sv, _tcp_header(sp, dp, p["cseq"] + 1, p["sseq"] + 1,
                                                           ACK, opts), 0), 0
                else:
                    k = step - 3  # even: client data, odd: server ACK
                    sent = (k // 2) * payload
                    opts = timestamps(ts, ts - 1)
                    if k % 2 == 0:
                        if mp:
                            opts += dss(1, 1 + sent, 1 + sent, payload)
                        n = payload
                        hdr = ip_packet(cl, sv, _tcp_header(sp, dp, p["cseq"] + 1 + sent,
                                                            p["sseq"] + 1, ACK | PSH, opts), n)
                    else:
                        if mp:
                            opts += dss(1 + sent + payload, None)
                        n = 0
                        hdr = ip_packet(sv, cl, _tcp_header(dp, sp, p["sseq"] + 1,
                                                            p["cseq"] + 1 + sent + payload,
                                                            ACK, opts), 0)
                writer.write(t, p["eth"], hdr, block[:n])
                p["bytes"] += len(hdr) + n
                count["tcp_packets"] += 1
        for _ in range(other_frames):
            udp = struct.pack("!HHHH", 5353, 5353, 8 + 64, 0)
            writer.write(1000.5, eth4, ip_packet(bytes([203, 0, 113, 200]),
                                                 bytes([224, 0, 0, 251]), udp, 64, PROTO_UDP),
                         bytes(64))
            writer.write(1000.5, link(0x0806), bytes(28))
        count["non_tcp"] = count["parse_failures"] = other_frames
        count["frames_seen"] = steps * len(plans) + 2 * other_frames
        writer.close()
        total_bytes += writer.bytes
        for p in plans:
            flows.append({"packets": steps, "bytes": p["bytes"], "mptcp": p["mptcp"],
                          "ports": (p["sport"], p["dport"])})
            count["tcp_bytes"] += p["bytes"]
        rows, share = expected_rows(name, flows, min_packets, None)
        names.append(name)
        expected += rows
        series.append(share)
        counters.append(count)
    expected += ewma_rows(names, series)
    return {"captures": names, "expected_rows": expected, "counters": counters,
            "capture_bytes": total_bytes}


# -- live-loopback ---------------------------------------------------------------


def loopback_plan(workdir: Path, seed: int, addresses: int, ports_per_address: int,
                  mptcp_share: float, tcp_share: float, blocklist_size: int) -> dict:
    """Targets on 127.0.1.0/24 and which of them get which kind of listener.

    One address is blocklisted; the rest of the blocklist is decoys.
    Returns the plan; the caller opens the listeners.
    """
    rng = random.Random(f"live-loopback:{seed}")
    base_port = rng.randrange(20000, 30000)
    targets, kinds = [], {}
    for a in range(1, addresses + 1):
        address = f"127.0.1.{a}"
        for port in range(base_port, base_port + ports_per_address):
            draw = rng.random()
            kind = ("mptcp" if draw < mptcp_share else
                    "tcp" if draw < mptcp_share + tcp_share else "closed")
            targets.append((address, port))
            kinds[f"{address},{port}"] = kind
    rng.shuffle(targets)
    blocked = f"127.0.1.{rng.randint(1, addresses)}"
    write_blocklist(workdir / "blocklist.txt", rng, [blocked], blocklist_size)
    (workdir / "targets.txt").write_text(
        "".join(f"{a},{p}\n" for a, p in targets), encoding="utf-8")
    return {"kinds": kinds, "blocked": blocked, "probes": len(targets),
            "sent": sum(1 for a, _ in targets if a != blocked)}
