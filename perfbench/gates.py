"""Correctness gates: compare what the stages wrote with what must be true.

Each gate returns a `Gate` whose `attempted` counts the targets, frames or
probes checked and whose `failed` counts those that errored or disagreed.
An item can fail more than one check, so the result line caps `failed` at
`attempted`.
The gates read files only; they do not import mptcpkit.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from math import isclose
from pathlib import Path


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str, weight: int = 1) -> None:
        if not ok:
            self.failed += weight
            if len(self.problems) < 20:
                self.problems.append(problem)


def read_lines(path: Path) -> list[str]:
    if not path.exists():
        return []
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _networks(path: Path) -> list:
    return [ipaddress.ip_network(line.split("#", 1)[0].strip(), strict=False)
            for line in read_lines(path) if line.split("#", 1)[0].strip()]


def blocked(address: str, networks: list) -> bool:
    addr = ipaddress.ip_address(address)
    return any(addr.version == n.version and addr in n for n in networks)


def check_stages(gate: Gate, passes: list[dict], deterministic: bool) -> None:
    """Every stage exited 0; seeded stages wrote identical bytes every pass.

    A stage counts as one failure however many passes it failed in.
    """
    for i, stage in enumerate(passes[0]["stages"]):
        codes = sorted({p["stages"][i]["rc"] for p in passes})
        gate.check(codes == [0], f"stage {stage['name']} exited {codes}")
        if deterministic:
            gate.check(len({p["stages"][i]["sha256"] for p in passes}) == 1,
                       f"stage {stage['name']} output differs between passes")


# -- campaign ------------------------------------------------------------------


def _top_rows(entries: list[tuple[str, int]], prefix_path: Path, meta_path: Path) -> list[str]:
    """`report top` by ASN, k=10, from a longest-prefix match of our own."""
    by_length: dict[int, dict[tuple[int, int], int]] = {}
    for line in read_lines(prefix_path):
        prefix, asn = line.rsplit(",", 1)
        net = ipaddress.ip_network(prefix.strip(), strict=False)
        by_length.setdefault(net.prefixlen, {})[(net.version, int(net.network_address))] = int(asn)
    meta = {}
    for line in read_lines(meta_path):
        asn, org, country, rank = line.split(",")
        meta[int(asn)] = (org, country, rank)
    addresses: dict[str, set] = {}
    per_port: dict[str, dict[int, set]] = {}
    for address, port in entries:
        addr = ipaddress.ip_address(address)
        bits = 32 if addr.version == 4 else 128
        asn = None
        for length in range(bits, -1, -1):
            shift = bits - length
            asn = by_length.get(length, {}).get((addr.version, (int(addr) >> shift) << shift))
            if asn is not None:
                break
        group = "unknown" if asn is None else str(asn)
        addresses.setdefault(group, set()).add(address)
        per_port.setdefault(group, {}).setdefault(port, set()).add(address)
    order = sorted(addresses, key=lambda g: (-len(addresses[g]),
                                             (0, int(g)) if g.isdigit() else (1, 0)))
    rows = ["group,port80,port443,rank,country,organization"]
    for group in order[:10]:
        org, country, rank = meta.get(int(group), ("Unknown", "??", "")) if group.isdigit() \
            else ("Unknown", "??", "")
        counts = per_port[group]
        rows.append(f"{group},{len(counts.get(80, ()))},{len(counts.get(443, ()))},"
                    f"{rank},{country},{org}")
    return rows


def campaign(workdir: Path, passes: list[dict]) -> Gate:
    """Scan labels and trace verdicts against `simulate --out-truth`."""
    gate = Gate()
    check_stages(gate, passes, deterministic=True)
    truth = {}
    for line in read_lines(workdir / "truth.csv")[1:]:
        address, port, version, label, verdict, ttl = line.split(",")
        if version == "0":
            truth[(address, int(port))] = (label, verdict, ttl)
    networks = _networks(workdir / "blocklist.txt")
    targets = [line.rsplit(",", 1) for line in read_lines(workdir / "targets.txt")]
    scan = [line.split(",") for line in read_lines(workdir / "scan.csv")]
    gate.attempted += len(targets)
    gate.check(len(scan) == len(targets), f"scan wrote {len(scan)} rows for {len(targets)} targets",
               abs(len(scan) - len(targets)))
    capable, seen, keys, families = [], set(), 0, set()
    for (address, port), row in zip(targets, scan):
        key = (address, int(port))
        expected = "skipped" if blocked(address, networks) else truth.get(key, ("?",))[0]
        if len(row) != 6:
            gate.check(False, f"scan row for {address},{port} is malformed: {row}")
            continue
        gate.check(row[1:3] == [address, port] and row[4] == expected,
                   f"scan {address},{port}: got {row[4]} want {expected}")
        if row[4] == "potential_capable" and key not in seen:
            seen.add(key)
            capable.append(key)
        keys += bool(row[5:] and row[5])
        families.add(("v6" if ":" in address else "v4", port))
    gate.check(any(r[4:5] == ["skipped"] for r in scan), "blocklist skipped no target")

    trace = [line.split(",") for line in read_lines(workdir / "trace.csv")]
    gate.attempted += len(capable)
    gate.check(len(trace) == len(capable), f"trace wrote {len(trace)} rows for "
               f"{len(capable)} potential targets", abs(len(trace) - len(capable)))
    verdicts: dict[str, int] = {}
    for key, row in zip(capable, trace):
        label, verdict, ttl = truth.get(key, ("?", "?", "?"))
        gate.check(row[:4] == [key[0], str(key[1]), verdict, ttl],
                   f"trace {key}: got {row[2:4]} want {[verdict, ttl]}")
        got = row[2] if len(row) > 2 else "<missing>"
        verdicts[got] = verdicts.get(got, 0) + 1

    keys_out = read_lines(workdir / "keys.txt")
    gate.check(f"# total={keys}" in keys_out, f"keys report total is not {keys}")
    summary = sorted(f"{v},{n}" for v, n in verdicts.items())
    gate.check(read_lines(workdir / "summary.txt") == summary, "report summary disagrees with trace")
    gate.check(read_lines(workdir / "ingest.txt") == [f"ingested,{len(families)}"],
               f"report ingest did not write {len(families)} snapshots")
    entries = [(r[0], int(r[1])) for r in trace if r[2:3] == ["truly_capable"] and r[1].isdigit()]
    gate.check(read_lines(workdir / "top.csv") == _top_rows(entries, workdir / "prefixes.txt",
                                                       workdir / "asn_meta.txt"),
               "report top disagrees with the reference longest-prefix match")

    bench = workdir / "bench-out"
    for line in read_lines(bench / "summary.txt"):
        metric, *fractions = line.split(",")
        gate.check(isclose(sum(map(float, fractions)), 1.0, abs_tol=1e-5),
                   f"bench {metric} fractions do not sum to 1")
        cdf = read_lines(bench / f"{metric}.cdf.txt")
        gate.check(bool(cdf) and cdf[-1].endswith(",1.000000"), f"bench {metric} CDF is not complete")
    gate.check(len(read_lines(bench / "summary.txt")) == 4, "bench summary lacks a metric")
    return gate


# -- pcap ----------------------------------------------------------------------------


def pcap(workdir: Path, passes: list[dict], expected_rows: list[str],
         counters: list[dict]) -> Gate:
    """Analysis rows and FlowTable counters against what the generator wrote."""
    gate = Gate()
    check_stages(gate, passes, deterministic=True)
    gate.attempted = sum(c["frames_seen"] for c in counters)
    got = read_lines(workdir / "analysis.csv")
    missing = [row for row in expected_rows if row not in got]
    extra = [row for row in got if row not in expected_rows]
    for row in missing:
        gate.check(False, f"missing or wrong row: {row}")
    for row in extra:
        gate.check(False, f"unexpected row: {row}")
    if not (missing or extra):
        gate.check(got == expected_rows, "rows out of order")
    # Counters are checked on one pass; the others must repeat it exactly.
    tables = passes[0]["flow_tables"]
    gate.check(len(tables) == len(counters), f"{len(tables)} captures ingested, "
               f"want {len(counters)}")
    for want, have in zip(counters, tables):
        wrong = [name for name, value in want.items() if have[name] != value]
        frames_off = [abs(have[name] - want[name]) for name in wrong if name != "tcp_bytes"]
        gate.check(not wrong, ", ".join(f"{name} = {have[name]}, want {want[name]}"
                                        for name in wrong), max(frames_off, default=1))
        gate.check(have["frames_seen"] == have["tcp_packets"] + have["non_tcp"]
                   + have["parse_failures"], "frames != TCP + non-TCP + parse failures")
    gate.check(all(p["flow_tables"] == tables for p in passes[1:]),
               "FlowTable counters differ between passes")
    return gate


# -- live ------------------------------------------------------------------------------


def max_per_window(timestamps: list[float]) -> int:
    """Most sends inside any window shorter than one second.

    Scan records carry microsecond timestamps, so sends exactly one second
    apart may read up to 2 us closer; they are not counted together.
    """
    ts = sorted(timestamps)
    best, lo = 0, 0
    for hi, t in enumerate(ts):
        while ts[lo] <= t - 1.0 + 2e-6:
            lo += 1
        best = max(best, hi - lo + 1)
    return best


EXPECTED_LIVE = {"mptcp": "potential_capable", "tcp": "no_mp_capable", "closed": "no_response"}


def live(workdir: Path, passes: list[dict], kinds: dict[str, str], rate: float) -> Gate:
    """Each probe's label against its port's listener; no 1 s window over rate."""
    gate = Gate()
    check_stages(gate, passes, deterministic=False)
    networks = _networks(workdir / "blocklist.txt")
    rows = [line.split(",") for line in read_lines(workdir / "scan.csv")]
    gate.attempted = len(kinds)
    gate.check(len(rows) == len(kinds), f"scan wrote {len(rows)} rows for {len(kinds)} probes",
               abs(len(rows) - len(kinds)))
    sent = []
    for row in rows:
        if len(row) != 6:
            gate.check(False, f"scan row is malformed: {row}")
            continue
        target = f"{row[1]},{row[2]}"
        want = "skipped" if blocked(row[1], networks) else EXPECTED_LIVE[kinds.get(target, "closed")]
        gate.check(row[4] == want, f"probe {target}: got {row[4]} want {want}")
        if row[4] != "skipped":
            sent.append(float(row[0]))
    peak = max_per_window(sent)
    gate.check(peak <= rate, f"{peak} probes in one second at --rate {rate:g}", peak - int(rate))
    return gate
