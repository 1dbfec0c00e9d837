"""Seeded pipeline outputs pinned byte for byte.

A small campaign runs through `cli.main` and every output file is compared
by sha256 with the digests the pipeline wrote before the campaign's hot
paths were optimised. A change that only makes the toolkit faster must
leave every digest as it is. The `bench-out/` digests were recorded again
when the simulated jitter became the top 53 bits of its blake2b digest, and
the six key-bearing digests when each simulated key became a blake2b digest,
and again when the endpoint's key became the one of the TTL it answers at,
no longer the last interior hop's. Each key is the blake2b digest of
`seed|address|port|hop|role` (a node with a `seed=N` of its own hashes
`seed=N|role`), the same however often it is asked for. `KEY_BLIND` pins
the five row files with their key column cleared, as they were before those
changes: only the keys moved.
"""

import hashlib
import json

import pytest

from mptcpkit.cli import main

SEED = 2718

BLOCKLIST = """\
# a few generated targets of each family are off limits
10.0.0.0/28
10.0.1.0/30,64500
2001:db8:1::/124
"""

GOLDEN = {
    "topology.txt": "59af902571eb6f0226b00424c3271fed1d88e4d537cc9d174ecda0b4a3f7912b",
    "targets.csv": "14557266c9b64f35ef14627ecc2348a4e05f77d47295d5051d346b7015caaf52",
    "truth.csv": "d27c902ce87e046af30556dd4407f6f8f708d37087ce21c6f80460af9ba57c9d",
    "scan.csv": "25dc5d5f3b40f7b9094bacbba2c61b9e84e440cc6e51405c26710f3cdc7c5a57",
    "keys.txt": "924025b4081b97e0968428d1a43ec06c374d1928baa6ea61c31df4d0b8154ca0",
    "trace.csv": "192e36462ac0f783dc8b6aeb7b34ded1256ac53cb9ede6698af98eaaccb3144c",
    "summary.csv": "9456465e800bc46e1767cca9c540652f6ff3e5c970c3fdb1e1995a42074c6763",
    "bench-out/connect.cdf.txt": "6bbb76f0fdeeb59b136692ba52e1b043a229922a28298f6e4c6f93957bc269e5",
    "bench-out/tls.cdf.txt": "d77163436052739c0666abf515e3f07f7d09708046a964ce344ddc0edec56a14",
    "bench-out/ttfb.cdf.txt": "b263f77d7f4e3cb32a8579da2b4b98c70c3d13d3b9c23efda282ae9a933a9e5a",
    "bench-out/total.cdf.txt": "48d931143c2ed16816fee7a093b43d1bbd6cd8191de56a1a49b3e800afdb63bc",
    "bench-out/summary.txt": "bb6d3d584ef8d99534acd6744d8c7d81a0e70c63249277f407b8722b8530c9fd",
    "scan-v1.csv": "ab3b7e7c82260bf4fdcf13077577c2b6f80ef7f4dbea167d1d978ff6a71c6e8f",
    "trace-v1.csv": "cacc7aac9e2c42a7f954e9ebe9630103f1b6d70f4de9fa5ef4793a0389e0f9c6",
    "scan.jsonl": "9af7a288943f8428c45315b9ba9bb2ff829970a09e8d3e2f0fdf371a46f6ebd5",
}

# The row files with the sender's key blanked: the last CSV field cleared, and
# `sender_key` set to null in the JSONL rows (re-serialised with sorted keys).
KEY_BLIND = {
    "scan.csv": "0d0aeca8cd8f963cf0a3953900733f4d96c2e02cd9193d8bcfae98fe8285bcaa",
    "scan-v1.csv": "62c7c90ec411db19afe5f6d4d63ffc88d469dd065423015433c4e21f564bceaf",
    "scan.jsonl": "9d73c5d8333574438c1b1137624467621781ffc64e4ab2c040a3fbb06d835e65",
    "trace.csv": "2f6754029d07670ecfc1dd7af1de3ac928f847fb7834f6e1afe16c79aad7651b",
    "trace-v1.csv": "fb145ef8b9809d15ce5e05736422a951a571678e47c1fa3a5a6f22d48af01c3e",
}


def _run(argv):
    assert main([str(a) for a in argv]) == 0, argv


def run_pipeline(d):
    """simulate, scan (v0, blocklisted), keys, trace, report summary and
    bench on the first 50 targets, then a v1 scan, a v1 trace of every
    target and a v0 JSONL scan, all seeded, written under `d`."""
    (d / "blocklist.txt").write_text(BLOCKLIST)
    _run(["simulate", "--generate", 300, "--seed", SEED,
          "--out-topology", d / "topology.txt", "--out-targets", d / "targets.csv",
          "--out-truth", d / "truth.csv"])
    sim = ["--sim-topology", d / "topology.txt", "--seed", SEED]
    _run(["scan", "--targets", d / "targets.csv", "--version", 0,
          "--blocklist", d / "blocklist.txt", "--out", d / "scan.csv", *sim])
    _run(["keys", "--from-scan", d / "scan.csv", "--out", d / "keys.txt"])
    _run(["trace", "--from-scan", d / "scan.csv", "--blocklist", d / "blocklist.txt",
          "--out", d / "trace.csv", *sim])
    _run(["report", "summary", "--in", d / "trace.csv", "--out", d / "summary.csv"])
    first = (d / "targets.csv").read_text().splitlines(keepends=True)[:50]
    (d / "bench-targets.csv").write_text("".join(first))
    _run(["bench", "--targets", d / "bench-targets.csv", "--out-dir", d / "bench-out", *sim])
    # v1 probes take the keyless paths; JSONL rows carry got_version and note.
    _run(["scan", "--targets", d / "targets.csv", "--version", 1,
          "--blocklist", d / "blocklist.txt", "--out", d / "scan-v1.csv", *sim])
    _run(["trace", "--targets", d / "targets.csv", "--version", 1,
          "--blocklist", d / "blocklist.txt", "--out", d / "trace-v1.csv", *sim])
    _run(["scan", "--targets", d / "targets.csv", "--version", 0, "--format", "jsonl",
          "--blocklist", d / "blocklist.txt", "--out", d / "scan.jsonl", *sim])
    return {
        name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in GOLDEN
    }


def key_blind_digest(path) -> str:
    """sha256 of the row file at `path` with every row's key blanked."""
    rows = path.read_text().splitlines()
    if path.suffix == ".jsonl":
        rows = [json.dumps({**json.loads(row), "sender_key": None}, sort_keys=True)
                for row in rows]
    else:
        rows = [row.rpartition(",")[0] + "," for row in rows]
    return hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The pipeline's output directory and the digests of its files."""
    d = tmp_path_factory.mktemp("pipeline")
    return d, run_pipeline(d)


def test_seeded_pipeline_outputs_unchanged(pipeline):
    assert pipeline[1] == GOLDEN


def test_outputs_unchanged_but_for_their_keys(pipeline):
    d = pipeline[0]
    assert {name: key_blind_digest(d / name) for name in KEY_BLIND} == KEY_BLIND


def test_v1_trace_keys_are_the_scan_keys(pipeline):
    # A v1 SYN is keyless, so the endpoint's key is the first draw of its own
    # stream in a scan and in a trace alike, however often the TTL walk passes
    # a key_rewrite hop; the endpoint's stream is the TTL it answers at.
    d = pipeline[0]
    scan = [row.split(",") for row in (d / "scan-v1.csv").read_text().splitlines()]
    scan_keys = {(row[1], row[2]): row[5] for row in scan}
    trace = [row.split(",") for row in (d / "trace-v1.csv").read_text().splitlines()]
    capable = [row for row in trace if row[2] == "truly_capable"]
    assert len(capable) > 40
    assert [row[4] for row in capable] == [scan_keys[row[0], row[1]] for row in capable]
