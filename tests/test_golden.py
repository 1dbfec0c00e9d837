"""Seeded pipeline outputs pinned byte for byte.

A small campaign runs through `cli.main` and every output file is compared
by sha256 with the digests the pipeline wrote before the campaign's hot
paths were optimised. A change that only makes the toolkit faster must
leave every digest as it is. The `bench-out/` digests were recorded again
when the simulated jitter became the top 53 bits of its blake2b digest.
"""

import hashlib

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
    "scan.csv": "246973b1e6a2c0bc4ebdc117833b4b2cd222469b669e6fc57a4527a04c633330",
    "keys.txt": "0b714d9f1b7570c56966bd50da6fa45f429ece3d2e018decd73410bb8a6ff060",
    "trace.csv": "268dd621f4233c16c2219269f07137a18c2aed3d7a1b90efbe4c616541973f30",
    "summary.csv": "9456465e800bc46e1767cca9c540652f6ff3e5c970c3fdb1e1995a42074c6763",
    "bench-out/connect.cdf.txt": "6bbb76f0fdeeb59b136692ba52e1b043a229922a28298f6e4c6f93957bc269e5",
    "bench-out/tls.cdf.txt": "d77163436052739c0666abf515e3f07f7d09708046a964ce344ddc0edec56a14",
    "bench-out/ttfb.cdf.txt": "b263f77d7f4e3cb32a8579da2b4b98c70c3d13d3b9c23efda282ae9a933a9e5a",
    "bench-out/total.cdf.txt": "48d931143c2ed16816fee7a093b43d1bbd6cd8191de56a1a49b3e800afdb63bc",
    "bench-out/summary.txt": "bb6d3d584ef8d99534acd6744d8c7d81a0e70c63249277f407b8722b8530c9fd",
    "scan-v1.csv": "1219447396932f19bcf9097782d32e2388c3f5111a2b52a23419744e86b3132e",
    "trace-v1.csv": "649e1e07182313d10b09c9cc50dfe9f9119b3b97f477179ac77f9c66dc1aefb5",
    "scan.jsonl": "55093e9d85a032e25a95d7f9d42d338a2d15df22eda705d533c56d9413992da8",
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


def test_seeded_pipeline_outputs_unchanged(tmp_path):
    assert run_pipeline(tmp_path) == GOLDEN
