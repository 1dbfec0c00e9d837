"""Seeded pipeline outputs pinned byte for byte.

A small campaign runs through `cli.main` and every output file is compared
by sha256 with the digests the pipeline wrote before the campaign's hot
paths were optimised. A change that only makes the toolkit faster must
leave every digest as it is.
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
    "bench-out/connect.cdf.txt": "3e676664ce1b58d0aa54c45dad3ca0aa6e73c226df73cfd71bac341e5a3e938a",
    "bench-out/tls.cdf.txt": "1dc50c30f3845d6169ec13db2d92f64c5715b97ebe8ec00f0a0f083e2dd8b36f",
    "bench-out/ttfb.cdf.txt": "665c1ef8387be045fffcff4d644b267d1210bb19b56bc07af114db4ae943c8e2",
    "bench-out/total.cdf.txt": "5434df4386c57fdd7c5c39be2d167c093675461540804d7bc8b515b6957db2b1",
    "bench-out/summary.txt": "a6048f2beebb74440be915d0564494be07eb4672713ac90d1d80d8ac5fbf157e",
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
