"""Machine-speed adjustment for timings taken on a shared machine.

On a VM that shares its cores, co-tenant load changes how fast the same
interpreter work runs, by up to a factor of 1.7 within seconds and by about
30% from one quarter of an hour to the next. Two references absorb that:

- Stages: every timed step is bracketed by a probe (the fastest of a few
  fixed slices of interpreter work: struct unpacking, integer arithmetic
  and dict lookups, the kind of work mptcpkit does), and its seconds are
  scaled by PROBE_REFERENCE_S over the mean of the two probes.
- Imports: start-up is mostly reading, unmarshalling and linking modules,
  which that probe does not track, so it is scaled instead by how long a
  fresh interpreter takes to import a fixed set of standard-library
  modules (IMPORT_REFERENCE_S over the measured time).

Adjusted figures are seconds at the reference speed; callers keep the raw
seconds beside them.

    PYTHONPATH=src python perfbench/speed.py            # import mptcpkit.cli
    python perfbench/speed.py reference                 # the reference set

Each prints the raw seconds its imports took in this fresh interpreter.
"""

from __future__ import annotations

import importlib
import struct
import sys
from time import perf_counter

# About what the two references read on the reference VM (2 vCPU Intel Xeon,
# Python 3.11.7); only their staying fixed across commits matters.
PROBE_REFERENCE_S = 0.003
IMPORT_REFERENCE_S = 0.085
REFERENCE_MODULES = (
    "argparse", "ast", "asyncio", "bz2", "calendar", "concurrent.futures", "configparser",
    "cProfile", "csv", "dataclasses", "decimal", "difflib", "dis", "doctest",
    "email.mime.multipart", "fractions", "ftplib", "gzip", "http.server", "imaplib",
    "inspect", "ipaddress", "json", "logging.handlers", "lzma", "multiprocessing",
    "optparse", "pickle", "pstats", "pydoc", "random", "smtplib", "sqlite3", "ssl",
    "statistics", "subprocess", "tarfile", "unittest", "urllib.request", "uuid",
    "xml.dom.minidom", "xml.etree.ElementTree", "xmlrpc.client", "zipfile",
)
SLICE_ITERATIONS = 9000
SLICES_PER_PROBE = 5

_HEADER = struct.Struct("!HHIIBBHHH")
_BYTES = bytes(range(64))
_TABLE = {i: i * 2654435761 & 0xFFFF for i in range(64)}


def _slice() -> int:
    acc = 0
    for i in range(SLICE_ITERATIONS):
        a, b, c, d, _, _, _, _, _ = _HEADER.unpack_from(_BYTES, i & 31)
        acc = (acc + a * b + c - d) & 0xFFFF
        acc ^= _TABLE.get(i & 63, 0)
    return acc


def probe_s() -> float:
    """Fastest of a few fixed slices of interpreter work, in seconds.

    The slices allocate nothing that outlives them, so the reading follows
    the machine rather than the state of the process; the minimum drops
    slices that a momentary stall hit.
    """
    best = float("inf")
    for _ in range(SLICES_PER_PROBE):
        start = perf_counter()
        _slice()
        best = min(best, perf_counter() - start)
    return best


def timed(fn, *args):
    """Call fn(*args); return (result, raw seconds, adjusted seconds)."""
    before = probe_s()
    start = perf_counter()
    result = fn(*args)
    raw = perf_counter() - start
    after = probe_s()
    return result, raw, raw * PROBE_REFERENCE_S * 2 / (before + after)


def import_s(names) -> float:
    """Seconds to import `names` in this interpreter."""
    start = perf_counter()
    for name in names:
        importlib.import_module(name)
    return perf_counter() - start


if __name__ == "__main__":
    print(import_s(REFERENCE_MODULES if sys.argv[1:] == ["reference"] else ["mptcpkit.cli"]))
