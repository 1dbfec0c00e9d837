"""Multipath TCP measurement toolkit.

Active MP_CAPABLE scanning, middlebox path inspection, key randomness
analysis, passive capture statistics, longitudinal reporting, and paired
transfer timing, all runnable against a deterministic in-process network
simulator.
"""

from .options import HandshakePhase, Key, MpCapable, TcpOption
from .probe import Classification, ClassificationKind, ProbeContext, ProbeResponse
from .tracer import PathVerdict, PathVerdictKind

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ClassificationKind",
    "HandshakePhase",
    "Key",
    "MpCapable",
    "PathVerdict",
    "PathVerdictKind",
    "ProbeContext",
    "ProbeResponse",
    "TcpOption",
    "__version__",
]
