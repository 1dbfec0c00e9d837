"""Multipath TCP measurement toolkit.

Active MP_CAPABLE scanning, middlebox path inspection, key randomness
analysis, passive capture statistics, longitudinal reporting, and paired
transfer timing, all runnable against a deterministic in-process network
simulator.

Loading rule: importing the package registers each module of `_MODULES` in
`sys.modules` and as an attribute of the package, but runs none. A module
runs at the first use of one of its attributes, so `import mptcpkit.cli`
runs only `cli` and `errors`, and each command runs only the modules it
calls. `from . import probe` binds the registered module without running
it; `from .probe import run_campaign` runs it. The public names of
`__all__` are read from their modules at each use, by `__getattr__`, and
listed by `__dir__`.
"""

import importlib.util
import sys
import typing

if typing.TYPE_CHECKING:  # the names `__getattr__` serves, for static analysis
    from .options import HandshakePhase, Key, MpCapable, TcpOption
    from .probe import Classification, ClassificationKind, ProbeContext, ProbeResponse
    from .tracer import PathVerdict, PathVerdictKind

__version__ = "0.1.0"

# Every module but two that the ordinary import runs: `cli`, the entry point,
# which `import mptcpkit.cli` must run (a registered module would come back
# from it unrun, its parent's import having put it in `sys.modules`), and
# `__main__`, which runs only as `python -m mptcpkit`.
_MODULES = ("bench", "errors", "flows", "inputs", "keystats", "live", "netsim", "options",
            "packet", "pcapio", "probe", "record", "store", "tracer")

# The module each public name lives in, read by `__getattr__`.
_PUBLIC = {
    "Classification": "probe",
    "ClassificationKind": "probe",
    "HandshakePhase": "options",
    "Key": "options",
    "MpCapable": "options",
    "PathVerdict": "tracer",
    "PathVerdictKind": "tracer",
    "ProbeContext": "probe",
    "ProbeResponse": "probe",
    "TcpOption": "options",
}

__all__ = [*_PUBLIC, "__version__"]


def _register(name: str):
    """The module `name` of the package, in `sys.modules` and not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    """A public name of `__all__`, read from its module (PEP 562)."""
    module = _PUBLIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    """The package's attributes and its public names (PEP 562)."""
    return sorted({*globals(), *_PUBLIC})
