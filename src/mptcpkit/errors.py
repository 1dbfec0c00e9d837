"""Exception types shared across the toolkit."""


class OptionError(ValueError):
    """Base class for TCP option codec failures."""


class TruncatedOption(OptionError):
    """A declared option length exceeds the remaining bytes."""


class IllegalLength(OptionError):
    """A multi-byte option declares a length below 2, or above the 40 a TCP header holds."""


class BadSubtype(OptionError):
    """A kind-30 option whose subtype nibble is not MP_CAPABLE."""


class UnknownVersion(OptionError):
    """MP_CAPABLE version nibble outside {0, 1}."""


class BadLength(OptionError):
    """MP_CAPABLE length inconsistent with its version and handshake phase."""


class IllegalCombination(OptionError):
    """Key presence illegal for the requested (version, phase) form."""


class EmptyInput(ValueError):
    """An operation that needs at least one element got none."""


class GuardViolation(RuntimeError):
    """Campaign guard configuration refused (rate/blocklist rules)."""


class TransportUnavailable(RuntimeError):
    """No usable packet transport (e.g. raw sockets denied, no MPTCP stack)."""


class MalformedCapture(ValueError):
    """Capture file header is unreadable, or a record claims an impossible length."""


class InsufficientHistory(ValueError):
    """Not enough snapshot months to evaluate the requested window."""


class PairingMismatch(ValueError):
    """Timing sample lists cannot be paired run-by-run."""
