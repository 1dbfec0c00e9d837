"""Spans around the calls into each mptcpkit layer, recorded from outside.

`Recorder.install` wraps the public functions listed in `LAYERS`. A module
function is imported by name into other modules (`decode_packet` lives in
`flows`, `probe` and `live` as well as `packet`), so every module-level
binding of it is replaced; methods are replaced on their class. Each call
becomes a span with its name, start, end, parent span and stage (one CLI
invocation). Spans stay in memory until `write_spans`; per-function call
counts and self time (duration minus the time covered by child spans) are
kept as the spans close.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

# (metric name, module, attribute) for every wrapped function.
LAYERS = [
    ("cli.simulate", "mptcpkit.cli", "cmd_simulate"),
    ("cli.scan", "mptcpkit.cli", "cmd_scan"),
    ("cli.keys", "mptcpkit.cli", "cmd_keys"),
    ("cli.trace", "mptcpkit.cli", "cmd_trace"),
    ("cli.report", "mptcpkit.cli", "cmd_report"),
    ("cli.bench", "mptcpkit.cli", "cmd_bench"),
    ("cli.analyze_pcap", "mptcpkit.cli", "cmd_analyze_pcap"),
    ("netsim.parse_topology", "mptcpkit.netsim", "parse_topology"),
    ("netsim.generate_population", "mptcpkit.netsim", "generate_population"),
    ("netsim.format_topology", "mptcpkit.netsim", "format_topology"),
    ("netsim.ground_truth", "mptcpkit.netsim", "ground_truth"),
    ("netsim.SimNetwork.handshake", "mptcpkit.netsim", "SimNetwork.handshake"),
    ("netsim.SimNetwork.ttl_probe", "mptcpkit.netsim", "SimNetwork.ttl_probe"),
    ("probe.build_syn_probe", "mptcpkit.probe", "build_syn_probe"),
    ("probe.classify_response", "mptcpkit.probe", "classify_response"),
    ("probe.Blocklist.matches", "mptcpkit.probe", "Blocklist.matches"),
    ("probe.RatePacer.acquire", "mptcpkit.probe", "RatePacer.acquire"),
    ("tracer.inspect_target", "mptcpkit.tracer", "inspect_target"),
    ("tracer.diff_options", "mptcpkit.tracer", "diff_options"),
    ("options.parse_options_prefix", "mptcpkit.options", "parse_options_prefix"),
    ("options.parse_options", "mptcpkit.options", "parse_options"),
    ("options.encode_mp_capable", "mptcpkit.options", "encode_mp_capable"),
    ("options.decode_mp_capable", "mptcpkit.options", "decode_mp_capable"),
    ("options.decode_mp_capable_any", "mptcpkit.options", "decode_mp_capable_any"),
    ("packet.encode_packet", "mptcpkit.packet", "encode_packet"),
    ("packet.decode_packet", "mptcpkit.packet", "decode_packet"),
    ("packet.extract_quoted_options", "mptcpkit.packet", "extract_quoted_options"),
    ("pcapio.read_pcap", "mptcpkit.pcapio", "read_pcap"),
    ("flows.ingest_capture", "mptcpkit.flows", "ingest_capture"),
    ("flows.FlowKey.canonical", "mptcpkit.flows", "FlowKey.canonical"),
    ("flows.FlowStats.update", "mptcpkit.flows", "FlowStats.update"),
    ("flows.map_service", "mptcpkit.flows", "map_service"),
    ("flows.mptcp_share", "mptcpkit.flows", "mptcp_share"),
    ("flows.concentration", "mptcpkit.flows", "concentration"),
    ("keystats.analyze_keys", "mptcpkit.keystats", "analyze_keys"),
    ("keystats.pooled_chi_square", "mptcpkit.keystats", "pooled_chi_square"),
    ("store.EnrichmentTable.load", "mptcpkit.store", "EnrichmentTable.load"),
    ("store.EnrichmentTable.lookup_asn", "mptcpkit.store", "EnrichmentTable.lookup_asn"),
    ("store.SnapshotStore.save", "mptcpkit.store", "SnapshotStore.save"),
    ("store.top_report", "mptcpkit.store", "top_report"),
    ("bench.SimTimingTransport.fetch", "mptcpkit.bench", "SimTimingTransport.fetch"),
    ("bench.delta_report", "mptcpkit.bench", "delta_report"),
    ("bench.merge_reports", "mptcpkit.bench", "merge_reports"),
    ("live.LiveTransport.handshake", "mptcpkit.live", "LiveTransport.handshake"),
    ("live.local_source_address", "mptcpkit.live", "local_source_address"),
]

# Each next() on the frame iterator that read_pcap returns.
FRAME_ITER = "pcapio.read_pcap.iter"
# Replies that are not None, counted for the TTL probe.
ANSWERED = "netsim.SimNetwork.ttl_probe"
# Spans kept in memory; calls beyond it still count toward the totals.
SPAN_CAP = 1_000_000


class Recorder:
    """In-memory span store with running per-function totals."""

    def __init__(self):
        self.names = [name for name, _, _ in LAYERS] + [FRAME_ITER]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.answered = 0
        self.frames = 0
        self.stage = 0
        self.dropped = 0
        self._stack: list[list] = []  # [span id or -1, time covered by children]
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_stage = array("i")
        self._span_start = array("d")
        self._span_end = array("d")

    def span(self, i: int, fn, args, kwargs):
        stack = self._stack
        sid = len(self._span_start)
        if sid < SPAN_CAP:
            self._span_name.append(i)
            self._span_parent.append(stack[-1][0] if stack else -1)
            self._span_stage.append(self.stage)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        else:
            sid = -1
            self.dropped += 1
        entry = [sid, 0.0]
        stack.append(entry)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.calls[i] += 1
            self.self_s[i] += duration - entry[1]
            if sid >= 0:
                self._span_start[sid] = start
                self._span_end[sid] = end

    def wrap(self, name: str, fn):
        i = self.names.index(name)
        span = self.span
        if name == ANSWERED:
            def wrapper(*args, **kwargs):
                reply = span(i, fn, args, kwargs)
                if reply is not None:
                    self.answered += 1
                return reply
        elif name == "pcapio.read_pcap":
            def wrapper(*args, **kwargs):
                linktype, frames = span(i, fn, args, kwargs)
                return linktype, _TimedFrames(self, frames)
        else:
            def wrapper(*args, **kwargs):
                return span(i, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every function in LAYERS, in every module that binds it."""
        import mptcpkit.cli  # noqa: F401  (loads every layer but live)
        import mptcpkit.live  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mptcpkit"]
        for name, module_name, attr in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, method)
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self.wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def totals(self) -> dict:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        } | {"answered": self.answered, "frames": self.frames,
             "spans": len(self._span_start), "spans_dropped": self.dropped}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,parent,stage,start,end\n")
            for sid in range(len(self._span_start)):
                f.write(f"{sid},{self.names[self._span_name[sid]]},{self._span_parent[sid]},"
                        f"{self._span_stage[sid]},{self._span_start[sid]:.9f},"
                        f"{self._span_end[sid]:.9f}\n")


class _TimedFrames:
    """Times each next() of read_pcap's frame iterator as a span."""

    def __init__(self, recorder: Recorder, frames):
        self._recorder = recorder
        self._frames = frames
        self._i = recorder.names.index(FRAME_ITER)

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._recorder.span(self._i, next, (self._frames,), {})
        self._recorder.frames += 1
        return frame
