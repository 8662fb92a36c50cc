"""Spans around calls into vcaug's public functions, for the traced run.

`Tracer.installed()` replaces each target function (or method) with a
wrapper that records a span: name, start, end and parent.  Every module of
the package that bound the same function object by name is patched too, so
`from .signal import read_melf` call sites are traced as well.  Everything is
restored on exit; nothing under `src/` changes.  Spans stay in memory and are
summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (span name, module, attribute); "Class.method" patches a method.
TARGETS = (
    ("signal.read_wav", "signal", "read_wav"),
    ("signal.compute_log_mel", "signal", "compute_log_mel"),
    ("signal.read_melf", "signal", "read_melf"),
    ("signal.write_melf", "signal", "write_melf"),
    ("signal.spec_augment", "signal", "spec_augment"),
    ("data.synthetic_corpus", "data", "synthetic_corpus"),
    ("data.synth_utterance", "data", "synth_utterance"),
    ("model.encode", "model", "VcModel.encode"),
    ("bottleneck.quantize", "bottleneck", "quantize"),
    ("adversary.logits", "adversary", "AdversaryHead.logits"),
    ("model.embed_and_concat", "model", "VcModel.embed_and_concat"),
    ("model.decode", "model", "VcModel.decode"),
    ("autodiff.backward", "autodiff", "Tape.backward"),
    ("training.loss", "training", "huber"),
    ("training.loss", "autodiff", "cross_entropy"),
    ("training.loss", "training", "total_loss"),
    ("training.adam_step", "training", "Adam.step"),
    ("training.train", "training", "train"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("model.load_checkpoint", "model", "load_checkpoint"),
    ("augment.convert", "augment", "convert"),
    ("augment.emit_dataset", "augment", "emit_dataset"),
)

# Spans that only group other spans; their self time is not layer work.
STRUCTURAL = frozenset({
    "training.train", "training.step", "augment.convert", "augment.emit_dataset",
})

# Roots the benchmark opens itself: set-up, and each timed call of a round.
SETUP_ROOT = "bench.setup"
TIMED_ROOT = "bench.timed"
PROBE_ROOT = "bench.probe"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans; -1 for a root


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        """End span `index` and any child still open above it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                return

    def is_open(self, index: int) -> bool:
        return index in self._stack

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    @contextmanager
    def recording(self, root: str):
        """Patch every target and record under a root span for the block."""
        with self.installed(), self.span(root):
            yield

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for name, module, attr in TARGETS:
                undo.extend(_patch(self, name, module, attr))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _patch(tracer: Tracer, name: str, module: str, attr: str):
    mod = importlib.import_module(f"vcaug.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(original, name))
        return [(cls, meth, original)]
    original = getattr(mod, attr)
    wrapper = tracer.wrap(original, name)
    undo = []
    for mod_name, other in list(sys.modules.items()):
        if mod_name != "vcaug" and not mod_name.startswith("vcaug."):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapper)
                undo.append((other, key, original))
    return undo


# ---------------------------------------------------------------------------
# summaries


@dataclass
class SpanStats:
    durations_ms: list[float]
    self_ms: list[float]

    @property
    def calls(self) -> int:
        return len(self.durations_ms)


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's root."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def self_times_ms(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [1000.0 * (s.end - s.start - c) for s, c in zip(spans, child)]


def stats_by_name(spans: list[Span], root: str) -> dict[str, SpanStats]:
    """Durations and self times per span name, over the spans under roots named `root`."""
    selfs = self_times_ms(spans)
    root_of = roots(spans)
    out: dict[str, SpanStats] = {}
    for s, self_ms, r in zip(spans, selfs, root_of):
        if spans[r].name != root:
            continue
        st = out.setdefault(s.name, SpanStats([], []))
        st.durations_ms.append(1000.0 * (s.end - s.start))
        st.self_ms.append(self_ms)
    return out


def coverage(spans: list[Span]) -> float:
    """Share of timed wall time spent inside layer spans (not structural ones)."""
    selfs = self_times_ms(spans)
    root_of = roots(spans)
    wall = uncovered = 0.0
    for i, s in enumerate(spans):
        if spans[root_of[i]].name != TIMED_ROOT:
            continue
        if s.parent < 0:
            wall += 1000.0 * (s.end - s.start)
        if s.parent < 0 or s.name in STRUCTURAL:
            uncovered += selfs[i]
    return 1.0 - uncovered / wall if wall > 0 else 0.0


def discarded_share(spans: list[Span]) -> float:
    """Share of `augment.convert` time spent in `adversary.logits`."""
    convert = sum(s.end - s.start for s in spans if s.name == "augment.convert")
    adv = sum(
        s.end - s.start for i, s in enumerate(spans)
        if s.name == "adversary.logits" and has_ancestor(spans, i, "augment.convert")
    )
    return adv / convert if convert > 0 else 0.0


def layer_metrics(spans: list[Span], names, root: str) -> dict[str, float]:
    """`<span>.calls`, `<span>.self_ms` (total) and `<span>.ms_p50` per name."""
    by_name = stats_by_name(spans, root)
    out: dict[str, float] = {}
    for name in names:
        st = by_name.get(name, SpanStats([], []))
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_ms"] = sum(st.self_ms)
        out[f"{name}.ms_p50"] = statistics.median(st.durations_ms) if st.calls else 0.0
    return out
