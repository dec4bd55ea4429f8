"""In-process span tracing around the soilfuzz module attributes callers use.

Each wrapper replaces one module attribute for the length of a traced run
and records a span (name, start, end, parent) per call, in memory.  A span's
self time is its duration minus the part of it that child spans cover.
Wrapped names that a later version of the package no longer has are
reported as absent layers rather than as zero.
"""

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class Target:
    """One wrapped attribute and the layer name its spans are recorded as."""

    module: str
    attr: str
    layer: str


# Each name is wrapped where its callers look it up: ``cli`` calls
# ``hrb.classify_hrb`` through the module, ``classify_hrb`` finds
# ``fuzzify_sample``, ``fuzzify`` and ``classify`` among hrb's globals, and
# ``score_rulebase`` finds ``classify`` among the rules module's globals.
TARGETS = (
    Target("soilfuzz.cli", "read_samples", "cli.read_samples"),
    Target("soilfuzz.cli", "_csv_text", "cli.write"),
    Target("soilfuzz.cli", "_json_text", "cli.write"),
    Target("soilfuzz.cli", "round4", "render"),
    Target("soilfuzz.cli", "fmt_score", "render"),
    Target("soilfuzz.cli", "fmt_degree", "render"),
    Target("soilfuzz.cli", "search_rules", "rules.search_rules"),
    Target("soilfuzz.hrb", "load_variables", "hrb.load_variables"),
    Target("soilfuzz.hrb", "load_preset", "hrb.load_preset"),
    Target("soilfuzz.hrb", "classify_hrb", "hrb.classify_hrb"),
    Target("soilfuzz.hrb", "fuzzify_sample", "hrb.fuzzify_sample"),
    Target("soilfuzz.hrb", "fuzzify", "fuzzy.fuzzify"),
    Target("soilfuzz.hrb", "classify", "rules.classify"),
    Target("soilfuzz.rules", "classify", "rules.classify"),
    Target("soilfuzz.rules", "rule_dof", "rules.rule_dof"),
    Target("soilfuzz.rules", "score_rulebase", "rules.score_rulebase"),
    Target("soilfuzz.dsl", "parse_rules", "dsl.parse_rules"),
    Target("soilfuzz.dsl", "serialize", "dsl.serialize"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


@dataclass
class Tracer:
    """Collects spans and the per-layer observations taken from results."""

    spans: list = field(default_factory=list)
    rows_read: int = 0
    bytes_written: int = 0
    first_score: float | None = None
    best_scores: tuple = ()
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if observe is not None:
                observe(result)
            return result

        return traced

    def observe(self, layer: str) -> Callable | None:
        if layer == "cli.read_samples":
            return self._count_rows
        if layer == "cli.write":
            return self._count_bytes
        if layer == "rules.score_rulebase":
            return self._keep_first_score
        if layer == "rules.search_rules":
            return self._keep_best_scores
        return None

    def _count_rows(self, result) -> None:
        self.rows_read += len(result[0])

    def _count_bytes(self, text: str) -> None:
        self.bytes_written += len(text.encode("utf-8"))

    def _keep_first_score(self, score: float) -> None:
        if self.first_score is None:
            self.first_score = score

    def _keep_best_scores(self, result) -> None:
        self.best_scores = tuple(result.best_scores)


class Installed:
    """Context manager that installs a tracer's wrappers and restores them.

    ``absent`` lists the layers none of whose targets exist in the package.
    """

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.saved: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def __enter__(self):
        present = set()
        try:
            for t in self.targets:
                module = importlib.import_module(t.module)
                if not hasattr(module, t.attr):
                    continue
                original = getattr(module, t.attr)
                wrapper = self.tracer.wrap(t.layer, original, self.tracer.observe(t.layer))
                self.saved.append((module, t.attr, original))
                setattr(module, t.attr, wrapper)
                present.add(t.layer)
        except BaseException:
            self._restore()
            raise
        self.absent = {t.layer for t in self.targets} - present
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Sum of self time and count of spans per layer name."""
    totals: dict[str, tuple[float, int]] = {}
    for s, own in zip(spans, self_times(spans)):
        seconds, calls = totals.get(s.name, (0.0, 0))
        totals[s.name] = (seconds + own, calls + 1)
    return totals


def write_spans(spans: list[Span], path) -> None:
    """Write spans as tab-separated ``index name start end parent`` lines."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("index\tname\tstart\tend\tparent\n")
        for i, s in enumerate(spans):
            out.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\n")
