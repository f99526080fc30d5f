"""Spans and counts around the public functions of nudgesim's layers.

:meth:`Tracer.install` replaces module attributes such as
``nudgesim.corpus.similar_pairs`` with wrappers that record a span (name,
start, end, parent) per call and read counts off the result. Callers inside
nudgesim look these functions up on their module, so the wrappers see every
call. A function a later change removes, renames or merges simply gets no
span, and a result whose shape changed simply adds no count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# module -> public functions whose calls become spans
SPANNED = {
    "corpus": ("load_articles", "tfidf_vectors", "similar_pairs"),
    "graph": ("build_csn", "save_graph", "load_graph", "detect_communities"),
    "groundtruth": ("read_labels_csv", "score_sources"),
    "embedding": ("generate_walks", "train_embeddings", "save_vectors", "load_vectors"),
    "nudge": ("simulate", "simulate_unconstrained", "write_trajectory_csv"),
    "svgplot": ("line_chart",),
}
# functions only counted: they run once per simulation step
COUNTED = {"nudge": ("select_recommendation",)}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")


def _trajectory_counts(traj, counts: Counter) -> None:
    steps = traj.steps
    counts["nudge.user_steps"] += len(steps)
    counts["nudge.offers"] += sum(1 for r in steps if r.recommended is not None)
    counts["nudge.noop_steps"] += sum(1 for r in steps if r.recommended is None)
    counts["nudge.accepts"] += sum(1 for r in steps if r.accepted)
    counts["nudge.drops"] += sum(1 for r in steps if r.dropped is not None)
    counts["nudge.converged_users"] += traj.convergence_point is not None


def _count(name: str, bound: inspect.BoundArguments | None, result, counts: Counter) -> None:
    if name == "corpus.load_articles":
        counts["corpus.articles"] += len(result)
    elif name == "corpus.similar_pairs":
        counts["corpus.pairs"] += len(result)
    elif name == "graph.build_csn":
        counts["graph.nodes"] += len(result.nodes)
        counts["graph.edges"] += len(result.edges)
    elif name == "groundtruth.score_sources":
        counts["groundtruth.imputed"] += sum(1 for s in result.values() if s.provenance == "imputed")
    elif name == "embedding.generate_walks":
        counts["embedding.walk_tokens"] += sum(len(w) for w in result)
    elif name == "embedding.train_embeddings" and bound is not None:
        tokens = sum(len(w) for w in bound.arguments["walks"])
        counts["embedding.train_positions"] += bound.arguments["epochs"] * tokens
    elif name in ("nudge.simulate", "nudge.simulate_unconstrained"):
        _trajectory_counts(result, counts)
    elif name == "svgplot.line_chart":
        counts["svgplot.charts"] += 1


class Tracer:
    """Collects spans and counts; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()
        self._last_similar_pairs = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, time.perf_counter() - self._origin)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrap(self, name: str, original, record_span: bool):
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not record_span:
                self.counts[name + "_calls"] += 1
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if name == "corpus.similar_pairs":
                self._last_similar_pairs = (original, args, kwargs)
            try:
                bound = None
                if signature is not None and name == "embedding.train_embeddings":
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                _count(name, bound, result, self.counts)
            except (AttributeError, KeyError, TypeError):
                pass
            return result

        return wrapper

    def install(self) -> None:
        for table, record_span in ((SPANNED, True), (COUNTED, False)):
            for module_name, functions in table.items():
                try:
                    module = importlib.import_module(f"nudgesim.{module_name}")
                except ImportError:
                    continue
                for fn_name in functions:
                    original = getattr(module, fn_name, None)
                    if not callable(original):
                        continue
                    wrapped = self._wrap(f"{module_name}.{fn_name}", original, record_span)
                    setattr(module, fn_name, wrapped)
                    self._installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def similar_pairs_peak_mb(self) -> float:
        """Re-run the last traced ``similar_pairs`` call under tracemalloc and
        return the peak of memory allocated inside it, in MB (0 if none)."""
        if self._last_similar_pairs is None:
            return 0.0
        original, args, kwargs = self._last_similar_pairs
        tracemalloc.start()
        try:
            original(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def self_times(self, root: int) -> dict[int, float]:
        """Self time of every span under ``root``: its duration minus the
        part covered by its children (children never overlap here, since
        the process runs one thread)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[int, float] = {}
        pending = [root]
        while pending:
            sid = pending.pop()
            span = self.spans[sid]
            kids = children.get(sid, [])
            out[sid] = (span.end - span.start) - sum(k.end - k.start for k in kids)
            pending.extend(k.id for k in kids)
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
