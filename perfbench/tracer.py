"""Outside-in tracing: spans recorded by wrapping weakfuse functions at their
call sites (the module attribute the caller looks up), so nothing in the
package changes.

The wrap table is explicit. A site whose module or attribute no longer exists
is reported as "not traced" instead of failing the run, so a refactor that
deletes or renames a helper leaves the benchmark working.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Site:
    """One call site: `module.attr` is replaced by a wrapper recording `span`.

    `before(args)` runs ahead of the call and `count(args, result, before)`
    after it; `count` returns counter increments to attach to the span.
    `opens_op` starts a new op id for the span and everything under it.
    """

    module: str
    attr: str
    span: str
    before: Callable[[tuple], Any] | None = None
    count: Callable[[tuple, Any, Any], dict] | None = None
    opens_op: bool = False


def _pass_cache_size(args):
    return len(args[0].pass_cache)


def _count_pass(args, result, size_before):
    return {"compute_pass_calls": 1,
            "compute_pass_misses": len(args[0].pass_cache) - size_before}


def _count_panels(args, result, _):
    return {"panel_bytes": sum(p.W.nbytes for p in result.panels.values())}


def _count_mm(args, result, _):
    return {"mm_iterations": sum(result.iterations.values())}


def _count_rows(args, result, _):
    return {"rows": result[0].n}


WRAP_TABLE = (
    Site("weakfuse.cli", "parse_config", "cli.parse_config"),
    Site("weakfuse.cli", "ingest_csv", "cli.ingest_csv", count=_count_rows),
    Site("weakfuse.cli", "validate_design", "model.validate_design"),
    Site("weakfuse.cli", "one_step_estimate", "estimator.one_step_estimate"),
    Site("weakfuse.estimator", "validate_design", "model.validate_design"),
    Site("weakfuse.estimator", "fit_nuisance_bundle", "nuisance.fit", count=_count_panels),
    Site("weakfuse.estimator", "seed_gradient", "gradients.seed"),
    Site("weakfuse.estimator", "gradient_aligned_only", "gradients.aligned_only"),
    Site("weakfuse.estimator", "moment_match_beta", "betafit.moment_match", count=_count_mm),
    Site("weakfuse.estimator", "one_step_beta", "betafit.one_step_beta"),
    Site("weakfuse.estimator", "efficient_gradient", "gradients.efficient_gradient"),
    Site("weakfuse.betafit", "compute_pass", "gradients.compute_pass",
         before=_pass_cache_size, count=_count_pass),
    Site("weakfuse.betafit", "information_matrix", "betafit.information_matrix"),
    Site("weakfuse.gradients", "compute_pass", "gradients.compute_pass",
         before=_pass_cache_size, count=_count_pass),
    Site("weakfuse.gradients", "gradient_aligned_only", "gradients.aligned_only"),
    Site("weakfuse.simulation", "generate_dataset", "simulation.generate_dataset"),
    Site("weakfuse.simulation", "one_step_estimate", "simulation.replicate", opens_op=True),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory. Parent stacks and the current op id are kept
    per thread; finished spans are appended under a lock."""

    def __init__(self):
        self.spans: list[Span] = []
        self.not_traced: list[str] = []
        self.count_errors: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._sites: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.op = None
        return self._local.stack

    def call(self, name: str, fn, args=(), kwargs=None, site: Site | None = None,
             opens_op: bool = False):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        outer_op = self._local.op
        with self._lock:
            sid = next(self._ids)
            if opens_op:
                self._local.op = next(self._ops)
        parent = stack[-1] if stack else None
        before = None
        if site is not None and site.before is not None:
            try:
                before = site.before(args)
            except (AttributeError, TypeError, IndexError, KeyError):
                self.count_errors.add(site.span)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, self._local.op,
                        threading.get_ident())
            self._local.op = outer_op
            with self._lock:
                self.spans.append(span)
        if site is not None and site.count is not None:
            try:
                span.counts = site.count(args, result, before)
            except (AttributeError, TypeError, IndexError, KeyError):
                self.count_errors.add(site.span)
        return result

    def resolve(self, table=WRAP_TABLE):
        """Find every site of the table; list the ones that do not exist."""
        for site in table:
            try:
                module = importlib.import_module(site.module)
                original = getattr(module, site.attr)
            except (ImportError, AttributeError):
                self.not_traced.append(f"{site.module}.{site.attr}")
                continue
            self._sites.append((module, site.attr, original, self._wrapper(site, original)))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the resolved sites for the duration of the block."""
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)

    def _wrapper(self, site: Site, original):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(site.span, original, args, kwargs, site=site,
                               opens_op=site.opens_op)

        traced.__wrapped__ = original
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out
