"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions in the module namespaces that call them
(``pipeline``, ``serialization``, ``invariants``) and counts calls of
``BilliardTable.contains_xy``, so no program file changes.  Each span
records its name, start, end, parent and input id; a layer's self time is
its span minus its child spans.  ``uninstall`` restores every original, so
an untraced pass runs the unwrapped program.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from billiardknots import billiards, invariants, pipeline, serialization
from billiardknots.errors import SearchExhaustedError

ROOTS = ("realize", "verify")

# spans whose seconds are reported per root: metric "<span>.<root>_s"
PHASED = (
    "stars.build",
    "billiards.mirror_room",
    "billiards.table",
    "billiards.reflection",
    "invariants.certify",
)
# spans reported summed over both roots: metric "<span>_s"
UNPHASED = (
    "braids.pad",
    "perturbation.perturb",
    "perturbation.arc_table",
    "perturbation.independence",
    "heights.constraints",
    "heights.search",
    "heights.emit",
    "pdcodes.traversal_pd",
    "pdcodes.braid_closure_pd",
    "invariants.bracket",
    "serialization.write",
    "serialization.verify_self",
    "pipeline.realize_self",
)
COUNTS = (
    "perturbation.perturb_calls",
    "billiards.contains_xy_calls",
    "heights.f_scanned",
    "heights.trajectory_points",
    "invariants.bracket_calls",
    "serialization.artifact_bytes",
)
MAXIMA = ("invariants.bracket_crossings_max",)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.{root}_s": "s" for name in PHASED for root in ROOTS}
    units.update({f"{name}_s": "s" for name in UNPHASED})
    units.update({name: "count" for name in COUNTS + MAXIMA})
    units["serialization.artifact_bytes"] = "bytes"
    units["heights.search_ms_per_f"] = "ms/f"
    units["trace.overhead_s"] = "s"
    return units


def component_groups(n_components: int, constraints) -> list[list[int]]:
    """Components coupled by crossings, each group sorted, groups by first member."""
    parent = list(range(n_components))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in constraints:
        ra, rb = find(c.first_component), find(c.second_component)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(n_components):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def shell_position(f_tuple) -> int:
    """1-based position of ``f_tuple`` in the height search's shell order:
    f-tuples by ascending maximum, lexicographic within each shell."""
    top, d = max(f_tuple), len(f_tuple)
    position = (top - 1) ** d + 1
    top_seen = False
    for i, f in enumerate(f_tuple):
        rest = d - i - 1
        if top_seen:
            position += (f - 1) * top**rest
        else:
            position += (f - 1) * (top**rest - (top - 1) ** rest)
        top_seen = top_seen or f == top
    return position


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    input_id: int


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()   # keyed by (metric, input id)
        self.maxima: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._input_id = -1
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, input_id: int | None = None):
        if input_id is not None:
            self._input_id = input_id
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._input_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(name, self._input_id)] += amount

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; note it if absent."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span ``name`` around every call; ``observe`` sees the
        arguments and the result or exception."""

        def make(original):
            def traced(*args, **kwargs):
                result = exc = None
                try:
                    with self.span(name):
                        result = original(*args, **kwargs)
                    return result
                except Exception as err:
                    exc = err
                    raise
                finally:
                    if observe is not None:
                        observe(original, args, kwargs, result, exc)

            return traced

        self._patch(owner, attr, make)

    def _count_calls(self, owner, attr: str, name: str) -> None:
        def make(original):
            def counted(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)

            return counted

        self._patch(owner, attr, make)

    # observers: counts taken from a wrapped call's arguments and result

    def _on_perturb(self, original, args, kwargs, result, exc):
        self.count("perturbation.perturb_calls")

    def _on_search(self, original, args, kwargs, result, exc):
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        table = bound.arguments["table"]
        groups = component_groups(table.component_count(), bound.arguments["constraints"])
        if result is not None:
            scanned = sum(shell_position([result[c].frequency for c in g]) for g in groups)
        elif isinstance(exc, SearchExhaustedError):
            scanned = sum(bound.arguments["f_max"] ** len(g) for g in groups)
        else:
            return
        self.count("heights.f_scanned", scanned)

    def _on_emit(self, original, args, kwargs, result, exc):
        if result is not None:
            self.count("heights.trajectory_points", sum(len(c.points) for c in result.components))

    def _on_bracket(self, original, args, kwargs, result, exc):
        self.count("invariants.bracket_calls")
        pd = args[0] if args else kwargs["pd"]
        name = "invariants.bracket_crossings_max"
        self.maxima[name] = max(self.maxima.get(name, 0), pd.crossing_count)

    def _on_write(self, original, args, kwargs, result, exc):
        if result is not None:
            self.count(
                "serialization.artifact_bytes",
                sum(Path(p).stat().st_size for p in result.values()),
            )

    def install(self) -> None:
        shared = (
            ("build_star", "stars.build", None),
            ("assign_braid_letters", "stars.build", None),
            ("mirror_room_check", "billiards.mirror_room", None),
            ("build_table", "billiards.table", None),
            ("verify_reflection", "billiards.reflection", None),
            ("certify", "invariants.certify", None),
        )
        for attr, name, observe in shared + (
            ("realize", "pipeline.realize_self", None),
            ("pad_to_min_repetitions", "braids.pad", None),
            ("perturb", "perturbation.perturb", self._on_perturb),
            ("arc_length_table", "perturbation.arc_table", None),
            ("independence_check", "perturbation.independence", None),
            ("build_height_constraints", "heights.constraints", None),
            ("search_heights", "heights.search", self._on_search),
            ("emit_trajectory", "heights.emit", self._on_emit),
        ):
            self._wrap(pipeline, attr, name, observe)
        for attr, name, observe in shared + (
            ("write_artifacts", "serialization.write", self._on_write),
            ("verify_artifacts", "serialization.verify_self", None),
        ):
            self._wrap(serialization, attr, name, observe)
        for attr, name, observe in (
            ("kauffman_bracket", "invariants.bracket", self._on_bracket),
            ("traversal_pd", "pdcodes.traversal_pd", None),
            ("braid_closure_pd", "pdcodes.braid_closure_pd", None),
        ):
            self._wrap(invariants, attr, name, observe)
        self._count_calls(billiards.BilliardTable, "contains_xy", "billiards.contains_xy_calls")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # analysis

    def sanity_errors(self) -> list[str]:
        """Spans that escape their parent, cross inputs, or lack a root."""
        errors = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                errors.append(f"span {i} {s.name}: ends before it starts")
            if s.parent is None:
                if s.name not in ROOTS:
                    errors.append(f"span {i} {s.name}: outside any realize/verify root")
                continue
            p = self.spans[s.parent]
            if not (p.start <= s.start and s.end <= p.end):
                errors.append(f"span {i} {s.name}: not inside parent {p.name}")
            if p.input_id != s.input_id:
                errors.append(f"span {i} {s.name}: input {s.input_id} under input {p.input_id}")
        return errors

    def _root_of(self, index: int) -> str:
        span = self.spans[index]
        while span.parent is not None:
            span = self.spans[span.parent]
        return span.name

    def self_seconds(self) -> Counter:
        """Self time summed per metric name (phased spans split by root)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Counter = Counter()
        for i, s in enumerate(self.spans):
            if s.name in ROOTS:
                continue
            metric = f"{s.name}.{self._root_of(i)}_s" if s.name in PHASED else f"{s.name}_s"
            out[metric] += (s.end - s.start) - child_time[i]
        return out

    def input_counts(self, input_id: int) -> dict[str, int]:
        return {name: n for (name, iid), n in sorted(self.counts.items()) if iid == input_id}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values for the pass, every metric present (0 if unseen)."""
        values = {
            name: 0 if unit in ("count", "bytes") else 0.0
            for name, unit in layer_metric_units().items()
            if name != "trace.overhead_s"  # measured from the untraced passes
        }
        values.update(self.self_seconds())
        for (name, _), n in self.counts.items():
            values[name] += n
        values.update(self.maxima)
        scanned = values["heights.f_scanned"]
        values["heights.search_ms_per_f"] = (
            1000.0 * values["heights.search_s"] / scanned if scanned else 0.0
        )
        return values
