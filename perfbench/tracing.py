"""Per-layer spans recorded from outside the solver.

The tracer replaces a function in the namespace its caller looks it up
in (``kingspeps.search.conditional_distribution``, for instance) with a
wrapper that records calls, inclusive time, self time (span minus child
spans) and a few counts. Wrappers are removed when the tracer closes.

A function that a later version deletes or renames is skipped, so its
metrics read zero instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    depth: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def lowest(self, key, value):
        self.counts[key] = min(self.counts.get(key, math.inf), value)

    def highest(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)


def _mpo_product(span, before, args, result):
    # The full MPO-MPS product, which apply_mpo materializes before
    # compress truncates it: bytes computed from the result's shapes.
    tensors = result.tensors
    span.highest("peak_bytes", sum(math.prod(t.shape) * t.itemsize
                                   for t in tensors))
    span.highest("max_bond", max(t.shape[2] for t in tensors))


def _fidelity(span, before, args, result):
    if isinstance(result, tuple) and len(result) == 2:
        span.lowest("fidelity_min", float(result[1]))


def _cache_lookup(span, before, args, result):
    # Each lookup either hits or stores exactly one entry, so the growth
    # of len(cache) over an outermost call counts its misses.
    span.add("lookups")
    if span.depth == 0:
        span.add("misses", len(args[0]) - before)


def _children(span, before, args, result):
    span.add("children", len(result))


def _merged(span, before, args, result):
    span.add("in", len(args[0]))
    span.add("out", len(result))


def _pruned(span, before, args, result):
    span.add("in", len(args[0]))
    span.add("out", len(result[0]))


def _solved(span, before, args, result):
    span.add("droplets", sum(len(d) for d in result.droplets))


def _cache_size(args):
    return len(args[0])


# (where the caller looks the function up, attribute, span name, hooks)
LAYERS = (
    ("kingspeps.peps", "apply_mpo", "tensor_core.apply_mpo", None, _mpo_product),
    ("kingspeps.peps", "compress", "tensor_core.compress", None, _fidelity),
    ("kingspeps.tensor_core", "overlap", "tensor_core.overlap", None, None),
    ("kingspeps.peps", "row_transfer_mpo", "peps.row_transfer_mpo", None, None),
    ("kingspeps.peps.EnvironmentCache", "bottom", "peps.env_build", None, None),
    ("kingspeps.peps.EnvironmentCache", "left_part", "peps.left_part",
     _cache_size, _cache_lookup),
    ("kingspeps.peps.EnvironmentCache", "right_part", "peps.right_part",
     _cache_size, _cache_lookup),
    ("kingspeps.search", "build_network", "peps.build_network", None, None),
    ("kingspeps.search", "conditional_distribution",
     "peps.conditional_distribution", None, None),
    ("kingspeps.search", "branch", "search.branch", None, _children),
    ("kingspeps.search", "merge_and_collect", "search.merge_and_collect",
     None, _merged),
    ("kingspeps.search", "prune", "search.prune", None, _pruned),
    ("kingspeps.search", "potts_energy", "potts.potts_energy", None, None),
    ("kingspeps", "low_energy_spectrum", "search.finalize", None, _solved),
    ("kingspeps", "merge_solutions", "search.merge_solutions", None, None),
    ("kingspeps", "unpack_droplets", "search.unpack_droplets", None, None),
    ("kingspeps", "write_solution", "instance_io.write_solution", None, None),
    ("kingspeps", "generate_instance", "cli.generate_instance", None, None),
    ("kingspeps", "parse_ising", "instance_io.parse_ising", None, None),
    ("kingspeps", "cluster", "potts.cluster", None, None),
)


def _resolve(path: str):
    """Module or class at a dotted path, or None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Context manager that installs the span wrappers of ``LAYERS``."""

    def __init__(self, layers=LAYERS):
        self.spans = {name: Span() for _, _, name, _, _ in layers}
        self._layers = layers
        self._children: list[float] = []
        self._undo = []

    def __enter__(self):
        for path, attr, name, before, after in self._layers:
            owner = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if callable(original):
                setattr(owner, attr, self._wrap(original, self.spans[name],
                                                before, after))
                self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _wrap(self, original, span: Span, before, after):
        children = self._children

        def traced(*args, **kwargs):
            token = before(args) if before else None
            children.append(0.0)
            span.depth += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                span.depth -= 1
                span.calls += 1
                span.self_s += elapsed - children.pop()
                if span.depth == 0:
                    span.inclusive_s += elapsed
                if children:
                    children[-1] += elapsed
            if after:
                after(span, token, args, result)
            return result

        return traced


def per_layer(tracer: Tracer, solves: int, instances: int, builds: int,
              json_bytes: float, overhead_ratio: float) -> dict:
    """Per-layer metrics: counts and times per solve, per solved instance
    or, for the set-up layers, per built instance."""
    s = tracer.spans
    per_solve = 1.0 / max(solves, 1)
    per_instance = 1.0 / max(instances, 1)
    per_build = 1.0 / max(builds, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("tensor_core.apply_mpo", "tensor_core.compress",
                 "tensor_core.overlap", "peps.conditional_distribution",
                 "search.branch", "potts.potts_energy"):
        out[f"{name}.calls"] = (s[name].calls * per_solve, "calls/solve")
        out[f"{name}.self_s"] = (s[name].self_s * per_solve, "s/solve")
    for name in ("peps.row_transfer_mpo", "peps.build_network",
                 "search.merge_and_collect", "search.prune", "search.finalize"):
        out[f"{name}.self_s"] = (s[name].self_s * per_solve, "s/solve")
    apply_mpo = s["tensor_core.apply_mpo"].counts
    out["tensor_core.apply_mpo.peak_bytes"] = (apply_mpo.get("peak_bytes", 0),
                                               "B-computed")
    out["tensor_core.apply_mpo.max_bond"] = (apply_mpo.get("max_bond", 0), "count")
    out["tensor_core.compress.fidelity_min"] = (
        s["tensor_core.compress"].counts.get("fidelity_min", 0.0), "ratio")
    out["peps.env_build_s"] = (s["peps.env_build"].inclusive_s * per_solve,
                               "s/solve")

    left, right = s["peps.left_part"], s["peps.right_part"]
    lookups = left.counts.get("lookups", 0) + right.counts.get("lookups", 0)
    misses = left.counts.get("misses", 0) + right.counts.get("misses", 0)
    out["peps.cache.lookups"] = (lookups * per_solve, "lookups/solve")
    out["peps.cache.hit_ratio"] = (ratio(lookups - misses, lookups), "ratio")
    out["peps.cache.self_s"] = ((left.self_s + right.self_s) * per_solve,
                                "s/solve")

    branch = s["search.branch"].counts
    out["search.branch.children"] = (branch.get("children", 0) * per_solve,
                                     "children/solve")
    merge = s["search.merge_and_collect"].counts
    out["search.merge.kept_ratio"] = (ratio(merge.get("out", 0),
                                            merge.get("in", 0)), "ratio")
    prune = s["search.prune"].counts
    out["search.prune.kept_ratio"] = (ratio(prune.get("out", 0),
                                            prune.get("in", 0)), "ratio")
    out["search.droplets"] = (
        s["search.finalize"].counts.get("droplets", 0) * per_solve,
        "droplets/solve")

    for name in ("search.merge_solutions", "search.unpack_droplets",
                 "instance_io.write_solution"):
        out[f"{name}.self_s"] = (s[name].self_s * per_instance, "s/instance")
    for name in ("cli.generate_instance", "instance_io.parse_ising",
                 "potts.cluster"):
        out[f"{name}.self_s"] = (s[name].self_s * per_build, "s/instance")
    out["instance_io.json_bytes"] = (json_bytes, "B/instance")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
