"""Per-layer spans for one CLI invocation, recorded from outside the program.

Run as ``python perfbench/tracer.py <cli arguments>`` with ``src`` on
``PYTHONPATH``.  It imports ``gk2codes.cli``, replaces every function named
in ``LAYERS`` by a wrapper that records a span, in every ``gk2codes`` module
namespace that holds a reference to it, runs ``gk2codes.cli.main`` on the
arguments, and writes one line ``PERFBENCH_TRACE <json>`` to stderr.  Stdout
is the CLI's own, byte for byte.

A layer's self time is the time spent in its spans minus the time spent in
the spans they called.  Spans are kept in memory and written once, at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

TRACE_MARKER = "PERFBENCH_TRACE "

# "module.function" (relative to gk2codes) -> layer name.
LAYERS = {
    "gf.make_field": "gf.make_field",
    "gf.matrix_rank": "gf.rank",
    "gf.rank_profile": "gf.rank",
    "semigroup.NumericalSemigroup.from_generators": "semigroup.from_generators",
    "semigroup.is_telescopic": "semigroup.telescopic",
    "semigroup.telescopic_genus": "semigroup.telescopic",
    "gk2.curve_params": "gk2.scalars",
    "gk2.k_max": "gk2.scalars",
    "gk2.canonical_triple": "gk2.scalars",
    "gk2.frobenius_dimension_gk1": "gk2.scalars",
    "gk2.frobenius_dimension_gk2": "gk2.scalars",
    "gk2.frobenius_dimensions_differ": "gk2.scalars",
    "gk2.semigroup_o1": "gk2.orbit_semigroup",
    "gk2.semigroup_o2": "gk2.orbit_semigroup",
    "gk2.orbit_semigroup": "gk2.orbit_semigroup",
    "gk2.holomorphic_gap_set": "gk2.holomorphic_gap_set",
    "gk2.verify_partition": "gk2.verify_partition",
    "fengrao.nu": "fengrao.nu",
    "fengrao.table": "fengrao.table",
    "fengrao.d_ord": "fengrao.d_ord",
    # range_* are the per-row bodies of quantum_table; the CLI also calls
    # range_order_bound directly for its pass over the reference rows.
    "quantum.quantum_table": "quantum.quantum_table",
    "quantum.range_order_bound": "quantum.quantum_table",
    "quantum.range_high_degree": "quantum.quantum_table",
    "curve.field_context": "curve.field_context",
    "curve.census": "curve.census",
    "curve.classify_point": "curve.classify_point",
    "curve.enumerate_points": "curve.enumerate_points",
    "curve.evaluation_points": "curve.evaluation_points",
    "curve.distinguished_point": "curve.distinguished_point",
    "curve.build_basis": "curve.build_basis",
    "curve.eval_basis": "curve.eval_basis",
    "curve.code_matrix": "curve.code_matrix",
    "curve.write_matrix": "curve.write_matrix",
    "curve.min_weight_exhaustive": "curve.min_weight_exhaustive",
    "refdata.load_code_reference": "refdata.compare",
    "refdata.load_quantum_reference": "refdata.compare",
    "refdata.compare_code_table": "refdata.compare",
    "refdata.compare_quantum_table": "refdata.compare",
    "cli.main": "cli",
}

# Public names deliberately left unwrapped, with the reason.  Their time is
# counted in the self time of the wrapped function that calls them.
UNWRAPPED = {
    "errors.InternalConsistencyError": "exception class",
    "errors.NeedsLocalResolutionError": "exception class",
    "errors.PoleEvaluationError": "exception class",
    "fengrao.CodeTableRow": "result record",
    "gk2.CurveParams": "result record",
    "gk2.PartitionReport": "result record",
    "quantum.QuantumRange": "result record",
    "curve.CurvePoint": "result record",
    "curve.PoleBasisFunction": "result record",
    "curve.PointCensus": "result record",
    "gf.GfContext": "field arithmetic methods run millions of times; a span each would swamp them",
    "semigroup.NumericalSemigroup": "only its from_generators classmethod is a layer boundary",
    "semigroup.closure_table": "inner loop of the sieve, counted in from_generators",
    "gk2.prime_power_decompose": "O(1) helper",
    "gk2.o1_generators": "O(s) helper",
    "gk2.o2_generators": "O(s) helper",
    "curve.iter_points": "generator: a span would close before the walk runs",
    "curve.small_field_elements": "helper of the point walk, counted in its caller",
    "curve.generator_pole_orders": "O(s) helper",
    "refdata.has_reference": "O(1) helper",
    "cli.build_parser": "counted in cli self time",
}

MODULES = ("errors", "semigroup", "gk2", "fengrao", "quantum", "gf", "curve", "refdata", "cli")


def _count_field(tracer, args, kwargs, result):
    tracer.fields.add(id(result))
    tracer.counts["gf.fields_built"] = len(tracer.fields)


def _count_rank_cells(tracer, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tracer.counts["gf.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_genus(tracer, args, kwargs, result):
    tracer.counts["semigroup.genus_sieved"] += result.genus


def _count_nu(tracer, args, kwargs, result):
    if tracer.active["quantum.quantum_table"]:
        tracer.counts["quantum.nu_calls_in_table"] += 1


def _count_quantum_rows(tracer, args, kwargs, result):
    tracer.counts["quantum.rows"] += len(result)
    tracer.counts["quantum.order_bound_rows"] += sum(r.regime == "order-bound" for r in result)


def _count_points(tracer, args, kwargs, result):
    tracer.counts["curve.points_enumerated"] += len(result)


HOOKS = {
    "gf.make_field": _count_field,
    "gf.matrix_rank": _count_rank_cells,
    "gf.rank_profile": _count_rank_cells,
    "semigroup.NumericalSemigroup.from_generators": _count_genus,
    "fengrao.nu": _count_nu,
    "quantum.quantum_table": _count_quantum_rows,
    "curve.enumerate_points": _count_points,
}


class Tracer:
    """Aggregated spans: calls, total and self seconds per layer, plus counts."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.active: Counter[str] = Counter()
        self.fields: set[int] = set()
        self._child_s: list[float] = []  # time of child spans, one slot per open span

    def wrap(self, layer, fn, hook=None):
        clock = time.perf_counter
        child_s = self._child_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_s.append(0.0)
            self.active[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.active[layer] -= 1
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                self.calls[layer] += 1
                self.total_s[layer] += dt
                self.self_s[layer] += dt - inner
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return span

    def install(self):
        """Wrap every LAYERS function in every gk2codes namespace that refers to it."""
        for name in MODULES:
            importlib.import_module(f"gk2codes.{name}")
        namespaces = [m for n, m in sys.modules.items() if n == "gk2codes" or n.startswith("gk2codes.")]
        for key, layer in LAYERS.items():
            owner, attr = resolve_owner(key)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(layer, raw.__func__, HOOKS.get(key))))
                continue
            span = self.wrap(layer, raw, HOOKS.get(key))
            for mod in namespaces:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, span)

    def record(self) -> dict:
        return {
            "layers": {
                layer: {
                    "calls": self.calls[layer],
                    "self_s": self.self_s[layer],
                    "total_s": self.total_s[layer],
                }
                for layer in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
        }


def resolve_owner(key: str):
    """The module or class holding the attribute named by a LAYERS/UNWRAPPED key."""
    parts = key.split(".")
    owner = importlib.import_module(f"gk2codes.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    if not isinstance(owner, (types.ModuleType, type)):
        raise TypeError(f"{key}: owner is neither a module nor a class")
    return owner, parts[-1]


def main(argv: list[str]) -> int:
    from gk2codes import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.record()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
