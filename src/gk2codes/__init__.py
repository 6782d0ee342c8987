"""Weierstrass semigroups and AG/CSS code parameters for the GK2 curve family.

Exact-arithmetic engines for the curve family's Weierstrass semigroups at
small-field rational points, Feng-Rao designed distances, CSS quantum code
parameter ranges, and a constructive cross-check layer: point enumeration
over the exact finite fields and explicit evaluation-code matrices whose
ranks confirm the semigroup data.
"""

__version__ = "0.1.0"

# Public name -> defining submodule.  A submodule is imported the first time
# one of its names is read (PEP 562), so `import gk2codes.cli` and each CLI
# subcommand load only the modules they run.
_SUBMODULE = {
    name: module
    for module, names in {
        "curve": (
            "CurvePoint",
            "PoleBasisFunction",
            "build_basis",
            "census",
            "classify_point",
            "code_matrix",
            "distinguished_point",
            "enumerate_points",
            "eval_basis",
            "evaluation_points",
            "field_context",
            "min_weight_exhaustive",
            "write_matrix",
        ),
        "errors": ("InternalConsistencyError", "NeedsLocalResolutionError", "PoleEvaluationError"),
        "fengrao": ("CodeTableRow", "d_ord", "nu", "table"),
        "gf": ("GfContext", "make_field", "matrix_rank"),
        "gk2": (
            "CurveParams",
            "PartitionReport",
            "canonical_triple",
            "curve_params",
            "frobenius_dimension_gk1",
            "frobenius_dimension_gk2",
            "frobenius_dimensions_differ",
            "holomorphic_gap_set",
            "k_max",
            "orbit_semigroup",
            "semigroup_o1",
            "semigroup_o2",
            "verify_partition",
        ),
        "quantum": ("QuantumRange", "quantum_table", "range_high_degree", "range_order_bound"),
        "semigroup": ("NumericalSemigroup", "is_telescopic", "telescopic_genus"),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    from importlib import import_module

    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
