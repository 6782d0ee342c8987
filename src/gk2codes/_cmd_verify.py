"""The CLI's verify subcommand: the full invariant suite for one (q, n)."""

from ._render import _head, _payload, _text
from .errors import InternalConsistencyError
from .gk2 import (
    MAX_FIELD_SIZE,
    REFERENCE_QN,
    _holomorphic_gap_indicator,
    frobenius_dimension_gk1,
    frobenius_dimension_gk2,
    frobenius_dimensions_differ,
    semigroup_o1,
    verify_partition,
)
from .semigroup import telescopic_genus


def _cmd_verify(args, params):
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    s1 = semigroup_o1(params)  # genus identity asserted inside
    # asserts |L| = g and L = the complement of s2, the one O2 sieve of this run
    gap_bytes, s2 = _holomorphic_gap_indicator(params)
    n_gaps = gap_bytes.count(1)
    del gap_bytes  # freed before verify_partition's sieves
    check("o1_genus", s1.genus == params.genus, f"{s1.genus} == {params.genus}")
    check("o2_genus", s2.genus == params.genus, f"{s2.genus} == {params.genus}")
    top = params.q**params.n + 1
    check("qn_plus_1_nongap", s1.contains(top) and s2.contains(top), top)
    nonsym = not s1.is_symmetric() and not s2.is_symmetric()
    if params.n >= 5:
        check("not_symmetric", nonsym, f"2g-1 = {2*params.genus-1} is a nongap")
    else:
        check("symmetric_at_n3", not nonsym, "telescopic orbit semigroup at n = 3")

    check("differential_gap_set", n_gaps == params.genus, f"|L| = {n_gaps}")

    # verify_partition reports the genus of its sieve of this same sequence
    rep = verify_partition(params)
    seq = (params.m * params.q, params.m * params.q + params.q**2 - params.q, top)
    check("telescopic_genus_cross_check", rep.telescopic_genus == telescopic_genus(seq), seq)
    check("partition_inside", rep.sets_inside_h1_minus_s)
    check("partition_disjoint", rep.sets_pairwise_disjoint)
    check("partition_sizes", rep.set_sizes_match_formula)
    check(
        "partition_genus_count",
        rep.genus_count_matches,
        f"{rep.telescopic_genus} - {rep.partition_total} == {params.genus}",
    )

    if params.n >= 5:
        r2 = frobenius_dimension_gk2(params)
        count = s1.count_nongaps_upto(params.q**params.n) - 1
        check("frobenius_dim_counts_nongaps", r2 == count + 1, f"r = {r2}")
        check(
            "frobenius_dims_differ",
            frobenius_dimensions_differ(params.q, params.n) is True,
            f"gk1 = {frobenius_dimension_gk1(params)}, gk2 = {r2}",
        )

    field_size = params.q ** (2 * params.n)
    if field_size <= MAX_FIELD_SIZE:
        from . import curve

        ctx = curve.field_context(params)
        c = curve.census(params, ctx)  # asserts totals internally
        check("point_count", c.total == params.rational_point_count, c.total)
        check("orbit_sizes", (c.o1, c.o2) == (params.q + 1, params.q**3 - params.q),
              f"({c.o1}, {c.o2})")
        if field_size <= 1 << 11:  # keep the staircase interactive-fast
            ok = True
            for orbit in ("O1", "O2"):
                try:  # code_matrix's rank profile, certified on its leading columns
                    base = curve.distinguished_point(params, ctx, orbit)
                    basis = curve.build_basis(params, orbit, 10)
                    ok &= curve._rank_certificate(params, ctx, base, basis) == [*range(1, 11)]
                except InternalConsistencyError:
                    ok = False
            check("rank_staircase_l_le_10", ok)

    if (params.q, params.n) == REFERENCE_QN:
        from . import refdata

        for orbit, sg in (("O1", s1), ("O2", s2)):
            comp = refdata.compare_code_table(params, sg, orbit)
            check(
                f"reference_code_cells_{orbit}",
                not comp.value_mismatches,
                f"{comp.rows_checked} rows, "
                f"{len(comp.first_column_typos)} first-column typos, "
                f"duplicates k={comp.duplicated_cells}, omitted l={comp.omitted_indices}",
            )
            qcomp = refdata.compare_quantum_table(params, sg, orbit)
            check(
                f"reference_quantum_cells_{orbit}",
                not qcomp.d_or_smax_mismatches,
                f"{qcomp.rows_checked} rows, s_min flags: "
                f"{[(m.index, m.computed, m.reference) for m in qcomp.s_min_mismatches]}",
            )

    all_ok = all(c["ok"] for c in checks)
    payload = {**_head(args), "all_ok": all_ok, "checks": checks}
    if args.format == "md":
        lines = [f"# verify q={params.q} n={params.n}"]
        lines += [
            f"- [{'PASS' if c['ok'] else 'FAIL'}] {c['name']}"
            + (f" ({c['detail']})" if c["detail"] else "")
            for c in checks
        ]
        lines.append(f"- overall: {'PASS' if all_ok else 'FAIL'}")
        write = _text("\n".join(lines) + "\n")
    else:
        write = _payload(args.format, payload)
    return write, all_ok
