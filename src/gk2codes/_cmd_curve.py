"""The CLI's curve subcommands: points and code-matrix, over the curve's field.

The payload renderer is imported by points alone: code-matrix writes its
matrix with curve.write_matrix.
"""

from . import curve
from .errors import UsageError


def _cmd_points(args, params):
    from ._render import _head, _payload

    ctx = curve.field_context(params)
    c = curve.census(params, ctx)
    payload = {
        **_head(args),
        "field": {"p": ctx.p, "deg": ctx.deg, "order": ctx.order},
        "count": c.total,
        "orbit_sizes": {"O1": c.o1, "O2": c.o2, "generic": c.generic},
        "maximality_count": params.rational_point_count,
    }
    return _payload(args.format, payload)


def _cmd_code_matrix(args, params):
    if args.l < 1:
        raise UsageError(f"--l must be >= 1, got {args.l}")
    n_support = params.rational_point_count - 1
    if args.l > n_support:
        raise UsageError(f"--l must be <= N = {n_support} (the code length), got {args.l}")
    ctx = curve.field_context(params)
    matrix = curve.code_matrix(params, ctx, args.orbit, args.l)
    return lambda stream: curve.write_matrix(stream, ctx, matrix)
