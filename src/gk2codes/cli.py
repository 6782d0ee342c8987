"""Command-line front end.

Every subcommand is a thin wrapper over one library operation and writes
deterministic output (csv, json or md) to stdout or a file.  Exit codes:
0 success, 1 usage error or out of memory, 2 internal-consistency failure
(a proven identity failed at runtime), 3 an evaluation needed local resolution.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import SimpleNamespace

# The entry module: the option table, the parser and the exit codes.  Each
# command's body is in its family's module (_OPTIONS), which main imports
# when it dispatches, so a process compiles only its own subcommand and the
# library modules that runs.  No command module imports this one: under
# `python -m gk2codes.cli` it is __main__, and an import of gk2codes.cli
# would compile and run it a second time.  UsageError is errors.UsageError.
from .errors import InternalConsistencyError, NeedsLocalResolutionError, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_UNRESOLVED = 3

MAX_CURVE_Q = 5  # the bound on q of the commands that build the curve's field

# quantum.REGIME_ORDER_BOUND and quantum.REGIME_HIGH_DEGREE, spelled out so
# that building the parser does not import quantum
_REGIMES = ("order-bound", "high-degree")


# Every subcommand's help line, family module and options, in --help order.
# An option is (flags, dest, type, choices, required, default, help);
# build_parser() and _parse() both read it.  main calls the module's
# _cmd_<command with - as _>(args, curve_params(q, n)), which returns a writer
# of its output, or (writer, ok), where ok False exits EXIT_INCONSISTENT.
_Q = (("--q",), "q", int, None, True, None, "prime power")
_N = (("--n",), "n", int, None, True, None, "odd integer >= 3")
_ORBIT = (("--orbit",), "orbit", str, ("O1", "O2"), True, None, None)
_LMIN = (("--lmin",), "lmin", int, None, False, None, None)
_LMAX = (("--lmax",), "lmax", int, None, False, None, None)
_FORMAT = (("--format",), "format", str, ("csv", "json", "md"), False, "json", None)
_OUTPUT = (("-o", "--output"), "output", str, None, False, None, "output path (default stdout)")
_OPTIONS = {
    "semigroup": ("orbit semigroup summary", "_cmd_tables", (_Q, _N, _ORBIT, _FORMAT, _OUTPUT)),
    "gaps": ("gap sequence of an orbit semigroup", "_cmd_tables",
             (_Q, _N, _ORBIT, _FORMAT, _OUTPUT)),
    "fengrao-table": ("dual code parameter rows", "_cmd_tables", (
        _Q, _N, _ORBIT, _LMIN, _LMAX, _FORMAT, _OUTPUT)),
    "quantum-table": ("CSS parameter ranges", "_cmd_tables", (
        _Q, _N, _ORBIT, _LMIN, _LMAX, _FORMAT, _OUTPUT,
        (("--regime",), "regime", str, _REGIMES, False, _REGIMES[0], None))),
    "frobenius": ("Frobenius dimensions of both families", "_cmd_tables",
                  (_Q, _N, _FORMAT, _OUTPUT)),
    "points": ("rational point census", "_cmd_curve", (_Q, _N, _FORMAT, _OUTPUT)),
    "code-matrix": ("evaluation code generator matrix", "_cmd_curve", (
        (("--q",), "q", int, None, True, None, None),
        (("--n",), "n", int, None, True, None, None),
        _ORBIT,
        (("--l",), "l", int, None, True, None, "number of basis rows"),
        (("-o", "--output"), "output", str, None, False, None, None))),
    "verify": ("full invariant suite for one (q, n)", "_cmd_verify", (_Q, _N, _FORMAT, _OUTPUT)),
}


def build_parser():
    """The argparse parser of the option table; a usage error raises UsageError."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); route to exit code 1
            raise UsageError(message)

    p = _Parser(prog="gk2codes", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in _OPTIONS.items():
        sub = subs.add_parser(command, help=summary)
        for flags, dest, kind, choices, required, default, text in options:
            sub.add_argument(*flags, dest=dest, type=kind, choices=choices,
                             required=required, default=default, help=text)
    return p


def _parse(argv):
    """The namespace build_parser() gives a plain command line, else None.

    Plain is ``<command> (<flag> <value>)*`` with every flag spelled as in
    the option table and given at most once, no value starting with "-",
    every int value decimal digits, every choice among its choices and every
    required option present.  Any other line (--help, a usage error, an
    abbreviation, ``--flag=value``, a repeat) is argparse's to answer.
    """
    if len(argv) % 2 != 1 or argv[0] not in _OPTIONS:
        return None
    options = _OPTIONS[argv[0]][2]
    by_flag = {flag: option for option in options for flag in option[0]}
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = by_flag.get(flag)
        if option is None or option[1] in given or value.startswith("-"):
            return None
        _, dest, kind, choices, *_ = option
        if kind is int:
            if not value.isdecimal():
                return None
            try:
                value = int(value)
            except ValueError:  # past the interpreter's limit on int digits
                return None
        elif choices is not None and value not in choices:
            return None
        given[dest] = value
    for _, dest, _, _, required, default, _ in options:
        if dest not in given:
            if required:
                return None
            given[dest] = default
    return SimpleNamespace(command=argv[0], **given)


def _emit(write, path, code):
    """Run a writer on the -o file, opened only now, or on stdout.

    Returns code, or EXIT_USAGE after a one-line error when the output
    cannot be written.  A reader that leaves early (``| head``) is not an
    error: the rest of the output is dropped.
    """
    if path:
        try:
            with open(path, "w") as f:
                write(f)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
        return code
    if sys.stdout is None:  # the interpreter started with fd 1 closed
        print("error: cannot write stdout", file=sys.stderr)
        return EXIT_USAGE
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # Point fd 1 at devnull so the interpreter's final flush of what is
        # still buffered cannot fail again (the Python signal docs' advice).
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv) or build_parser().parse_args(argv)
        family = _OPTIONS[args.command][1]
        if family != "_cmd_tables" and args.q > MAX_CURVE_Q:  # _cmd_tables builds no field
            raise UsageError(f"curve subcommands support q <= {MAX_CURVE_Q}, got {args.q}")
        from .gk2 import curve_params

        params = curve_params(args.q, args.n)
        module = import_module(f"{__package__}.{family}")
        result = getattr(module, "_cmd_" + args.command.replace("-", "_"))(args, params)
        write, ok = result if isinstance(result, tuple) else (result, True)
        return _emit(write, args.output, EXIT_OK if ok else EXIT_INCONSISTENT)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NeedsLocalResolutionError as exc:
        print(f"needs local resolution: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OverflowError) as exc:  # OverflowError: a sieve past the index range
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # an input too large to compute
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def _run() -> int:
    """Process entry of the ``gk2codes`` script and ``python -m``: returns ``main()``.

    On every way out, ``--help``'s ``SystemExit`` too, the heap is frozen
    into the collector's permanent generation, so interpreter shutdown runs
    no collection over the imported modules and the field tables.  Atexit
    handlers, stream flushes and reference-count frees still run; cycles
    alive at exit go with the process.  ``main()`` itself leaves the
    collector alone, for callers that keep running.
    """
    try:
        return main()
    finally:
        import gc  # here, so that importing this module loads nothing more

        gc.freeze()


if __name__ == "__main__":
    sys.exit(_run())
