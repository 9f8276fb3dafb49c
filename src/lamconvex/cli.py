"""Command-line interface.

Subcommands:
    params     twelve lamination parameters of a laminate file
    combine    build and verify a convex combination of two laminates
    gsequence  parameter convergence table of the interleaving sequence
    oscillate  witness indices showing pointwise oscillation at a point

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage or file
errors, 3 numeric-domain errors (alpha out of range, search cap, ...).

Note: write --x=-1/2 (with '='), otherwise the leading '-' of the value
is taken for an option.
"""

import argparse
import json
import math
import os
import sys

from .convexity import convex_combine, verify_combination
from .errors import InvariantViolation, LamConvexError, ParseError
from .fileio import load_laminate, save_laminate
from .interleaving import (
    DEFAULT_SEARCH_CAP,
    _edge_rounding_bound,
    convergence_table,
    interleave,
    oscillation_witness,
)
from .parameters import lamination_parameters
from .step import StepLaminate

EXIT_PASS = 0
EXIT_VERDICT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEFAULT_TOLERANCE = 1e-12
"""Default of --tolerance, which bounds `combine`'s largest residual: an
empirical guard, not a proven bound. The worst residual measured on
valid input is 9.3e-16 over 20,000 `float_laminates` pairs (alphas from
1e-17 to 1 - 1e-16) and 1.8e-14 over the 25 `combine-large` operations
of seeds 1-5 (2k-20k plies per file); the benchmark's checker requires
this value.

The proven bound grows with the number R of regions whose two angles
differ: a residual is at most (9R/2 + 120) u, u = 2^-53. A split point
lo + k L (or hi - k L, L the float hi - lo) is within u/2 + e L of its
exact place: u/2 from its last rounding, since |z| < 1, and e L from the
coefficient k's own error and the roundings of L and of k L, with e
under 14u summed over a region's three points. The built laminate
differs from the exact construction on a set of measure at most the sum
of the point errors, under (3R/2 + 28) u since the region widths sum to
at most 2. There a trig value changes by at most 2, and the largest
prefactor is 3/2, so a parameter moves by under (9R/2 + 84) u. The
kernel's round-off in its three calls, and the blend, add under 36u.
So the default is proven for R up to 1,974; the largest `combine-large`
operations have about 21,500 differing regions, where the bound is
1.1e-11 and the residuals stay below 2e-14, since the roundings' signs
cancel.
"""


def _render(doc: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    lines = [f"operation: {doc['operation']}"]
    lines += [f"  {key}: {value}" for key, value in doc["inputs"].items()]
    lines += _payload_lines(doc["payload"], indent="  ")
    for v in doc["verdicts"]:
        lines.append(f"verdict {v['name']}: {'PASS' if v['passed'] else 'FAIL'} "
                     f"(value={v['value']:.6e}, tolerance={v['tolerance']:.6e})")
    return "\n".join(lines) + "\n"


def _payload_lines(obj, indent: str) -> list[str]:
    lines = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_payload_lines(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for row in value:
                cells = ", ".join(f"{k}={_fmt(v)}" for k, v in row.items())
                lines.append(f"{indent}  {cells}")
        else:
            lines.append(f"{indent}{key}: {_fmt(value)}")
    return lines


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _parse_x(text: str):
    """'p/q' becomes an exact Fraction; anything else parses as float."""
    if "/" in text:
        from fractions import Fraction

        num, _, den = text.partition("/")
        try:
            return Fraction(int(num.strip()), int(den.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"invalid rational {text!r}: {exc}")
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}: {exc}")


def _parse_tolerance(text: str) -> float:
    """A verdict tolerance: a finite number >= 0 (the JSON report holds no
    NaN or infinity)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}: {exc}")
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _parse_positive_int(text: str) -> int:
    """An integer >= 1."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}: {exc}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _parse_n_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each >= 1."""
    values = tuple(_parse_positive_int(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError("empty n list")
    return values


# Each cmd_* returns (payload, verdicts), a verdict being
# (name, value, tolerance); `main` builds the report document from them,
# with the parsed options as its inputs.

def cmd_params(args) -> tuple[dict, list]:
    t = load_laminate(args.file, normalize=args.normalize)
    params = lamination_parameters(t)
    worst = max(abs(v) for v in params.flat())
    return ({"ply_count": t.ply_count, "parameters": params.as_dict()},
            [("parameter_bounds", worst, 1.0 + args.tolerance)])


def cmd_combine(args) -> tuple[dict, list]:
    t1 = load_laminate(args.file1, normalize=args.normalize)
    t2 = load_laminate(args.file2, normalize=args.normalize)
    result = convex_combine(t1, t2, args.alpha)
    check = verify_combination(t1, t2, args.alpha, result)
    if args.out is not None:
        save_laminate(result, args.out, name=f"combine(alpha={args.alpha})")
    payload = {
        "ply_count": result.ply_count,
        "parameters": check.actual.as_dict(),
        "expected": check.expected.as_dict(),
        "residuals": list(check.residuals),
        "max_residual": check.max_residual,
    }
    return payload, [("combination_residual", check.max_residual, args.tolerance)]


def cmd_gsequence(args) -> tuple[dict, list]:
    """The closed-form table, and a verdict that builds the laminate of
    the smallest n and checks its kernel parameters against that row. The
    verdict's tolerance is --tolerance, for the round-off of the kernel
    and of the row, plus the bound `_edge_rounding_bound` on what the
    rounding of the built laminate's part edges moves a parameter."""
    t1 = load_laminate(args.file1, normalize=args.normalize)
    t2 = load_laminate(args.file2, normalize=args.normalize)
    rows = convergence_table(t1, t2, args.alpha, args.n)
    n0 = min(args.n)
    built = interleave(t1, t2, args.alpha, n0)
    closed = next(row.params for row in rows if row.n == n0)
    gap = max(abs(b - c) for b, c in
              zip(lamination_parameters(built).flat(), closed.flat()))
    payload = {
        "rows": [{"n": row.n, "residual_a": row.residual_a, "residual_b": row.residual_b,
                  "residual_d": row.residual_d, "residual_max": row.residual_max}
                 for row in rows],
        "built": {"n": n0, "pieces": built.ply_count},
    }
    return payload, [("interleave_residual", gap, args.tolerance + _edge_rounding_bound(n0))]


# Demonstration pair used when oscillate is not given explicit laminates:
# 0 and 90 degrees, disagreeing everywhere.
_OSC_T1 = StepLaminate((-1.0, 1.0), (0.0,))
_OSC_T2 = StepLaminate((-1.0, 1.0), (math.pi / 2,))


def cmd_oscillate(args) -> tuple[dict, list]:
    from fractions import Fraction

    table = oscillation_witness(_OSC_T1, _OSC_T2, args.alpha, args.x,
                                args.count, cap=args.cap)
    # exact fractions print as 'p/q' for a rational --x, as numbers for a float
    fmt = str if isinstance(args.x, Fraction) else float
    payload = {
        "y": fmt((Fraction(args.x) + 1) / 2),
        "below": [[n, fmt(fr)] for n, fr in table.below],
        "above": [[n, fmt(fr)] for n, fr in table.above],
        "undefined_at": list(table.undefined_at),
        "angle1": table.angle1,
        "angle2": table.angle2,
        "distinct_values": table.distinct_values,
    }
    if table.distinct_values is False:
        payload["note"] = "sources agree at x; oscillation is vacuous here"
    return payload, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamconvex",
        description="Lamination parameters of step layups from closed-form "
                    "moments (float round-off, no quadrature error), "
                    "constructive convex combinations, interleaving diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, files: bool):
        # the subcommands that read laminate files are those with verdicts
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if files:
            p.add_argument("--tolerance", type=_parse_tolerance, default=DEFAULT_TOLERANCE,
                           help="verdict tolerance (default %(default)g)")
            p.add_argument("--normalize", action="store_true",
                           help="affinely map file breakpoints onto [-1, 1]")

    p = sub.add_parser("params", help="lamination parameters of a laminate file")
    p.add_argument("file")
    add_common(p, files=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("combine", help="convex combination of two laminates")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--alpha", type=float, required=True,
                   help="weight on the second laminate, in [0, 1]")
    p.add_argument("--out", help="write the constructed laminate here")
    add_common(p, files=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("gsequence", help="interleaving-sequence convergence table")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--alpha", type=float, required=True,
                   help="cell fraction taking the first laminate, in (0, 1)")
    p.add_argument("--n", type=_parse_n_list, required=True,
                   help="comma-separated cell counts, e.g. 16,32,64")
    add_common(p, files=True)
    p.set_defaults(func=cmd_gsequence)

    p = sub.add_parser("oscillate", help="pointwise oscillation witnesses")
    p.add_argument("--x", type=_parse_x, required=True,
                   help="evaluation point, 'p/q' or a float (write --x=-1/2)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--count", type=_parse_positive_int, default=5,
                   help="indices per region (default 5)")
    p.add_argument("--cap", type=_parse_positive_int, default=DEFAULT_SEARCH_CAP,
                   help="largest index accepted (default 10^7)")
    add_common(p, files=False)
    p.set_defaults(func=cmd_oscillate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, verdicts = args.func(args)
    except (ParseError, InvariantViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LamConvexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    verdicts = [{"name": name, "value": value, "tolerance": tolerance,
                 "passed": value <= tolerance} for name, value, tolerance in verdicts]
    passed = all(v["passed"] for v in verdicts)
    # every option parsed: the --n tuple as a list, any other value that is
    # not a JSON scalar (a rational --x) as its str, 'p/q'
    inputs = {key: list(value) if isinstance(value, tuple)
              else value if value is None or isinstance(value, (str, int, float))
              else str(value)
              for key, value in vars(args).items()
              if key not in ("command", "func", "json")}
    doc = {"operation": args.command, "inputs": inputs, "payload": payload,
           "verdicts": verdicts, "passed": passed}
    sys.stdout.write(_render(doc, args.json))
    return EXIT_PASS if passed else EXIT_VERDICT_FAILURE


def run() -> None:
    """The process entry point: `python -m lamconvex` and the `lamconvex`
    script. Once `main` returns, both streams are flushed and the process
    ends with `os._exit`, skipping interpreter teardown: module cleanup,
    the final collection and `atexit` handlers, whose work the process
    would throw away. If a flush fails (a closed pipe), the process exits
    through `sys.exit` instead, which reports the failure as teardown
    always has. An exception escaping `main` takes the normal exit too.
    In-process callers of `main` are unaffected."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
