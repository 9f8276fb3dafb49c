"""Seeded inputs for the four benchmark workloads.

`build(name, seed, workdir)` writes the workload's laminate files into
`workdir` and returns its operation list. Each operation is one
`lamconvex` command line. The same name and seed give byte-identical
files and the same operations, on any machine.

Sizes are fixed per operation (a ladder over the workload's range); the
seed picks the contents: breakpoints, angles, and the exact denominator
or point within 1-2% of its rung. So every seed covers the same sizes
and medians stay comparable between seeds.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

PLY_TABLE_DEG = (0.0, 45.0, -45.0, 90.0)
# Angle weights over PLY_TABLE_DEG. Two independent plies agree with
# probability sum(w^2): 0.25 for the uniform table, 0.52 for the biased one.
UNIFORM = (0.25, 0.25, 0.25, 0.25)
BIASED = (0.7, 0.1, 0.1, 0.1)
ALPHAS = (0.25, 0.3, 0.5, 0.75)
FLOAT_CAP = 100_000_000  # above the largest alpha / y the float points need


@dataclass
class Op:
    """One command line and what its checker needs to know."""

    kind: str  # params | combine | gsequence | oscillate
    argv: list
    inputs: list = field(default_factory=list)  # (breakpoints, angles_deg) per file
    alpha: float | None = None
    out: str | None = None
    n_list: tuple = ()
    x: object = None  # Fraction or float
    count: int = 5
    props: dict = field(default_factory=dict)


def _laminate(rng: random.Random, plies: int, weights=UNIFORM) -> dict:
    """Interior breakpoints uniform on (-1, 1) at full float resolution;
    angles drawn from the ply table."""
    interior = sorted(set(rng.uniform(-1.0, 1.0) for _ in range(plies - 1)))
    return {
        "breakpoints": [-1.0, *interior, 1.0],
        "angles_deg": rng.choices(PLY_TABLE_DEG, weights=weights, k=len(interior) + 1),
    }


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
    return path


def _lam_input(data: dict) -> tuple:
    return (data["breakpoints"], data["angles_deg"])


def _pair(rng, workdir, tag, plies1, plies2, weights=UNIFORM):
    d1, d2 = _laminate(rng, plies1, weights), _laminate(rng, plies2, weights)
    return (_write(workdir, f"{tag}_a.json", d1), _write(workdir, f"{tag}_b.json", d2),
            [_lam_input(d1), _lam_input(d2)])


def _combine(rng, workdir, tag, plies, weights, alpha):
    f1, f2, inputs = _pair(rng, workdir, tag, *plies, weights)
    out = os.path.join(workdir, f"{tag}_mix.json")
    return Op("combine", ["combine", f1, f2, "--alpha", repr(alpha), "--out", out, "--json"],
              inputs=inputs, alpha=alpha, out=out,
              props={"plies": list(plies), "angle_weights": list(weights)})


def _gsequence(rng, workdir, tag, plies, alpha, n_list):
    f1, f2, inputs = _pair(rng, workdir, tag, *plies)
    return Op("gsequence", ["gsequence", f1, f2, "--alpha", repr(alpha),
                            "--n", ",".join(map(str, n_list)), "--json"],
              inputs=inputs, alpha=alpha, n_list=tuple(n_list),
              props={"plies": list(plies), "n_max": max(n_list)})


def _oscillate_rational(rng, q_range, p, alpha):
    """Point x with y = (x + 1)/2 = p/q, gcd(p, q) = 1."""
    q = rng.randint(*q_range)
    while math.gcd(p, q) != 1:
        q += 1
    x = Fraction(2 * p - q, q)
    return Op("oscillate", ["oscillate", f"--x={x.numerator}/{x.denominator}",
                            "--alpha", repr(alpha), "--json"],
              alpha=alpha, x=x,
              props={"point": "rational", "q": q, "p": p,
                     "first_above_n": math.ceil(alpha * q / p)})


def _oscillate_float(rng, y_centre, alpha):
    """Float point with y log-uniform within 2% of y_centre; x = 2y - 1
    is exact here and so is the program's (x + 1)/2."""
    x = 2.0 * y_centre * math.exp(rng.uniform(-0.02, 0.02)) - 1.0
    y = (x + 1.0) / 2.0
    return Op("oscillate", ["oscillate", f"--x={x!r}", "--alpha", repr(alpha),
                            "--cap", str(FLOAT_CAP), "--json"],
              alpha=alpha, x=x,
              props={"point": "float", "y": y, "first_above_n": math.ceil(alpha / y)})


def _params(rng, workdir, tag, plies):
    data = _laminate(rng, plies)
    path = _write(workdir, f"{tag}.json", data)
    return Op("params", ["params", path, "--json"], inputs=[_lam_input(data)],
              props={"plies": plies})


# combine-large and witness-search list their operations as a ladder of
# fixed sizes. The middle rung is three operations of one size with
# different contents, and its cost stays well apart from its neighbours',
# so the median operation of a run falls in the middle rung on every seed
# and rests on three samples per pass. The operations of gsequence-deep
# and of cli-small cost about the same as each other.

def build_combine_large(rng, workdir):
    # Pieces built per rung, about (1 + 4 * disagreeing share) * (plies1 +
    # plies2): 18k, 61k, 152k.
    rungs = [((2000, 2500), UNIFORM)] + [((10000, 11000), BIASED)] * 3 \
        + [((18000, 20000), UNIFORM)]
    return [_combine(rng, workdir, f"c{i}", plies, weights, ALPHAS[i % len(ALPHAS)])
            for i, (plies, weights) in enumerate(rungs)]


def build_gsequence_deep(rng, workdir):
    n_list = [2 ** k for k in range(10, 18)]
    plies = ((8, 12), (16, 24), (28, 32))
    return [_gsequence(rng, workdir, f"g{i}", pair, alpha, n_list)
            for i, (pair, alpha) in enumerate(zip(plies, (0.3, 0.5, 0.75)))]


def build_witness_search(rng, workdir):
    """The first "above" witness sits near alpha*q/p or alpha/y. Scan
    lengths: 5e4 and 1e7 floats; 1e5 (three points), 2.5e5 and 5e5
    rational residues. Rational points scan in Python (about 5 us per
    residue), float points in numpy chunks (about 0.025 us per n)."""
    return [
        _oscillate_float(rng, 4.9e-6, 0.25),
        _oscillate_float(rng, 5.1e-8, 0.5),
        *(_oscillate_rational(rng, (198_000, 202_000), 1, 0.5) for _ in range(3)),
        _oscillate_rational(rng, (495_000, 505_000), 1, 0.5),
        _oscillate_rational(rng, (980_000, 1_000_000), 1, 0.5),
    ]


def build_cli_small(rng, workdir):
    ops = []
    for i in range(3):
        alpha = ALPHAS[i]
        ops.append(_params(rng, workdir, f"p{i}", rng.randint(1, 16)))
        ops.append(_combine(rng, workdir, f"c{i}", (rng.randint(1, 16), rng.randint(1, 16)),
                            UNIFORM, alpha))
        ops.append(_gsequence(rng, workdir, f"g{i}", (rng.randint(1, 16), rng.randint(1, 16)),
                              alpha, [2 ** k for k in range(4, 9)]))
        ops.append(_oscillate_rational(rng, (8, 100), (1, 3, 5)[i], alpha))
    return ops


@dataclass(frozen=True)
class Workload:
    why: str
    varies: str
    build: object


WORKLOADS = {
    "combine-large": Workload(
        why="combine on 2k-20k-ply pairs: refine, matched_split, validation of "
            "~1e5-ply results, three parameter calls per verify and the file "
            "write path do the work",
        varies="ply count (3 rungs, 2k-20k per file); share of agreeing "
               "refinement intervals (uniform vs biased ply table); alpha",
        build=build_combine_large),
    "gsequence-deep": Workload(
        why="gsequence with n = 2^10..2^17 on 8-32-ply pairs: interleave, "
            "merge_close, from_pieces and the parameter kernel at up to 2.6e5 "
            "pieces; convexity and file I/O do nothing",
        varies="ply count (3 rungs, 8-32 per file); alpha; cell count n",
        build=build_gsequence_deep),
    "witness-search": Workload(
        why="oscillate at rational and float points: find_n_in_region does all "
            "the work on both of its number paths; parameters and file I/O idle",
        varies="rational vs float point; denominator size (q in 2e5-1e6); "
               "y in 5e-8..5e-6 (scan length 5e4 and 1e7); alpha",
        build=build_witness_search),
    "cli-small": Workload(
        why="all four subcommands on <=16-ply inputs: interpreter start, "
            "import, argparse and JSON I/O dominate each operation",
        varies="subcommand; ply count 1-16; gsequence n 16-256; "
               "oscillate denominator 8-100; alpha",
        build=build_cli_small),
}


def build(name: str, seed: int, workdir: str) -> list:
    """Write the inputs of workload `name` for `seed` and return its ops."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name].build(rng, workdir)
