"""Seeded inputs for the benchmark workloads and the checks on their output.

Each workload builder takes a ``random.Random`` and a directory, writes the
config and point files the CLI reads, and returns the list of CLI calls that
make one pass, each with the expectations its output is checked against.
Nothing here imports rghw: the inputs and the checks are independent of the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

WEIGHTS_HEADER = [
    "d", "r", "k1", "G", "fp", "delta", "vasconcelos", "Mr",
    "singleton", "cand_poly", "cand_mono", "ms",
]

# The fp matrix of the torus in P^2 over F_5 for d = 1..6, as fixed by
# tests/test_acceptance.py::EXPECTED_MATRIX.
TORUS_P2_F5_FP = [
    [12, 15, 16],
    [8, 11, 12, 14, 15, 16],
    [4, 7, 8, 10, 11, 12, 13, 14, 15, 16],
    [3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
]

# The `ideal` workload rescales fixed base samples instead of drawing fresh
# ones: the cost of a fresh sample of points in P^2/F_11 varies fourfold with
# the shape of its initial ideal, which no number of passes averages out.
# A diagonal rescaling is a monomial equivalence, so every seed does the same
# Groebner work and gets the same weights.  The base samples are the first
# draw from this seed (the source paper's arXiv number), not a chosen one.
BASE_SEED = 190711324


@dataclass
class WeightsExpect:
    """What a `weights` output must show beyond the checks that hold for any
    input: the (d, r, k1) rows in order, the point count n, rows whose Mr is
    known exactly or bounded below, and rows with r = k, k1 = 0 (Mr = n)."""

    rows: list[tuple[int, int, int]]
    n: int
    mr_exact: dict[tuple[int, int, int], int] = field(default_factory=dict)
    mr_floor: dict[tuple[int, int, int], int] = field(default_factory=dict)
    full: set[tuple[int, int, int]] = field(default_factory=set)


@dataclass
class MatrixExpect:
    """An fp matrix of a projective torus: q, s and the degree range fix its
    shape, first column, last cell per row, and optionally every cell."""

    q: int
    s: int
    dmax: int
    exact: list[list[int]] | None = None


@dataclass
class Call:
    """One CLI invocation: the argv passed to rghw.cli.main and the
    expectations its stdout is checked against."""

    label: str
    argv: list[str]
    expect: WeightsExpect | MatrixExpect


# ---------------------------------------------------------------------------
# closed forms used by the checks


def torus_hilbert(q: int, s: int, d: int) -> int:
    """dim of the degree-d slice of S/I for the torus in P^{s-1}(F_q): the
    exponent vectors in [0, q-2]^{s-1} of total degree at most d."""
    return sum(1 for a in product(range(q - 1), repeat=s - 1) if sum(a) <= d)


def torus_min_distance(q: int, s: int, d: int) -> int:
    """Minimum distance of the degree-d code on the projective torus
    (Sarmiento, Vaz Pinto, Villarreal, AAECC 2011)."""
    if d >= (q - 2) * (s - 1):
        return 1
    k, ell = divmod(d - 1, q - 2)
    ell += 1
    return (q - 1) ** (s - k - 2) * (q - 1 - ell)


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over F_q by plain Gaussian elimination."""
    m = [[v % q for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], q - 2, q)
        m[rank] = [v * inv % q for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# output checks


def check_output(call: Call, status: int, text: str) -> tuple[int, list[str]]:
    """Return (table rows, problems) for one call; the `ms` column is never
    compared."""
    problems = [] if status == 0 else [f"exit status {status}"]
    lines = text.splitlines()
    if not lines:
        return 0, problems + ["empty output"]
    if any("!" in line for line in lines):
        problems.append("budget mark '!' in output")
    if isinstance(call.expect, WeightsExpect):
        problems += _check_weights(lines, call.expect)
    else:
        problems += _check_matrix(lines, call.expect)
    return len(lines) - 1, problems


def _ints(cells, names):
    try:
        return [int(cells[n]) for n in names]
    except ValueError:
        return None


def _check_weights(lines: list[str], expect: WeightsExpect) -> list[str]:
    header = lines[0].split(",")
    if header != WEIGHTS_HEADER:
        return [f"weights header {header}"]
    problems = []
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    keys = []
    last_mr: dict[tuple, tuple[int, int]] = {}
    for row in rows:
        values = _ints(row, ["d", "r", "k1", "fp", "delta", "vasconcelos", "Mr", "singleton"])
        if values is None:
            problems.append(f"non-numeric weights row {row}")
            continue
        d, r, k1, fp, delta, theta, mr, singleton = values
        key = (d, r, k1)
        keys.append(key)
        if not delta == theta == mr:
            problems.append(f"{key}: delta {delta}, vasconcelos {theta}, Mr {mr} differ")
        if not fp <= mr <= singleton:
            problems.append(f"{key}: fp {fp} <= Mr {mr} <= singleton {singleton} fails")
        if key in expect.mr_exact and mr != expect.mr_exact[key]:
            problems.append(f"{key}: Mr {mr}, expected {expect.mr_exact[key]}")
        if key in expect.mr_floor and mr < expect.mr_floor[key]:
            problems.append(f"{key}: Mr {mr} below the absolute weight {expect.mr_floor[key]}")
        if key in expect.full and mr != expect.n:
            problems.append(f"{key}: Mr {mr} at r = k, expected n = {expect.n}")
        group = (d, k1, row["G"])
        if group in last_mr and last_mr[group][0] == r - 1 and mr <= last_mr[group][1]:
            problems.append(f"{key}: Mr {mr} not above Mr at r - 1")
        last_mr[group] = (r, mr)
    if keys != expect.rows:
        problems.append(f"rows {keys}, expected {expect.rows}")
    return problems


def _check_matrix(lines: list[str], expect: MatrixExpect) -> list[str]:
    q, s = expect.q, expect.s
    n = (q - 1) ** (s - 1)
    widths = [torus_hilbert(q, s, d) for d in range(1, expect.dmax + 1)]
    header = lines[0].split(",")
    want = ["d"] + [f"r{r}" for r in range(1, max(widths) + 1)]
    if header != want:
        return [f"matrix header {header}, expected {want}"]
    problems = []
    body = [line.split(",") for line in lines[1:]]
    if [row[0] for row in body] != [str(d) for d in range(1, expect.dmax + 1)]:
        return problems + [f"matrix degrees {[row[0] for row in body]}"]
    for d, (row, k) in enumerate(zip(body, widths), start=1):
        cells, rest = row[1 : k + 1], row[k + 1 :]
        if len(row) != len(header) or any(c != "-" for c in rest):
            problems.append(f"d={d}: expected {k} values then '-', got {row[1:]}")
            continue
        try:
            values = [int(c) for c in cells]
        except ValueError:
            problems.append(f"d={d}: non-numeric cell in {cells}")
            continue
        if values[0] != torus_min_distance(q, s, d):
            problems.append(f"d={d}: fp(d,1) {values[0]} != {torus_min_distance(q, s, d)}")
        if values[-1] != n:
            problems.append(f"d={d}: fp(d,k) {values[-1]} != n = {n}")
        if any(b <= a for a, b in zip(values, values[1:])):
            problems.append(f"d={d}: row not increasing: {values}")
        if expect.exact is not None and values != expect.exact[d - 1]:
            problems.append(f"d={d}: {values}, expected {expect.exact[d - 1]}")
    return problems


# ---------------------------------------------------------------------------
# input generation


def write_file(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text)
    return str(path)


def weights_call(label: str, path: str, expect: WeightsExpect) -> Call:
    return Call(label, ["weights", "--config", path, "--with-bruteforce", "--format", "csv"], expect)


def matrix_call(label: str, path: str, expect: MatrixExpect) -> Call:
    return Call(label, ["matrix", "--config", path, "--format", "csv"], expect)


def _format_poly(terms: dict[tuple[int, ...], int]) -> str:
    parts = []
    for exps, c in terms.items():
        factors = [f"t{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
        parts.append("*".join(([str(c)] if c != 1 else []) + factors))
    return " + ".join(parts)


def random_form(rng: random.Random, q: int, s: int, d: int) -> str:
    """A random nonzero form of degree d in t1..ts over F_q."""
    monomials = [e for e in product(range(d + 1), repeat=s) if sum(e) == d]
    while True:
        terms = {m: rng.randrange(q) for m in monomials}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return _format_poly(terms)


def torus_config(q: int, s: int, queries: str) -> str:
    return f"q = {q}\ns = {s}\nsource = torus\n{queries}"


def build_scan(rng: random.Random, directory: Path) -> list[Call]:
    """Subspace scans on tori, whose vanishing ideals are tiny."""
    calls = []
    # d = 2 on the torus of P^2/F_5: Mr = fp, TORUS_P2_F5_FP row 2 (the
    # acceptance tests check fp == Mr on this torus for d <= 2).
    rows = [(2, 1, 0), (2, 2, 0)]
    ref = {(2, r, 0): TORUS_P2_F5_FP[1][r - 1] for r in (1, 2)}
    path = write_file(directory, "torus-p2-f5.cfg", torus_config(5, 3, "[query]\nd = 2\nr = 1..2\n"))
    calls.append(weights_call("torus-p2-f5", path, WeightsExpect(rows, 16, mr_exact=ref)))
    # the same code relative to a seeded one-dimensional subcode: a relative
    # weight is never below the absolute one
    g = random_form(rng, 5, 3, 2)
    text = torus_config(5, 3, f"[query]\nd = 2\nr = 1..2\nk1 = 1\nG = {g}\n")
    path = write_file(directory, "torus-p2-f5-sub.cfg", text)
    floor = {(2, r, 1): TORUS_P2_F5_FP[1][r - 1] for r in (1, 2)}
    calls.append(weights_call(
        "torus-p2-f5-sub", path,
        WeightsExpect([(2, 1, 1), (2, 2, 1)], 16, mr_floor=floor),
    ))
    path = write_file(directory, "torus-p3-f3.cfg", torus_config(3, 4, "[query]\nd = 2\nr = 1..3\n"))
    calls.append(weights_call(
        "torus-p3-f3", path,
        WeightsExpect(
            [(2, r, 0) for r in (1, 2, 3)], 8,
            mr_exact={(2, 1, 0): torus_min_distance(3, 4, 2)},
        ),
    ))
    # the worked example of the README and the acceptance tests
    text = torus_config(3, 4, "[query]\nd = 1\nr = all\nk1 = 1\nG = t1\n")
    path = write_file(directory, "torus-p3-f3-t1.cfg", text)
    calls.append(weights_call(
        "torus-p3-f3-t1", path,
        WeightsExpect(
            [(1, r, 1) for r in (1, 2, 3)], 8,
            mr_exact={(1, 1, 1): 4, (1, 2, 1): 6, (1, 3, 1): 7},
        ),
    ))
    return calls


def projective_points(q: int, s: int) -> list[tuple[int, ...]]:
    """Every point of P^{s-1}(F_q) with first nonzero coordinate 1."""
    points = []
    for lead in range(s):
        for rest in product(range(q), repeat=s - 1 - lead):
            points.append((0,) * lead + (1,) + rest)
    return points


def rescaled_points(rng: random.Random, q: int, points) -> list[tuple[int, ...]]:
    """The points under a random diagonal map t_i -> l_i t_i, each written
    with a random nonzero multiple of its coordinates, in random order."""
    s = len(points[0])
    scale = [rng.randrange(1, q) for _ in range(s)]
    out = []
    for p in points:
        mult = rng.randrange(1, q)
        out.append(tuple(v * l * mult % q for v, l in zip(p, scale)))
    rng.shuffle(out)
    return out


IDEAL_SETS = (
    # (name, q, s, n, [query] blocks beyond d = 1, r = all)
    ("points-p3-f5", 5, 4, 16, ""),
    ("points-p2-f11", 11, 3, 30, "[query]\nd = 2\nr = 1\n"),
)


def build_ideal(rng: random.Random, directory: Path) -> list[Call]:
    """Random point sets: wide codes whose vanishing ideals dominate."""
    base_rng = random.Random(BASE_SEED)
    calls = []
    for name, q, s, n, extra in IDEAL_SETS:
        base = base_rng.sample(projective_points(q, s), n)
        points = rescaled_points(rng, q, base)
        write_file(directory, f"{name}.txt", "".join(":".join(map(str, p)) + "\n" for p in points))
        text = f"q = {q}\nsource = file\npoints_file = {name}.txt\n[query]\nd = 1\nr = all\n{extra}"
        path = write_file(directory, f"{name}.cfg", text)
        k = rank_mod([list(p) for p in points], q)
        rows = [(1, r, 0) for r in range(1, k + 1)] + ([(2, 1, 0)] if extra else [])
        calls.append(weights_call(name, path, WeightsExpect(rows, n, full={(1, k, 0)})))
    return calls


def torus_generators(rng: random.Random, q: int, s: int) -> str:
    """The binomials t_i^(q-1) - t_s^(q-1), i < s, each times a random
    nonzero constant, in random order: every seed presents the same ideal
    with the same Groebner work."""
    gens = []
    for i in range(s - 1):
        c = rng.randrange(1, q)
        lead = tuple(q - 1 if j == i else 0 for j in range(s))
        gens.append(_format_poly({lead: c, (0,) * (s - 1) + (q - 1,): q - c}))
    rng.shuffle(gens)
    return " ; ".join(gens)


FOOTPRINT_TORI = (
    # (q, s, dmax); the P^2/F_5 grid is checked cell by cell
    (5, 3, 6),
    (7, 3, 5),
    (5, 4, 3),
    (7, 4, 3),
    (11, 3, 5),
)


def build_footprint(rng: random.Random, directory: Path) -> list[Call]:
    """fp matrices of torus ideals given by generators: no certification and
    no scan, only the footprint walk."""
    calls = []
    for q, s, dmax in FOOTPRINT_TORI:
        text = (
            f"q = {q}\ns = {s}\nsource = ideal\n"
            f"generators = {torus_generators(rng, q, s)}\nfunction = fp\ndmax = {dmax}\n"
        )
        name = f"fp-p{s - 1}-f{q}"
        path = write_file(directory, f"{name}.cfg", text)
        exact = TORUS_P2_F5_FP if (q, s, dmax) == (5, 3, 6) else None
        calls.append(matrix_call(name, path, MatrixExpect(q, s, dmax, exact)))
    # a few milliseconds of weights on the smallest torus, so that every
    # layer's timer reads a measured value here too
    path = write_file(directory, "torus-p2-f3.cfg", torus_config(3, 3, "[query]\nd = 1\nr = all\n"))
    calls.append(weights_call(
        "torus-p2-f3", path,
        WeightsExpect([(1, r, 0) for r in (1, 2, 3)], 4,
                      mr_exact={(1, 1, 0): torus_min_distance(3, 3, 1)}, full={(1, 3, 0)}),
    ))
    return calls


WORKLOADS = {
    "scan": build_scan,
    "ideal": build_ideal,
    "footprint": build_footprint,
}
