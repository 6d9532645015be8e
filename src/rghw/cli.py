"""Batch command line front end: parse a problem config, run Hilbert,
vanishing-ideal, code, weight, and matrix queries, and print aligned tables
or CSV.  Exit status 0 on success, 2 on config errors, 3 when some row hit
the enumeration budget (the run still completes, affected cells show '!')."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property
from pathlib import Path

from .codes import (
    BudgetExceededError,
    build_code,
    singleton_bound,
    validate_subcode,
)
from .field import PrimeField
from .groebner import Ideal
from .linalg import ModulusTooLargeError, require_exact_int64
from .monideal import UnsupportedDimensionError
from .points import (
    ProjectivePointSet,
    affine_cartesian,
    parse_points,
    projective_torus,
    projective_zero_set,
)
from .polyring import ORDERS, PolyParseError, PolyRing
from .weights import CandidateScan, FootprintProfile, admissible_counts

WEIGHTS_HEADER = (
    "d", "r", "k1", "G", "fp", "delta", "vasconcelos", "Mr",
    "singleton", "cand_poly", "cand_mono", "ms",
)
BUDGET_MARK = "!"
SOURCES = ("torus", "cartesian", "file", "ideal")
FUNCTIONS = ("fp", "delta", "vasconcelos")


class ConfigError(Exception):
    pass


@dataclass
class QuerySpec:
    lineno: int
    d_range: tuple[int, int] | None = None
    r_range: tuple[int, int] | None = None  # None means "all"
    k1: int = 0
    g_strings: tuple[str, ...] = ()


@dataclass
class ProblemConfig:
    q: int | None = None
    s: int | None = None
    s_lineno: int | None = None
    source: str | None = None
    factors: tuple[tuple[int, ...], ...] | None = None
    points_file: str | None = None
    generators: tuple[str, ...] = ()
    function: str | None = None
    function_lineno: int | None = None
    dmax: int | None = None
    k1: int = 0
    g_strings: tuple[str, ...] = ()
    queries: list[QuerySpec] = dataclass_field(default_factory=list)


def _parse_int(value: str, lineno: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be an integer, got {value!r}") from None


def _parse_k1(value: str, lineno: int) -> int:
    k1 = _parse_int(value, lineno, "k1")
    if k1 < 0:
        raise ConfigError(f"line {lineno}: k1 must be nonnegative")
    return k1


def _parse_range(value: str, lineno: int, key: str, allow_all: bool):
    value = value.strip()
    if allow_all and value == "all":
        return None
    if ".." in value:
        lo_s, hi_s = value.split("..", 1)
        lo = _parse_int(lo_s.strip(), lineno, key)
        hi = _parse_int(hi_s.strip(), lineno, key)
    else:
        lo = hi = _parse_int(value, lineno, key)
    if lo < 1 or hi < lo:
        raise ConfigError(f"line {lineno}: bad {key} range {value!r}")
    return lo, hi


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(";") if part.strip()]


def parse_config(text: str) -> ProblemConfig:
    config = ProblemConfig()
    current: QuerySpec | None = None
    seen: dict[str, int] = {}  # key -> line, within the current section
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[query]":
                raise ConfigError(f"line {lineno}: unknown section {line!r}")
            current = QuerySpec(lineno)
            config.queries.append(current)
            seen = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} already set on line {seen[key]}")
        seen[key] = lineno
        if current is None:
            _apply_main_key(config, key, value, lineno)
        else:
            _apply_query_key(current, key, value, lineno)
    _validate_config(config)
    return config


def _apply_main_key(config: ProblemConfig, key: str, value: str, lineno: int):
    if key == "q":
        config.q = _parse_int(value, lineno, "q")
    elif key == "s":
        config.s = _parse_int(value, lineno, "s")
        config.s_lineno = lineno
    elif key == "source":
        if value not in SOURCES:
            raise ConfigError(
                f"line {lineno}: source must be one of {', '.join(SOURCES)}, got {value!r}"
            )
        config.source = value
    elif key == "factors":
        groups = []
        for part in value.split(";"):
            entries = [e for e in part.replace(",", " ").split() if e]
            if not entries:
                raise ConfigError(f"line {lineno}: empty cartesian factor")
            groups.append(tuple(_parse_int(e, lineno, "factors") for e in entries))
        config.factors = tuple(groups)
    elif key == "points_file":
        config.points_file = value
    elif key == "generators":
        config.generators = tuple(_split_list(value))
        if not config.generators:
            raise ConfigError(f"line {lineno}: generators list is empty")
    elif key == "function":
        if value not in FUNCTIONS:
            raise ConfigError(
                f"line {lineno}: function must be one of {', '.join(FUNCTIONS)}, got {value!r}"
            )
        config.function = value
        config.function_lineno = lineno
    elif key == "dmax":
        config.dmax = _parse_int(value, lineno, "dmax")
        if config.dmax < 1:
            raise ConfigError(f"line {lineno}: dmax must be at least 1, got {config.dmax}")
    elif key == "k1":
        config.k1 = _parse_k1(value, lineno)
    elif key == "G":
        config.g_strings = tuple(_split_list(value))
    else:
        raise ConfigError(f"line {lineno}: unknown key {key!r}")


def _apply_query_key(query: QuerySpec, key: str, value: str, lineno: int):
    if key == "d":
        query.d_range = _parse_range(value, lineno, "d", allow_all=False)
    elif key == "r":
        query.r_range = _parse_range(value, lineno, "r", allow_all=True)
    elif key == "k1":
        query.k1 = _parse_k1(value, lineno)
    elif key == "G":
        query.g_strings = tuple(_split_list(value))
    else:
        raise ConfigError(f"line {lineno}: unknown query key {key!r}")


def _validate_config(config: ProblemConfig):
    if config.source is None:
        raise ConfigError("missing required key: source")
    if config.q is None:
        raise ConfigError("missing required key: q")
    if config.source == "torus" and config.s is None:
        raise ConfigError("torus source needs s")
    if config.source == "cartesian" and config.factors is None:
        raise ConfigError("cartesian source needs factors")
    if config.source == "file" and config.points_file is None:
        raise ConfigError("file source needs points_file")
    if config.source == "ideal":
        if config.s is None:
            raise ConfigError("ideal source needs s")
        if config.s < 1:
            raise ConfigError(
                f"line {config.s_lineno}: ideal source needs s >= 1, got {config.s}"
            )
        if not config.generators:
            raise ConfigError("ideal source needs generators")
    for key, owner in (("factors", "cartesian"), ("points_file", "file"), ("generators", "ideal")):
        if getattr(config, key) not in (None, ()) and config.source != owner:
            raise ConfigError(f"{key} is read only with source = {owner}, not {config.source}")
    if config.factors is not None:
        derived = len(config.factors) + 1
        if config.s is None:
            config.s = derived
        elif config.s != derived:
            raise ConfigError(
                f"s = {config.s} contradicts {len(config.factors)} cartesian factors"
            )
    for query in config.queries:
        if query.d_range is None:
            raise ConfigError(f"line {query.lineno}: [query] block needs d")
        if len(query.g_strings) != query.k1:
            raise ConfigError(
                f"line {query.lineno}: k1 = {query.k1} but G lists "
                f"{len(query.g_strings)} polynomials"
            )
    if len(config.g_strings) != config.k1:
        raise ConfigError(
            f"k1 = {config.k1} but G lists {len(config.g_strings)} polynomials"
        )


@dataclass
class Problem:
    """Loaded problem: the point set (when available), the working ideal,
    and certification state for ideal-generator inputs.  `points` is the
    set a torus, cartesian or file source gives.  For an ideal, X is its
    zero set in P^(s-1)(F_q), found on first use, so commands that never
    read it (`hilbert`, `matrix` with fp) never search P^(s-1)(F_q)."""

    config: ProblemConfig
    order: object
    given_ideal: Ideal | None
    ring: PolyRing
    points: ProjectivePointSet | None = None

    @cached_property
    def X(self) -> ProjectivePointSet | None:
        if self.given_ideal is None:
            return self.points
        try:
            rows = projective_zero_set(self.config.q, self.config.s, self.given_ideal.gens)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return ProjectivePointSet._from_standard_rows(self.ring.field, rows) if len(rows) else None

    def point_ideal(self) -> Ideal:
        return self.X.vanishing_ideal(self.order)

    def working_ideal(self) -> Ideal:
        if self.given_ideal is not None:
            return self.given_ideal
        return self.point_ideal()


def _parse_generator(ring: PolyRing, text: str):
    try:
        poly = ring.parse(text)
    except PolyParseError as exc:
        raise ConfigError(f"bad polynomial {text!r}: {exc}") from None
    if poly.is_zero():
        raise ConfigError(f"zero polynomial in generator list: {text!r}")
    if not poly.is_homogeneous():
        raise ConfigError(f"generator {text!r} is not homogeneous")
    return poly


def load_problem(config: ProblemConfig, order, config_dir: Path) -> Problem:
    try:
        fieldq = PrimeField(config.q)
        require_exact_int64(config.q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.source == "torus" and config.s < 2:
        raise ConfigError("torus needs s >= 2")
    if config.source in ("torus", "cartesian"):
        try:
            if config.source == "torus":
                X = projective_torus(config.q, config.s)
            else:
                X = affine_cartesian(config.q, config.factors)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return Problem(config, order, None, PolyRing(fieldq, X.s), X)
    if config.source == "file":
        path = config_dir / config.points_file
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read points file: {exc}") from None
        try:
            X = parse_points(text, config.q)
        except ValueError as exc:
            raise ConfigError(f"{config.points_file}: {exc}") from None
        if config.s not in (None, X.s):
            raise ConfigError(f"line {config.s_lineno}: s = {config.s} contradicts the "
                              f"{X.s} coordinates of the points in {config.points_file}")
        return Problem(config, order, None, PolyRing(fieldq, X.s), X)
    ring = PolyRing(fieldq, config.s)
    gens = [_parse_generator(ring, g) for g in config.generators]
    return Problem(config, order, Ideal(ring, gens, order), ring)


def certification_report(problem: Problem) -> tuple[bool, list[str]]:
    """Whether the supplied ideal I is the vanishing ideal I_X of its zero
    set X, with one report line per containment.

    X = V(I)(F_q), so every element of I vanishes on X: I <= I_X always
    holds.  For I_X <= I, walk the reduced basis of I_X in increasing
    leading monomial: the first element not in I is the first whose leading
    monomial lies outside in(I).  An element whose leading monomial lies
    outside in(I) is not in I.  Conversely, let g be the first element not
    in I and suppose lm(g) is in in(I).  Then some f in I has lm(f) = lm(g)
    and the same leading coefficient, so g - f lies in I_X with every
    monomial below lm(g).  Its division by the basis uses only elements
    with smaller leading monomials, which come before g and so lie in I;
    hence g - f and g lie in I, a contradiction."""
    in_initial = problem.given_ideal.initial_ideal().contains
    for g in problem.point_ideal().groebner_basis():
        if not in_initial(g.leading_monomial(problem.order)):
            return False, ["I <= I_X: ok", f"I_X <= I: FAIL at {g.format(problem.order)}"]
    return True, ["I <= I_X: ok", "I_X <= I: ok"]


def require_points(problem: Problem) -> ProjectivePointSet:
    if problem.X is None:
        raise ConfigError("the supplied ideal has an empty zero set")
    return problem.X


def require_certified(problem: Problem) -> ProjectivePointSet:
    """The point set, once a supplied ideal certifies as its I_X."""
    X = require_points(problem)
    if problem.given_ideal is not None:
        ok, lines = certification_report(problem)
        if not ok:
            raise ConfigError("ideal is not the vanishing ideal of its zero set; " + lines[-1])
    return X


def render(header, rows, fmt: str) -> str:
    lines = [list(header)] + rows
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in lines)
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    return "".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n" for row in lines
    )


def _budgeted_output(header, rows, fmt: str) -> tuple[str, int]:
    """The rendered rows, with exit status 3 when some cell shows '!'."""
    return render(header, rows, fmt), 3 if any(BUDGET_MARK in row for row in rows) else 0


def _degrees(problem: Problem, ideal: Ideal):
    """The ideal's Hilbert summary and the default degrees 1..dmax, where
    dmax defaults to the regularity index (at least 1)."""
    try:
        summary = ideal.quotient_summary()
    except UnsupportedDimensionError as exc:
        raise ConfigError(str(exc)) from None
    return summary, range(1, (problem.config.dmax or summary.reg_index or 1) + 1)


def cmd_hilbert(problem: Problem, args) -> tuple[str, int]:
    ideal = problem.working_ideal()
    summary, degrees = _degrees(problem, ideal)
    body = render(("d", "H"), [[str(d), str(ideal.hilbert_function(d))] for d in degrees],
                  args.format)
    if args.format == "table":
        body += f"deg = {summary.degree}, reg = {summary.reg_index}\n"
    return body, 0


def cmd_vanishing_ideal(problem: Problem, args) -> tuple[str, int]:
    X = require_points(problem)
    ideal = problem.point_ideal()
    lines = [g.format(problem.order) for g in ideal.groebner_basis()]
    if problem.given_ideal is not None:
        lines.extend(certification_report(problem)[1])
    summary = ideal.quotient_summary()
    lines.append(f"n = {len(X)}, deg = {summary.degree}, reg = {summary.reg_index}")
    return "\n".join(lines) + "\n", 0


def cmd_code_info(problem: Problem, args) -> tuple[str, int]:
    X = require_points(problem)
    ideal = problem.point_ideal()
    summary, degrees = _degrees(problem, ideal)
    if problem.config.queries:
        degrees = sorted({d for _, d in _expand_queries(problem)})
    rows = [
        [str(d), str(len(X)), str(ideal.hilbert_function(d)), str(summary.reg_index)]
        for d in degrees
    ]
    return render(("d", "n", "k", "reg"), rows, args.format), 0


def _subcode_for(code, g_strings):
    polys = [_parse_generator(code.ring, g) for g in g_strings]
    try:
        return validate_subcode(code, polys)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _expand_queries(problem: Problem):
    """Yield (query_spec, d) pairs in deterministic config order."""
    queries = problem.config.queries
    if not queries:
        raise ConfigError("this command needs at least one [query] block")
    for query in queries:
        for d in range(query.d_range[0], query.d_range[1] + 1):
            yield query, d


def _attempt(compute, *args):
    """compute(*args), or the BudgetExceededError it raised."""
    try:
        return compute(*args)
    except BudgetExceededError as exc:
        return exc


def _cells(where: str, result, *reads) -> list[str]:
    """One cell per read of result; when result is a budget overflow, a '!'
    per read instead and one stderr line: where (the cell, or for `weights`
    the row and its columns), and what the budget was."""
    if isinstance(result, BudgetExceededError):
        print(f"{where}: {result}", file=sys.stderr)
        return [BUDGET_MARK] * len(reads)
    return [str(read(result)) for read in reads]


def cmd_weights(problem: Problem, args) -> tuple[str, int]:
    X = require_certified(problem)
    rows: list[list[str]] = []
    codes: dict = {}
    profiles: dict = {}
    counts: dict = {}
    # the columns that one scan fills; Mr shows '-' unless asked for
    scan_columns = "delta/vasconcelos/" + ("Mr/" if args.with_bruteforce else "") + "cand_poly"
    # every group's code, subcode and rank range is checked before any cell,
    # so a config error (a later group's, or a q too large for a later
    # code's length) comes before any budget line
    groups = []
    for query, d in _expand_queries(problem):
        if d not in codes:
            codes[d] = build_code(X, d, problem.order)
        code = codes[d]
        sub = _subcode_for(code, query.g_strings)
        rmax = code.k - len(sub)
        if rmax < 1:
            raise ConfigError(
                f"line {query.lineno}: k1 = {len(sub)} leaves no valid rank at d = {d}"
            )
        r_lo, r_hi = query.r_range or (1, rmax)
        if r_hi > rmax:
            raise ConfigError(
                f"line {query.lineno}: r up to {r_hi} exceeds k - k1 = {rmax} at d = {d}"
            )
        groups.append((query, d, code, sub, r_lo, r_hi))
    for query, d, code, sub, r_lo, r_hi in groups:
        if (d, r_hi) not in profiles:
            profiles[d, r_hi] = _attempt(FootprintProfile, code.ideal, d, r_hi, args.budget)
            counts[d, r_hi] = _attempt(admissible_counts, code.ideal, d, r_hi, args.budget)
        # one scan serves the rows of this query and degree; its shared setup
        # counts toward the first row's ms
        started = time.perf_counter()
        scan = CandidateScan(
            code.generator_rows, code.q, range(r_lo, r_hi + 1), sub, args.budget
        )
        for r in range(r_lo, r_hi + 1):
            where = f"line {query.lineno}, d={d}, r={r}"
            [fp_val] = _cells(f"{where}, fp", profiles[d, r_hi], lambda p: p.value(r))
            [cand_mono] = _cells(f"{where}, cand_mono", counts[d, r_hi], lambda c: c[r])
            weight, cand_poly = _cells(
                f"{where}, {scan_columns}", _attempt(scan.rank, r),
                lambda found: found.min_support, lambda found: found.family_count,
            )
            # delta, vasconcelos and M_r are one number for a vanishing ideal
            mr = weight if args.with_bruteforce else "-"
            ms = str(int((time.perf_counter() - started) * 1000))
            rows.append(
                [
                    str(d), str(r), str(len(sub)), ";".join(query.g_strings),
                    fp_val, weight, weight, mr,
                    str(singleton_bound(code, sub, r)),
                    cand_poly, cand_mono, ms,
                ]
            )
            started = time.perf_counter()
    return _budgeted_output(WEIGHTS_HEADER, rows, args.format)


def cmd_matrix(problem: Problem, args) -> tuple[str, int]:
    config = problem.config
    if config.function is None:
        raise ConfigError(f"matrix mode needs a function key ({' | '.join(FUNCTIONS)})")
    function = config.function
    if function != "fp":
        X = require_certified(problem)
    ideal = problem.working_ideal()
    _, degrees = _degrees(problem, ideal)
    if config.k1 and len(degrees) != 1:
        raise ConfigError("matrix mode with k1 > 0 needs a single degree (set dmax = 1)")
    # every code is built before any scan, so a config error (a subcode's, or
    # a q too large for a later code's length) comes before any budget line
    if function != "fp":
        codes = {d: build_code(X, d, problem.order) for d in degrees}
    rows = []
    for d in degrees:
        if function == "fp":
            # fp has no code, so G is checked for its degree but not for
            # independence
            for poly in (_parse_generator(problem.ring, g) for g in config.g_strings):
                if poly.degree() != d:
                    raise ConfigError(
                        f"subcode generator {poly.format(problem.order)} is not homogeneous "
                        f"of degree {d}"
                    )
            rmax = ideal.hilbert_function(d) - config.k1
            profile = _attempt(FootprintProfile, ideal, d, rmax, args.budget)
        else:
            code = codes[d]
            sub = _subcode_for(code, config.g_strings)
            rmax = code.k - len(sub)
            scan = CandidateScan(code.generator_rows, code.q, range(1, rmax + 1), sub, args.budget)
        cells = [str(d)]
        for r in range(1, rmax + 1):
            where = f"line {config.function_lineno}, d={d}, r={r}"
            if function == "fp":
                cells += _cells(where, profile, lambda p: p.value(r))
            else:
                cells += _cells(where, _attempt(scan.rank, r), lambda found: found.min_support)
        rows.append(cells)
    width = max(map(len, rows))
    if width < 2:
        raise ConfigError("k1 leaves no valid rank anywhere in the degree range" if config.k1
                          else "H(d) - k1 < 1 at every degree in the range, so no rank is valid")
    header = ("d",) + tuple(f"r{r}" for r in range(1, width))
    return _budgeted_output(header, [row + ["-"] * (width - len(row)) for row in rows],
                            args.format)


COMMANDS = {
    "hilbert": cmd_hilbert,
    "vanishing-ideal": cmd_vanishing_ideal,
    "code-info": cmd_code_info,
    "weights": cmd_weights,
    "matrix": cmd_matrix,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rghw",
        description="Weight hierarchies of evaluation codes on finite projective point sets.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="problem config file")
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    parser.add_argument("--budget", type=int, default=10**7,
                        help="max candidates per enumeration (default 10^7)")
    parser.add_argument("--order", choices=sorted(ORDERS), default="grevlex")
    parser.add_argument("--with-bruteforce", action="store_true",
                        help="print M_r in the Mr column (else '-'); it is the scan "
                             "value that already fills delta and vasconcelos")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget < 0:
        parser.error(f"argument --budget: must be nonnegative, got {args.budget}")
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        problem = load_problem(config, ORDERS[args.order], Path(args.config).resolve().parent)
        output, status = COMMANDS[args.command](problem, args)
    except (ConfigError, ModulusTooLargeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
