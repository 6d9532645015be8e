"""Batch command line front end: parse a problem config, run Hilbert,
vanishing-ideal, code, weight, and matrix queries, and print aligned tables
or CSV.  Exit status 0 on success, 2 on config errors, 3 when some row hit
the enumeration budget (the run still completes, affected cells show '!')."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
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
    all_projective_points,
    parse_points,
    projective_torus,
    zero_set,
)
from .polyring import ORDERS, PolyParseError, PolyRing
from .weights import CandidateScan, FootprintProfile

WEIGHTS_HEADER = (
    "d", "r", "k1", "G", "fp", "delta", "vasconcelos", "Mr",
    "singleton", "cand_poly", "cand_mono", "ms",
)
BUDGET_MARK = "!"
SOURCES = ("torus", "cartesian", "file", "ideal")
FUNCTIONS = ("fp", "delta", "vasconcelos", "bruteforce")


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[query]":
                raise ConfigError(f"line {lineno}: unknown section {line!r}")
            current = QuerySpec(lineno)
            config.queries.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
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
        config.k1 = _parse_int(value, lineno, "k1")
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
        query.k1 = _parse_int(value, lineno, "k1")
        if query.k1 < 0:
            raise ConfigError(f"line {lineno}: k1 must be nonnegative")
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
    read it (`hilbert`, `matrix` with fp) never enumerate P^(s-1)(F_q)."""

    config: ProblemConfig
    order: object
    given_ideal: Ideal | None
    ring: PolyRing
    points: ProjectivePointSet | None = None

    @cached_property
    def X(self) -> ProjectivePointSet | None:
        if self.given_ideal is None:
            return self.points
        q, s = self.config.q, self.config.s
        rows = zero_set(all_projective_points(q, s), self.given_ideal.gens)
        return ProjectivePointSet(self.ring.field, rows) if len(rows) else None

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
    if config.source == "torus":
        if config.s < 2:
            raise ConfigError("torus needs s >= 2")
        X = projective_torus(config.q, config.s)
        return Problem(config, order, None, PolyRing(fieldq, config.s), X)
    if config.source == "cartesian":
        try:
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
        return Problem(config, order, None, PolyRing(fieldq, X.s), X)
    ring = PolyRing(fieldq, config.s)
    gens = [_parse_generator(ring, g) for g in config.generators]
    return Problem(config, order, Ideal(ring, gens, order), ring)


def certification_report(problem: Problem) -> tuple[bool, list[str]]:
    """Mutual membership between the supplied ideal and the vanishing ideal
    of its zero set; reports the first failing generator per direction."""
    given = problem.given_ideal
    point_ideal = problem.point_ideal()
    lines = []
    ok = True
    for g in given.groebner_basis():
        if not point_ideal.normal_form(g).is_zero():
            lines.append(f"I <= I_X: FAIL at {g.format(problem.order)}")
            ok = False
            break
    else:
        lines.append("I <= I_X: ok")
    for g in point_ideal.groebner_basis():
        if not given.normal_form(g).is_zero():
            lines.append(f"I_X <= I: FAIL at {g.format(problem.order)}")
            ok = False
            break
    else:
        lines.append("I_X <= I: ok")
    return ok, lines


def require_points(problem: Problem) -> ProjectivePointSet:
    if problem.X is None:
        raise ConfigError("the supplied ideal has an empty zero set")
    return problem.X


def require_certified(problem: Problem):
    if problem.given_ideal is None:
        return
    require_points(problem)
    ok, lines = certification_report(problem)
    if not ok:
        raise ConfigError(
            "ideal is not the vanishing ideal of its zero set; "
            + "; ".join(line for line in lines if "FAIL" in line)
        )


def render_table(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = []
    for row in [header] + rows:
        out.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(out) + "\n"


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def render(header, rows, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(list(header), rows)
    return render_table(list(header), rows)


def _hilbert_rows(problem: Problem) -> tuple[list[list[str]], Ideal]:
    ideal = problem.working_ideal()
    try:
        summary = ideal.quotient_summary()
    except UnsupportedDimensionError as exc:
        raise ConfigError(str(exc)) from None
    dmax = problem.config.dmax or (summary.reg_index if summary.reg_index else 1)
    rows = [[str(d), str(ideal.hilbert_function(d))] for d in range(1, dmax + 1)]
    return rows, ideal


def cmd_hilbert(problem: Problem, args) -> tuple[str, int]:
    rows, ideal = _hilbert_rows(problem)
    summary = ideal.quotient_summary()
    body = render(("d", "H"), rows, args.format)
    if args.format == "table":
        body += f"deg = {summary.degree}, reg = {summary.reg_index}\n"
    return body, 0


def cmd_vanishing_ideal(problem: Problem, args) -> tuple[str, int]:
    X = require_points(problem)
    ideal = problem.point_ideal()
    lines = [g.format(problem.order) for g in ideal.groebner_basis()]
    if problem.given_ideal is not None:
        _, report = certification_report(problem)
        lines.extend(report)
    summary = ideal.quotient_summary()
    lines.append(f"n = {len(X)}, deg = {summary.degree}, reg = {summary.reg_index}")
    return "\n".join(lines) + "\n", 0


def cmd_code_info(problem: Problem, args) -> tuple[str, int]:
    X = require_points(problem)
    ideal = problem.point_ideal()
    summary = ideal.quotient_summary()
    if problem.config.queries:
        dvals = sorted(
            {
                d
                for query in problem.config.queries
                for d in range(query.d_range[0], query.d_range[1] + 1)
            }
        )
    else:
        dmax = problem.config.dmax or summary.reg_index or 1
        dvals = list(range(1, dmax + 1))
    rows = [
        [str(d), str(len(X)), str(ideal.hilbert_function(d)), str(summary.reg_index)]
        for d in dvals
    ]
    return render(("d", "n", "k", "reg"), rows, args.format), 0


def _subcode_for(code, g_strings, k1):
    polys = [_parse_generator(code.ring, g) for g in g_strings]
    try:
        sub = validate_subcode(code, polys)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if sub.k1 != k1:
        raise ConfigError(f"k1 = {k1} but G has rank {sub.k1}")
    return sub


def _expand_queries(problem: Problem):
    """Yield (query_spec, d) pairs in deterministic config order."""
    queries = problem.config.queries
    if not queries:
        raise ConfigError("this command needs at least one [query] block")
    for query in queries:
        for d in range(query.d_range[0], query.d_range[1] + 1):
            yield query, d


def _report_budget(lineno, d: int, r: int, exc: BudgetExceededError):
    """One stderr line per cell marked '!': where, and what the budget was."""
    print(f"line {lineno}, d={d}, r={r}: {exc}", file=sys.stderr)


def cmd_weights(problem: Problem, args) -> tuple[str, int]:
    X = require_points(problem)
    require_certified(problem)
    rows: list[list[str]] = []
    budget_hit = False
    codes: dict = {}
    profiles: dict = {}
    for query, d in _expand_queries(problem):
        if d not in codes:
            codes[d] = build_code(X, d, problem.order)
        code = codes[d]
        sub = _subcode_for(code, query.g_strings, query.k1)
        rmax = code.k - sub.k1
        if rmax < 1:
            raise ConfigError(
                f"line {query.lineno}: k1 = {sub.k1} leaves no valid rank at d = {d}"
            )
        if query.r_range is None:
            r_lo, r_hi = 1, rmax
        else:
            r_lo, r_hi = query.r_range
            if r_hi > rmax:
                raise ConfigError(
                    f"line {query.lineno}: r up to {r_hi} exceeds k - k1 = {rmax} at d = {d}"
                )
        key = (d, r_hi)
        if key not in profiles:
            try:
                profile = FootprintProfile(code.ideal, d, r_hi, args.budget)
                profile.candidate_count(r_hi)  # counts every rank for cand_mono
                profiles[key] = profile
            except BudgetExceededError as exc:
                profiles[key] = exc
        profile = profiles[key]
        for r in range(r_lo, r_hi + 1):
            started = time.perf_counter()
            if isinstance(profile, BudgetExceededError):
                fp_val = cand_mono = BUDGET_MARK
                _report_budget(query.lineno, d, r, profile)
                budget_hit = True
            else:
                fp_val = str(profile.value(r))
                cand_mono = str(profile.candidate_count(r))
            try:
                scan = CandidateScan(code, r, sub, args.budget)
            except BudgetExceededError as exc:
                weight = cand_poly = BUDGET_MARK
                _report_budget(query.lineno, d, r, exc)
                budget_hit = True
            else:
                weight, cand_poly = str(scan.min_support), str(scan.family_count)
            # delta, vasconcelos and M_r are one number for a vanishing ideal
            mr = weight if args.with_bruteforce else "-"
            ms = str(int((time.perf_counter() - started) * 1000))
            rows.append(
                [
                    str(d), str(r), str(sub.k1), ";".join(query.g_strings),
                    fp_val, weight, weight, mr,
                    str(singleton_bound(code, sub, r)),
                    cand_poly, cand_mono, ms,
                ]
            )
    return render(WEIGHTS_HEADER, rows, args.format), 3 if budget_hit else 0


def cmd_matrix(problem: Problem, args) -> tuple[str, int]:
    config = problem.config
    if config.function is None:
        raise ConfigError("matrix mode needs a function key (fp | delta | vasconcelos | bruteforce)")
    function = config.function
    needs_points = function != "fp"
    if needs_points:
        X = require_points(problem)
    if function in ("delta", "vasconcelos"):
        require_certified(problem)
    ideal = problem.working_ideal()
    try:
        summary = ideal.quotient_summary()
    except UnsupportedDimensionError as exc:
        raise ConfigError(str(exc)) from None
    dmax = config.dmax or summary.reg_index or 1
    if config.k1 and dmax != 1:
        raise ConfigError("matrix mode with k1 > 0 needs a single degree (set dmax = 1)")
    budget_hit = False
    per_d: list[tuple[int, int, object, object]] = []
    for d in range(1, dmax + 1):
        if needs_points:
            code = build_code(X, d, problem.order)
            sub = _subcode_for(code, config.g_strings, config.k1)
            per_d.append((d, code.k - sub.k1, code, sub))
        else:
            # fp has no code, so G is checked for its degree but not for
            # independence
            for poly in (_parse_generator(problem.ring, g) for g in config.g_strings):
                if poly.degree() != d:
                    raise ConfigError(
                        f"subcode generator {poly.format()} is not homogeneous of degree {d}"
                    )
            per_d.append((d, ideal.hilbert_function(d) - config.k1, None, None))
    rmax = max(entry[1] for entry in per_d)
    if rmax < 1:
        raise ConfigError("k1 leaves no valid rank anywhere in the degree range")
    header = ("d",) + tuple(f"r{r}" for r in range(1, rmax + 1))
    rows = []
    for d, kk, code, sub in per_d:
        cells = [str(d)]
        profile = None
        if function == "fp":
            try:
                profile = FootprintProfile(ideal, d, kk, args.budget)
            except BudgetExceededError as exc:
                profile = exc
        for r in range(1, rmax + 1):
            if r > kk:
                cells.append("-")
                continue
            try:
                if isinstance(profile, BudgetExceededError):
                    raise profile
                if function == "fp":
                    cells.append(str(profile.value(r)))
                else:
                    cells.append(str(CandidateScan(code, r, sub, args.budget).min_support))
            except BudgetExceededError as exc:
                cells.append(BUDGET_MARK)
                _report_budget(config.function_lineno, d, r, exc)
                budget_hit = True
        rows.append(cells)
    return render(header, rows, args.format), 3 if budget_hit else 0


COMMANDS = {
    "hilbert": cmd_hilbert,
    "vanishing-ideal": cmd_vanishing_ideal,
    "code-info": cmd_code_info,
    "weights": cmd_weights,
    "matrix": cmd_matrix,
}


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
                        help="also compute M_r by exhaustive subspace search")
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
