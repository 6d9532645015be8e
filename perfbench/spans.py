"""In-memory spans around rghw's public functions, for the traced runs.

`install(tracer)` replaces each wrapped function in every rghw module that
binds it (``rghw.weights.CandidateScan`` and ``rghw.cli.CandidateScan`` are
one function looked up in two places), and returns a function that puts the
originals back.  Spans record a name, start, end, the parent span and the CLI
call they belong to; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^k (rghw.linalg has the same
    closed form; the counters do not depend on the code they measure)."""
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, call, nested]
        self.counters: Counter = Counter()
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.call: int | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.call = sid
        nested = self._depth[name] > 0
        self.spans.append([sid, parent, name, time.perf_counter(), None, self.call, nested])
        self._stack.append(sid)
        self._depth[name] += 1
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        self._stack.pop()
        self._depth[span[2]] -= 1

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total time of the outermost spans of that name,
        self time, and the number of spans."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for sid, _, name, start, end, _, nested in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[sid]
            if not nested:
                entry["s"] += end - start
        return dict(out)

    def dump(self) -> dict:
        return {
            "span_columns": ["id", "parent", "name", "start", "end", "call", "nested"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "errors": self.errors,
        }


def _count_footprint(tracer, profile, args):
    tracer.counters["footprint.subsets"] += sum(profile.counts)


def _count_candidate_scan(tracer, scan, args):
    query = args[0]
    subspaces = gaussian_binomial(query.code.k, query.r, query.code.q)
    tracer.counters["scan.passes"] += 1
    tracer.counters["scan.subspaces"] += subspaces
    tracer.counters["scan.candidate_subspaces"] += subspaces
    tracer.counters["scan.cand_poly"] += scan.family_count


def _count_bruteforce(tracer, result, args):
    code, _, r = args[:3]
    tracer.counters["scan.passes"] += 1
    tracer.counters["scan.subspaces"] += gaussian_binomial(code.k, r, code.q)


# (module, attribute, span name, counter hook); "Class.method" patches the
# method on the class.  A name that rghw no longer has is skipped, so its
# metrics read 0 instead of stopping the run.
SPANNED = (
    ("rghw.cli", "load_problem", "cli.load_problem", None),
    ("rghw.codes", "build_code", "codes.build_code", None),
    ("rghw.codes", "rghw_bruteforce", "codes.rghw_bruteforce", _count_bruteforce),
    ("rghw.points", "vanishing_ideal", "points.vanishing_ideal", None),
    ("rghw.groebner", "buchberger", "groebner.buchberger", None),
    ("rghw.groebner", "Ideal.quotient_summary", "groebner.quotient_summary", None),
    ("rghw.linalg", "rref", "linalg.rref", None),
    ("rghw.weights", "FootprintProfile", "weights.FootprintProfile", _count_footprint),
    ("rghw.weights", "CandidateScan", "weights.CandidateScan", _count_candidate_scan),
    ("rghw.weights", "rgmdf", "weights.rgmdf", None),
    ("rghw.weights", "vasconcelos", "weights.vasconcelos", None),
)
# (module, attribute, counter): called too often for a span each
COUNTED = (
    ("rghw.groebner", "normal_form", "groebner.normal_form.calls"),
)


def _spanned(tracer: Tracer, name: str, fn, hook):
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            try:
                hook(tracer, result, args)
            except Exception as exc:  # a changed signature must not fail the call
                tracer.errors.append(f"{name}: {exc!r}")
        return result

    return wrapper


def _counted(tracer: Tracer, counter: str, fn):
    def wrapper(*args, **kwargs):
        tracer.counters[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer):
    """Wrap every function in SPANNED and COUNTED wherever rghw looks it up;
    returns the function that restores the originals."""
    undo = []
    targets = [(m, a, lambda fn, n=n, h=h: _spanned(tracer, n, fn, h)) for m, a, n, h in SPANNED]
    targets += [(m, a, lambda fn, c=c: _counted(tracer, c, fn)) for m, a, c in COUNTED]
    for module_name, attr, make in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            original = vars(owner).get(method) if owner is not None else None
            if original is not None:
                setattr(owner, method, make(original))
                undo.append((owner, method, original))
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "rghw" or mod_name.startswith("rghw.")) and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
