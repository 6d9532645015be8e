"""The documented entry points: the README's library quick start runs and
prints what its comments say, its list of matrix functions and the limits
it states are the code's, every exported name resolves, and the public
constructors refuse bad input with their own message."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

import rghw
from rghw import cli, linalg, points, weights
from rghw.points import projective_zero_set

README = Path(__file__).resolve().parents[1] / "README.md"
QUICK_START_OUTPUT = ["1 4 4 5", "2 6 6 6", "3 7 7 7"]


def quick_start_block():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_commented_output():
    block = quick_start_block()
    commented = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert commented == QUICK_START_OUTPUT
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == QUICK_START_OUTPUT


def test_readme_lists_the_matrix_functions():
    listed = re.findall(r"`function = ([^`]*)`", README.read_text())
    assert listed and all(tuple(entry.split(" | ")) == cli.FUNCTIONS for entry in listed)


def _power(text):
    base, exponent = text.split("^")
    return int(base) ** int(exponent)


def test_readme_limits_match_the_code():
    text = " ".join(README.read_text().split())
    stated = {name: _power(v) for name, v in re.findall(r"`points\.(MAX_\w+)` = (2\^\d+)", text)}
    assert stated == {"MAX_POINTS": points.MAX_POINTS, "MAX_SEARCHED": points.MAX_SEARCHED}
    [(zeros, space)] = re.findall(
        r"more than (2\^\d+) points \(for an ideal, its zero set; "
        r"P\^\(s-1\)\(F_q\) itself may have up to (2\^\d+)\)", text)
    assert (_power(zeros), _power(space)) == (points.MAX_POINTS, points.MAX_SEARCHED)
    [step] = re.findall(r"one numpy step \((2\^\d+) masks\)", text)
    assert _power(step) == weights._SCAN_BATCH


def test_every_exported_name_resolves():
    assert len(rghw.__all__) == len(set(rghw.__all__))
    for name in rghw.__all__:
        assert getattr(rghw, name) is not None, name


TORUS = rghw.projective_torus(3, 3)
REFUSALS = {
    "code of degree 0": (
        lambda: rghw.EvaluationCode(TORUS, 0),
        ValueError, "degree must be at least 1, got 0"),
    "subcode entry given as text": (
        lambda: rghw.validate_subcode(rghw.build_code(TORUS, 1), ["t1"]),
        ValueError, "expected a polynomial, got str"),
    "float modulus": (
        lambda: rghw.PrimeField(5.0),
        TypeError, "modulus must be an int, got float"),
    "rref of a vector": (
        lambda: linalg.rref(np.arange(3), 5),
        ValueError, "expected a 2-dimensional array, got shape (3,)"),
    "points without coordinates": (
        lambda: rghw.ProjectivePointSet(rghw.PrimeField(5), np.zeros((2, 0), dtype=np.int64)),
        ValueError, "projective point needs a nonzero coordinate"),
    "torus on a line": (
        lambda: rghw.projective_torus(5, 1),
        ValueError, "ambient dimension s must be at least 2, got 1"),
    "cartesian set without factors": (
        lambda: rghw.affine_cartesian(5, []),
        ValueError, "need at least one factor"),
    "cartesian set with an empty factor": (
        lambda: rghw.affine_cartesian(5, [[0], []]),
        ValueError, "factor 2 is empty"),
    "projective space of no dimension": (
        lambda: rghw.all_projective_points(5, 0),
        ValueError, "ambient dimension s must be at least 1, got 0"),
    "points text with only a comment": (
        lambda: rghw.parse_points("# nothing\n", 5),
        ValueError, "no points in input"),
    "zero set in no dimension": (
        lambda: projective_zero_set(5, 0, []),
        ValueError, "ambient dimension s must be at least 1, got 0"),
    "ring without variables": (
        lambda: rghw.PolyRing(5, 0),
        ValueError, "need at least one variable, got 0"),
    "ideal generator given as text": (
        lambda: rghw.Ideal(rghw.PolyRing(3, 2), ["t1"]),
        ValueError, "generator 't1' does not live in GF(3)[t1,t2]"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_public_constructors_refuse_bad_input(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
