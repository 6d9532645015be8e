"""Command line behavior: config parsing, golden outputs, exit codes, and
rerun determinism.  The ms column is wall time and is masked before any
byte comparison."""

import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from oracles import certification_by_normal_forms
from rghw import cli, points, weights
from rghw.cli import main, parse_config, ConfigError
from rghw.groebner import Ideal
from rghw.polyring import ORDERS, PolyRing


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mask_ms(csv_text):
    lines = csv_text.rstrip("\n").split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[-1] = "MS"
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


TORUS2_IDEAL_CFG = """
# torus in the projective plane, presented by its binomial ideal
q = 5
s = 3
source = ideal
generators = t1^4 - t3^4 ; t2^4 - t3^4
function = fp
dmax = 6
"""

TORUS3_CFG = """
q = 3
s = 4
source = torus

[query]
d = 1
r = all
k1 = 1
G = t1
"""


@pytest.fixture
def torus2_cfg(tmp_path):
    path = tmp_path / "torus2.cfg"
    path.write_text(TORUS2_IDEAL_CFG)
    return str(path)


@pytest.fixture
def torus3_cfg(tmp_path):
    path = tmp_path / "torus3.cfg"
    path.write_text(TORUS3_CFG)
    return str(path)


def test_hilbert_table(capsys, torus2_cfg):
    code, out, err = run(capsys, ["hilbert", "--config", torus2_cfg])
    assert code == 0 and err == ""
    assert out == (
        "d   H\n"
        "1   3\n"
        "2   6\n"
        "3  10\n"
        "4  13\n"
        "5  15\n"
        "6  16\n"
        "deg = 16, reg = 6\n"
    )


def test_hilbert_csv(capsys, torus2_cfg):
    code, out, err = run(capsys, ["hilbert", "--config", torus2_cfg, "--format", "csv"])
    assert code == 0
    assert out == "d,H\n1,3\n2,6\n3,10\n4,13\n5,15\n6,16\n"


def test_matrix_golden(capsys, torus2_cfg):
    code, out, err = run(capsys, ["matrix", "--config", torus2_cfg, "--format", "csv"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "d," + ",".join(f"r{r}" for r in range(1, 17))
    expected = [
        "1,12,15,16,-,-,-,-,-,-,-,-,-,-,-,-,-",
        "2,8,11,12,14,15,16,-,-,-,-,-,-,-,-,-,-",
        "3,4,7,8,10,11,12,13,14,15,16,-,-,-,-,-,-",
        "4,3,4,6,7,8,9,10,11,12,13,14,15,16,-,-,-",
        "5,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,-",
        "6,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
    ]
    assert lines[1:] == expected


def test_weights_csv_golden(capsys, torus3_cfg):
    code, out, err = run(capsys, ["weights", "--config", torus3_cfg, "--format", "csv",
                                  "--with-bruteforce"])
    assert code == 0
    assert mask_ms(out) == (
        "d,r,k1,G,fp,delta,vasconcelos,Mr,singleton,cand_poly,cand_mono,ms\n"
        "1,1,1,t1,4,4,4,4,5,36,3,MS\n"
        "1,2,1,t1,6,6,6,6,6,76,3,MS\n"
        "1,3,1,t1,7,7,7,7,7,8,1,MS\n"
    )


def test_weights_without_bruteforce_dashes_Mr(capsys, torus3_cfg):
    code, out, err = run(capsys, ["weights", "--config", torus3_cfg, "--format", "csv"])
    assert code == 0
    for line in out.rstrip("\n").split("\n")[1:]:
        assert line.split(",")[7] == "-"


def test_weights_checks_each_row_group_once(capsys, tmp_path, monkeypatch):
    # one scan per (query, degree) group: G's rank is checked once for the
    # four rows at d = 1 (k = 4) and once for the seven at d = 2 (k = 7)
    checked = []
    rank_of = weights.matrix_rank
    monkeypatch.setattr(weights, "matrix_rank", lambda G, q: checked.append(len(G)) or rank_of(G, q))
    (tmp_path / "t.cfg").write_text("q = 3\ns = 4\nsource = torus\n[query]\nd = 1..2\nr = all\n")
    status, out, _ = run(capsys, ["weights", "--config", str(tmp_path / "t.cfg")])
    assert (status, len(out.splitlines()), checked) == (0, 12, [4, 7])


def test_reruns_are_identical(capsys, torus3_cfg):
    _, first, _ = run(capsys, ["weights", "--config", torus3_cfg, "--format", "csv"])
    _, second, _ = run(capsys, ["weights", "--config", torus3_cfg, "--format", "csv"])
    assert mask_ms(first) == mask_ms(second)


def test_vanishing_ideal_with_certificate(capsys, torus2_cfg):
    code, out, err = run(capsys, ["vanishing-ideal", "--config", torus2_cfg])
    assert code == 0
    assert out == (
        "t2^4 + 4*t3^4\n"
        "t1^4 + 4*t3^4\n"
        "I <= I_X: ok\n"
        "I_X <= I: ok\n"
        "n = 16, deg = 16, reg = 6\n"
    )


def test_code_info(capsys, torus3_cfg):
    code, out, err = run(capsys, ["code-info", "--config", torus3_cfg, "--format", "csv"])
    assert code == 0
    assert out == "d,n,k,reg\n1,8,4,3\n"


def test_file_source(capsys, tmp_path):
    (tmp_path / "pts.txt").write_text("# three collinear points\n1:0:1\n0:1:1\n1:1:2\n")
    (tmp_path / "file.cfg").write_text(
        "q = 3\nsource = file\npoints_file = pts.txt\n\n[query]\nd = 1\nr = all\n"
    )
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "file.cfg"),
                                  "--format", "csv"])
    assert code == 0
    assert len(out.rstrip("\n").split("\n")) >= 2


def test_config_error_unknown_key(capsys, tmp_path):
    (tmp_path / "bad.cfg").write_text("q = 3\nsource = torus\ns = 3\nwhat = 1\n")
    code, out, err = run(capsys, ["hilbert", "--config", str(tmp_path / "bad.cfg")])
    assert code == 2
    assert "line 4" in err


def test_config_error_nonprime(capsys, tmp_path):
    (tmp_path / "bad.cfg").write_text("q = 6\nsource = torus\ns = 3\n")
    code, out, err = run(capsys, ["hilbert", "--config", str(tmp_path / "bad.cfg")])
    assert code == 2
    assert "prime" in err


def test_config_error_missing_file(capsys):
    code, out, err = run(capsys, ["hilbert", "--config", "/nonexistent.cfg"])
    assert code == 2


TORUS_KEYS = "q = 3\ns = 3\nsource = torus\n"
# (command, config, stderr line): one case per refusal no other test reaches;
# {dir} stands for the config's resolved directory
CONFIG_ERRORS = {
    "integer key": ("hilbert", "q = x\nsource = torus\ns = 3\n",
                    "line 1: q must be an integer, got 'x'"),
    "empty d range": ("hilbert", TORUS_KEYS + "[query]\nd = 3..1\n",
                      "line 5: bad d range '3..1'"),
    "line without =": ("hilbert", TORUS_KEYS + "dmax 2\n",
                       "line 4: expected key = value, got 'dmax 2'"),
    "unknown source": ("hilbert", "q = 3\ns = 3\nsource = moon\n",
                       "line 3: source must be one of torus, cartesian, file, ideal, "
                       "got 'moon'"),
    "empty factor": ("hilbert", "q = 3\nsource = cartesian\nfactors = 0 1 ;\n",
                     "line 3: empty cartesian factor"),
    "empty generators": ("hilbert", "q = 3\ns = 3\nsource = ideal\ngenerators = ;\n",
                         "line 4: generators list is empty"),
    "unknown function": ("hilbert", TORUS_KEYS + "function = magic\n",
                         "line 4: function must be one of fp, delta, vasconcelos, got 'magic'"),
    "unknown query key": ("hilbert", TORUS_KEYS + "[query]\nd = 1\nx = 1\n",
                          "line 6: unknown query key 'x'"),
    "no q": ("hilbert", "s = 3\nsource = torus\n", "missing required key: q"),
    "torus without s": ("hilbert", "q = 3\nsource = torus\n", "torus source needs s"),
    "cartesian without factors": ("hilbert", "q = 3\nsource = cartesian\n",
                                  "cartesian source needs factors"),
    "file without name": ("hilbert", "q = 3\nsource = file\n",
                          "file source needs points_file"),
    "ideal without s": ("hilbert", "q = 3\nsource = ideal\ngenerators = t1\n",
                        "ideal source needs s"),
    "ideal without generators": ("hilbert", "q = 3\ns = 3\nsource = ideal\n",
                                 "ideal source needs generators"),
    "s against factors": ("hilbert", "q = 3\ns = 4\nsource = cartesian\nfactors = 0 1 ; 0 1\n",
                          "s = 4 contradicts 2 cartesian factors"),
    "k1 without G": ("hilbert", TORUS_KEYS + "k1 = 1\n", "k1 = 1 but G lists 0 polynomials"),
    "zero generator": ("hilbert", "q = 3\ns = 3\nsource = ideal\ngenerators = t1 - t1\n",
                       "zero polynomial in generator list: 't1 - t1'"),
    "inhomogeneous generator": ("hilbert",
                                "q = 3\ns = 3\nsource = ideal\ngenerators = t1^2 - t2\n",
                                "generator 't1^2 - t2' is not homogeneous"),
    "torus on a line": ("hilbert", "q = 3\ns = 1\nsource = torus\n", "torus needs s >= 2"),
    "missing points file": ("hilbert", "q = 3\nsource = file\npoints_file = missing.txt\n",
                            "cannot read points file: [Errno 2] No such file or directory: "
                            "'{dir}/missing.txt'"),
    "points file without points": ("hilbert",
                                   "q = 3\nsource = file\npoints_file = empty.txt\n",
                                   "empty.txt: no points in input"),
    "positive-dimensional quotient": ("hilbert",
                                      "q = 3\ns = 3\nsource = ideal\ngenerators = t1\n",
                                      "quotient has dimension 2; only dimensions 0 and 1 "
                                      "are supported"),
    "weights without queries": ("weights", TORUS_KEYS,
                                "this command needs at least one [query] block"),
    "query subcode fills the code": ("weights",
                                     TORUS_KEYS + "[query]\nd = 1\nk1 = 3\nG = t1 ; t2 ; t3\n",
                                     "line 4: k1 = 3 leaves no valid rank at d = 1"),
    "matrix subcode over degrees": ("matrix",
                                    TORUS_KEYS + "function = delta\ndmax = 2\nk1 = 1\nG = t1\n",
                                    "matrix mode with k1 > 0 needs a single degree "
                                    "(set dmax = 1)"),
    "matrix subcode fills the code": ("matrix", TORUS_KEYS + "function = delta\ndmax = 1\n"
                                      "k1 = 3\nG = t1 ; t2 ; t3\n",
                                      "k1 leaves no valid rank anywhere in the degree range"),
    "fp matrix of a finite quotient": ("matrix", "q = 3\ns = 3\nsource = ideal\n"
                                       "generators = t1 ; t2 ; t3\nfunction = fp\n",
                                       "H(d) - k1 < 1 at every degree in the range, "
                                       "so no rank is valid"),
    "factors on a torus": ("hilbert", TORUS_KEYS + "factors = 0 1 ; 0 1\n",
                           "factors is read only with source = cartesian, not torus"),
    "points_file on an ideal": ("hilbert", "q = 3\ns = 3\nsource = ideal\ngenerators = t1\n"
                                "points_file = empty.txt\n",
                                "points_file is read only with source = file, not ideal"),
    "generators on a file": ("hilbert", "q = 3\nsource = file\npoints_file = plane.txt\n"
                             "generators = t1\n",
                             "generators is read only with source = ideal, not file"),
    "s against a points file": ("hilbert", "q = 3\ns = 5\nsource = file\n"
                                "points_file = plane.txt\n",
                                "line 2: s = 5 contradicts the 3 coordinates of the points "
                                "in plane.txt"),
    # the degree-1 code passes and its rank-1 scan would run over budget; the
    # degree-2 code (k = 3) is too long for q, and is refused before any scan
    "q too large for a later code": ("matrix", "q = 2147483647\nsource = file\n"
                                     "points_file = line.txt\nfunction = delta\ndmax = 2\n",
                                     "q = 2147483647 is too large for exact int64 arithmetic: "
                                     "(q - 1)^2 * 3 must stay below 2^63, which needs "
                                     "q <= 1753413057"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_2_with_its_message(capsys, tmp_path, case):
    command, text, message = CONFIG_ERRORS[case]
    (tmp_path / "empty.txt").write_text("# nothing\n")
    (tmp_path / "plane.txt").write_text("1:0:0\n0:1:0\n0:0:1\n")
    (tmp_path / "line.txt").write_text("1:0\n0:1\n1:1\n")
    (tmp_path / "bad.cfg").write_text(text)
    message = message.format(dir=tmp_path.resolve())
    assert run(capsys, [command, "--config", str(tmp_path / "bad.cfg")]) == (
        2, "", f"config error: {message}\n")


def test_certification_failure_reports_direction(capsys, tmp_path):
    # (t1*t2) cuts out the two coordinate points but is smaller than their
    # vanishing ideal, so the I_X <= I direction must fail
    (tmp_path / "small.cfg").write_text(
        "q = 3\ns = 3\nsource = ideal\ngenerators = t1*t2\n\n[query]\nd = 1\nr = 1\n"
    )
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "small.cfg")])
    assert code == 2
    assert "I_X <= I: FAIL" in err


def test_certification_matches_normal_form_oracle(seed=4411):
    # random homogeneous ideals with a nonempty zero set: the initial-ideal
    # report equals the two normal-form walks, and I <= I_X never fails
    rng = random.Random(seed)
    outcomes = {True: 0, False: 0}
    while min(outcomes.values()) < 150:
        q, s = rng.choice([2, 3, 5]), rng.choice([2, 3])
        order = ORDERS[rng.choice(sorted(ORDERS))]
        ring = PolyRing(q, s)
        gens = []
        for _ in range(rng.randint(1, 3)):
            monomials = ring.monomials_of_degree(rng.randint(1, 3))
            picked = rng.sample(monomials, rng.randint(1, min(3, len(monomials))))
            gens.append(ring.from_terms({m: rng.randrange(1, q) for m in picked}))
        config = cli.ProblemConfig(q=q, s=s, source="ideal")
        problem = cli.Problem(config, order, Ideal(ring, gens, order), ring)
        if problem.X is None:
            continue
        report = cli.certification_report(problem)
        assert report == certification_by_normal_forms(problem), [g.format() for g in gens]
        assert report[1][0] == "I <= I_X: ok"
        outcomes[report[0]] += 1


def test_uncertified_ideal_still_allowed_for_fp_matrix(capsys, tmp_path):
    # not radical: its zero set is the single point [0:0:1] whose vanishing
    # ideal is (t1, t2), so certification would fail, but fp needs no points
    (tmp_path / "small.cfg").write_text(
        "q = 3\ns = 3\nsource = ideal\ngenerators = t1^2 ; t1*t2 ; t2^2\n"
        "function = fp\ndmax = 2\n"
    )
    code, out, err = run(capsys, ["matrix", "--config", str(tmp_path / "small.cfg")])
    assert code == 0
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "small.cfg")])
    assert code == 2


def test_budget_exhaustion_marks_and_exit_3(capsys, tmp_path):
    (tmp_path / "t.cfg").write_text("q = 5\ns = 3\nsource = torus\n\n[query]\nd = 1\nr = all\n")
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "t.cfg"),
                                  "--format", "csv", "--budget", "10"])
    assert code == 3
    lines = out.rstrip("\n").split("\n")
    assert lines[1].split(",")[5] == "!"  # delta for r = 1 needs 31 > 10
    assert lines[3].split(",")[5] == "16"  # the single r = 3 subspace still fits
    # one stderr line per marked row, naming the [query] line, d, r and the
    # columns the scan fills
    assert err == (
        "line 5, d=1, r=1, delta/vasconcelos/cand_poly: "
        "enumeration needs 31 candidates, budget is 10\n"
        "line 5, d=1, r=2, delta/vasconcelos/cand_poly: "
        "enumeration needs 31 candidates, budget is 10\n"
    )


def test_budget_marks_counts_past_the_int_to_str_digit_limit(capsys, tmp_path):
    # the torus of P^3 over F_7 at d = 9 has k = 216: its r = 44 scan needs
    # more than 10^4313 subspaces, past the 4300 digits str() converts
    (tmp_path / "t.cfg").write_text(
        "q = 7\ns = 4\nsource = torus\nfunction = delta\ndmax = 9\n"
    )
    code, out, err = run(capsys, ["matrix", "--config", str(tmp_path / "t.cfg")])
    assert code == 3
    assert "!" in out.splitlines()[-1]
    assert "line 4, d=9, r=44: enumeration needs more than 10^4313 candidates, " \
        "budget is 10000000\n" in err
    assert "Traceback" not in err


def test_budget_weighs_the_subspaces_a_subcode_leaves(capsys, tmp_path):
    # with k1 = 1 the scan visits 5 [2, 1]_5 = 30 and 25 [2, 2]_5 = 25
    # subspaces, not the [3, r]_5 = 31 of the whole code
    (tmp_path / "t.cfg").write_text(
        "q = 5\ns = 3\nsource = torus\n\n[query]\nd = 1\nr = all\nk1 = 1\nG = t1\n"
    )
    argv = ["weights", "--config", str(tmp_path / "t.cfg"), "--format", "csv",
            "--with-bruteforce"]
    code, out, err = run(capsys, argv + ["--budget", "10"])
    assert code == 3
    assert err == (
        "line 5, d=1, r=1, delta/vasconcelos/Mr/cand_poly: "
        "enumeration needs 30 candidates, budget is 10\n"
        "line 5, d=1, r=2, delta/vasconcelos/Mr/cand_poly: "
        "enumeration needs 25 candidates, budget is 10\n"
    )
    # a budget of exactly the visited count finishes both rows, as the
    # default budget does
    code, out, err = run(capsys, argv + ["--budget", "30"])
    assert (code, err) == (0, "")
    assert mask_ms(out) == mask_ms(run(capsys, argv)[1])
    assert out.splitlines()[1].split(",")[4:10] == ["12", "12", "12", "12", "14", "28"]


@pytest.mark.parametrize("budget", ["-3", "-1"])
def test_negative_budget_is_usage_error(capsys, torus3_cfg, budget):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--config", torus3_cfg, "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rghw")
    assert f"argument --budget: must be nonnegative, got {budget}" in captured.err


def test_zero_budget_is_accepted(capsys, torus3_cfg):
    code, out, err = run(capsys, ["weights", "--config", torus3_cfg, "--budget", "0"])
    assert code == 3
    assert out.startswith("d  r") and "!" in out


def test_ideal_zero_set_is_enumerated_only_when_read(capsys, tmp_path, monkeypatch):
    # -1 is no square mod 3, so these quadrics share no point of P^2(F_3)
    (tmp_path / "t.cfg").write_text(
        "q = 3\ns = 3\nsource = ideal\ngenerators = t1^2 + t2^2 ; t2^2 + t3^2\n"
        "function = fp\ndmax = 2\n\n[query]\nd = 1\n"
    )
    argv = ["--config", str(tmp_path / "t.cfg")]

    def refuse(q, s, polys):
        raise AssertionError("P^(s-1)(F_q) searched")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "projective_zero_set", refuse)
        assert run(capsys, ["matrix"] + argv) == (
            0, "d  r1  r2  r3  r4\n1   2   3   4   -\n2   1   2   3   4\n", "")
        assert run(capsys, ["hilbert"] + argv)[0] == 0
    for command in ("weights", "vanishing-ideal", "code-info"):
        assert run(capsys, [command] + argv) == (
            2, "", "config error: the supplied ideal has an empty zero set\n")


def test_footprint_walk_budget_marks_and_exit_3(capsys, tmp_path):
    (tmp_path / "t.cfg").write_text(
        "q = 5\ns = 3\nsource = ideal\ngenerators = t1^4 - t3^4 ; t2^4 - t3^4\n"
        "function = fp\ndmax = 2\n"
    )
    code, out, err = run(capsys, ["matrix", "--config", str(tmp_path / "t.cfg"),
                                  "--format", "csv", "--budget", "8"])
    assert code == 3
    # d = 1 expands 3 nodes; d = 2 needs 9, passes 8 and marks its 6 cells
    assert out == "d,r1,r2,r3,r4,r5,r6\n1,12,15,16,-,-,-\n2,!,!,!,!,!,!\n"
    assert err.splitlines() == [
        f"line 5, d=2, r={r}: enumeration passed the budget of 8 candidates"
        for r in range(1, 7)
    ]
    (tmp_path / "w.cfg").write_text(
        "q = 5\ns = 3\nsource = torus\n[query]\nd = 2\nr = 1..2\n"
    )
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "w.cfg"),
                                  "--format", "csv", "--budget", "10"])
    assert code == 3
    # the profile needs 4 nodes; the count needs 15 updates, so only
    # cand_mono (and the scan's cells) show '!', each line naming its columns
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [cells[4] for cells in rows] == ["8", "11"]
    assert all(cells[5] == cells[10] == "!" for cells in rows)
    assert err.splitlines() == [
        "line 4, d=2, r=1, cand_mono: enumeration passed the budget of 10 candidates",
        "line 4, d=2, r=1, delta/vasconcelos/cand_poly: "
        "enumeration needs 3906 candidates, budget is 10",
        "line 4, d=2, r=2, cand_mono: enumeration passed the budget of 10 candidates",
        "line 4, d=2, r=2, delta/vasconcelos/cand_poly: "
        "enumeration needs 508431 candidates, budget is 10",
    ]


def test_fp_is_printed_where_only_the_scan_overflows(capsys, tmp_path):
    # torus of P^2/F_7, d = 6 (k = 26): 25 of the 26 standard monomials
    # share a witness cell, so every subset of them is admissible; the
    # count makes 2,903 updates where a walk would pass 10^7 subsets
    (tmp_path / "t.cfg").write_text(
        "q = 7\ns = 3\nsource = torus\nfunction = fp\ndmax = 6\n\n[query]\nd = 6\nr = all\n"
    )
    argv = ["--config", str(tmp_path / "t.cfg"), "--format", "csv"]
    code, out, _ = run(capsys, ["matrix"] + argv)
    assert code == 0
    fp_row = out.splitlines()[-1].split(",")[1:]
    code, out, err = run(capsys, ["weights"] + argv)
    assert code == 3
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [cells[4] for cells in rows] == fp_row
    assert fp_row[:7] + fp_row[-1:] == ["5", "6", "10", "11", "12", "15", "16", "36"]
    assert [cells[10] for cells in rows] == [str(comb(25, r)) for r in range(1, 27)]
    assert [cells[5] for cells in rows] == ["!"] * 25 + ["36"]
    assert len(err.splitlines()) == 25


def test_config_errors_format_polynomials_in_the_run_order(capsys, tmp_path):
    # t2^3 leads under grevlex, t1*t3^2 under lex
    torus = "q = 5\ns = 3\nsource = torus\n"
    (tmp_path / "m.cfg").write_text(torus + "function = fp\ndmax = 1\nk1 = 1\nG = t2^3 + t1*t3^2\n")
    (tmp_path / "w.cfg").write_text(torus + "[query]\nd = 2\nk1 = 1\nG = t2^3 + t1*t3^2\n")
    for command, name, d in (("matrix", "m.cfg", 1), ("weights", "w.cfg", 2)):
        argv = [command, "--config", str(tmp_path / name)]
        for order, text in (("grevlex", "t2^3 + t1*t3^2"), ("lex", "t1*t3^2 + t2^3")):
            assert run(capsys, argv + ["--order", order]) == (
                2, "",
                f"config error: subcode generator {text} is not homogeneous of degree {d}\n",
            )


def test_r_out_of_range_is_config_error(capsys, tmp_path):
    (tmp_path / "t.cfg").write_text("q = 3\ns = 4\nsource = torus\n\n[query]\nd = 1\nr = 9\n")
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "t.cfg")])
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize("dmax", [-1, 0])
def test_dmax_below_one_is_config_error(capsys, tmp_path, dmax):
    # dmax = 0 must not read as unset, nor a negative dmax reach the grid code
    (tmp_path / "t.cfg").write_text(TORUS2_IDEAL_CFG.replace("dmax = 6", f"dmax = {dmax}"))
    for command in ("matrix", "hilbert"):
        code, out, err = run(capsys, [command, "--config", str(tmp_path / "t.cfg")])
        assert code == 2 and out == ""
        assert err == f"config error: line 8: dmax must be at least 1, got {dmax}\n"


@pytest.mark.parametrize("command", ["hilbert", "matrix", "vanishing-ideal"])
def test_ideal_source_without_variables_is_config_error(capsys, tmp_path, command):
    (tmp_path / "t.cfg").write_text(
        "q = 5\ns = 0\nsource = ideal\ngenerators = t1\nfunction = fp\n"
    )
    code, out, err = run(capsys, [command, "--config", str(tmp_path / "t.cfg")])
    assert code == 2 and out == ""
    assert err == "config error: line 2: ideal source needs s >= 1, got 0\n"


def test_k1_g_mismatch_is_config_error():
    with pytest.raises(ConfigError, match="k1 = 2 but G lists 1"):
        parse_config("q = 3\ns = 4\nsource = torus\n\n[query]\nd = 1\nk1 = 2\nG = t1\n")


@pytest.mark.parametrize("section", ["", "[query]\nd = 1\n"])
def test_negative_k1_is_refused_on_its_line(section):
    # the main section and a [query] block read k1 through one check
    text = "q = 3\ns = 4\nsource = torus\n" + section + "k1 = -1\n"
    line = len(text.splitlines())
    with pytest.raises(ConfigError, match=f"^line {line}: k1 must be nonnegative$"):
        parse_config(text)


def test_repeated_main_key_is_config_error(capsys, tmp_path):
    # a second q must not silently replace the first
    (tmp_path / "t.cfg").write_text("q = 3\nsource = torus\ns = 3\nq = 5\n")
    code, out, err = run(capsys, ["hilbert", "--config", str(tmp_path / "t.cfg")])
    assert code == 2 and out == ""
    assert err == "config error: line 4: q already set on line 1\n"


def test_repeated_query_key_is_config_error(capsys, tmp_path):
    # a key may recur across [query] blocks and the main section, never
    # within one block
    legal = "q = 3\ns = 4\nsource = torus\nk1 = 0\n\n[query]\nd = 1\nk1 = 0\n\n[query]\nd = 1\n"
    assert [q.d_range for q in parse_config(legal).queries] == [(1, 1), (1, 1)]
    (tmp_path / "t.cfg").write_text(legal + "d = 2\n")
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "t.cfg")])
    assert code == 2 and out == ""
    assert err == "config error: line 12: d already set on line 11\n"


def test_parse_config_sections_and_comments():
    config = parse_config(
        "# header\nq = 3  # inline\nsource = torus\ns = 4\n\n"
        "[query]\nd = 1..2\nr = all\n\n[query]\nd = 2\nr = 1..3\nk1 = 1\nG = t1\n"
    )
    assert config.q == 3 and config.s == 4
    assert len(config.queries) == 2
    assert config.queries[0].d_range == (1, 2)
    assert config.queries[0].r_range is None
    assert config.queries[1].r_range == (1, 3)
    assert config.queries[1].g_strings == ("t1",)


def test_parse_config_rejects_bad_sections():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("q = 3\n[weird]\n")
    with pytest.raises(ConfigError, match="source"):
        parse_config("q = 3\n")
    with pytest.raises(ConfigError, match="needs d"):
        parse_config("q = 3\nsource = torus\ns = 3\n[query]\nr = 1\n")


def test_order_flag_changes_monomial_order(capsys, tmp_path):
    (tmp_path / "t.cfg").write_text("q = 3\ns = 4\nsource = torus\n\n[query]\nd = 1\nr = all\n")
    code_g, out_g, _ = run(capsys, ["weights", "--config", str(tmp_path / "t.cfg"),
                                    "--format", "csv"])
    code_l, out_l, _ = run(capsys, ["weights", "--config", str(tmp_path / "t.cfg"),
                                    "--format", "csv", "--order", "lex"])
    assert code_g == code_l == 0
    # same weights on this instance whichever order is used
    assert mask_ms(out_g) == mask_ms(out_l)


def test_torus_fp_matrix_past_the_subset_walk(capsys, tmp_path):
    # torus of P^2/F_11 up to d = 6 (k = 28 there): enumerating admissible
    # subsets would need about 2.7 * 10^8 of them, the default budget is 10^7
    (tmp_path / "t.cfg").write_text(
        "q = 11\ns = 3\nsource = torus\nfunction = fp\ndmax = 6\n"
    )
    code, out, err = run(capsys, ["matrix", "--config", str(tmp_path / "t.cfg"),
                                  "--format", "csv"])
    assert code == 0 and err == "" and "!" not in out
    q, s = 11, 3
    rows = [[int(c) for c in line.split(",") if c != "-"]
            for line in out.splitlines()[1:]]
    for d, row in enumerate(rows, start=1):
        # torus minimum distance (Sarmiento, Vaz Pinto, Villarreal 2011):
        # (q-1)^(s-k-2) (q-1-l) with d = k (q-2) + l, 1 <= l <= q-2
        k, ell = divmod(d - 1, q - 2)
        ell += 1
        assert row[1] == (q - 1) ** (s - k - 2) * (q - 1 - ell)
        assert row[-1] == (q - 1) ** (s - 1)
        assert all(a < b for a, b in zip(row[1:], row[2:]))
    assert [row[1] for row in rows] == [90, 80, 70, 60, 50, 40]
    assert len(rows[-1]) - 1 == 28


def test_modulus_beyond_int64_is_config_error(capsys, tmp_path):
    # products of residues mod 10^18 + 3 overflow int64: refused up front
    (tmp_path / "pts.txt").write_text("1:2:3\n1:0:0\n0:1:0\n0:0:1\n")
    (tmp_path / "big.cfg").write_text(
        "q = 1000000000000000003\nsource = file\npoints_file = pts.txt\n"
    )
    code, out, err = run(capsys, ["vanishing-ideal", "--config", str(tmp_path / "big.cfg")])
    assert code == 2 and out == ""
    assert "q = 1000000000000000003" in err and "q <= 3037000500" in err


CARTESIAN_FACTORS = "; ".join(["0 1 2 3 4 5 6 7 8 9 10"] * 6)


@pytest.mark.parametrize("main_keys, count", [
    ("q = 5\ns = 40\nsource = torus", str(4**39)),
    ("q = 5\ns = 7200\nsource = torus", "more than 10^4334"),
    (f"q = 11\nsource = cartesian\nfactors = {CARTESIAN_FACTORS}", str(11**6)),
    # the zero set is what is capped: t1 = 0 in P^21(F_2) is a P^20
    ("q = 2\ns = 22\nsource = ideal\ngenerators = t1", str(2**21 - 1)),
], ids=["torus", "torus-past-4300-digits", "cartesian", "ideal"])
def test_point_set_too_large_to_enumerate_is_config_error(capsys, tmp_path, main_keys, count):
    (tmp_path / "big.cfg").write_text(main_keys + "\n[query]\nd = 1\n")
    code, out, err = run(capsys, ["weights", "--config", str(tmp_path / "big.cfg")])
    assert code == 2 and out == ""
    assert err == (
        f"config error: the point set would have {count} points; "
        "at most 1048576 can be enumerated\n"
    )


@pytest.mark.parametrize("s, count", [(16, str((5**16 - 1) // 4)), (7200, "more than 10^5031")])
def test_ideal_space_too_large_to_search_is_config_error(capsys, tmp_path, s, count):
    (tmp_path / "big.cfg").write_text(
        f"q = 5\ns = {s}\nsource = ideal\ngenerators = t1\n[query]\nd = 1\n")
    assert run(capsys, ["weights", "--config", str(tmp_path / "big.cfg")]) == (
        2, "",
        f"config error: P^{s - 1}(F_5) has {count} points; at most 16777216 can be "
        "searched for zeros\n",
    )


def test_ideal_zero_set_is_capped_not_its_space(capsys, tmp_path, monkeypatch):
    # t1 = t2 = 0 cuts a line of 4 points out of the 40 of P^3(F_3)
    monkeypatch.setattr(points, "MAX_POINTS", 10)
    (tmp_path / "line.cfg").write_text(
        "q = 3\ns = 4\nsource = ideal\ngenerators = t1 ; t2\n[query]\nd = 1\n")
    assert run(capsys, ["code-info", "--config", str(tmp_path / "line.cfg")]) == (
        0, "d  n  k  reg\n1  4  2    3\n", "")
    monkeypatch.setattr(points, "MAX_POINTS", 3)
    assert run(capsys, ["code-info", "--config", str(tmp_path / "line.cfg")]) == (
        2, "", "config error: the point set would have 4 points; at most 3 can be "
        "enumerated\n")


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "rghw", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: rghw")


def test_entry_points_pass_on_the_exit_status(tmp_path):
    # `python -m rghw` runs __main__.py, `python -m rghw.cli` the guard at
    # the end of cli.py
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "rghw", "weights", "--config",
         str(root / "configs" / "torus-p2-f5.cfg"), "--format", "csv"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("d,r,k1,G,fp,")
    missing = tmp_path / "missing.cfg"
    for module in ("rghw", "rghw.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "hilbert", "--config", str(missing)],
            capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, ""), module
        assert done.stderr == (
            f"config error: [Errno 2] No such file or directory: '{missing}'\n"), module


SCAN_MATRIX_CASES = {
    # torus of P^3/F_3 up to d = 3: the three middle ranks of d = 3 pass the
    # default budget of 10^7 subspaces
    "torus": (
        "q = 3\ns = 4\nsource = torus\nfunction = {f}\ndmax = 3\n", [],
        3,
        "d,r1,r2,r3,r4,r5,r6,r7,r8\n"
        "1,4,6,7,8,-,-,-,-\n"
        "2,2,3,4,5,6,7,8,-\n"
        "3,1,2,!,!,!,6,7,8\n",
        "line 4, d=3, r=3: enumeration needs 25095280 candidates, budget is 10000000\n"
        "line 4, d=3, r=4: enumeration needs 75913222 candidates, budget is 10000000\n"
        "line 4, d=3, r=5: enumeration needs 25095280 candidates, budget is 10000000\n",
    ),
    # torus of P^3/F_5 up to d = 2: of d = 2's ranks only 1, 9 and 10 pass
    # the default budget, all three from one scan
    "torus-p3-f5": (
        "q = 5\ns = 4\nsource = torus\nfunction = {f}\ndmax = 2\n", [],
        3,
        "d,r1,r2,r3,r4,r5,r6,r7,r8,r9,r10\n"
        "1,48,60,63,64,-,-,-,-,-,-\n"
        "2,32,!,!,!,!,!,!,!,63,64\n",
        "line 4, d=2, r=2: enumeration needs 198682027181 candidates, budget is 10000000\n"
        "line 4, d=2, r=3: enumeration needs 625886840206056 candidates, budget is 10000000\n"
        "line 4, d=2, r=4: enumeration needs 78360229974772306 candidates, budget is 10000000\n"
        "line 4, d=2, r=5: enumeration needs 391901483074853556 candidates, budget is 10000000\n"
        "line 4, d=2, r=6: enumeration needs 78360229974772306 candidates, budget is 10000000\n"
        "line 4, d=2, r=7: enumeration needs 625886840206056 candidates, budget is 10000000\n"
        "line 4, d=2, r=8: enumeration needs 198682027181 candidates, budget is 10000000\n",
    ),
    "subcode": (
        "q = 3\ns = 4\nsource = torus\nfunction = {f}\ndmax = 1\nk1 = 1\nG = t1\n", [],
        0, "d,r1,r2,r3\n1,4,6,7\n", "",
    ),
    # r = 1 visits 3 [2, 1]_3 = 12 subspaces, r = 2 visits 3^2 [2, 2]_3 = 9
    "budget": (
        "q = 3\ns = 3\nsource = torus\nfunction = {f}\ndmax = 1\nk1 = 1\nG = t1\n",
        ["--budget", "10"],
        3, "d,r1,r2\n1,!,3\n",
        "line 4, d=1, r=1: enumeration needs 12 candidates, budget is 10\n",
    ),
}


@pytest.mark.parametrize("case", sorted(SCAN_MATRIX_CASES))
@pytest.mark.parametrize("function", ["delta", "vasconcelos"])
def test_matrix_scan_functions_golden(capsys, tmp_path, function, case):
    # on vanishing ideals the two scan functions print the same grid
    text, extra, status, out, err = SCAN_MATRIX_CASES[case]
    (tmp_path / "m.cfg").write_text(text.format(f=function))
    argv = ["matrix", "--config", str(tmp_path / "m.cfg"), "--format", "csv"] + extra
    assert run(capsys, argv) == (status, out, err)


def test_matrix_certification_gates_delta_and_vasconcelos_only(capsys, tmp_path):
    # (t1^2, t2^2) cuts out [0:0:1] but is not its vanishing ideal (t1, t2)
    cfg = tmp_path / "m.cfg"
    base = "q = 5\ns = 3\nsource = ideal\ngenerators = t1^2 ; t2^2\nfunction = {f}\n"
    for function in ("delta", "vasconcelos"):
        cfg.write_text(base.format(f=function))
        assert run(capsys, ["matrix", "--config", str(cfg)]) == (
            2, "",
            "config error: ideal is not the vanishing ideal of its zero set; "
            "I_X <= I: FAIL at t2\n",
        )
    # bruteforce, delta without the gate, is no longer a function
    cfg.write_text(base.format(f="bruteforce"))
    assert run(capsys, ["matrix", "--config", str(cfg)]) == (
        2, "",
        "config error: line 5: function must be one of fp, delta, vasconcelos, "
        "got 'bruteforce'\n",
    )


@pytest.mark.parametrize("entry, message", [
    ("t9^^", "bad polynomial 't9^^'"),
    ("t1^2", "subcode generator t1^2 is not homogeneous of degree 1"),
])
def test_fp_matrix_refuses_a_bad_subcode_entry(capsys, tmp_path, entry, message):
    # fp has no code, but each G entry must still parse and have degree d
    cfg = tmp_path / "m.cfg"
    base = "q = 3\ns = 4\nsource = torus\nfunction = {f}\ndmax = 1\nk1 = 1\nG = {g}\n"
    for function in ("fp", "delta"):
        cfg.write_text(base.format(f=function, g=entry))
        code, out, err = run(capsys, ["matrix", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {message}")
    cfg.write_text(base.format(f="fp", g="t1"))
    assert run(capsys, ["matrix", "--config", str(cfg), "--format", "csv"]) == (
        0, "d,r1,r2,r3\n1,4,6,7\n", "")
