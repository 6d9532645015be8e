"""Weight functions on degree slices: the footprint lower bound, the subspace
scan behind M_r, and the full-space oracle.

The scan uses evaluation counts; several tests here recompute the same
quantities through Groebner degrees of (I, F) and (I : F) to pin the
algebraic meaning down independently."""

import random
import tracemalloc

import numpy as np
import pytest

from oracles import (
    footprint_by_subset_walk,
    full_space_rgmdf,
    ideal_quotient,
    iter_subspace_batches,
    minimum_distance_scan,
    quotient_by_set,
    random_subcode,
    rghw_by_support_scan,
    sum_degree,
    survival_mask,
    witness_mask,
)

from rghw.codes import BudgetExceededError, build_code, validate_subcode
from rghw.field import PrimeField
from rghw.groebner import Ideal
from rghw.linalg import ModulusTooLargeError, digits, gaussian_binomial, kernel_basis
from rghw.monideal import FootprintRays, MonomialIdeal, monomial_quotient_degree
from rghw.points import (
    ProjectivePointSet,
    all_projective_points,
    projective_torus,
    zero_set,
)
from rghw.polyring import ORDERS, PolyRing
from rghw import weights
from rghw.weights import CandidateScan, FootprintProfile, admissible_counts, rgff, rgmdf
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_


def random_point_set(rng, q, s, n):
    pool = list(all_projective_points(q, s))
    return ProjectivePointSet(PrimeField(q), rng.sample(pool, n))


def torus3_code():
    """The degree-1 code of the torus of P^3/F_3 and its subcode <t1>."""
    code = build_code(projective_torus(3, 4), 1)
    return code, validate_subcode(code, [code.ring.parse("t1")])


def test_footprint_matrix_anchors():
    ideal = projective_torus(5, 3).vanishing_ideal()
    col1 = [FootprintProfile(ideal, d, 1).value(1) for d in range(1, 7)]
    assert col1 == [12, 8, 4, 3, 2, 1]
    row3 = FootprintProfile(ideal, 3, 10)
    assert [row3.value(r) for r in range(1, 11)] == [4, 7, 8, 10, 11, 12, 13, 14, 15, 16]
    assert FootprintProfile(ideal, 6, 16).value(16) == 16
    assert FootprintProfile(ideal, 4, 4).value(4) == 7


def test_footprint_triple_with_subcode_pool():
    # the monomial pool is independent of G; G only caps the rank range
    ideal = projective_torus(3, 4).vanishing_ideal()
    profile = FootprintProfile(ideal, 1, 3)
    assert [profile.value(r) for r in (1, 2, 3)] == [4, 6, 7]
    # rank 3 needs the full pool {t1, t2, t3}: dropping the initial-ideal
    # generators' own leads from the pool would leave no size-3 subset
    assert admissible_counts(ideal, 1, 3)[3] == 1


def test_rgff_entry_points_agree():
    ideal = projective_torus(3, 4).vanishing_ideal()
    assert rgff(ideal, 1, 2) == FootprintProfile(ideal, 1, 3).value(2) == 6


def test_rgff_requires_rank_arguments():
    ideal = projective_torus(3, 4).vanishing_ideal()
    with pytest.raises(ValueError):
        rgff(ideal, 1, 0)
    with pytest.raises(ValueError):
        FootprintProfile(ideal, 1, 2).value(0)


def test_profile_refuses_ranks_past_rmax_within_the_pool():
    # torus of P^2/F_5 at d = 2: the pool has 6 monomials and fp(2, 2) = 11.
    # A profile searched to rmax = 1 knows nothing of rank 2, so it refuses
    # it rather than answer the total degree 16, which is no lower bound;
    # past the pool no subset exists and the total degree is the value
    ideal = projective_torus(5, 3).vanishing_ideal()
    profile = FootprintProfile(ideal, 2, 1)
    assert len(profile.pool) == 6 and FootprintProfile(ideal, 2, 2).value(2) == 11
    for r in (2, 6):
        with pytest.raises(ValueError, match="rmax = 1"):
            profile.value(r)
    assert profile.value(1) == FootprintProfile(ideal, 2).value(1)
    assert profile.value(7) == FootprintProfile(ideal, 2).value(7) == 16


def test_footprint_profile_against_subset_enumeration(seed=70111):
    # direct route: a subset M is admissible when (J : M) != J, and scores
    # deg(S/(J + M)); the DFS mask engine must match it subset by subset
    rng = random.Random(seed)
    for _ in range(10):
        q = rng.choice([2, 3])
        limit = len(all_projective_points(q, 3))
        X = random_point_set(rng, q, 3, rng.randrange(2, min(8, limit) + 1))
        d = rng.choice([1, 2])
        ideal = X.vanishing_ideal()
        initial = ideal.initial_ideal()
        pool = ideal.footprint_slice(d)
        rmax = min(len(pool), 3)
        if rmax == 0:
            continue
        profile = FootprintProfile(ideal, d, rmax)
        counts = admissible_counts(ideal, d, rmax)
        total = ideal.degree()
        import itertools

        for r in range(1, rmax + 1):
            best = None
            count = 0
            for subset in itertools.combinations(pool, r):
                if quotient_by_set(initial, subset) == initial:
                    continue
                count += 1
                score = monomial_quotient_degree(initial.add(subset)).degree
                best = score if best is None else max(best, score)
            assert counts[r] == count
            expected = total if best is None else total - best
            assert profile.value(r) == expected


def _random_point_instances(rng, count, cap=12):
    """Vanishing ideals of random point sets of at most `cap` points in P^2
    and P^3 over F_2, F_3 and F_5 under all three orders, with a degree
    d <= 3 whose slice has at most `cap` monomials (the walk's
    finite-quotient fallback makes larger slices of P^3/F_5 cost seconds
    each)."""
    out = []
    while len(out) < count:
        q, s = rng.choice([2, 3, 5]), rng.choice([3, 4])
        limit = len(all_projective_points(q, s))
        X = random_point_set(rng, q, s, rng.randrange(2, min(cap, limit) + 1))
        ideal = X.vanishing_ideal(ORDERS[rng.choice(sorted(ORDERS))])
        d = rng.randrange(1, 4)
        if ideal.hilbert_function(d) <= cap:
            out.append((ideal, d))
    return out


def _random_monomial_instances(rng, count):
    """Monomial ideals of dimension <= 1 in three or four variables: pure
    powers of all variables but at most one, plus a few mixed monomials."""
    out = []
    while len(out) < count:
        s = rng.choice([3, 4])
        ring = PolyRing(PrimeField(2), s)
        free = rng.randrange(s + 1)  # s: no free variable, dimension 0
        gens = [
            tuple(rng.randrange(1, 4) if j == i else 0 for j in range(s))
            for i in range(s) if i != free
        ]
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(3) for _ in range(s))
            if any(e):
                gens.append(e)
        order = ORDERS[rng.choice(sorted(ORDERS))]
        polys = [ring.from_terms({e: 1}) for e in gens]
        ideal = Ideal(ring, polys, order)
        if MonomialIdeal(s, gens).dimension() > 1:
            continue
        d = rng.randrange(1, 4)
        if 0 < ideal.hilbert_function(d) <= 12:
            out.append((ideal, d))
    return out


def _torus_instances():
    grids = [(5, 3, 6), (7, 3, 4), (3, 4, 3), (5, 4, 2)]
    return [
        (projective_torus(q, s).vanishing_ideal(), d)
        for q, s, dmax in grids
        for d in range(1, dmax + 1)
    ]


def test_array_masks_match_scalar_masks(seed=52817):
    # the masks FootprintProfile reads against the cell-by-cell oracle: the
    # same admissibility and survivor popcount for every subset of at most
    # two pool monomials and for the whole pool, and, where the survivor
    # mask is 0, the length from the length masks equals the Hilbert sum
    rng = random.Random(seed)
    seen = set()
    for ideal, d in _random_monomial_instances(rng, 40) + _torus_instances():
        engine = ideal.footprint_rays()
        assert engine is ideal.footprint_rays()
        pool = ideal.footprint_slice(d)
        witness, survival = engine.masks(pool)
        below, alive = engine.length_masks(pool, d)
        scalar = [(witness_mask(engine, m), survival_mask(engine, m)) for m in pool]
        full = (1 << len(engine.ray_cells)) - 1
        subsets = [c for r in (1, 2) for c in combinations(range(len(pool)), r)]
        for subset in subsets + [tuple(range(len(pool)))]:
            w = s = a = ws = ss = -1
            for i in subset:
                w, s, a = w & witness[i], s & survival[i], a & alive[i]
                ws, ss = ws & scalar[i][0], ss & scalar[i][1]
            assert (w != 0) == (ws != 0), (ideal, d, subset)
            assert (s & full).bit_count() == (ss & full).bit_count()
            if not s & full:
                monomials = [pool[i] for i in subset]
                assert below + a.bit_count() == sum_degree(engine, monomials, 0)
                seen.add(("zero mask", w != 0))
        seen.add(("dimension", ideal.quotient_summary().dimension))
    assert seen >= {("dimension", 0), ("dimension", 1), ("zero mask", True)}


def _reaches_zero_mask(ideal, d):
    """Whether some admissible subset of the slice has survivor mask 0, so
    that it scores by the finite-quotient fallback."""
    engine = FootprintRays(ideal.initial_ideal())
    pool = ideal.footprint_slice(d)
    masks = [(witness_mask(engine, m), survival_mask(engine, m)) for m in pool]

    def down(start, wmask, smask):
        for i in range(start, len(masks)):
            w, s = wmask & masks[i][0], smask & masks[i][1]
            if w and (not s or down(i + 1, w, s)):
                return True
        return False

    return down(0, -1, (1 << len(engine.ray_cells)) - 1)


@pytest.mark.parametrize("family", ["points", "monomial", "torus"])
def test_branch_and_bound_matches_subset_walk(family, seed=61907):
    # the branch-and-bound cuts subtrees; the oracle walk visits every
    # admissible subset, so best values and admissible counts must agree
    rng = random.Random(seed)
    if family == "points":
        instances = _random_point_instances(rng, 40)
    elif family == "monomial":
        instances = _random_monomial_instances(rng, 40)
    else:
        instances = _torus_instances()
    zero_mask_instances = 0
    for ideal, d in instances:
        rmax = ideal.hilbert_function(d)
        counts, best = footprint_by_subset_walk(ideal, d, rmax)
        profile = FootprintProfile(ideal, d, rmax)
        assert admissible_counts(ideal, d, rmax) == counts, (ideal, d)
        total = ideal.degree()
        for r in range(1, rmax + 1):
            expected = total if best[r] is None else total - best[r]
            assert profile.value(r) == expected, (ideal, d, r)
        zero_mask_instances += _reaches_zero_mask(ideal, d)
    if family != "torus":
        # the finite-quotient fallback and the zero-mask cut are exercised
        assert zero_mask_instances > 0


def test_zero_mask_heavy_slice_keeps_its_row():
    # 16 points in P^3/F_5, d = 3, k = 16: thousands of admissible subsets
    # empty their survivor masks and score by the length of the finite
    # quotient; the row was computed by summing Hilbert functions
    instances = _random_point_instances(random.Random(61907), 40, cap=16)
    [(ideal, d)] = [
        (ideal, d)
        for ideal, d in instances
        if (ideal.ring.q, ideal.ring.nvars, d, ideal.hilbert_function(d)) == (5, 4, 3, 16)
    ]
    profile = FootprintProfile(ideal, d)
    assert [profile.value(r) for r in range(1, 17)] == [
        0, 1, 2, -17, -16, -15, -14, -12, -10, -8, -7, -5, -3, -2, 0, 1
    ]


# fp rows of two tori whose top slices lie past the reach of the subset-walk
# oracle, and the nodes the walk expands at the top degree: a wrong cut
# changes a row, a weakened one the node count
TORUS_FP_ROWS = {
    (5, 4, 852): [
        [48, 60, 63, 64],
        [32, 44, 47, 48, 56, 59, 60, 62, 63, 64],
        [16, 28, 31, 32, 40, 43, 44, 46, 47, 48, 52, 55, 56, 58, 59, 60, 61, 62, 63, 64],
    ],
    (7, 3, 258): [
        [30, 35, 36],
        [24, 29, 30, 34, 35, 36],
        [18, 23, 24, 28, 29, 30, 33, 34, 35, 36],
        [12, 17, 18, 22, 23, 24, 27, 28, 29, 30, 32, 33, 34, 35, 36],
        [6, 11, 12, 16, 17, 18, 21, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36],
    ],
}


@pytest.mark.parametrize("q, s, nodes", sorted(TORUS_FP_ROWS))
def test_torus_fp_rows_and_walk_size(q, s, nodes):
    ideal = projective_torus(q, s).vanishing_ideal()
    rows = TORUS_FP_ROWS[q, s, nodes]
    for d, row in enumerate(rows, start=1):
        profile = FootprintProfile(ideal, d)
        assert [profile.value(r) for r in range(1, profile.rmax + 1)] == row, d
    assert sum(profile.counts) == nodes


def test_profile_budget_counts_nodes_and_subsets_separately():
    # d = 2 on the torus of P^2/F_5: the walk expands 8 nodes while the
    # count of the 31 admissible subsets makes 20 updates; each is held to
    # the budget on its own
    ideal = projective_torus(5, 3).vanishing_ideal()
    profile = FootprintProfile(ideal, 2, 6, budget=8)
    assert sum(profile.counts) == 8
    with pytest.raises(BudgetExceededError):
        FootprintProfile(ideal, 2, 6, budget=7)
    with pytest.raises(BudgetExceededError):
        admissible_counts(ideal, 2, 6, budget=19)
    assert admissible_counts(ideal, 2, 6, budget=20) == [0, 5, 10, 10, 5, 1, 0]


class _WitnessFamily:
    """Stands in for an ideal whose degree-d slice has the given witness
    masks, so that admissible_counts runs on any family of masks."""

    def __init__(self, witness):
        self.witness = witness

    def footprint_slice(self, d):
        return list(range(len(self.witness)))

    def footprint_rays(self):
        return self

    def masks(self, pool):
        return self.witness, None


def test_admissible_counts_match_combinations(seed=16016):
    # in the third candidate's pass of [0b11, 0b01, 0b01], the AND 0b01 is
    # updated from the empty subset and from 0b11 before its own turn comes,
    # where it must still add only the subsets of the first two candidates
    rng = random.Random(seed)
    families = [[0b11, 0b01, 0b01], [0b110, 0b011, 0b010, 0b010, 0, 0b111]]
    for _ in range(400):
        bits = rng.randrange(1, 7)
        families.append([rng.randrange(1 << bits) for _ in range(rng.randrange(1, 11))])
    for witness in families:
        rmax = rng.randrange(1, len(witness) + 1)
        expected = [0] + [
            sum(1 for subset in combinations(witness, r) if reduce(and_, subset))
            for r in range(1, rmax + 1)
        ]
        assert admissible_counts(_WitnessFamily(witness), 1, rmax) == expected, witness
    assert admissible_counts(_WitnessFamily([0b11, 0b01, 0b01]), 1, 3) == [0, 3, 3, 1]
    # up to rank 0 only the empty subset is left, and it is not counted
    assert admissible_counts(projective_torus(3, 4).vanishing_ideal(), 1, 0) == [0]


def test_weight_triple_on_torus_subcode():
    # footprint bound, scan and evaluation-space oracle
    code, sub = torus3_code()
    values = {}
    for r in (1, 2, 3):
        values[r] = (rgff(code.ideal, 1, r), rgmdf(code, r, sub),
                     rghw_by_support_scan(code, sub, r)[0])
    assert values[1] == (4, 4, 4)
    assert values[2] == (6, 6, 6)
    assert values[3] == (7, 7, 7)


# (s, points, d) per field: codes of dimension 9, 6 and 5, so that every
# k1 in {0, 1, 2} leaves several ranks within the oracle's reach
SCAN_ORACLE_CODES = {2: (4, 9, 2), 3: (3, 8, 2), 5: (5, 6, 1)}


@pytest.mark.parametrize("k1", [0, 1, 2])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_lifted_scan_matches_support_oracle(q, k1):
    # the lifted scan enumerates only the subspaces independent of the
    # subcode; the oracle enumerates all of them in evaluation space and
    # filters, so counts and minimum support must agree
    rng = random.Random(1000 * q + k1)
    s, npoints, d = SCAN_ORACLE_CODES[q]
    code = build_code(random_point_set(rng, q, s, npoints), d)
    sub = random_subcode(rng, code, k1)
    k = code.k
    ranks = [r for r in range(1, k - k1 + 1) if gaussian_binomial(k, r, q) <= 2 * 10**5]
    assert ranks
    group = CandidateScan(code.generator_rows, code.q, ranks, sub)
    for r in ranks:
        scan = group.rank(r)
        assert (scan.min_support, scan.family_count, scan.feasible_count) == \
            rghw_by_support_scan(code, sub, r), (r, k)
        assert scan.feasible_count == q ** (r * k1) * gaussian_binomial(k - k1, r, q)


@pytest.mark.parametrize("batch", [5, 64])
def test_every_rank_of_a_group_matches_support_oracle(monkeypatch, batch):
    # one scan serves all ranks of a code; with a step of `batch` masks the
    # first pivots have no block, so row 0 streams their families and the
    # later rows build theirs alone, while the last pivots' families are
    # sliced from their blocks, in the same group
    monkeypatch.setattr(weights, "_SCAN_BATCH", batch)
    rng = random.Random(batch)
    mixed = 0
    for q, (s, npoints, d) in sorted(SCAN_ORACLE_CODES.items()):
        for k1 in (0, 1, 2):
            code = build_code(random_point_set(rng, q, s, npoints), d)
            sub = random_subcode(rng, code, k1)
            ranks = [r for r in range(1, code.k - k1 + 1)
                     if gaussian_binomial(code.k, r, q) <= 3 * 10**4]
            group = CandidateScan(code.generator_rows, q, ranks, sub)
            for r in ranks:
                scan = group.rank(r)
                assert (scan.min_support, scan.family_count, scan.feasible_count) == \
                    rghw_by_support_scan(code, sub, r), (q, k1, r)
            mixed += 0 < group.first_block < group.width
    assert mixed >= 6


def test_group_scans_the_ranks_its_budget_admits():
    # torus of P^3/F_5 at d = 2 (k = 10, n = 64): ranks 2..8 visit more than
    # 10^7 subspaces and are refused one by one; ranks 1, 9 and 10 are scanned
    code = build_code(projective_torus(5, 4), 2)
    group = CandidateScan(code.generator_rows, code.q, range(1, 11))
    for r in range(2, 9):
        with pytest.raises(BudgetExceededError) as err:
            group.rank(r)
        assert err.value.needed == gaussian_binomial(10, r, 5)
    assert [group.rank(r).min_support for r in (1, 9, 10)] == [32, 63, 64]


def test_top_rank_builds_no_block_past_one_step():
    # degree-3 code on all of P^2/F_5 (k = 10, n = 31): at r = k the one
    # subspace is C and each row family is one codeword, while the block of
    # pivot 1 would hold 5^8 masks; only pivots whose blocks fit one step
    # get a block, for this rank as for any other
    code = build_code(all_projective_points(5, 3), 3)
    assert code.k == 10
    group = CandidateScan(code.generator_rows, code.q, [10])
    assert group.rank(10) == (1, 0, 0, 31)
    assert group.blocks
    assert all(block.size <= weights._SCAN_BATCH * group.words for block in group.blocks.values())


def test_scan_on_large_fields_matches_support_oracle():
    # over F_1021 residues compare as uint16, and at r = k = 7 the one
    # subspace is the AND of seven single-codeword row families; over
    # F_65537 no tail of q^t <= 2^14 codewords exists, so all q codewords
    # of row 0's family are heads, streamed in steps
    rng = random.Random(1021)
    points = {(1, rng.randrange(1021), rng.randrange(1021)) for _ in range(7)}
    code = build_code(ProjectivePointSet(PrimeField(1021), sorted(points)), 3)
    assert code.k == 7
    line = build_code(ProjectivePointSet(PrimeField(65537), [(1, 0), (1, 5), (0, 1)]), 1)
    for code, r in ((code, 7), (line, 1)):
        sub = validate_subcode(code, [])
        scan = CandidateScan(code.generator_rows, code.q, [r], sub).rank(r)
        assert (scan.min_support, scan.family_count, scan.feasible_count) == \
            rghw_by_support_scan(code, sub, r)
    assert scan.feasible_count == 65538 and scan.min_support == 2


def test_scan_masks_span_several_words():
    # 70 points: every zero-set mask takes two 64-bit words
    rng = random.Random(70)
    code = build_code(random_point_set(rng, 11, 3, 70), 1)
    assert (code.n, code.k) == (70, 3)
    for k1 in (0, 1):
        sub = random_subcode(rng, code, k1)
        group = CandidateScan(code.generator_rows, code.q, (1, 2), sub)
        for r in (1, 2):
            scan = group.rank(r)
            assert (scan.min_support, scan.family_count, scan.feasible_count) == \
                rghw_by_support_scan(code, sub, r), (k1, r)


def test_scan_streams_a_row_family_past_one_batch():
    # k = 10 over F_3: at r = 1 the first pivot's family has 3^9 = 19683
    # codewords, more than one numpy step holds, with or without a subcode
    rng = random.Random(0)
    code = build_code(random_point_set(rng, 3, 4, 16), 2)
    assert code.k == 10 and 3 ** 9 > weights._SCAN_BATCH
    for k1 in (0, 1):
        sub = random_subcode(rng, code, k1)
        scan = CandidateScan(code.generator_rows, code.q, [1], sub).rank(1)
        assert (scan.min_support, scan.family_count, scan.feasible_count) == \
            rghw_by_support_scan(code, sub, 1), k1


@pytest.mark.parametrize("batch", [5, 64])
def test_scan_chunks_the_product_of_later_rows(monkeypatch, batch):
    # r = 3, k1 = 1 over F_3 with k = 6: in the pivot pattern (0, 1, 3) rows
    # 1 and 2 take 27 and 9 codewords, so with a step of `batch` masks their
    # 243 ANDs, row 0's family and the final pairs all come in several blocks
    rng = random.Random(3)
    code = build_code(random_point_set(rng, 3, 4, 6), 2)
    assert code.k == 6
    sub = random_subcode(rng, code, 1)
    expected = rghw_by_support_scan(code, sub, 3)
    monkeypatch.setattr(weights, "_SCAN_BATCH", batch)
    scan = CandidateScan(code.generator_rows, code.q, [3], sub).rank(3)
    assert (scan.min_support, scan.family_count, scan.feasible_count) == expected


def _zero_mask_words(codeword, words):
    bits = sum(1 << int(j) for j in np.flatnonzero(codeword == 0))
    return [bits >> 64 * w & (1 << 64) - 1 for w in range(words)]


@pytest.mark.parametrize("batch", [5, 64, 1 << 14])
@pytest.mark.parametrize("q, s, npoints, d", [(3, 4, 20, 2), (11, 3, 70, 1)])
def test_row_families_list_codewords_in_digit_order(monkeypatch, batch, q, s, npoints, d):
    # family(p, later) holds the zero masks of off[p] + v @ dirs, dirs the
    # free off-pivot rows after p and then C_1's evaluated rows, for v in
    # `digits` order (first direction most significant), whether the family
    # is sliced from p's block or joined from streamed steps of its heads and
    # its slice of the span, on one and two mask words
    monkeypatch.setattr(weights, "_SCAN_BATCH", batch)
    rng = random.Random(npoints)
    code = build_code(random_point_set(rng, q, s, npoints), d)
    sub = random_subcode(rng, code, 1)
    scan = CandidateScan(code.generator_rows, q, [1], sub)
    assert scan.words == (2 if npoints > 64 else 1)
    sub_evals = sub @ code.generator_rows % q
    for p in range(scan.width):
        after = range(p + 1, scan.width)
        for later in {(), tuple(j for j in after if rng.random() < 0.5)}:
            free = [j for j in after if j not in later]
            dirs = np.concatenate([scan.off[free], sub_evals])
            m = len(dirs)
            codewords = (scan.off[p] + digits(0, q**m, [q] * m) @ dirs) % q
            want = [_zero_mask_words(c, scan.words) for c in codewords]
            assert scan.family(p, later).tolist() == want, (p, later)


def _rank_one_by_masks(scan):
    """Rank 1's RankCounts from the zero masks of every row family."""
    vanishing = np.concatenate([
        np.bitwise_count(scan.family(p, ())).sum(axis=1) for p in range(scan.width)
    ])
    top = int(vanishing.max())
    return (len(vanishing), int(np.count_nonzero(vanishing)), top, scan.n - top)


@pytest.mark.parametrize("batch", [5, 64, 1 << 14])
@pytest.mark.parametrize("q, s, npoints, d", [(3, 4, 20, 2), (5, 3, 12, 2), (11, 3, 70, 1)])
def test_rank_one_counts_match_the_mask_route(monkeypatch, batch, q, s, npoints, d):
    # at rank 1 a family's zeros are counted without masks unless a block
    # is read: the counts, step by step, are the popcounts of the masks, and
    # the pass matches the masks of every family, on one and two mask
    # words, with and without a subcode; with no subcode it is the minimum
    # distance
    monkeypatch.setattr(weights, "_SCAN_BATCH", batch)
    rng = random.Random(batch + npoints)
    code = build_code(random_point_set(rng, q, s, npoints), d)
    streamed = 0
    for k1 in (0, 1):
        sub = random_subcode(rng, code, k1)
        # alone, rank 1 builds no block; with rank 2 in the group it builds
        # the blocks that rank 2 reads, and counts only the streamed families
        for ranks, built in (([1], False), ([1, 2], True)):
            scan = CandidateScan(code.generator_rows, q, ranks, sub, budget=10**8)
            assert scan.words == (2 if npoints > 64 else 1)
            got = scan.rank(1)
            assert sorted(scan.blocks) == \
                (list(range(scan.first_block, scan.width)) if built else [])
            assert got == _rank_one_by_masks(scan), (k1, ranks)
            if not k1:
                assert got.min_support == minimum_distance_scan(code)
        # also on the smaller span slices of families under later pivots
        for p, later in ((p, later) for p in range(scan.width)
                         for later in {(), tuple(range(p + 1, scan.width, 2))}):
            args = scan.off[p], *scan._split(p, later), q, scan.words
            counts = list(weights._zero_counts(*args))
            masks = list(weights._zero_masks(*args))
            assert [c.tolist() for c in counts] == \
                [np.bitwise_count(m).sum(axis=1).tolist() for m in masks], (k1, p, later)
        streamed += scan.first_block > 0
    assert streamed == 2 or batch == 1 << 14


def test_scan_spans_the_tail_once(monkeypatch):
    # with a step of 64 masks the degree-2 code of 8 points of P^2/F_3
    # (k = 6) has a tail of 3 directions: row 0 streams the families of the
    # first pivots, the last pivots get blocks, and every family of every
    # rank, with and without a subcode, is cut from the one span of the tail
    monkeypatch.setattr(weights, "_SCAN_BATCH", 64)
    spans = []
    span = weights._span
    monkeypatch.setattr(weights, "_span", lambda *args: spans.append(args) or span(*args))
    rng = random.Random(8)
    code = build_code(random_point_set(rng, 3, 3, 8), 2)
    assert code.k == 6
    for k1 in (0, 1):
        sub = random_subcode(rng, code, k1)
        spans.clear()
        group = CandidateScan(code.generator_rows, 3, range(1, 7 - k1), sub)
        for r in range(1, 7 - k1):
            scan = group.rank(r)
            assert (scan.min_support, scan.family_count, scan.feasible_count) == \
                rghw_by_support_scan(code, sub, r), (k1, r)
        assert 0 < group.first_block < group.width and group.blocks
        assert len(spans) == 1, k1


def test_rank_one_pass_memory_stays_bounded_in_bytes():
    # the simplex code of all of P^13/F_2 (k = 14, n = 16383): every
    # codeword of weight 2^13, and 256 mask words per codeword.  Steps and
    # blocks hold at most _SCAN_BATCH mask words, so the rank-1 pass peaks
    # at a few MB; steps of 2^14 masks would take over 400 MB here
    G = np.ascontiguousarray(all_projective_points(2, 14).coords.T)
    # alone, and with rank 2 let through the budget, so that the blocks of
    # the last pivots are built
    for ranks, budget in (([1], 10**7), ([1, 2], 10**8)):
        tracemalloc.start()
        try:
            scan = CandidateScan(G, 2, ranks, budget=budget)
            counts = scan.rank(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (16383, 16383, 8191, 8192)
        assert len(scan.blocks) == (7 if len(ranks) > 1 else 0)
        assert peak < 64 << 20, ranks


def test_scan_budget_weighs_the_visited_count():
    # with a subcode the scan visits q^(r k1) [k - k1, r]_q subspaces, fewer
    # than the [k, r]_q of the whole code, and the gate weighs that count
    code, sub = torus3_code()
    for r in (1, 2, 3):
        visited = 3 ** r * gaussian_binomial(code.k - 1, r, 3)
        assert visited < gaussian_binomial(code.k, r, 3)
        with pytest.raises(BudgetExceededError) as err:
            CandidateScan(code.generator_rows, code.q, [r], sub, budget=visited - 1).rank(r)
        assert err.value.needed == visited
        scan = CandidateScan(code.generator_rows, code.q, [r], sub, budget=visited).rank(r)
        assert scan.feasible_count == visited


def test_empty_family_falls_back_to_degree():
    # no admissible subspace of rank 3 on this torus: every rank-3 space of
    # linear forms cuts the torus down to nothing
    code = build_code(projective_torus(5, 3), 1)
    scan = CandidateScan(code.generator_rows, code.q, [3]).rank(3)
    assert scan.family_count == scan.max_vanishing == 0
    assert rgmdf(code, 3) == code.ideal.degree() == 16
    assert FootprintProfile(code.ideal, 1, 3).value(3) == 16


def test_three_routes_agree_randomly(seed=24181):
    rng = random.Random(seed)
    for _ in range(8):
        q = rng.choice([2, 3])
        limit = len(all_projective_points(q, 3))
        X = random_point_set(rng, q, 3, rng.randrange(3, min(8, limit) + 1))
        code = build_code(X, 1)
        sub = validate_subcode(code, [])
        for r in range(1, code.k + 1):
            # scan, evaluation-space oracle, footprint lower bound
            weight = rgmdf(code, r, sub)
            assert weight == rghw_by_support_scan(code, sub, r)[0]
            assert rgff(code.ideal, 1, r) <= weight


def test_enumeration_matches_groebner_degrees(seed=39209):
    # slow route: per admissible subspace F, the degree of S/(I, F) counts
    # the common zeros and the degree of S/(I : F) counts the complement
    rng = random.Random(seed)
    checked = 0
    while checked < 2:
        q = 2
        X = random_point_set(rng, q, 3, rng.randrange(3, 6))
        code = build_code(X, 1)
        if code.k < 2:
            continue
        r = 2
        drops = []
        leftovers = []
        for batch in iter_subspace_batches(code.k, r, q, max_batch=256):
            for basis in batch:
                polys = [code.coefficients_to_polynomial(row) for row in basis]
                V = zero_set(X, polys)
                if not len(V):
                    continue
                joined = Ideal(code.ring, list(code.ideal.groebner_basis()) + polys)
                assert joined.degree() == len(V)
                colon = ideal_quotient(code.ideal, polys)
                assert colon.degree() == len(X) - len(V)
                drops.append(code.ideal.degree() - joined.degree())
                leftovers.append(colon.degree())
        if not drops:
            continue
        # the degree-drop and the colon-degree minimum are both M_r
        assert rgmdf(code, r) == min(drops) == min(leftovers)
        checked += 1


def test_candidate_counts_are_within_bounds():
    code, sub = torus3_code()
    counts = admissible_counts(code.ideal, 1, 3)
    group = CandidateScan(code.generator_rows, code.q, (1, 2, 3), sub)
    for r in (1, 2, 3):
        assert counts[r] <= comb(code.k, r)
        scan = group.rank(r)
        assert scan.family_count <= gaussian_binomial(code.k, r, code.q)
    assert counts == [0, 3, 3, 1]


def test_full_space_oracle_agrees(seed=83265):
    rng = random.Random(seed)
    checked = 0
    while checked < 4:
        q = 2
        X = random_point_set(rng, q, 3, rng.randrange(3, 7))
        code = build_code(X, 1)
        if gaussian_binomial(len(code.ring.monomials_of_degree(1)), 1, q) > 10**5:
            continue
        for r in range(1, min(code.k, 2) + 1):
            assert full_space_rgmdf(code, r) == rgmdf(code, r)
        checked += 1


def test_query_validation():
    code, sub = torus3_code()
    G, q = code.generator_rows, code.q
    with pytest.raises(ValueError, match="outside"):
        CandidateScan(G, q, [1, 0], sub)
    with pytest.raises(ValueError, match="outside"):
        rgmdf(code, 4, sub)  # k - k1 = 3
    # a subcode validated against another code has the wrong width
    other = build_code(projective_torus(3, 4), 2)
    with pytest.raises(ValueError, match=r"shape \(k1, 7\), got \(1, 4\)"):
        CandidateScan(other.generator_rows, q, [1], sub)
    dependent = np.vstack([G, G[:1]])
    with pytest.raises(ValueError, match="rows of G are dependent"):
        CandidateScan(dependent, q, [1])
    with pytest.raises(ValueError, match="rows of sub are dependent"):
        CandidateScan(G, q, [1], np.vstack([sub, 2 * sub % q]))
    # the inputs are checked only when some rank passes its budget gate
    with pytest.raises(BudgetExceededError):
        CandidateScan(dependent, q, [1, 2], budget=5).rank(1)


@pytest.mark.parametrize("q, s", [(3, 3), (5, 3), (3, 4), (2, 5)])
def test_simplex_code_weight_hierarchy(q, s):
    # the columns of G are the points of P^(s-1)(F_q); an r-dimensional
    # subcode vanishes on the points of a codimension-r subspace, so
    # d_r = (q^s - q^(s-r)) / (q - 1)
    G = all_projective_points(q, s).coords.T
    scan = CandidateScan(G, q, range(1, s + 1))
    for r in range(1, s + 1):
        assert scan.rank(r).min_support == (q**s - q ** (s - r)) // (q - 1)


def test_wei_duality_on_random_codes(seed=1991):
    # Wei (IEEE TIT 1991): {d_r(C) : r <= k} and {n + 1 - d_r(C^perp) :
    # r <= n - k} partition {1, ..., n}
    rng = random.Random(seed)
    checked = 0
    while checked < 30:
        q, s = rng.choice([(2, 4), (3, 3)])
        X = random_point_set(rng, q, s, rng.randrange(3, 11))
        code = build_code(X, rng.choice([1, 2]))
        G, n, k = code.generator_rows, code.n, code.k
        if max(gaussian_binomial(k, k // 2, q), gaussian_binomial(n - k, (n - k) // 2, q)) > 10**5:
            continue
        H = kernel_basis(G, q)
        code_scan = CandidateScan(G, q, range(1, k + 1))
        dual_scan = CandidateScan(H, q, range(1, n - k + 1))
        primal = [code_scan.rank(r).min_support for r in range(1, k + 1)]
        dual = [n + 1 - dual_scan.rank(r).min_support for r in range(1, n - k + 1)]
        assert sorted(primal + dual) == list(range(1, n + 1)), (q, X.coords.tolist(), code.d)
        checked += 1


def test_budget_guard():
    code = build_code(projective_torus(5, 3), 1)
    with pytest.raises(BudgetExceededError):
        rgmdf(code, 2, budget=5)
    with pytest.raises(BudgetExceededError):
        full_space_rgmdf(code, 2, budget=5)


def test_scan_sums_fit_wherever_the_code_builds():
    # q - 1 ~ 1.36 * 10^9: four products of residues fit in int64, five do
    # not.  The scan's longest sum has k = 4 terms, so it takes this code and
    # stops only at the budget; at q = 2^31 - 1 four products overflow and
    # the code build refuses the modulus
    q = 1358187923
    points = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
    code = build_code(ProjectivePointSet(PrimeField(q), points), 1)
    assert code.k == 4
    with pytest.raises(BudgetExceededError):
        CandidateScan(code.generator_rows, code.q, [2], budget=10**6).rank(2)
    with pytest.raises(ModulusTooLargeError):
        build_code(ProjectivePointSet(PrimeField(2**31 - 1), points), 1)
    # a plain G of five rows needs five-term sums
    with pytest.raises(ModulusTooLargeError):
        CandidateScan(np.eye(5, dtype=np.int64), q, [1], budget=10**40)
