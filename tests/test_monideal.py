"""Monomial ideal arithmetic: minimal generators, Hilbert data, and the
FootprintRays bitmask engine, cross-checked against the monomial colon
ideals and intersections of the test oracles and the general Groebner
routes."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    ideal_quotient,
    monomial_intersection,
    quotient_by_monomial,
    quotient_by_set,
    sum_degree,
    witness_mask,
)

from rghw.field import PrimeField
from rghw.polyring import PolyRing, divides, monomial, monomials_of_degree
from rghw.monideal import (
    FootprintRays,
    GradedQuotientSummary,
    MonomialIdeal,
    UnsupportedDimensionError,
    _standard_cells,
    monomial_quotient_degree,
)
from rghw.groebner import Ideal


def M(*exps):
    return monomial(exps)


def random_low_dim_ideal(rng, nvars):
    # pure powers in all but at most one variable keep dim S/J <= 1
    free = rng.randrange(nvars + 1)  # nvars means no free variable
    gens = []
    for j in range(nvars):
        if j != free:
            e = [0] * nvars
            e[j] = rng.randint(1, 4)
            gens.append(monomial(e))
    for _ in range(rng.randrange(4)):
        gens.append(monomial([rng.randrange(4) for _ in range(nvars)]))
    J = MonomialIdeal(nvars, gens)
    if J.is_unit():
        J = MonomialIdeal(nvars, [g for g in gens if any(g)])
    return J


def standard_monomials_upto(J, dmax):
    out = []
    for d in range(dmax + 1):
        out.extend(J.degree_slice(d))
    return out


def test_minimal_generator_antichain():
    J = MonomialIdeal(2, [M(1, 0), M(2, 0), M(1, 1), M(1, 0)])
    assert J.gens == (M(1, 0),)
    K = MonomialIdeal(3, [M(2, 0, 0), M(0, 2, 0), M(1, 1, 1), M(2, 1, 0)])
    for a, b in itertools.permutations(K.gens, 2):
        assert not divides(a, b)


def test_membership():
    J = MonomialIdeal(3, [M(2, 0, 0), M(0, 1, 1)])
    assert M(3, 1, 0) in J
    assert M(1, 1, 1) in J
    assert M(1, 1, 0) not in J
    assert M(0, 0, 0) not in J


def test_zero_and_unit():
    Z = MonomialIdeal(3)
    assert Z.is_zero() and not Z.is_unit()
    assert M(1, 0, 0) not in Z
    U = MonomialIdeal(3, [M(0, 0, 0), M(1, 0, 0)])
    assert U.is_unit() and U.gens == (M(0, 0, 0),)
    assert M(0, 0, 0) in U


def test_wrong_variable_count_rejected():
    with pytest.raises(ValueError):
        MonomialIdeal(3, [M(1, 0)])
    J = MonomialIdeal(3, [M(1, 0, 0)])
    for m in (M(1, 0), M(1, 0, 0, 0)):
        with pytest.raises(ValueError, match="expected 3"):
            m in J
    with pytest.raises(ValueError):
        quotient_by_monomial(J, M(1, 0))
    with pytest.raises(ValueError):
        monomial_intersection(J, MonomialIdeal(2, [M(1, 0)]))


def test_quotient_by_monomial_known_values():
    assert quotient_by_monomial(MonomialIdeal(1, [M(2)]), M(1)) == MonomialIdeal(
        1, [M(1)]
    )
    J = MonomialIdeal(4, [M(2, 0, 0, 0), M(0, 2, 0, 0), M(0, 0, 2, 0)])
    assert quotient_by_monomial(J, M(0, 0, 0, 1)) == J
    assert quotient_by_monomial(J, M(0, 1, 0, 0)) == MonomialIdeal(
        4, [M(2, 0, 0, 0), M(0, 1, 0, 0), M(0, 0, 2, 0)]
    )


def test_quotient_by_set_basics():
    J = MonomialIdeal(4, [M(2, 0, 0, 0), M(0, 2, 0, 0), M(0, 0, 2, 0)])
    t2 = M(0, 1, 0, 0)
    t3 = M(0, 0, 1, 0)
    assert quotient_by_set(J, [t2]) == quotient_by_monomial(J, t2)
    assert quotient_by_set(J, [t2, t3]) != J
    with pytest.raises(ValueError):
        quotient_by_set(J, [])


def test_quotient_contains_ideal():
    rng = random.Random(40813)
    for _ in range(60):
        nv = rng.randint(1, 4)
        J = MonomialIdeal(
            nv,
            [monomial([rng.randrange(4) for _ in range(nv)]) for _ in range(rng.randint(1, 4))],
        )
        ms = [monomial([rng.randrange(3) for _ in range(nv)]) for _ in range(rng.randint(1, 3))]
        if (0,) * nv in ms:
            continue
        Q = quotient_by_set(J, ms)
        for g in J.gens:
            assert g in Q


def test_intersection_against_membership():
    rng = random.Random(61211)
    for _ in range(40):
        nv = rng.randint(1, 3)
        A = MonomialIdeal(
            nv, [monomial([rng.randrange(4) for _ in range(nv)]) for _ in range(rng.randint(1, 3))]
        )
        B = MonomialIdeal(
            nv, [monomial([rng.randrange(4) for _ in range(nv)]) for _ in range(rng.randint(1, 3))]
        )
        meet = monomial_intersection(A, B)
        assert meet == monomial_intersection(B, A)
        for exps in itertools.product(range(5), repeat=nv):
            m = monomial(exps)
            assert (m in meet) == (m in A and m in B)
    Z = MonomialIdeal(2)
    assert monomial_intersection(MonomialIdeal(2, [M(1, 1)]), Z).is_zero()


def test_dimension():
    assert MonomialIdeal(3, [M(1, 0, 0), M(0, 1, 0), M(0, 0, 1)]).dimension() == 0
    assert MonomialIdeal(3).dimension() == 3
    assert MonomialIdeal(4, [M(2, 0, 0, 0), M(0, 2, 0, 0), M(0, 0, 2, 0)]).dimension() == 1
    assert MonomialIdeal(3, [M(2, 0, 0)]).dimension() == 2
    assert MonomialIdeal(2, [M(1, 1)]).dimension() == 1
    assert MonomialIdeal(3, [M(0, 0, 0)]).dimension() == -1


def test_dimension_matches_the_largest_avoiding_subset():
    rng = random.Random(24)
    for _ in range(300):
        nvars = rng.randint(1, 6)
        gens = [monomial([rng.randrange(3) for _ in range(nvars)])
                for _ in range(rng.randrange(6))]
        J = MonomialIdeal(nvars, gens)
        avoiding = [
            len(chosen)
            for size in range(nvars + 1)
            for chosen in itertools.combinations(range(nvars), size)
            if not any(all(g[j] == 0 or j in chosen for j in range(nvars)) for g in J.gens)
        ]
        assert J.dimension() == max(avoiding, default=-1), J
        assert J.dimension_at_most_one() == (J.dimension() <= 1), J


def ideal_of_supports(nvars, supports):
    return MonomialIdeal(nvars, [tuple(int(i in s) for i in range(nvars)) for s in supports])


# (t1, ..., t23) in 24 variables: one point, dimension one, and 2^24 subsets
# of the variables; its exponent box with one coordinate zeroed has 2^23 cells
POINT_IDEAL = ideal_of_supports(24, [{j} for j in range(23)])
# t1 and every t_i t_j in 24 variables: the 23 coordinate points of t1 = 0,
# whose degree-25 grid of exponents has 26^23 cells but only 576 standard ones
COORDINATE_IDEAL = ideal_of_supports(24, [{0}] + list(itertools.combinations(range(1, 24), 2)))


@pytest.mark.parametrize("supports, dim", [
    ([{j} for j in range(23)], 1),
    ([{0}], 23),
    ([{0, 1}], 23),
    ([{j} for j in range(12)], 12),
    (itertools.combinations(range(24), 2), 1),
    ([{2 * i, 2 * i + 1} for i in range(12)], 12),
    ([{i, (i + 1) % 24} for i in range(24)], 12),
    (itertools.combinations(range(16), 3), 10),
])
def test_dimension_is_fast_at_every_size(supports, dim):
    J = ideal_of_supports(24, list(supports))
    start = time.perf_counter()
    assert J.dimension() == dim
    assert J.dimension_at_most_one() == (dim <= 1)
    assert time.perf_counter() - start < 1.0


def test_standard_cells_match_the_box(seed=23):
    rng = random.Random(seed)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        gens = np.array([[rng.choice([0, 0, 1, 2, 3]) for _ in range(nvars)]
                         for _ in range(rng.randrange(5))], dtype=np.int64).reshape(-1, nvars)
        caps = [rng.randrange(4) for _ in range(nvars)]
        top = rng.choice([None, rng.randrange(8)])
        box = [u for u in itertools.product(*(range(c + 1) for c in caps))
               if (top is None or sum(u) <= top) and not any((np.array(u) >= gens).all(axis=1))]
        assert _standard_cells(gens, caps, top).tolist() == [list(u) for u in box]


@pytest.mark.parametrize("J, rays, summary", [
    (POINT_IDEAL, [(23, (0,) * 24)], GradedQuotientSummary((1,) * 25, 1, 1, 0)),
    (COORDINATE_IDEAL, [(i, (0,) * 24) for i in range(1, 24)],
     GradedQuotientSummary((1,) + (23,) * 25, 1, 23, 1)),
])
def test_standard_cells_follow_the_cells_not_the_box(J, rays, summary):
    start = time.perf_counter()
    assert FootprintRays(J).ray_cells == rays
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert monomial_quotient_degree(J) == summary
    assert time.perf_counter() - start < 1.0


def brute_slice(nvars, d, gens):
    return [monomial(e) for e in itertools.product(range(d + 1), repeat=nvars)
            if sum(e) == d and not any(divides(g, e) for g in gens)]


def test_degree_slice_enumerates_standard_monomials(seed=25):
    J = MonomialIdeal(3, [M(4, 0, 0), M(0, 4, 0)])
    for d in range(8):
        # in increasing lex order: admissible_counts reads its pool in it
        assert J.degree_slice(d) == brute_slice(3, d, J.gens)
    with pytest.raises(ValueError):
        J.degree_slice(-1)
    # non-minimal generator lists, with and without pure powers and the unit
    rng = random.Random(seed)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        gens = [M(*(rng.choice([0, 0, 1, 2, 3]) for _ in range(nvars)))
                for _ in range(rng.randrange(6))]
        if rng.random() < 0.3:
            j = rng.randrange(nvars)
            gens.append(M(*(rng.randint(1, 4) * (i == j) for i in range(nvars))))
        gens += [gens[-1]] if gens and rng.random() < 0.3 else []
        rng.shuffle(gens)
        J = MonomialIdeal(nvars, gens)
        for d in range(8):
            want = brute_slice(nvars, d, gens)
            assert monomials_of_degree(nvars, d, gens) == want, (gens, d)
            assert J.degree_slice(d) == want, (gens, d)


@pytest.mark.parametrize("J, hilbert, slice_", [
    # (t1, ..., t9) in 10 variables leaves one standard monomial in each
    # degree, among C(d + 9, 9) monomials (211 million at d = 30)
    (MonomialIdeal(10, [tuple(int(i == j) for i in range(10)) for j in range(9)]), [1] * 31,
     [(0,) * 9 + (30,)]),
    # in(I_X) of the 10 coordinate points of P^9/F_3 is every t_i t_j, which
    # leaves the 10 pure powers among C(23, 9) = 817,190 monomials at d = 14
    (MonomialIdeal(10, [tuple(int(k in (i, j)) for k in range(10))
                        for i, j in itertools.combinations(range(10), 2)]), [1] + [10] * 14,
     [tuple(14 * (k == i) for k in range(10)) for i in reversed(range(10))]),
], ids=["one-ray", "coordinate-points"])
def test_degree_slice_walks_only_the_standard_prefixes(J, hilbert, slice_):
    # the walk must cut every prefix a generator fits, not filter every
    # monomial of the degree
    start = time.perf_counter()
    assert [J.hilbert_function(d) for d in range(len(hilbert))] == hilbert
    assert J.degree_slice(len(hilbert) - 1) == slice_
    assert time.perf_counter() - start < 1.0
    # the unit ideal has no standard monomials, in any degree
    assert MonomialIdeal(3, [M(0, 0, 0)]).degree_slice(0) == []


def test_hilbert_values_of_two_pure_powers():
    J = MonomialIdeal(3, [M(4, 0, 0), M(0, 4, 0)])
    assert [J.hilbert_function(d) for d in range(8)] == [1, 3, 6, 10, 13, 15, 16, 16]


def test_monomial_quotient_degree_known_values():
    J = MonomialIdeal(4, [M(2, 0, 0, 0), M(0, 2, 0, 0), M(0, 0, 2, 0), M(0, 1, 0, 0)])
    s = monomial_quotient_degree(J)
    assert s.degree == 4 and s.dimension == 1
    for nv in range(1, 5):
        gens = [monomial([1 if j == i else 0 for j in range(nv)]) for i in range(nv)]
        assert monomial_quotient_degree(MonomialIdeal(nv, gens)).degree == 1
    s = monomial_quotient_degree(MonomialIdeal(3, [M(4, 0, 0), M(0, 4, 0)]))
    assert s.degree == 16 and s.reg_index == 6
    assert s.hilbert_values[:7] == (1, 3, 6, 10, 13, 15, 16)


def test_monomial_quotient_degree_edge_cases():
    s = monomial_quotient_degree(MonomialIdeal(2, [M(0, 0)]))
    assert s.degree == 0 and s.hilbert_values == (0,)
    s = monomial_quotient_degree(MonomialIdeal(1))
    assert s.degree == 1 and s.dimension == 1 and s.reg_index == 0
    with pytest.raises(UnsupportedDimensionError):
        monomial_quotient_degree(MonomialIdeal(2))
    with pytest.raises(UnsupportedDimensionError):
        monomial_quotient_degree(MonomialIdeal(3, [M(2, 0, 0)]))


def test_monomial_quotient_degree_extra_argument():
    # extra generators adjoined with J.add
    J = MonomialIdeal(4, [M(2, 0, 0, 0), M(0, 2, 0, 0), M(0, 0, 2, 0)])
    assert monomial_quotient_degree(J.add([M(0, 1, 0, 0)])).degree == 4
    # dim 2 drops to dim 0 once enough variables are adjoined
    K = MonomialIdeal(3, [M(2, 0, 0)])
    s = monomial_quotient_degree(K.add([M(0, 1, 0), M(0, 0, 1)]))
    assert s.degree == 2 and s.dimension == 0


def test_dimension_zero_sums_footprint():
    J = MonomialIdeal(2, [M(3, 0), M(0, 2), M(1, 1)])
    s = monomial_quotient_degree(J)
    # standard monomials: 1, t1, t2, t1^2
    assert s.dimension == 0 and s.degree == 4 and s.hilbert_values == (1, 2, 1, 0)


def test_quotient_degree_counts_match_hilbert_function():
    # the count of standard cells by degree against the degree-slice walk;
    # (t3^2, t1 t2) has dimension one and no pure power of t1 or t2
    rng = random.Random(40213)
    ideals = [random_low_dim_ideal(rng, rng.randint(1, 4)) for _ in range(100)]
    ideals.append(MonomialIdeal(3, [M(0, 0, 2), M(1, 1, 0)]))
    dimensions = set()
    for J in ideals:
        s = monomial_quotient_degree(J)
        values = [J.hilbert_function(e) for e in range(len(s.hilbert_values))]
        assert list(s.hilbert_values) == values, J
        dimensions.add(s.dimension)
    assert dimensions == {0, 1}
    assert s.hilbert_values == (1, 3, 4, 4, 4, 4) and s.reg_index == 2


def summary_by_taylor_bound(J):
    """Hilbert data of S/J in dimension one, evaluated through D*+1 with D*
    the sum of the generator degrees, which bounds the regularity through
    the Taylor resolution."""
    dstar = sum(map(sum, J.gens))
    values = [J.hilbert_function(d) for d in range(dstar + 2)]
    assert values[dstar] == values[dstar + 1]
    reg = dstar
    while reg > 0 and values[reg - 1] == values[dstar]:
        reg -= 1
    return GradedQuotientSummary(tuple(values), 1, values[dstar], reg)


@st.composite
def dimension_one_ideals(draw):
    nvars = draw(st.integers(1, 4))
    exponent = st.integers(0, 4)
    gens = []
    for j in range(nvars):
        power = draw(st.integers(0, 5))  # 0 leaves variable j without a pure power
        if power:
            gens.append(monomial([power if i == j else 0 for i in range(nvars)]))
    gens += draw(st.lists(st.lists(exponent, min_size=nvars, max_size=nvars), max_size=4))
    J = MonomialIdeal(nvars, gens)
    assume(not J.is_unit())
    assume((nvars if J.is_zero() else J.dimension()) == 1)
    return J


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dimension_one_ideals())
def test_box_bound_matches_taylor_bound(J):
    got = monomial_quotient_degree(J)
    want = summary_by_taylor_bound(J)
    assert (got.degree, got.dimension, got.reg_index) == (
        want.degree,
        want.dimension,
        want.reg_index,
    )
    common = min(len(got.hilbert_values), len(want.hilbert_values))
    assert got.hilbert_values[:common] == want.hilbert_values[:common]


def test_footprint_rays_rejects_bad_input():
    with pytest.raises(UnsupportedDimensionError):
        FootprintRays(MonomialIdeal(3, [M(2, 0, 0)]))
    with pytest.raises(ValueError):
        FootprintRays(MonomialIdeal(2, [M(0, 0)]))


def test_footprint_rays_stable_degree_matches_summary():
    # deg S/J is the ray count in dimension one; dimension zero has no rays
    rng = random.Random(98317)
    checked = 0
    for _ in range(200):
        nv = rng.randint(1, 4)
        J = random_low_dim_ideal(rng, nv)
        fr = FootprintRays(J)
        summary = monomial_quotient_degree(J)
        if summary.dimension == 1:
            assert len(fr.ray_cells) == summary.degree
        else:
            assert fr.ray_cells == []
        checked += 1
    assert checked == 200


def test_sum_degree_matches_direct_count():
    rng = random.Random(55102)
    for _ in range(150):
        nv = rng.randint(2, 4)
        J = random_low_dim_ideal(rng, nv)
        fr = FootprintRays(J)
        cands = [m for m in standard_monomials_upto(J, 3) if any(m)]
        if not cands:
            continue
        Mset = rng.sample(cands, min(len(cands), rng.randint(1, 3)))
        assert sum_degree(fr, Mset) == monomial_quotient_degree(J.add(Mset)).degree


def test_witness_masks_decide_colon_inequality():
    rng = random.Random(77923)
    for _ in range(150):
        nv = rng.randint(2, 4)
        J = random_low_dim_ideal(rng, nv)
        fr = FootprintRays(J)
        cands = [m for m in standard_monomials_upto(J, 3) if any(m)]
        if not cands:
            continue
        Mset = rng.sample(cands, min(len(cands), rng.randint(1, 3)))
        acc = -1
        for m in Mset:
            acc &= witness_mask(fr, m)
        assert (acc != 0) == (quotient_by_set(J, Mset) != J)


def all_small_ideals(nvars):
    pool = []
    for d in (1, 2):
        for c in itertools.combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for j in c:
                e[j] += 1
            pool.append(monomial(e))
    seen = {}
    for r in range(len(pool) + 1):
        for sub in itertools.combinations(pool, r):
            J = MonomialIdeal(nvars, sub)
            seen[J] = J
    return list(seen)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_quotient_by_set_matches_groebner_quotient(nvars):
    # exhaustive over every monomial ideal with generators of degree <= 2
    # and every nonempty generating set of the same shape
    ring = PolyRing(PrimeField(2), nvars)
    ideals = all_small_ideals(nvars)
    as_polys = {
        J: [ring.from_terms({g: 1}) for g in J.gens] for J in ideals
    }
    for J in ideals:
        I = Ideal(ring, as_polys[J])
        for K in ideals:
            if K.is_zero():
                continue
            fast = quotient_by_set(J, K.gens)
            slow = ideal_quotient(I, as_polys[K])
            slow_gens = []
            for p in slow.groebner_basis():
                assert len(p.terms) == 1
                slow_gens.append(p.leading_monomial())
            assert fast == MonomialIdeal(nvars, slow_gens)
