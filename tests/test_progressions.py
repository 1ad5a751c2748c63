import copy
import math
import pickle
from itertools import product

import pytest
from hypothesis import given, strategies as st

from comshuffle.progressions import (
    CongruenceSystem,
    Progression,
    crt_solve,
    normalize_progressions,
    prog_intersect,
    prog_product,
)

CHECK_LIMIT = 200

offsets = st.integers(min_value=0, max_value=10)
periods = st.integers(min_value=1, max_value=8)


def members(p: Progression, limit: int = CHECK_LIMIT) -> set[int]:
    return {n for n in range(limit) if n in p}


def test_progression_membership():
    p = Progression(3, 4)
    assert 3 in p
    assert 7 in p
    # 4 is an item of the pair (the period), but not a count of the set
    assert 4 not in p
    assert 2 not in p


def test_progression_rejects_bad_fields():
    with pytest.raises(ValueError):
        Progression(-1, 2)
    with pytest.raises(ValueError):
        Progression(0, 0)


@given(offsets, periods, offsets, periods)
def test_contains_progression_matches_enumeration(k1, p1, k2, p2):
    a, b = Progression(k1, p1), Progression(k2, p2)
    assert a.contains_progression(b) == (members(b) <= members(a))


@given(offsets, periods, offsets, periods)
def test_prog_intersect_matches_enumeration(k1, p1, k2, p2):
    a, b = Progression(k1, p1), Progression(k2, p2)
    got = prog_intersect(a, b)
    expected = members(a) & members(b)
    if got is None:
        assert expected == set()
    else:
        assert members(got) == expected


def test_crt_solve_basic():
    assert crt_solve(CongruenceSystem(((1, 2), (2, 3)))) == (5, 6)
    assert crt_solve(CongruenceSystem(((0, 2), (1, 2)))) is None


def test_crt_solve_single():
    assert crt_solve(CongruenceSystem(((3, 5),))) == (3, 5)


def test_crt_solve_non_coprime_compatible():
    # x = 2 mod 4 and x = 0 mod 2 share solutions even though gcd(4,2) = 2
    assert crt_solve(CongruenceSystem(((2, 4), (0, 2)))) == (2, 4)


def test_congruence_system_validates_residues():
    with pytest.raises(ValueError):
        CongruenceSystem(((3, 2),))


def test_normalize_progressions_drops_subsumed():
    out = normalize_progressions([Progression(2, 2), Progression(4, 4), Progression(2, 2)])
    assert out == (Progression(2, 2),)


@given(offsets, periods, offsets, periods)
def test_prog_product_matches_pairwise_sums(k1, p1, k2, p2):
    a, b = Progression(k1, p1), Progression(k2, p2)
    out = prog_product(a, b)
    sums = {
        x + y
        for x, y in product(members(a, CHECK_LIMIT // 2), members(b, CHECK_LIMIT // 2))
        if x + y < CHECK_LIMIT // 2
    }
    covered = {n for n in range(CHECK_LIMIT // 2) if any(n in q for q in out)}
    assert covered == sums


def semigroup_elements(gens, limit):
    """Elements of the numerical semigroup generated by `gens` below `limit`,
    by dynamic programming."""
    reachable = [False] * max(limit, 1)
    if limit > 0:
        reachable[0] = True
        for n in range(1, limit):
            reachable[n] = any(n >= g and reachable[n - g] for g in gens)
    return [n for n in range(limit) if reachable[n]]


def reference_prog_product(p1, p2):
    """The product by enumeration: every element e of ⟨a, b⟩ below its
    conductor gives k + e·g + m1·N, the conductor gives the tail k + c·g +
    g·N, and `normalize_progressions` drops the contained ones."""
    (k1, m1), (k2, m2) = p1, p2
    k = k1 + k2
    g = math.gcd(m1, m2)
    a, b = m1 // g, m2 // g
    conductor = 0 if a == 1 or b == 1 else (a - 1) * (b - 1)
    result = [Progression(k + e * g, m1) for e in semigroup_elements((a, b), conductor)]
    result.append(Progression(k + conductor * g, g))
    return normalize_progressions(result)


def test_prog_product_equals_the_enumerated_product():
    # equal tuples: the same progressions in the same order.  The reference
    # is quadratic in the conductor, so it runs once per pair of periods; at
    # offsets k1 and k2 the product is the one at 0 and 0 shifted by k1 + k2
    for m1, m2 in product(range(1, 41), repeat=2):
        reference = reference_prog_product(Progression(0, m1), Progression(0, m2))
        for k1, k2 in product((0, 1, 3, 4), (0, 2)):
            got = prog_product(Progression(k1, m1), Progression(k2, m2))
            assert got == tuple(Progression(k1 + k2 + k, p) for k, p in reference), (k1, m1, k2, m2)
            assert all(type(q) is Progression for q in got)
    # g = 2, a = 3, b = 5, c = 8: the classes y = 0 and 1 (y·5 < 8) start
    # below the tail 4 + 2·8 + 2N, and y = 2 lies in it
    assert prog_product(Progression(1, 6), Progression(3, 10)) == (
        Progression(4, 6), Progression(14, 6), Progression(20, 2)
    )


def test_prog_product_coprime_periods_has_conductor():
    # periods 2 and 3: beyond the conductor every residue appears
    out = prog_product(Progression(0, 2), Progression(0, 3))
    covered = {n for n in range(60) if any(n in q for q in out)}
    sums = {2 * i + 3 * j for i in range(30) for j in range(20) if 2 * i + 3 * j < 60}
    assert covered == sums
    assert math.gcd(2, 3) == 1 and all(n in covered for n in range(2, 60) if n != 1)


def test_progression_is_a_value_pair():
    p = Progression(3, 4)
    assert (p.offset, p.period) == (3, 4)
    assert p == Progression(3, 4) and hash(p) == hash(Progression(3, 4))
    assert p != Progression(3, 2)
    # by offset, then period: `normalize_progressions` sorts by this order
    assert sorted([Progression(1, 3), Progression(0, 5), Progression(1, 2)]) == [
        Progression(0, 5), Progression(1, 2), Progression(1, 3)
    ]
    with pytest.raises(AttributeError):
        p.offset = 4
    with pytest.raises(AttributeError):
        p.label = "x"


def test_progression_repr_names_its_fields():
    assert repr(Progression(1, 2)) == "Progression(offset=1, period=2)"
    assert repr(Progression(offset=0, period=7)) == "Progression(offset=0, period=7)"


@pytest.mark.parametrize("copier", [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy])
def test_progression_round_trips_through_pickle_and_copy(copier):
    p = copier(Progression(3, 4))
    assert type(p) is Progression
    assert p == Progression(3, 4) and p.offset == 3 and p.period == 4


def test_progression_refuses_tuple_arithmetic():
    p, q = Progression(1, 2), Progression(0, 3)
    for op in (lambda: p + q, lambda: p * 2, lambda: 2 * p, lambda: p + (1,), lambda: (1,) + p):
        with pytest.raises(TypeError):
            op()
