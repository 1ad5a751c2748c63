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
