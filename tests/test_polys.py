import gc
import itertools
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepit import polys
from conepit.errors import ArityMismatch, BadParameters, TooLarge, ValidationError, ZeroPolynomial
from conepit.fields import Field
from conepit.generators import random_multipoly
from conepit.polys import (
    MultiPoly,
    VectorPoly,
    coeff_rank,
    cone_size,
    deglex_key,
    enumerate_low_cone,
    exponents_of_degree,
    format_monomial,
    is_cone_closed,
    is_submonomial,
    leading_monomial,
    low_cone_count,
    low_cone_count_bound,
    parse_monomial,
    pd_space_dim,
)
from reference import (
    factorization_low_cone_count,
    grid_low_cone_count,
    naive_is_cone_closed,
    naive_pd_dim,
    reference_enumerate_low_cone,
)

Q = Field.rationals()
FP = Field.default_prime()


def test_cone_size_examples():
    assert cone_size((2, 1, 0)) == 6
    assert cone_size((0, 0, 0, 0)) == 1
    assert cone_size((1, 1, 1, 1)) == 16


def test_is_submonomial_examples():
    assert is_submonomial((1, 0), (2, 1))
    assert not is_submonomial((2, 0), (1, 3))
    assert is_submonomial((2, 1), (2, 1))
    with pytest.raises(ArityMismatch):
        is_submonomial((1,), (1, 2))


def test_is_cone_closed_examples():
    assert is_cone_closed({(0, 0), (1, 0), (0, 1)})
    assert not is_cone_closed({(1, 1)})
    assert is_cone_closed(set())


def test_an_exponent_of_another_arity_is_refused():
    p = MultiPoly.make(Q, 2, {(1, 0): 3})
    for call in (
        lambda: p.coefficient((1, 0, 0)),
        lambda: p.mul_monomial((1, 0, 0)),
        lambda: VectorPoly.make(Q, 2, 1, [((1, 0), [3])]).coefficient((1,)),
        lambda: is_submonomial((1, 0), (1, 0, 0)),
        lambda: is_cone_closed([(0, 0), (0,)]),
    ):
        with pytest.raises(ArityMismatch):
            call()
    # a list is read as the vector it holds
    assert p.coefficient([1, 0]) == 3 and is_cone_closed([[0, 0], [1, 0]])


@pytest.mark.parametrize("field", [Q, FP], ids=["Q", "Fp"])
def test_multipoly_evaluate_reads_its_point_as_circuit_evaluate_does(field):
    p = MultiPoly.make(field, 2, {(1, 0): 3, (0, 2): 1})
    assert p.evaluate(["1/2", np.int64(2)]) == field.add(field.of(Fraction(3, 2)), field.of(4))
    for point in ([1.5, 2], [np.float64(1), 2], [None, 2]):
        with pytest.raises(ValidationError):
            p.evaluate(point)


def test_is_cone_closed_matches_naive():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 3)
        S = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))}
        assert is_cone_closed(S) == naive_is_cone_closed(S)


def test_exponents_of_degree_is_the_grid_filter_in_order():
    rng = random.Random(10)
    shapes = [caps for length in range(5) for caps in itertools.product(range(5), repeat=length)]
    shapes += [tuple(rng.randint(0, 4) for _ in range(5)) for _ in range(150)]
    for caps in shapes:
        grid = list(itertools.product(*(range(c + 1) for c in caps)))
        for total in range(sum(caps) + 2):
            assert list(exponents_of_degree(caps, total)) == [e for e in grid if sum(e) == total]


def test_enumerate_low_cone_examples():
    assert enumerate_low_cone(1, 3) == [(0,), (1,), (2,)]
    got = enumerate_low_cone(2, 4)
    assert len(got) == 8
    assert set(got) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3)}
    assert enumerate_low_cone(3, 1) == [(0, 0, 0)]
    # arity 0: the one empty vector, the constant monomial, in layer 0 only
    for dcap in (None, 0, 3):
        assert enumerate_low_cone(0, 4, dcap) == reference_enumerate_low_cone(0, 4, dcap) == [()]
        assert enumerate_low_cone(0, 4, dcap, degree=0) == [()] and enumerate_low_cone(0, 4, dcap, degree=1) == []
    for n, k in ((-1, 4), (2, 0), (0, 0)):
        with pytest.raises(BadParameters):
            enumerate_low_cone(n, k)


def test_enumerate_low_cone_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        enumerate_low_cone(4, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_low_cone_at_large_arity(monkeypatch):
    # the walk recurses over nonzero entries, so its depth does not grow with n
    n = 1500
    got = enumerate_low_cone(n, 2)
    assert len(got) == n + 1
    assert got[:2] == [(0,) * n, (0,) * (n - 1) + (1,)] and got[-1] == (1,) + (0,) * (n - 1)
    assert enumerate_low_cone(100_000, 1) == [(0,) * 100_000]
    assert enumerate_low_cone(3, 4, dcap=-1) == []
    # n times the output count may not pass the guard; these raise before
    # a single vector is built
    for n in (99_999_999_999, 10**40):
        with pytest.raises(TooLarge):
            enumerate_low_cone(n, 1)
    monkeypatch.setattr(polys, "LOW_CONE_GUARD", 12)
    assert len(enumerate_low_cone(3, 2)) == 4
    monkeypatch.setattr(polys, "LOW_CONE_GUARD", 11)
    with pytest.raises(TooLarge):
        enumerate_low_cone(3, 2)


def test_enumerate_low_cone_ordering_and_closure():
    for n in (1, 2, 3):
        for k in (2, 5, 9):
            vecs = enumerate_low_cone(n, k)
            keys = [deglex_key(e) for e in vecs]
            assert keys == sorted(keys)
            assert len(set(vecs)) == len(vecs)
            assert is_cone_closed(vecs)


def test_enumerate_low_cone_dcap():
    capped = enumerate_low_cone(2, 8, dcap=2)
    assert all(sum(e) <= 2 for e in capped)
    assert set(capped) == {e for e in enumerate_low_cone(2, 8) if sum(e) <= 2}


def test_enumerate_low_cone_counts_and_bound():
    for n in range(1, 11):
        for k in (2, 4, 8, 16, 32, 64):
            got = len(enumerate_low_cone(n, k))
            assert got == factorization_low_cone_count(n, k)
            if k ** n <= 300_000:
                assert got == grid_low_cone_count(n, k)
            assert got <= low_cone_count_bound(n, k) * (1 + 1e-9)


def _refused(call) -> bool:
    try:
        call()
    except TooLarge:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 7),
    k=st.integers(1, 33),
    dcap=st.sampled_from([None, -1, 0, 1, 2, 3, 4, 5, 6]),
    data=st.data(),
)
def test_enumerate_low_cone_matches_the_reference_walk(n, k, dcap, data):
    want = reference_enumerate_low_cone(n, k, dcap)
    assert enumerate_low_cone(n, k, dcap) == want
    # each degree slice is that layer of the whole list, and nothing outside 0 .. cap
    for t in range(-1, k + 1):
        assert enumerate_low_cone(n, k, dcap, degree=t) == [e for e in want if sum(e) == t]
    cap = k - 1 if dcap is None else min(dcap, k - 1)
    if cap >= 0:
        assert low_cone_count(n, k, cap, 10**9) == len(want)
        if dcap is None:
            assert len(want) == factorization_low_cone_count(n, k)
        if k**n <= 20_000:
            assert len(want) == grid_low_cone_count(n, k, dcap)
    # TooLarge on exactly the guards that stop the reference walk, for the
    # whole list and for any one layer of it
    entries = n * len(want)
    guard = data.draw(st.sampled_from([0, entries - 1, entries, entries + 1]) | st.integers(0, entries + n))
    t = data.draw(st.integers(-1, k))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "LOW_CONE_GUARD", guard)
        refused = _refused(lambda: reference_enumerate_low_cone(n, k, dcap))
        assert _refused(lambda: enumerate_low_cone(n, k, dcap)) == refused
        assert _refused(lambda: enumerate_low_cone(n, k, dcap, degree=t)) == refused
        assert refused == (cap >= 0 and entries > guard)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 3000), stop=st.integers(0, 10**6))
def test_low_cone_count_is_exact_up_to_its_stop(n, k, stop):
    want = factorization_low_cone_count(n, k)
    got = low_cone_count(n, k, k - 1, stop)
    assert got == want if want <= stop else got > stop
    assert low_cone_count(n, k, k - 1, 10**12) == want


def test_huge_cone_is_refused_by_counting():
    # 2 * (10^13 - 1) vectors of one nonzero entry alone pass the guard, so
    # the count stops at once and no vector is built; the alarm only
    # detects a hang
    def hang(signum, frame):
        raise AssertionError("enumerate_low_cone(2, 10**13) did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with pytest.raises(TooLarge, match="more than 10000000 exponent entries at arity 2, cone size 10000000000000"):
            enumerate_low_cone(2, 10**13)
        with pytest.raises(TooLarge):
            enumerate_low_cone(2, 10**13, dcap=10**6, degree=0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_count_bound_holds_where_3n_is_below_log2_k():
    # 264 points, n <= 8 and k <= 4096; read at n itself the formula fell
    # below the count at 28 of them: n = 1 from k = 65, n = 2 from k = 1000
    ks = sorted({2**j for j in range(1, 13)} | {2**j + 1 for j in range(1, 12)} | {3**j for j in range(1, 8)}
                | {10, 65, 100, 101, 1000, 4095})
    assert len(ks) == 33
    for n in range(1, 9):
        for k in ks:
            got = factorization_low_cone_count(n, k)
            if got <= 5000:
                assert got == len(enumerate_low_cone(n, k))
            assert got <= low_cone_count_bound(n, k) * (1 + 1e-9), (n, k)
    assert low_cone_count_bound(1, 4096) == low_cone_count_bound(4, 4096) > factorization_low_cone_count(4, 4096)


def test_mul_monomial_shifts_exponents_and_keeps_coefficients():
    p = MultiPoly.make(Q, 2, {(1, 0): Fraction(1, 3), (0, 2): -2})
    assert p.mul_monomial((2, 1)) == MultiPoly.make(Q, 2, {(3, 1): Fraction(1, 3), (2, 3): -2})
    assert MultiPoly.zero(FP, 3).mul_monomial((1, 1, 1)).is_zero


def test_leading_monomial_examples():
    p = MultiPoly.make(Q, 2, {(2, 0): 1, (1, 1): 1})
    assert leading_monomial(p) == (2, 0)
    assert leading_monomial(MultiPoly.const(Q, 3, 5)) == (0, 0, 0)
    q = MultiPoly.make(Q, 2, {(0, 3): 1, (1, 1): 1})
    assert leading_monomial(q) == (0, 3)
    with pytest.raises(ZeroPolynomial):
        leading_monomial(MultiPoly.zero(Q, 2))


def test_pd_space_dim_examples():
    assert pd_space_dim(MultiPoly.make(Q, 2, {(1, 1): 1})) == 4
    square = MultiPoly.make(Q, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert pd_space_dim(square) == 3
    assert pd_space_dim(MultiPoly.const(Q, 2, 7)) == 1
    assert pd_space_dim(MultiPoly.zero(Q, 2)) == 0


def test_pd_space_dim_guard(monkeypatch):
    # the cones of x1*x2 and x2^2 hold 4 + 3 monomials
    p = MultiPoly.make(Q, 2, {(1, 1): 1, (0, 2): 1})
    monkeypatch.setattr(polys, "LOW_CONE_GUARD", 7)
    assert pd_space_dim(p) == 4
    monkeypatch.setattr(polys, "LOW_CONE_GUARD", 6)
    with pytest.raises(TooLarge):
        pd_space_dim(p)


def test_pd_space_dim_matches_naive():
    rng = random.Random(11)
    for _ in range(60):
        p = random_multipoly(rng, Q, rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 4))
        assert pd_space_dim(p) == naive_pd_dim(p)


def test_leading_monomial_cone_bound():
    # cone_size(LM(p)) <= pd_space_dim(p) on random sparse polynomials
    rng = random.Random(13)
    for _ in range(100):
        p = random_multipoly(rng, Q, rng.randint(1, 4), rng.randint(0, 5), rng.randint(1, 5))
        if p.is_zero:
            continue
        assert cone_size(leading_monomial(p)) <= pd_space_dim(p)


def test_coeff_rank_examples():
    f = VectorPoly.make(Q, 2, 2, [((1, 0), (1, 0))])
    assert coeff_rank(f) == 1
    g = VectorPoly.make(Q, 2, 2, [((0, 0), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1))])
    assert coeff_rank(g) == 2
    assert coeff_rank(VectorPoly.make(Q, 2, 2, [])) == 0


def test_monomial_text_round_trip():
    assert format_monomial((2, 0, 1)) == "x1^2*x3"
    assert format_monomial((0, 0)) == "1"
    assert parse_monomial("x1^2*x3", 3) == (2, 0, 1)
    assert parse_monomial("1", 2) == (0, 0)
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        e = tuple(rng.randint(0, 4) for _ in range(n))
        assert parse_monomial(format_monomial(e), n) == e


def test_multipoly_arithmetic_round_trip():
    rng = random.Random(9)
    for field in (Q, FP):
        for _ in range(50):
            n = rng.randint(1, 3)
            a = random_multipoly(rng, field, n, 3, 4)
            b = random_multipoly(rng, field, n, 3, 4)
            pt = [field.random(rng) for _ in range(n)]
            lhs = a.mul(b).add(a).evaluate(pt)
            rhs = field.add(field.mul(a.evaluate(pt), b.evaluate(pt)), a.evaluate(pt))
            assert lhs == rhs
