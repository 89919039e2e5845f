import itertools
import random
from fractions import Fraction
from math import log2

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepit import polys
from conepit.conebasis import (
    cone_closed_basis_after_shift,
    find_cone_closed,
    is_basis_isolating,
    kronecker_weights,
    least_basis,
    shift_by_weight,
    transfer_submatrix,
    weight_of,
)
from conepit.documents import vectorpoly_from_json, vectorpoly_to_json
from conepit.errors import BadParameters, EmptyInput, NotIsolating, TooLarge, ZeroPolynomial
from conepit.fields import Field
from conepit.generators import random_vectorpoly
from conepit.polys import VectorPoly, coeff_rank, cone_size, is_cone_closed
from conepit.linalg import RowReducer
from reference import bareiss_det, reference_is_basis_isolating, symbolic_shift_coefficients

Q = Field.rationals()
FP = Field.default_prime()


def example_f():
    return VectorPoly.make(Q, 2, 2, [((0, 0), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1))])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 1 << 32),
    field=st.sampled_from([Q, FP, Field.prime(7)]),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 5), st.integers(0, 8)),
    den=st.integers(1, 12),
)
def test_vectorpoly_json_round_trip(seed, field, shape, den):
    arity, dim, degree, terms = shape
    f = random_vectorpoly(random.Random(seed), field, arity, dim, degree, terms)
    if field.p is None:
        # non-integral rationals too: they render as "a/b"
        f = VectorPoly.make(field, arity, dim, [(e, [c / den for c in vec]) for e, vec in f.terms.items()])
    assert vectorpoly_from_json(vectorpoly_to_json(f)) == f


def test_least_basis_examples():
    single = VectorPoly.make(Q, 2, 1, [((2, 1), (5,))])
    assert least_basis(single, (0, 0)) == [(2, 1)]
    assert least_basis(example_f(), (1, 3)) == [(0, 0), (1, 0)]
    tie = VectorPoly.make(Q, 2, 2, [((0, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 1), (0, 1))])
    assert least_basis(tie, (1, 1)) == [(0, 0), (0, 1)]
    with pytest.raises(ZeroPolynomial):
        least_basis(VectorPoly.make(Q, 2, 2, []), (1, 1))


def test_is_basis_isolating_examples():
    rep = is_basis_isolating(example_f(), (1, 3))
    assert rep.isolating
    assert rep.basis == ((0, 0), (1, 0))
    assert rep.certificate[(1, 1)] == (((0, 0), Fraction(1)), ((1, 0), Fraction(1)))

    flat = VectorPoly.make(Q, 2, 2, [((0, 0), (1, 0)), ((1, 0), (0, 1))])
    rep = is_basis_isolating(flat, (0, 0))
    assert not rep.isolating  # two basis monomials share weight 0

    single = VectorPoly.make(Q, 2, 1, [((1, 1), (3,))])
    assert is_basis_isolating(single, (0, 0)).isolating


def test_dependency_on_a_same_weight_row_is_not_isolating():
    """x1's coefficient is half of x2's, which the deg-lex tie-break admits
    just before it at the same weight: x1 is in the span of the basis but
    not of its strictly lighter part, so w is not isolating, and the
    basis is still the greedy one."""
    f = VectorPoly.make(Q, 2, 2, [((0, 0), (0, 1)), ((1, 0), (1, 0)), ((0, 1), (2, 0))])
    rep = is_basis_isolating(f, (1, 1))
    assert not rep.isolating and rep.certificate is None
    assert rep.basis == tuple(least_basis(f, (1, 1))) == ((0, 0), (0, 1))


@pytest.mark.parametrize("field", [FP, Field.prime(7), Q], ids=lambda F: F.spec)
def test_certificates_rebuild_every_non_basis_coefficient(field):
    rng = random.Random(41)
    for _ in range(40):
        n, dim, d = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4)
        f = random_vectorpoly(rng, field, n, dim, d, rng.randint(1, 8))
        if f.is_zero:
            continue
        w = kronecker_weights(n, f.degree())
        rep = is_basis_isolating(f, w)
        assert rep.isolating
        assert set(rep.certificate) == set(f.terms) - set(rep.basis)
        for e, combo in rep.certificate.items():
            rebuilt = [field.zero()] * dim
            for b, c in combo:
                assert weight_of(w, b) < weight_of(w, e)
                rebuilt = [field.add(x, field.mul(c, y)) for x, y in zip(rebuilt, f.terms[b])]
            assert tuple(rebuilt) == f.terms[e]


@pytest.mark.parametrize("field", [Q, FP, Field.prime(7), Field.prime(3)], ids=lambda F: F.spec)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1 << 32), weights=st.sampled_from(["kronecker", "random", "0/1"]))
def test_one_pass_isolation_matches_the_twin(field, seed, weights):
    """The one elimination pass gives the basis, the flag and the
    certificate, in its order, of one in_span solve per rejected monomial."""
    rng = random.Random(seed)
    n, dim, d = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 4)
    f = random_vectorpoly(rng, field, n, dim, d, rng.randint(1, 8))
    assume(not f.is_zero)
    w = {
        "kronecker": kronecker_weights(n, d),
        "random": tuple(rng.randint(0, 6) for _ in range(n)),
        "0/1": tuple(rng.randint(0, 1) for _ in range(n)),
    }[weights]
    got, want = is_basis_isolating(f, w), reference_is_basis_isolating(f, w)
    assert (got.basis, got.isolating) == (want.basis, want.isolating)
    assert tuple(least_basis(f, w)) == want.basis
    if want.isolating:
        assert list(got.certificate.items()) == list(want.certificate.items())
    else:
        assert got.certificate is None


def test_kronecker_weights_examples():
    assert kronecker_weights(2, 2) == (1, 3)
    assert kronecker_weights(3, 1) == (1, 2, 4)
    assert kronecker_weights(1, 9) == (1,)


def test_kronecker_weights_injective_and_isolating():
    rng = random.Random(3)
    w = kronecker_weights(3, 4)
    seen = {}
    for e in [(a, b, c) for a in range(5) for b in range(5) for c in range(5) if a + b + c <= 4]:
        v = weight_of(w, e)
        assert v not in seen
        seen[v] = e
    for _ in range(30):
        f = random_vectorpoly(rng, FP, 3, 3, 4, 6)
        if f.is_zero:
            continue
        assert is_basis_isolating(f, w).isolating


def test_find_cone_closed_examples():
    assert find_cone_closed({(5,), (7,), (9,)}, 1) == [(0,), (1,), (2,)]
    assert find_cone_closed({(0, 0)}, 2) == [(0, 0)]
    assert find_cone_closed({(2, 1), (0, 3)}, 2) == [(0, 0), (1, 0)]
    assert find_cone_closed({()}, 0) == [()]
    with pytest.raises(EmptyInput):
        find_cone_closed(set(), 2)


def random_monomial_set(rng, n, cap, size):
    return {tuple(rng.randint(0, cap) for _ in range(n)) for _ in range(size)}


def test_find_cone_closed_suite():
    rng = random.Random(55)
    for _ in range(250):
        n = rng.randint(1, 4)
        B = random_monomial_set(rng, n, 4, rng.randint(1, 12))
        A = find_cone_closed(B, n)
        assert len(A) == len(B)
        assert is_cone_closed(A)
        T = transfer_submatrix(A, B)
        assert bareiss_det(T) != 0


def test_find_cone_closed_monotone():
    rng = random.Random(56)
    for _ in range(80):
        n = rng.randint(1, 4)
        B2 = random_monomial_set(rng, n, 4, rng.randint(2, 12))
        B1 = {e for e in B2 if rng.random() < 0.6}
        if not B1:
            continue
        A1 = set(find_cone_closed(B1, n))
        A2 = set(find_cone_closed(B2, n))
        assert A1 <= A2


def test_transfer_submatrix_examples():
    assert transfer_submatrix([(0,), (1,)], [(0,), (1,)]) == [[1, 1], [0, 1]]
    T = transfer_submatrix([(0, 0), (1, 0)], [(2, 1), (0, 3)])
    # columns in ascending deg-lex order: (0,3) then (2,1)
    assert T == [[1, 1], [0, 2]]
    assert bareiss_det(T) != 0
    # entries vanish when the row is not a submonomial of the column
    assert transfer_submatrix([(1, 1)], [(0, 3)]) == [[0]]


def test_shift_by_weight_examples():
    fx = VectorPoly.make(Q, 1, 1, [((1,), (1,))])
    sh = shift_by_weight(fx, (1,))
    assert sh.coefficient((0,))[0].coeffs == (0, 1)  # t
    assert sh.coefficient((1,))[0].coeffs == (1,)

    fx2 = VectorPoly.make(Q, 1, 1, [((2,), (1,))])
    sh2 = shift_by_weight(fx2, (1,))
    assert sh2.coefficient((0,))[0].coeffs == (0, 0, 1)  # t^2
    assert sh2.coefficient((1,))[0].coeffs == (0, 2)  # 2t
    assert sh2.coefficient((2,))[0].coeffs == (1,)


def test_shift_rejects_negative_weights():
    # t^(-1) is not a polynomial in t; the shift used to drop it silently
    f = example_f()
    with pytest.raises(BadParameters):
        shift_by_weight(f, (-1, 2))
    with pytest.raises(BadParameters):
        cone_closed_basis_after_shift(f, (2, -1))
    assert shift_by_weight(f, (0, 2)).coefficient((0, 0))[0].coeffs == (1, 0, 1)  # 1 + t^2


@pytest.mark.parametrize("w", [(1.5, 2), ("1", 2), (True, 2), (None, 2), (1, -1)])
def test_weights_are_natural_numbers(w):
    # read once at each entry point, as documents.natural reads them; a
    # float, string or bool used to raise TypeError or be read as an int
    f = example_f()
    for entry in (least_basis, is_basis_isolating, shift_by_weight, cone_closed_basis_after_shift):
        with pytest.raises(BadParameters, match="^weight must be a natural number, got "):
            entry(f, w)
    assert is_basis_isolating(f, (np.int64(1), np.int64(2))) == is_basis_isolating(f, (1, 2))


def test_shift_guard_counts_before_it_builds(monkeypatch):
    # x1^2 with weight 1 over dim 1: cone 3 times length 3 is 9 coefficients
    f = VectorPoly.make(Q, 1, 1, [((2,), (1,))])
    monkeypatch.setattr(polys, "LOW_CONE_GUARD", 9)
    assert shift_by_weight(f, (1,)).coefficient((0,))[0].coeffs == (0, 0, 1)
    monkeypatch.setattr(polys, "LOW_CONE_GUARD", 8)
    with pytest.raises(TooLarge):
        shift_by_weight(f, (1,))
    with pytest.raises(TooLarge):
        cone_closed_basis_after_shift(VectorPoly.make(Q, 1, 1, [((10**30,), (1,))]), (1,))


def test_shift_matches_symbolic_substitution():
    """Over F_2, F_3 and F_13 the binomials C(b, a) vanish and the collected
    coefficients cancel mod p; weights of 0 put every term at t^0."""
    for field, weights in itertools.product([Q, FP, Field.prime(2), Field.prime(3), Field.prime(13)], ["random", "kronecker", "zero"]):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(1, 3)
            k = rng.randint(1, 3)
            d = rng.randint(1, 4)
            f = random_vectorpoly(rng, field, n, k, d, rng.randint(1, 6))
            if f.is_zero:
                continue
            w = {
                "random": tuple(rng.randint(0, 4) for _ in range(n)),
                "kronecker": kronecker_weights(n, d),
                "zero": (0,) * n,
            }[weights]
            sh = shift_by_weight(f, w)
            truth = symbolic_shift_coefficients(f, w)
            for e in set(sh.terms) | set(truth):
                got = sh.coefficient(e)
                want = truth.get(e, [dict() for _ in range(k)])
                for t in range(k):
                    coeffs = tuple(want[t].get(i, field.zero()) for i in range(max(want[t], default=-1) + 1))
                    while coeffs and coeffs[-1] == 0:
                        coeffs = coeffs[:-1]
                    assert got[t].coeffs == coeffs, (field.spec, weights, f, w, e)
            assert all(any(not p.is_zero for p in ps) for ps in sh.terms.values())


def test_cone_closed_basis_after_shift_examples():
    assert cone_closed_basis_after_shift(example_f(), (1, 3)) == [(0, 0), (1, 0)]

    single = VectorPoly.make(Q, 3, 2, [((2, 0, 1), (3, 4))])
    assert cone_closed_basis_after_shift(single, kronecker_weights(3, 3)) == [(0, 0, 0)]
    assert cone_closed_basis_after_shift(VectorPoly.make(Q, 0, 2, [((), (1, 2))]), ()) == [()]

    # support contains 1 and the least basis is already cone-closed
    f = VectorPoly.make(Q, 2, 2, [((0, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (2, 3))])
    w = kronecker_weights(2, 2)
    rep = is_basis_isolating(f, w)
    assert rep.isolating and is_cone_closed(rep.basis)
    assert cone_closed_basis_after_shift(f, w) == sorted(rep.basis)


def test_cone_closed_basis_requires_isolation():
    flat = VectorPoly.make(Q, 2, 2, [((0, 0), (1, 0)), ((1, 0), (0, 1))])
    with pytest.raises(NotIsolating):
        cone_closed_basis_after_shift(flat, (0, 0))


def test_shifted_basis_suite_small():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        d = rng.randint(0, 4)
        f = random_vectorpoly(rng, FP, n, k, d, rng.randint(1, 6))
        if f.is_zero:
            continue
        w = kronecker_weights(n, max(d, f.degree()))
        A = cone_closed_basis_after_shift(f, w)
        r = coeff_rank(f)
        assert len(A) == r
        assert is_cone_closed(A)
        assert max(cone_size(e) for e in A) <= r
        assert all(sum(1 for x in e if x > 0) <= log2(2 * r) for e in A)


def test_least_basis_is_weight_minimal_when_isolating():
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        f = random_vectorpoly(rng, FP, n, k, 3, 5)
        if f.is_zero:
            continue
        w = kronecker_weights(n, f.degree())
        if not is_basis_isolating(f, w).isolating:
            continue
        B = least_basis(f, w)
        wB = sum(weight_of(w, e) for e in B)
        support = f.support()
        for _ in range(10):
            order = support[:]
            rng.shuffle(order)
            red = RowReducer(f.field)
            alt = [e for e in order if red.insert(list(f.terms[e]))]
            if set(alt) == set(B):
                continue
            wAlt = sum(weight_of(w, e) for e in alt)
            assert wB < wAlt
