import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepit import circuits, fields
from conepit.errors import CharTooSmall, MixedFields, ParseError, ValidationError, ZeroInverse
from conepit.fields import DensePoly, Field, MERSENNE61, rank_over_ft
from reference import schoolbook_mul


Q = Field.rationals()
F5 = Field.prime(5)
FP = Field.default_prime()


def test_inverse_examples():
    assert FP.inv(1) == 1
    assert F5.inv(2) == 3
    assert Q.inv(Fraction(3, 4)) == Fraction(4, 3)
    # Fermat's little theorem, the inverse's earlier route
    rng = random.Random(3)
    for F in (F5, Field.prime(7), Field.prime((1 << 31) - 1), FP):
        for a in [1, F.p - 1] + [rng.randrange(1, F.p) for _ in range(50)]:
            assert F.inv(a) == pow(a, F.p - 2, F.p)
            assert F.mul(a, F.inv(a)) == 1


def test_inverse_zero():
    with pytest.raises(ZeroInverse):
        F5.inv(0)
    with pytest.raises(ZeroInverse):
        Q.inv(Fraction(0))


def test_field_spec_round_trip():
    assert Field.from_spec("q") == Q
    assert Field.from_spec("p:5") == F5
    assert Field.from_spec(FP.spec) == FP
    assert Q.spec == "q" and F5.spec == "p:5"
    with pytest.raises(ParseError):
        Field.from_spec("gf(9)")
    with pytest.raises(ValidationError):
        Field.prime(10)


def test_primality_is_tested_once_per_number():
    # a parser builds one Field per document: 100 documents over one prime
    # run Miller-Rabin once, and a composite is refused every time
    fields._is_prime.cache_clear()
    for _ in range(100):
        assert circuits.parse(f'{{"field": "p:{FP.p}", "arity": 1, "gates": [{{"id": 0, "kind": "input", "var": 0}}], "output": 0}}').field == FP
    assert fields._is_prime.cache_info().misses == 1
    for _ in range(3):
        with pytest.raises(ValidationError):
            Field.from_spec("p:1000000016000000063")  # (10^9 + 7)(10^9 + 9)
    assert fields._is_prime.cache_info().misses == 2


def test_of_coerces_canonically():
    assert F5.of(-1) == 4
    assert F5.of(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert F5.of("7") == 2
    assert Q.of("-3/6") == Fraction(-1, 2)


@pytest.mark.parametrize("field", [Q, F5, FP])
def test_field_axioms_randomized(field):
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (field.random(rng) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        if a != 0:
            assert field.mul(a, field.inv(a)) == field.one()
        assert field.add(a, field.neg(a)) == field.zero()


def test_dense_poly_basics():
    p = DensePoly.make(Q, [1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree() == 1
    q = DensePoly.make(Q, [0, 1])
    assert p.mul(q).coeffs == (Fraction(0), Fraction(1), Fraction(2))
    assert q.pow(3).coeffs == (0, 0, 0, 1)
    assert p.eval(Fraction(3)) == 7
    assert DensePoly.zero(Q).is_zero
    assert p.sub(p).is_zero


def test_rank_over_ft_examples():
    one = DensePoly.const(Q, 1)
    t = DensePoly.make(Q, [0, 1])
    zero = DensePoly.zero(Q)
    assert rank_over_ft([[one]]) == 1
    assert rank_over_ft([[t, t], [t, t]]) == 1
    assert rank_over_ft([[one, t], [zero, one]]) == 2
    assert rank_over_ft([[zero]]) == 0


def test_rank_over_ft_of_empty_and_all_zero_matrices():
    for field in (Q, F5):
        zero = DensePoly.zero(field)
        assert rank_over_ft([]) == rank_over_ft([[]]) == 0
        assert rank_over_ft([[zero] * 3 for _ in range(2)]) == 0


def test_rank_over_ft_mixed_fields():
    with pytest.raises(MixedFields):
        rank_over_ft([[DensePoly.const(Q, 1), DensePoly.const(F5, 1)]])


def test_rank_over_ft_char_too_small():
    F2 = Field.prime(2)
    t3 = DensePoly.make(F2, [0, 0, 0, 1])
    with pytest.raises(CharTooSmall):
        rank_over_ft([[t3, t3], [t3, t3]])


def random_tpoly(rng, field, max_deg):
    return DensePoly.make(field, [field.random(rng) for _ in range(rng.randint(1, max_deg + 1))])


def test_rank_over_ft_vs_random_evaluation():
    # Agreement with a single fresh evaluation in >= 99% of 1000 trials,
    # and never below any single-evaluation rank.
    from conepit.linalg import matrix_rank

    rng = random.Random(20)
    agree = 0
    trials = 1000
    for _ in range(trials):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[random_tpoly(rng, FP, 3) for _ in range(cols)] for _ in range(rows)]
        r = rank_over_ft(M)
        tau = FP.of(rng.randrange(MERSENNE61))
        r_eval = matrix_rank([[e.eval(tau) for e in row] for row in M], FP)
        assert r >= r_eval
        if r == r_eval:
            agree += 1
    assert agree >= int(0.99 * trials)


def test_miller_rabin_rejects_composites():
    for n in (1, 0, 4, 561, 1105, 2 ** 61 + 1):
        with pytest.raises(ValidationError):
            Field.prime(n)
    Field.prime(2)
    Field.prime(MERSENNE61)


PRIMES = [Field.prime(p) for p in (2, 7, (1 << 31) - 1, (1 << 61) - 1, (1 << 89) - 1)]


def coefficient_lists(field):
    if field.is_rational:
        entry = st.fractions(min_value=-(1 << 40), max_value=1 << 40, max_denominator=1000)
    else:
        entry = st.integers(min_value=-(1 << 100), max_value=1 << 100)
    # empty = the zero polynomial, length 1 = a constant
    return st.lists(st.one_of(st.just(0), entry), max_size=9)


@pytest.mark.parametrize("field", [Q] + PRIMES, ids=lambda F: F.spec)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_matches_schoolbook(field, data):
    a = DensePoly.make(field, data.draw(coefficient_lists(field)))
    b = DensePoly.make(field, data.draw(coefficient_lists(field)))
    got = a.mul(b)
    assert got == schoolbook_mul(a, b)
    assert not got.coeffs or got.coeffs[-1] != 0
    assert all(type(c) is (Fraction if field.is_rational else int) for c in got.coeffs)
    assert got.is_zero == (a.is_zero or b.is_zero)
