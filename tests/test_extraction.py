import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conepit import extraction
from conepit.circuits import Circuit, CircuitBuilder, Oracle, dense_expand
from conepit.errors import ArityMismatch, CharTooSmall, DuplicateNodes, TooLarge
from conepit.extraction import (
    EXTRACTION_GUARD,
    QUERY_CACHE_POINTS,
    FilteredOracle,
    extract_coefficient,
    interpolation_row,
    interpolation_rows,
    vandermonde_row,
)
from conepit.fields import Field
from conepit.generators import random_circuit
from conepit.polys import cone_size, enumerate_low_cone
from reference import reference_queries
from test_pit import PLAN_FIELDS

Q = Field.rationals()
FP = Field.default_prime()


def test_vandermonde_row_examples():
    assert vandermonde_row([Q.of(0), Q.of(1)], 1, Q) == [Fraction(-1), Fraction(1)]
    assert vandermonde_row([Q.of(1)], 0, Q) == [Fraction(1)]
    assert vandermonde_row([Q.of(0), Q.of(1), Q.of(2)], 2, Q) == [Fraction(1, 2), Fraction(-1), Fraction(1, 2)]


def test_vandermonde_row_is_dual_basis():
    rng = random.Random(1)
    for _ in range(50):
        m = rng.randint(1, 5)
        nodes = random.sample(range(-10, 11), m)
        nodes = [Q.of(x) for x in nodes]
        target = rng.randrange(m)
        a = vandermonde_row(nodes, target, Q)
        for k in range(m):
            got = sum(ai * node ** k for ai, node in zip(a, nodes))
            assert got == (1 if k == target else 0)


def test_vandermonde_row_duplicate_nodes():
    with pytest.raises(DuplicateNodes):
        vandermonde_row([Q.of(1), Q.of(1)], 0, Q)


def sum_square_oracle(field):
    b = CircuitBuilder(field, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1))])
    return Oracle(b.build(b.pow(s, 2)))


def test_extract_coefficient_examples():
    assert extract_coefficient(sum_square_oracle(Q), (1, 1)) == 2
    assert extract_coefficient(sum_square_oracle(Q), (2, 0)) == 1
    assert extract_coefficient(sum_square_oracle(FP), (0, 2)) == 1
    assert extract_coefficient(sum_square_oracle(Q), (0, 0)) == 0


def test_extract_arity_and_char_guards():
    with pytest.raises(ArityMismatch):
        extract_coefficient(sum_square_oracle(Q), (1, 1, 0))
    F2 = Field.prime(2)
    b = CircuitBuilder(F2, 1)
    o = Oracle(b.build(b.pow(b.input(0), 2)))
    with pytest.raises(CharTooSmall):
        extract_coefficient(o, (1,))


def test_extract_degree_overflow_returns_zero():
    o = sum_square_oracle(Q)
    assert extract_coefficient(o, (3, 0)) == 0


def test_extract_matches_dense_expansion_random():
    rng = random.Random(17)
    for field in (FP, Q):
        for _ in range(25 if field is FP else 8):
            n = rng.randint(1, 3)
            C = random_circuit(rng, field, n, rng.randint(2, 8), 4)
            oracle = Oracle(C)
            truth = dense_expand(Oracle(C))
            for e in enumerate_low_cone(n, 16, dcap=oracle.degree):
                assert extract_coefficient(oracle, e) == truth.coefficient(e)


def test_call_count_is_exactly_cone_times_degree():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        C = random_circuit(rng, FP, n, 6, 4)
        oracle = Oracle(C)
        e = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(e) > oracle.degree:
            continue
        before = oracle.calls
        extract_coefficient(oracle, e)
        assert oracle.calls - before == cone_size(e) * (oracle.degree + 1)


def test_extraction_linearity():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 3)
        o1 = Oracle(random_circuit(rng, FP, n, 6, 3))
        o2 = Oracle(random_circuit(rng, FP, n, 6, 3))
        a, b = FP.random(rng), FP.random(rng)
        # a*p1 + b*p2 as one circuit; both random circuits have degree <= 3
        p1 = dense_expand(Oracle(o1.circuit))
        p2 = dense_expand(Oracle(o2.circuit))
        combo = Oracle(Circuit.from_multipoly(p1.scale(a).add(p2.scale(b))), degree=3)
        e = tuple(rng.randint(0, 1) for _ in range(n))
        lhs = extract_coefficient(combo, e)
        rhs = FP.add(
            FP.mul(a, extract_coefficient(o1, e)),
            FP.mul(b, extract_coefficient(o2, e)),
        )
        assert lhs == rhs


def test_deterministic_results():
    o = sum_square_oracle(FP)
    assert extract_coefficient(o, (1, 1)) == extract_coefficient(o, (1, 1))


# ----------------------------------------------------------------------
# Closed-form interpolation rows and the cached query sets
# ----------------------------------------------------------------------


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=lambda F: F.spec)
def test_interpolation_row_matches_vandermonde_row(field):
    for m in range(1, min(13, field.p or 13) + 1):
        for t in range(m):
            got = interpolation_row(field, m, t)
            want = vandermonde_row(range(m), t, field)
            assert list(got) == want
            assert [type(x) for x in got] == [type(x) for x in want]


def test_interpolation_row_guards():
    with pytest.raises(DuplicateNodes):
        interpolation_row(Field.prime(7), 8, 0)
    with pytest.raises(ValueError):
        interpolation_row(FP, 3, 3)


@pytest.mark.parametrize("field", [FP, Field.prime(101)], ids=lambda F: F.spec)
def test_wide_interpolation_rows_invert_the_vandermonde_matrix(field):
    m = 67
    rows = interpolation_rows(field, m)
    assert len(rows) == m
    for t in (0, 1, m // 2, m - 1):
        assert interpolation_row(field, m, t) == rows[t]
    # sum_j row_t[j] * j^k = [k == t]
    powers = [[pow(j, k, field.p) for k in range(m)] for j in range(m)]
    for t, row in enumerate(rows):
        for k in range(m):
            assert sum(w * powers[j][k] for j, w in enumerate(row)) % field.p == (k == t)


def test_row_tables_keep_the_cache_bound(monkeypatch):
    monkeypatch.setattr(extraction, "_row_tables", type(extraction._row_tables)())
    monkeypatch.setattr(extraction, "ROW_CACHE_ROWS", 100)
    for m in (40, 50, 30, 101):
        table = interpolation_rows(FP, m)
        assert table == tuple(interpolation_row(FP, m, t) for t in range(m))
        assert sum(map(len, extraction._row_tables.values())) <= 100
    assert list(extraction._row_tables) == [(FP, 50), (FP, 30)]
    assert interpolation_rows(FP, 30) is extraction._row_tables[FP, 30]


def test_integral_rows_over_q_are_the_rows_times_the_factorial(monkeypatch):
    # dense_expand's rows over Q: ints, each row (m-1)! times the Fraction
    # row, negative entries among them, cached apart from the Fraction table
    monkeypatch.setattr(extraction, "_row_tables", type(extraction._row_tables)())
    for m in (1, 2, 5, 23):
        ints = interpolation_rows(Q, m, integral=True)
        assert {type(w) for row in ints for w in row} == {int}
        assert [[w * math.factorial(m - 1) for w in row] for row in interpolation_rows(Q, m)] == [list(r) for r in ints]
        assert interpolation_rows(Q, m, integral=True) is ints is extraction._row_tables[Q, m, True]
    assert min(interpolation_rows(Q, 5, integral=True)[1]) < 0


def blank_oracle(field, n, degree):
    """An oracle of arity n and degree bound ``degree`` that reads 0
    everywhere: extraction builds its queries from these alone."""
    b = CircuitBuilder(field, n)
    return Oracle(b.build(b.const(0)), degree=degree)


@st.composite
def extraction_keys(draw):
    field = draw(st.sampled_from(PLAN_FIELDS))
    n = draw(st.integers(1, 3))
    e = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    degree = draw(st.integers(0, min(8, (field.p or 9) - 1)))
    return field, e, degree


@given(extraction_keys(), st.data())
def test_query_set_and_combine_match_reference(key, data):
    field, e, degree = key
    x = FilteredOracle(blank_oracle(field, len(e), degree), e)
    points, weights = x.queries()
    ref_points, ref_weights = reference_queries(field, e, degree)
    assert list(points) == ref_points
    assert list(weights) == ref_weights
    assert [type(w) for w in weights] == [type(w) for w in ref_weights]
    # combine is the scalar weighted sum, with the coefficient's type
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    values = [field.random(rng) for _ in points]
    want = field.zero()
    for w, v in zip(ref_weights, values):
        want = field.add(want, field.mul(w, v))
    got = x.combine(values)
    assert got == want and type(got) is type(want)


def test_query_sets_are_shared_and_read_only():
    a = FilteredOracle(blank_oracle(FP, 2, 4), (1, 1)).queries()
    b = FilteredOracle(blank_oracle(FP, 2, 4), (1, 1)).queries()
    assert a is b
    points, weights = a
    with pytest.raises(TypeError):
        points[0] = (0, 0)
    with pytest.raises(ValueError):
        weights[0] = 0


def test_query_points_over_q_are_ints():
    # integer nodes 0..d on every field: over Q the points are int tuples
    # equal to the reference's Fraction points, node 1 standing for a zero
    # exponent, and the weights stay Fractions
    for e in [(0, 2), (1, 1, 0), (3,), (0,)]:
        filtered = FilteredOracle(blank_oracle(Q, len(e), 4), e)
        points, weights = filtered.queries()
        assert list(points) == reference_queries(Q, e, 4)[0]
        assert {type(x) for pt in points for x in pt} == {int}
        assert {type(w) for w in weights} == {Fraction}
        # combine reads the weights as integers over one denominator
        assert {type(w) for w in filtered._num} == {int} and [w * filtered._den for w in weights] == list(filtered._num)


def test_large_extraction_is_exact_and_not_cached():
    # (1 + x + 2y)^20: x^3 y^3 requests 16 * 21 points, over the cache bound
    b = CircuitBuilder(FP, 2)
    oracle = Oracle(b.build(b.pow(b.add([(1, b.const(1)), (1, b.input(0)), (2, b.input(1))]), 20)))
    e = (3, 3)
    assert cone_size(e) * (oracle.degree + 1) > QUERY_CACHE_POINTS
    before = extraction._cached_query_set.cache_info()
    x, y = FilteredOracle(oracle, e), FilteredOracle(oracle, e)
    assert x.queries() is not y.queries()
    assert extraction._cached_query_set.cache_info() == before
    assert x.coefficient() == dense_expand(Oracle(oracle.circuit)).coefficient(e)


def test_extraction_guard(monkeypatch):
    # (d + 1)^2 = 16 at d = 3, and cone_size * (d + 1) = 32 for x1 x2 x3
    monkeypatch.setattr(extraction, "EXTRACTION_GUARD", 16)
    FilteredOracle(blank_oracle(FP, 1, 3), (0,))
    with pytest.raises(TooLarge):
        FilteredOracle(blank_oracle(FP, 3, 3), (1, 1, 1))
    monkeypatch.setattr(extraction, "EXTRACTION_GUARD", 32)
    FilteredOracle(blank_oracle(FP, 3, 3), (1, 1, 1))
    monkeypatch.setattr(extraction, "EXTRACTION_GUARD", 15)
    with pytest.raises(TooLarge):
        FilteredOracle(blank_oracle(FP, 1, 3), (0,))
    # beyond the degree bound there is nothing to build, and nothing to refuse
    assert extract_coefficient(blank_oracle(FP, 1, 3), (EXTRACTION_GUARD,)) == 0
