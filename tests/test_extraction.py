import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conepit import extraction
from conepit.circuits import CircuitBuilder, Oracle, dense_expand
from conepit.errors import ArityMismatch, BadParameters, CharTooSmall, DuplicateNodes, TooLarge, ValidationError
from conepit.extraction import (
    CACHE_ENTRIES,
    EXTRACTION_GUARD,
    FilteredOracle,
    extract_coefficient,
    interpolation_row,
    interpolation_rows,
    layer_points,
    query_set,
    vandermonde_row,
)
from conepit.fields import Field
from conepit.generators import random_circuit
from conepit.pit import low_cone_pit
from conepit.polys import cone_size, enumerate_low_cone
from reference import circuit_from_multipoly, reference_low_cone_pit, reference_queries
from test_pit import PLAN_FIELDS, check_cache, check_layer_table

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


@pytest.mark.parametrize("nodes", [[0, 7], [1, 8, 2]], ids=["0=7", "1=8"])
def test_vandermonde_row_nodes_equal_in_the_field(nodes):
    """Nodes are compared as field elements: 7 is 0 and 8 is 1 in F_7."""
    with pytest.raises(DuplicateNodes):
        vandermonde_row(nodes, 0, Field.prime(7))


def sum_square_oracle(field):
    b = CircuitBuilder(field, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1))])
    return Oracle(b.build(b.pow(s, 2)))


def test_extract_coefficient_examples():
    assert extract_coefficient(sum_square_oracle(Q), (1, 1)) == 2
    assert extract_coefficient(sum_square_oracle(Q), (2, 0)) == 1
    assert extract_coefficient(sum_square_oracle(FP), (0, 2)) == 1
    assert extract_coefficient(sum_square_oracle(Q), (0, 0)) == 0


@pytest.mark.parametrize("e", [(-1, 0), (1.0, 1), (True, 1), (1, "1"), (0, None)], ids=str)
def test_a_non_natural_exponent_entry_is_refused(e):
    # -1 once fell through to an interpolation row's "target power -1"
    # refusal, 1.0 to a bare TypeError, and True read as 1
    oracle = sum_square_oracle(FP)
    with pytest.raises(ValidationError, match=r"^exponent \(.*\) entry must be a natural number, got "):
        extract_coefficient(oracle, e)
    assert oracle.calls == 0


def test_numpy_integer_exponents_are_the_ints_they_equal():
    o = sum_square_oracle(Q)
    for e in [(np.int64(1), np.uint8(1)), (np.int32(2), 0)]:
        filtered = FilteredOracle(o, e)
        assert {type(x) for x in filtered.e} == {int}
        assert filtered.coefficient() == extract_coefficient(o, tuple(map(int, e)))


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
        combo = Oracle(circuit_from_multipoly(p1.scale(a).add(p2.scale(b))), degree=3)
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
    # over F_p the residues of the twin's row; over Q the ints (m-1)! times it
    for m in range(1, min(13, field.p or 13) + 1):
        scale = math.factorial(m - 1) if field.p is None else 1
        for t in range(m):
            got = interpolation_row(field, m, t)
            want = vandermonde_row(range(m), t, field)
            assert list(got) == [scale * w for w in want]
            assert {type(x) for x in got} == {int}


def test_interpolation_row_guards():
    with pytest.raises(DuplicateNodes):
        interpolation_row(Field.prime(7), 8, 0)
    for target in (3, -1):
        with pytest.raises(BadParameters, match=f"target power {target} outside 0..2"):
            interpolation_row(FP, 3, target)
        with pytest.raises(BadParameters, match=f"target power {target} outside 0..2"):
            vandermonde_row(range(3), target, FP)


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


def test_row_tables_keep_the_cache_bound(fresh_cache, monkeypatch):
    # items of at most 100 entries, so tables of width at most 10, and at
    # most 16 of them, the rows of two tables of widths 9 and 7: a table is
    # its rows, each under its own key, and the least recently used goes first
    cache = fresh_cache()
    monkeypatch.setattr(extraction, "CACHE_ENTRIES", 6400)
    monkeypatch.setattr(extraction, "CACHE_ITEMS", 16)
    for m in (8, 9, 7, 11):
        table = interpolation_rows(FP, m)
        assert [list(row) for row in table] == [vandermonde_row(range(m), t, FP) for t in range(m)]
        check_cache(cache)
    nine, seven = [("row", FP, 9, t) for t in range(9)], [("row", FP, 7, t) for t in range(7)]
    assert list(cache.items) == nine + seven
    assert all(row is cache.items["row", FP, 9, t][0] for t, row in enumerate(interpolation_rows(FP, 9)))
    assert list(cache.items) == seven + nine and cache.entries == 49 + 81
    assert interpolation_rows(FP, 11)[0] is not interpolation_rows(FP, 11)[0]
    assert list(cache.items) == seven + nine
    # 64 rows of width 100 fill the 6400 entries, and the 65th drops the
    # least recently used; each division passes more than 100 entries of
    # rows, so it keeps its target row alone
    monkeypatch.setattr(extraction, "CACHE_ITEMS", 4096)
    rows = [interpolation_row(FP, 100, t) for t in range(65)]
    check_cache(cache)
    assert list(cache.items) == [("row", FP, 100, t) for t in range(1, 65)]
    assert interpolation_row(FP, 100, 64) is rows[64] and interpolation_row(FP, 100, 0) is not rows[0]


def test_a_table_over_the_item_cap_is_not_kept(fresh_cache):
    # 600^2 = 360,000 entries: more than the whole cache holds, so none of
    # the table's rows is kept, and a lone row of width 600 is
    cache = fresh_cache()
    table = interpolation_rows(FP, 600)
    assert table[599] == interpolation_row(FP, 600, 599)
    check_cache(cache)
    assert [key for key in cache.items if key[:3] == ("row", FP, 600)] == [("row", FP, 600, 599)]


def test_integral_rows_over_q_are_the_rows_times_the_factorial(fresh_cache):
    # the one form of the rows over Q: ints, each row (m-1)! times the
    # twin's Fraction row, negative entries among them, one item per row
    cache = fresh_cache()
    for m in (1, 2, 5, 23):
        ints = interpolation_rows(Q, m)
        assert {type(w) for row in ints for w in row} == {int}
        assert [[w * math.factorial(m - 1) for w in vandermonde_row(range(m), t, Q)] for t in range(m)] == [list(r) for r in ints]
        assert all(a is b is cache.items["row", Q, m, t][0] for t, (a, b) in enumerate(zip(interpolation_rows(Q, m), ints)))
    assert min(interpolation_rows(Q, 5)[1]) < 0


@pytest.mark.parametrize("target", [1.5, 1.0, "1", None, True])
def test_a_target_power_is_a_natural_number(fresh_cache, target):
    # read as documents.natural reads it, whether or not the row is kept; a
    # numpy integer is the int it equals
    fresh_cache()
    with pytest.raises(BadParameters, match="^target power must be a natural number, got "):
        vandermonde_row([0, 1, 2], target, FP)
    with pytest.raises(BadParameters, match="^target power must be a natural number, got "):
        interpolation_row(FP, 3, target)
    assert vandermonde_row([0, 1, 2], np.int64(1), FP) == vandermonde_row([0, 1, 2], 1, FP)
    assert interpolation_row(Q, 4, np.int64(2)) == interpolation_row(Q, 4, 2)
    # with row 1 kept, a target whose key equals its key (True, 1.0) is
    # still refused: the answer does not depend on the cache
    assert interpolation_row(FP, 3, 1) == tuple(vandermonde_row([0, 1, 2], 1, FP))
    with pytest.raises(BadParameters, match="^target power must be a natural number, got "):
        interpolation_row(FP, 3, target)


def test_dense_expand_and_an_extraction_share_their_rows(fresh_cache, monkeypatch):
    # (1 + x + 2y)^3 at width 4: the extraction of xy passes rows 3 and 2
    # of width 4 and row 1 of width 2, dense_expand reads the whole width-4
    # table; in either order each row is kept once, and a division runs
    # only for rows not yet kept
    b = CircuitBuilder(FP, 2)
    circuit = b.build(b.pow(b.add([(1, b.const(1)), (1, b.input(0)), (2, b.input(1))]), 3))
    kept = [("row", FP, 4, t) for t in range(4)] + [("row", FP, 2, 1)]
    divisions, build = {}, extraction._lagrange_rows
    for order in (("extract", "expand"), ("expand", "extract")):
        cache = fresh_cache()
        divisions[order] = calls = []
        monkeypatch.setattr(extraction, "_lagrange_rows", lambda *args: calls.append(args[1:]) or build(*args))
        got = {step: extract_coefficient(Oracle(circuit), (1, 1)) if step == "extract" else dense_expand(Oracle(circuit)) for step in order}
        assert got["expand"].coefficient((1, 1)) == got["extract"] == 12
        rows = {key: entries for key, (_, entries) in cache.items.items() if key[0] == "row"}
        assert sorted(rows, key=kept.index) == kept and sum(rows.values()) == 4 * 4 + 2
        check_cache(cache)
    assert divisions == {("extract", "expand"): [(4, 2), (2, 1), (4, 0)], ("expand", "extract"): [(4, 0), (2, 1)]}


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


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.integers(0, 9))
def test_query_sets_over_q_are_integer_rows_over_one_denominator(fresh_cache, e, degree):
    # the numerators are den times the twin's weights, den is d! prod e_i!,
    # and the kept entry holds ints and points only, no Fraction
    cache = fresh_cache()
    e = tuple(e)
    (points, num), den = query_set(Q, e, degree)
    ref_points, ref_weights = reference_queries(Q, e, degree)
    assert list(points) == ref_points and list(num) == [w * den for w in ref_weights]
    if sum(e) <= degree:
        assert den == math.factorial(degree) * math.prod(map(math.factorial, e))
    (kept_points, kept_num), kept_den = cache.items["query", Q, e, degree][0]
    assert kept_points is points and kept_num is num and kept_den == den
    assert {type(x) for x in (*num, den, *(c for pt in points for c in pt))} <= {int}


def test_large_extraction_is_exact_and_not_cached(fresh_cache):
    # (1 + x + 2y + 3z)^20: x^6 y^6 z^6 requests 343 * 21 points, over the
    # item cap; only its weight rows are kept, and every row the divisions
    # down to them pass
    cache = fresh_cache()
    b = CircuitBuilder(FP, 3)
    oracle = Oracle(b.build(b.pow(b.add([(1, b.const(1))] + [(i + 1, b.input(i)) for i in range(3)]), 20)))
    e = (6, 6, 6)
    assert cone_size(e) * (oracle.degree + 1) > CACHE_ENTRIES // 64
    x, y = FilteredOracle(oracle, e), FilteredOracle(oracle, e)
    assert x.queries() is not y.queries()
    assert set(cache.items) == {("row", FP, 7, 6)} | {("row", FP, 21, t) for t in (18, 19, 20)}
    assert x.coefficient() == dense_expand(Oracle(oracle.circuit)).coefficient(e)


def test_large_layer_is_exact_and_not_kept(fresh_cache):
    # 3 x1^2 x2^2 x3 in arity 6 at degree bound 20 and k = 36: the witness is
    # in layer 5, whose extractions hold more new points than the item cap
    cache = fresh_cache()
    b = CircuitBuilder(FP, 6)
    x = [b.input(i) for i in range(6)]
    circuit = b.build(b.add([(3, b.mul([b.pow(x[0], 2), b.pow(x[1], 2), x[2]]))]))
    layer = enumerate_low_cone(6, 36, 20, degree=5)
    seen = {pt for t in range(5) for e in enumerate_low_cone(6, 36, 20, degree=t) for pt in query_set(FP, e, 20)[0][0]}
    points, requests = layer_points(FP, (6, 36, 20, 5), layer, seen)
    assert len(points) > CACHE_ENTRIES // 64
    assert not [key for key in cache.items if key[0] == "layer"]
    assert layer_points(FP, (6, 36, 20, 5), layer, seen)[0] is not points
    verdict = low_cone_pit(Oracle(circuit, degree=20), 36)
    assert verdict == reference_low_cone_pit(Oracle(circuit, degree=20), 36)
    assert (verdict.witness, verdict.coefficient) == ((2, 2, 1, 0, 0, 0), 3)
    # the walk keeps exactly the layers within the item cap
    seen = set()
    for t in range(6):
        walked = enumerate_low_cone(6, 36, 20, degree=t)
        kept = ("layer", FP, 6, 36, 20, t) in cache.items
        assert kept == (len(layer_points(FP, (6, 36, 20, t), walked, seen)[0]) <= CACHE_ENTRIES // 64)
        seen.update(pt for e in walked for pt in query_set(FP, e, 20)[0][0])
    check_cache(cache)


def test_layer_table_holds_points_and_counts_only(fresh_cache):
    # after tests over three fields, every entry is layer t's points that no
    # layer below t requests, which depend on (field, n, k, d, t) alone, as
    # the twin builds them, and the layer's request count
    fresh_cache()
    rng = random.Random(61)
    for field in (FP, Q, Field.prime(7)):
        low_cone_pit(Oracle(random_circuit(rng, field, 3, 6, 4)), 8)
    assert [key for key in extraction._cache.items if key[0] == "layer"]
    check_layer_table()


def test_a_layer_refused_at_a_later_monomial_builds_nothing(fresh_cache, monkeypatch):
    # at n = 3, d = 4 and k = 9, a guard of 40 admits the layer's first
    # monomials, x3^4 (5 * 5 = 25) and x2 x3^3 (8 * 5 = 40), and refuses
    # x2^2 x3^2 (9 * 5 = 45) with its own message, before any weight is built
    cache = fresh_cache()
    monkeypatch.setattr(extraction, "EXTRACTION_GUARD", 40)
    layer = enumerate_low_cone(3, 9, 4, degree=4)
    assert layer[:3] == [(0, 0, 4), (0, 1, 3), (0, 2, 2)]
    with pytest.raises(TooLarge, match="^extraction of a cone of size 9 at degree bound 4 exceeds the guard 40$"):
        layer_points(FP, (3, 9, 4, 4), layer, set())
    assert not cache.items


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
