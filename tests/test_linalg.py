"""Fraction-free elimination against its scalar twin, the integral kernel
against the field kernel over Q, canonical kernel vectors of column
prefixes, the one-pass first dependencies over a field and over the
integers against them, the span-membership
twin of tests/reference.py with its combination, and the row reducer's
combinations against that twin."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepit.fields import Field
from conepit.linalg import (
    RowReducer,
    bareiss_echelon,
    first_dependency,
    first_integer_dependency,
    integer_nullspace_canonical,
    matrix_rank,
    nullspace_canonical,
)
from reference import in_span, scalar_bareiss_echelon

Q = Field.rationals()
SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def integer_matrices(draw):
    """m x n integer matrices, m, n in 0..6: dense random entries, or a
    product of an m x k and a k x n factor (rank at most k), with some
    columns then zeroed."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-(1 << 40), 1 << 40))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * n for row in left]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    dead = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    return [[0 if j in dead else x for j, x in enumerate(row)] for row in rows]


@SETTINGS
@given(rows=integer_matrices())
def test_bareiss_matches_scalar_loop(rows):
    assert bareiss_echelon(rows) == scalar_bareiss_echelon(rows)


@pytest.mark.parametrize(
    "rows",
    [[], [[]], [[], [], []], [[0, 0, 0]], [[0, 5, -3, 0]], [[0], [0], [7]], [[2, 4], [1, 2], [3, 6]]],
    ids=["0x0", "1x0", "3x0", "1x3-zero", "1x4", "3x1", "rank-1"],
)
def test_bareiss_edge_shapes(rows):
    got = bareiss_echelon(rows)
    assert got == scalar_bareiss_echelon(rows)
    assert all(type(x) is int for row in got[0] for x in row)


rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=12))


@SETTINGS
@given(data=st.data())
def test_integer_kernel_is_the_scaled_field_kernel(data):
    width = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(rationals, min_size=width, max_size=width), min_size=1, max_size=6))
    got = integer_nullspace_canonical(rows, width)
    want = nullspace_canonical(rows, Q, width)
    if want is None:
        assert got is None
        return
    scale = math.lcm(*(x.denominator for x in want))
    ints = [int(x * scale) for x in want]
    content = math.gcd(*ints)
    assert got == [x // content for x in ints]


def test_integer_kernel_with_denominators():
    # x/2 + y/3 - z/6 = 0 and y/4 = z/8 force x = 0, z = 2y
    rows = [[Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6)], [0, Fraction(1, 4), Fraction(-1, 8)]]
    assert integer_nullspace_canonical(rows, 3) == [0, 1, 2]
    # 2x/3 = 4y/9 and z = 0
    rows = [[Fraction(2, 3), Fraction(-4, 9), 0], [0, 0, Fraction(5, 7)]]
    assert integer_nullspace_canonical(rows, 3) == [2, 3, 0]


SPAN_FIELDS = [Field.prime((1 << 61) - 1), Field.prime(7), Q]


def combination(field, basis, coeffs, width):
    out = [field.zero()] * width
    for c, row in zip(coeffs, basis):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


def dependent_columns(field, rng, height, width):
    """A height x width matrix whose columns are fresh random vectors, zero
    columns, repeats of an earlier column, or combinations of earlier ones."""
    cols = []
    for _ in range(width):
        kind = rng.choice(("fresh", "fresh", "zero", "repeat", "combination"))
        if kind == "zero" or not cols and kind != "fresh":
            col = [field.zero()] * height
        elif kind == "repeat":
            col = list(rng.choice(cols))
        elif kind == "combination":
            col = combination(field, cols, [field.random(rng) for _ in cols], height)
        else:
            col = [field.random(rng) for _ in range(height)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("field", SPAN_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32))
def test_column_prefix_keeps_the_canonical_kernel_vector(field, seed):
    """The canonical kernel vector is the first dependency among the
    columns: every column prefix that reaches its last nonzero entry has it
    as its own canonical vector, and every shorter prefix has none."""
    rng = random.Random(seed)
    height, width = rng.randint(1, 6), rng.randint(1, 8)
    rows = dependent_columns(field, rng, height, width)
    solvers = [lambda rs, k: nullspace_canonical(rs, field, k)]
    if field.is_rational:
        solvers.append(integer_nullspace_canonical)
    for solve in solvers:
        full = solve(rows, width)
        first = width if full is None else max(j for j, x in enumerate(full) if x != 0)
        for k in range(1, width + 1):
            got = solve([row[:k] for row in rows], k)
            if k <= first:
                assert got is None
            else:
                assert got + [0] * (width - k) == full


DEPENDENCY_FIELDS = [Field.prime(2), Field.prime(7), Field.prime((1 << 31) - 1), Field.prime((1 << 61) - 1)]


def ragged_columns(field, rng, width):
    """Columns of lengths 0..6: fresh random vectors, zero columns, repeats
    of an earlier column, or combinations of earlier ones, cut after their
    last nonzero entry as an image's coefficients are."""
    cols = []
    for _ in range(width):
        kind = rng.choice(("fresh", "fresh", "zero", "repeat", "combination"))
        if kind == "repeat" and cols:
            col = list(rng.choice(cols))
        elif kind == "combination" and cols:
            height = max(map(len, cols))
            padded = [c + [field.zero()] * (height - len(c)) for c in cols]
            col = combination(field, padded, [field.random(rng) for _ in cols], height)
        elif kind == "zero":
            col = [field.zero()] * rng.randint(0, 6)
        else:
            col = [field.random(rng) for _ in range(rng.randint(0, 6))]
        while kind != "zero" and col and col[-1] == 0:
            col.pop()
        cols.append(col)
    return cols


@pytest.mark.parametrize("field", DEPENDENCY_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32))
def test_first_dependency_is_the_canonical_kernel_vector(field, seed):
    """The one-pass solve gives the row-wise canonical vector of the whole
    padded system, cut after its last nonzero entry j0, and reads no
    column past j0."""
    rng = random.Random(seed)
    width = rng.randint(1, 8)
    cols = ragged_columns(field, rng, width)
    height = max(map(len, cols))
    rows = [list(row) for row in zip(*(c + [field.zero()] * (height - len(c)) for c in cols))]
    reads = 0

    def lazily():
        nonlocal reads
        for col in cols:
            reads += 1
            yield col

    got = first_dependency(lazily(), field)
    full = nullspace_canonical(rows, field, width)
    if full is None:
        assert got is None and reads == width
        return
    j0 = max(j for j, x in enumerate(full) if x != 0)
    assert got == full[: j0 + 1] and reads == j0 + 1
    assert got == nullspace_canonical([row[: j0 + 1] for row in rows], field, j0 + 1)


@pytest.mark.parametrize("field", DEPENDENCY_FIELDS, ids=lambda F: F.spec)
def test_first_dependency_edge_columns(field):
    one, neg = field.one(), field.neg(field.one())
    assert first_dependency([[], [one]], field) == [one]
    assert first_dependency([[0, 0, 0]], field) == [one]
    # a repeat of column 0 behind an independent column, then a column
    # that fails if it is read
    assert first_dependency(iter([[one], [0, one], [one], None]), field) == [neg, 0, one]
    assert first_dependency([[one], [0, 0, one], [0, one]], field) is None
    assert first_dependency([], field) is None


def integer_columns(rng):
    """Ragged integer columns: a run of 1 to 8 fresh ones, often with
    leading zeros (which force row swaps) or taller than all before, then up
    to 3 of those, zero or empty ones, repeats, or integer combinations of
    the earlier ones."""
    cols = []
    lead = rng.randint(1, 8)
    for j in range(lead + rng.randint(0, 3)):
        kinds = ("fresh", "taller") if j < lead else ("fresh", "taller", "zero", "repeat", "combination")
        kind = rng.choice(kinds)
        height = max(map(len, cols), default=0)
        if kind == "zero":
            col = [0] * rng.randint(0, 6)
        elif kind == "repeat":
            col = list(rng.choice(cols))
        elif kind == "combination":
            col = [0] * height
            for c in cols:
                a = rng.randint(-3, 3)
                col[: len(c)] = [x + a * y for x, y in zip(col, c)]
        else:
            size = rng.randint(height + 1, height + 3) if kind == "taller" else rng.randint(0, 6)
            zeros, bound = rng.randint(0, size), rng.choice((1, 1, 1 << 40))
            col = [0] * zeros + [rng.choice((0, rng.randint(-3, 3), rng.randint(-bound, bound))) for _ in range(size - zeros)]
        cols.append(col)
    return cols


@SETTINGS
@given(seed=st.integers(0, 1 << 32))
def test_first_integer_dependency_is_the_integer_kernel_of_the_prefix(seed):
    """The column-lazy Bareiss solve gives the row-wise integral kernel
    vector of the whole padded system, cut after its last nonzero entry j0,
    which is that of the prefix through j0; it reads no column past j0."""
    cols = integer_columns(random.Random(seed))
    width = len(cols)
    height = max(map(len, cols))
    rows = [list(row) for row in zip(*(c + [0] * (height - len(c)) for c in cols))]
    reads = 0

    def lazily():
        nonlocal reads
        for col in cols:
            reads += 1
            yield col

    got = first_integer_dependency(lazily())
    full = integer_nullspace_canonical(rows, width)
    if full is None:
        assert got is None and reads == width
        return
    j0 = max(j for j, x in enumerate(full) if x != 0)
    assert got == full[: j0 + 1] and reads == j0 + 1 and got[-1] > 0
    assert got == integer_nullspace_canonical([row[: j0 + 1] for row in rows], j0 + 1)


def test_first_integer_dependency_edge_columns():
    assert first_integer_dependency([[], [1]]) == [1]
    assert first_integer_dependency([[0, 0, 0]]) == [1]
    assert first_integer_dependency([[2], [4]]) == [-2, 1]
    assert first_integer_dependency([[4], [2]]) == [-1, 2]
    # the leading zero of column 0 forces a swap, column 2 is c0 + 2 c1,
    # and the column after it fails if it is read
    assert first_integer_dependency(iter([[0, 2], [3, 1], [6, 4], None])) == [-1, -2, 1]
    # a column taller than all before it is independent of them, and so is
    # the one that only reaches its middle row, which column 0's step
    # scales by its pivot 3 although column 0 has no entry there
    assert first_integer_dependency([[3], [-1, 0, 1], [-1, 1]]) is None
    assert first_integer_dependency([]) is None


@pytest.mark.parametrize("field", SPAN_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32))
def test_in_span_combination_rebuilds_members(field, seed):
    rng = random.Random(seed)
    width, m = rng.randint(1, 6), rng.randint(0, 5)
    basis = [[field.random(rng) for _ in range(width)] for _ in range(m)]
    if m and rng.random() < 0.5:
        # a dependent row: a combination of the others, or a copy
        basis.insert(rng.randrange(m + 1), combination(field, basis, [field.random(rng) for _ in basis], width))
    vec = combination(field, basis, [field.random(rng) for _ in basis], width)
    ok, combo = in_span(vec, basis, field)
    assert ok and len(combo) == len(basis)
    assert combination(field, basis, combo, width) == vec


@pytest.mark.parametrize("field", SPAN_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32))
def test_in_span_rejects_non_members(field, seed):
    rng = random.Random(seed)
    width, m = rng.randint(1, 6), rng.randint(0, 5)
    basis = [[field.random(rng) for _ in range(width)] for _ in range(m)]
    vec = [field.random(rng) for _ in range(width)]
    member = matrix_rank(basis + [vec], field) == matrix_rank(basis, field)
    assert in_span(vec, basis, field)[0] == member
    # a last coordinate that no basis row has is never in the span
    flat = [row[:-1] + [field.zero()] for row in basis]
    assert not in_span(vec[:-1] + [field.one()], flat, field)[0]


REDUCER_FIELDS = [Q, Field.prime(2), Field.prime(7), Field.prime((1 << 61) - 1)]


@st.composite
def ragged_rows(draw):
    """A field and up to 8 rows of lengths 0..5: fresh rows (over Q with
    non-integral entries), zero rows, and repeats of earlier rows."""
    field = draw(st.sampled_from(REDUCER_FIELDS))
    entry = rationals if field.is_rational else st.integers(0, field.p - 1)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([field.zero()] * draw(st.integers(0, 5)))
        else:
            rows.append(draw(st.lists(entry, max_size=5)))
    return field, rows


@SETTINGS
@given(case=ragged_rows())
def test_row_reducer_combination_is_the_span_twins(case):
    """``add`` returns None exactly when the rank grows; otherwise its
    combination over the rows as inserted rebuilds the row and equals
    ``in_span``'s, and ``reduce`` leaves canonical residues."""
    field, rows = case
    width = max(map(len, rows), default=0)

    def pad(v):
        return list(v) + [field.zero()] * (width - len(v))

    red, kept = RowReducer(field), []
    for row in rows:
        residual = red.reduce(row)
        if field.p is not None:
            assert all(0 <= x < field.p for x in residual)
        rank = red.rank
        combo = red.add(row)
        assert (combo is None) == (red.rank == rank + 1) == any(residual)
        ok, want = in_span(pad(row), [pad(k) for k in kept], field)
        assert ok == (combo is not None)
        if combo is None:
            kept.append(row)
        else:
            assert combo == want
            assert combination(field, [pad(k) for k in kept], combo, width) == pad(row)
