"""The one evaluation engine: every field has a kernel, and the column engine
agrees with the scalar twin ``Circuit.evaluate`` on any integer input,
numpy integers included, in the object and uint64 residue layouts and
across grid chunks, and on rational input over Q and over every prime."""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepit.circuits import GRID_CHUNK, Circuit, CircuitBuilder, Oracle, Program, dense_expand, parse, serialize, weight_matrix
from conepit.diagonal import DiagonalCircuit, build_psi, diag_pit, diagonal_from_json, diagonal_to_json
from conepit.errors import ArityMismatch, CharTooSmall, ConepitError, FieldMismatch, RankZero, ValidationError
from conepit.extraction import extract_coefficient
from conepit.fastmod import Mersenne61Kernel, ObjectKernel, PointBatch, SmallPrimeKernel, SparseRows, kernel_for
from conepit.fields import DensePoly, Field, Scalar, square_and_multiply
from conepit.generators import random_circuit, random_diagonal, random_multipoly
from conepit.hsg import fischer_rewrite
from conepit.pit import brute_force_pit, low_cone_pit
from conepit.polys import MultiPoly, enumerate_low_cone
from reference import circuit_from_multipoly, poly_pow, reference_coefficient

FIELDS = [Field.prime(p) for p in (2, 7, (1 << 31) - 1, (1 << 61) - 1, (1 << 89) - 1)] + [Field.rationals()]
IDS = [F.spec for F in FIELDS]
SETTINGS = settings(max_examples=40, deadline=None)

# any Python int: negative, at least p, wider than 64 bits
integers = st.integers(min_value=-(1 << 100), max_value=1 << 100)
numpy_integers = st.one_of(
    st.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
    st.integers(0, (1 << 64) - 1).map(np.uint64),
)


def points(arity: int):
    return st.lists(st.lists(integers, min_size=arity, max_size=arity), min_size=1, max_size=12)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@SETTINGS
@given(seed=st.integers(0, 1 << 32), data=st.data(), count=st.sampled_from([1, 257]))
def test_numpy_integers_enter_as_the_ints_they_equal(field, seed, data, count):
    # signed and unsigned numpy integers, alone or mixed in one column, in
    # the object layouts and the uint64 ones
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    C = random_circuit(rng, field, n, rng.randint(1, 8), 4)
    drawn = data.draw(st.lists(st.lists(numpy_integers, min_size=n, max_size=n), min_size=1, max_size=4))
    pts = [drawn[i % len(drawn)] for i in range(count)]
    ints = [[int(x) for x in pt] for pt in pts]
    one = [C.evaluate(pt) for pt in drawn]
    assert one == [C.evaluate([int(x) for x in pt]) for pt in drawn]
    many = C.evaluate_many(pts)
    assert many == C.evaluate_many(ints) == [one[i % len(drawn)] for i in range(count)]
    assert {type(v) for v in many + one} == {Fraction if field.p is None else int}


PRIME_FIELDS = [F for F in FIELDS if F.p is not None]


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32), data=st.data(), count=st.sampled_from([1, 257]))
def test_rational_points_over_a_prime_read_as_field_elements(field, seed, data, count):
    # a Fraction a/b is a * b^-1 in F_p on both paths, in the object layouts
    # and the uint64 ones, alone or mixed with ints in one column
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    C = random_circuit(rng, field, n, rng.randint(1, 8), 4)
    coordinate = st.one_of(
        st.fractions(max_denominator=1 << 70).filter(lambda x: x.denominator % field.p), integers
    )
    drawn = data.draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=4))
    pts = [drawn[i % len(drawn)] for i in range(count)]
    one = [C.evaluate(pt) for pt in drawn]
    assert one == [C.evaluate([field.of(x) for x in pt]) for pt in drawn]
    assert C.evaluate_many(pts) == [one[i % len(drawn)] for i in range(count)]


def outcome(f):
    """f's value, or the type of the package error it raised."""
    try:
        return f()
    except ConepitError as exc:
        return type(exc)


def outside_values(field: Field):
    """Values a caller may pass as coordinates: exact ones of every kind the
    field reads (rationals invertible in it), and floats, which no path reads."""
    invertible = st.fractions(max_denominator=1 << 70).filter(lambda x: field.p is None or x.denominator % field.p)
    decimals = st.decimals(-(10**6), 10**6, places=3).filter(lambda x: field.p is None or Fraction(x).denominator % field.p)
    floats = st.floats(width=64)
    return st.one_of(
        integers, numpy_integers, st.booleans(), st.booleans().map(np.bool_), invertible,
        st.one_of(integers, invertible, decimals).map(str), floats, floats.map(np.float64),
    )


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@SETTINGS
@given(seed=st.integers(0, 1 << 32), data=st.data(), count=st.sampled_from([1, 257]))
def test_both_paths_read_every_outside_value_alike(field, seed, data, count):
    # each value enters through Field.of on both paths: equal values, or
    # ValidationError on both exactly where a point holds a float
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    C = random_circuit(rng, field, n, rng.randint(1, 8), 4)
    drawn = data.draw(st.lists(st.lists(outside_values(field), min_size=n, max_size=n), min_size=1, max_size=4))
    for pt in drawn:
        one = outcome(lambda: C.evaluate(pt))
        assert one == outcome(lambda: C.evaluate_many([pt])[0]) == outcome(lambda: C.evaluate_many([pt] * count)[count - 1])
        assert (one is ValidationError) == any(isinstance(x, float) for x in pt)


def test_half_is_the_inverse_of_two():
    for field in (F for F in PRIME_FIELDS if F.p > 2):
        b = CircuitBuilder(field, 1)
        C = b.build(b.input(0))
        half = (field.p + 1) // 2
        for count in (1, 257):
            assert C.evaluate_many([(Fraction(1, 2),)] * count) == [half] * count
        assert C.evaluate((Fraction(1, 2),)) == half


def test_every_field_has_a_kernel():
    kinds = [type(kernel_for(F)) for F in FIELDS]
    assert kinds == [SmallPrimeKernel, SmallPrimeKernel, SmallPrimeKernel, Mersenne61Kernel, ObjectKernel, ObjectKernel]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@SETTINGS
@given(seed=st.integers(0, 1 << 32), data=st.data())
def test_circuit_evaluate_many_matches_evaluate(field, seed, data):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    C = random_circuit(rng, field, n, rng.randint(1, 8), 4)
    pts = data.draw(points(n))
    assert C.evaluate_many(pts) == [C.evaluate(pt) for pt in pts]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@SETTINGS
@given(seed=st.integers(0, 1 << 32), data=st.data())
def test_diagonal_evaluate_many_matches_evaluate(field, seed, data):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    D = random_diagonal(rng, field, n, rng.randint(0, 4), 3)
    pts = data.draw(points(n))
    assert D.evaluate_many(pts) == [D.evaluate(pt) for pt in pts]


@pytest.mark.parametrize("field", [Field.rationals(), Field.prime((1 << 89) - 1)], ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32))
def test_dense_expand_recovers_the_source_polynomial(field, seed):
    # the object kernel's grid path: eval_grid through the column engine,
    # then interpolation on object arrays
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    P = random_multipoly(rng, field, n, rng.randint(0, 4), rng.randint(0, 6))
    assert dense_expand(Oracle(circuit_from_multipoly(P))) == P


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_repeated_children_and_a_consumed_output(field):
    # mul [x, x], add [(2, x), (3, x)], and an output gate that a later gate
    # also reads: dropping arrays after their last use must keep all of them
    b = CircuitBuilder(field, 2)
    x, y = b.input(0), b.input(1)
    sq = b.mul([x, x])
    twice = b.add([(2, y), (3, y)])
    out = b.add([(1, sq), (1, twice), (1, sq)])
    b.mul([out, out])
    C = b.build(out)
    pts = [[3, 5], [-4, 1 << 70], [0, 0], [field.p or 11, 2]]
    assert C.evaluate_many(pts) == [C.evaluate(pt) for pt in pts]
    assert C.evaluate_many([[3, 5]]) == [field.of(2 * 9 + 5 * 5)]

    oracle = Oracle(C, degree=2)
    grid = oracle.eval_grid(3)
    nodes = [(i, j) for i in range(3) for j in range(3)]
    assert grid.tolist() == [C.evaluate(pt) for pt in nodes]
    assert oracle.calls == 9


Q = Field.rationals()
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def rational_circuits(draw, arity: int, max_degree: int = 4):
    """A random circuit over Q built gate by gate from rational weights and
    constants, with its polynomial expanded gate by gate alongside."""
    b = CircuitBuilder(Q, arity)
    polys = {b.input(i): MultiPoly.variable(Q, arity, i) for i in range(arity)}
    degs = dict.fromkeys(polys, 1)
    for _ in range(draw(st.integers(1, 7))):
        ids = list(polys)
        kind = draw(st.sampled_from(["add", "mul", "pow", "const"]))
        if kind == "const":
            c = draw(rationals)
            poly, deg, gid = MultiPoly.const(Q, arity, c), 0, b.const(c)
        elif kind == "add":
            picks = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
            weights = [draw(rationals) for _ in picks]
            poly = MultiPoly.zero(Q, arity)
            for w, g in zip(weights, picks):
                poly = poly.add(polys[g].scale(Q.of(w)))
            deg, gid = max(degs[g] for g in picks), b.add(list(zip(weights, picks)))
        elif kind == "mul":
            x, y = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
            if degs[x] + degs[y] > max_degree:
                continue
            poly, deg, gid = polys[x].mul(polys[y]), degs[x] + degs[y], b.mul([x, y])
        else:
            x, exp = draw(st.sampled_from(ids)), draw(st.integers(0, 3))
            if degs[x] * exp > max_degree:
                continue
            poly, deg, gid = poly_pow(polys[x], exp), degs[x] * exp, b.pow(x, exp)
        polys[gid], degs[gid] = poly, deg
    out = max(polys)
    return b.build(out), polys[out]


@SETTINGS
@given(data=st.data())
def test_rational_circuits_give_fractions(data):
    # rational weights, constants and points: the engine's int path must
    # leave the values exact and hand out only Fraction scalars
    n = data.draw(st.integers(1, 2))
    C, P = data.draw(rational_circuits(n))
    coordinate = st.one_of(rationals, integers)
    pts = data.draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=6))
    pts.append([data.draw(st.integers(-9, 9)) for _ in range(n)])
    many = C.evaluate_many(pts)
    one = [C.evaluate(pt) for pt in pts]
    assert many == one == [P.evaluate(pt) for pt in pts]
    assert all(type(v) is Fraction for v in many + one)
    assume(any(c.denominator > 1 for c in P.terms.values()))
    got = dense_expand(Oracle(C))
    assert got == P
    assert all(type(c) is Fraction for c in got.terms.values())


@SETTINGS
@given(data=st.data())
def test_rational_circuits_match_the_fraction_reference(data):
    # integer query points, weights as integers over one denominator, the
    # low-cone table's ints and dense_expand's one division at the end:
    # every coefficient over Q is the Fraction reference's, as a Fraction
    n = data.draw(st.integers(1, 2))
    C, P = data.draw(rational_circuits(n))
    d = Oracle(C).degree
    cone = enumerate_low_cone(n, 8, dcap=d)
    want = {e: reference_coefficient(C, e, d) for e in cone}
    for e in cone:
        got = extract_coefficient(Oracle(C), e)
        assert got == want[e] == P.coefficient(e) and type(got) is Fraction
    first = next((e for e in cone if want[e] != 0), None)
    verdict = low_cone_pit(Oracle(C), 8)
    assert (verdict.witness, verdict.coefficient) == ((None, None) if first is None else (first, want[first]))
    assert first is None or type(verdict.coefficient) is Fraction
    expanded = dense_expand(Oracle(C))
    assert expanded == P and all(type(c) is Fraction for c in expanded.terms.values())
    # at rational points the kernel's values are the scalar twin's
    pts = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=4))
    assert C.evaluate_many(pts, scalars=False) == [C.evaluate(pt) for pt in pts]


@SETTINGS
@given(
    rows=st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
    cols=st.lists(st.lists(st.one_of(rationals, integers), min_size=3, max_size=3), min_size=1, max_size=5),
)
def test_lincomb_on_rational_rows_is_the_fraction_dot(rows, cols):
    # negative numerators, a zero row and a row that is surely rational;
    # Fraction entries in V; an integral entry of the result is an int
    rows = rows + [[0, 0, 0], [Fraction(-1, 2), 0, Fraction(3, 4)]]
    kern = ObjectKernel(Q)
    W = weight_matrix(Q, [[Q.of(w) for w in row] for row in rows])
    assert type(W) is tuple and W[0].shape == (len(rows), 3) and W[1].shape == (len(rows), 1)
    assert {type(x) for x in W[0].flat} | {type(x) for x in W[1].flat} == {int}
    V = kern.array([v for col in cols for v in col]).reshape(len(cols), 3).T
    got = kern.lincomb(W, V).tolist()
    want = [[sum((Fraction(w) * v for w, v in zip(row, col)), Fraction(0)) for col in cols] for row in rows]
    assert got == want
    assert [[type(x) for x in r] for r in got] == [[int if x.denominator == 1 else Fraction for x in r] for r in want]
    # integral weights over Q stay one matrix of ints
    I = weight_matrix(Q, [[Q.of(2), Q.of(-3)], [Q.zero(), Q.one()]])
    assert type(I) is np.ndarray and {type(x) for x in I.flat} == {int}


def test_rational_diagonal_program_width_and_grid_chunks(monkeypatch):
    # nine terms with rational forms and coefficients over Q: the weights
    # compile to numerators with row denominators, the program's width is
    # the nine rows, and grid chunks keep every block within GRID_CHUNK
    rng = random.Random(11)
    frac = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    terms = [(Fraction(1, 2) if i == 0 else frac(), frac(), [frac(), frac()], rng.randint(0, 3)) for i in range(9)]
    D = DiagonalCircuit.make(Q, 2, terms)
    (_, _, A, _), _, (_, _, c, _) = D.program.steps
    assert type(A) is tuple and A[0].shape == (9, 3) and type(c) is tuple and c[0].shape == (1, 9)
    assert D.program.width == 9
    sizes = []
    run = Program.run
    monkeypatch.setattr(Program, "run", lambda self, kern, x: sizes.append((self.width, x.shape[1])) or run(self, kern, x))
    grid = Oracle(D, degree=3).eval_grid(40)
    assert len(sizes) > 1 and max(w * n for w, n in sizes) <= GRID_CHUNK < 9 * sizes[0][1] + 9
    assert sum(n for _, n in sizes) == 40**2 and grid[-1] == D.evaluate([39, 39])
    x = [MultiPoly.variable(Q, 2, i) for i in range(2)]
    P = MultiPoly.zero(Q, 2)
    for t in D.terms:
        form = MultiPoly.const(Q, 2, t.const).add(x[0].scale(t.coeffs[0])).add(x[1].scale(t.coeffs[1]))
        P = P.add(poly_pow(form, t.d).scale(t.c))
    assert dense_expand(Oracle(D, degree=3)) == P


M61 = Field.prime((1 << 61) - 1)
residues = st.one_of(st.sampled_from([0, 1, (1 << 32) - 1, 1 << 32, M61.p - 1]), st.integers(0, M61.p - 1))


@SETTINGS
@given(a=st.lists(residues, min_size=1, max_size=20), data=st.data(), e=st.integers(0, 70))
def test_mersenne_kernel_is_exact(a, data, e):
    b = data.draw(st.lists(residues, min_size=len(a), max_size=len(a)))
    w = data.draw(st.lists(st.lists(residues, min_size=2, max_size=2), min_size=1, max_size=4))
    kern, p = kernel_for(M61), M61.p
    xa, xb = kern.array(a), kern.array(b)
    assert kern.mul(xa, xb).tolist() == [x * y % p for x, y in zip(a, b)]
    assert kern.add(xa, xb).tolist() == [(x + y) % p for x, y in zip(a, b)]
    assert kern.pow(xa, e).tolist() == [pow(x, e, p) for x in a]
    assert kern.mul(kern.array([b[0]]), xa).tolist() == [b[0] * x % p for x in a]
    want = [[(u * x + v * y) % p for x, y in zip(a, b)] for u, v in w]
    assert kern.lincomb(np.array(w, dtype=object), np.stack([xa, xb])).tolist() == want
    assert kern.lincomb(SparseRows([(0, 1)] * len(w), w), np.stack([xa, xb])).tolist() == want


def test_object_layout_holds_python_ints():
    # numpy integers inside an object array would multiply in 64 bits and wrap
    kern = kernel_for(M61)
    values = [M61.p - 1, -5, 1 << 40]
    x = kern.array([np.uint64(values[0]), np.int64(values[1]), values[2]])
    y = kern.mul(kern.mul(x, kern.full(3, np.uint64(M61.p - 2))), kern.array([np.uint64(3)]))
    assert all(type(v) is int for v in x.tolist() + y.tolist())
    assert y.tolist() == [3 * (M61.p - 2) * v % M61.p for v in values]


def test_dense_expand_across_grid_chunks():
    # 5^6 = 15,625 points: several chunks and a short last one
    count = 5**6
    assert count > GRID_CHUNK and count % GRID_CHUNK
    rng = random.Random(6)
    D = random_diagonal(rng, M61, 6, 4, 4)
    oracle = Oracle(D.to_circuit(), degree=4)
    grid = oracle.eval_grid(5)
    assert oracle.calls == count
    for pos in (0, GRID_CHUNK - 1, GRID_CHUNK, 2 * GRID_CHUNK + 1, count - 1):
        pt = [pos // 5 ** (5 - i) % 5 for i in range(6)]
        assert int(grid[pos]) == D.evaluate(pt)
    P = dense_expand(oracle)
    for _ in range(20):
        pt = [rng.randrange(M61.p) for _ in range(6)]
        assert P.evaluate(pt) == D.evaluate(pt)


# -- compiled programs: the gate program and the diagonal program against
# the scalar twin Circuit.evaluate

PROGRAM_FIELDS = [M61, Field.prime((1 << 31) - 1), Field.prime(7), Q]


def coordinates(field: Field):
    """Negative and wider-than-uint64 ints, numpy integers and Fractions
    (over F_p with a denominator that is a unit)."""
    fractions = st.fractions(max_denominator=1 << 70)
    if field.p is not None:
        fractions = fractions.filter(lambda x: x.denominator % field.p)
    return st.one_of(integers, numpy_integers, fractions)


@st.composite
def diagonal_circuits(draw, field: Field, arity: int):
    """Zero to four terms, exponents 0 to 4, forms with zero coefficients
    (constant-only forms among them)."""
    scalar = st.one_of(st.integers(-3, 3), st.integers(0, (field.p or 97) - 1))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(scalar) for _ in range(arity)]
        terms.append((draw(scalar), draw(scalar), coeffs, draw(st.integers(0, 4))))
    return DiagonalCircuit.make(field, arity, terms)


@st.composite
def gate_circuits(draw, field: Field, arity: int):
    """Gates of every kind over earlier ones, which the level compiler
    merges: ``mul`` of fan-in 1 to 3, duplicate children in ``mul`` and in
    ``add``, ``add`` weights that cancel, ``const 0``, rational weights over
    Q, and gates the output does not use.  The output is any gate, an input,
    a ``const`` or a ``pow`` among them."""
    scalar = st.fractions(-4, 4, max_denominator=6) if field.p is None else st.integers(-3, 3)
    b = CircuitBuilder(field, arity)
    ids = [b.input(i) for i in range(arity)] or [b.const(draw(scalar))]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["const", "add", "add", "mul", "mul", "pow"]))
        if kind == "const":
            ids.append(b.const(draw(st.one_of(st.just(0), scalar))))
        elif kind == "add":
            terms = [(draw(scalar), c) for c in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))]
            if draw(st.booleans()):  # w c - w c: a weight that cancels
                c, w = draw(st.sampled_from(ids)), draw(scalar)
                terms += [(w, c), (-w, c)]
            ids.append(b.add(terms))
        elif kind == "mul":
            ids.append(b.mul(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))))
        else:
            ids.append(b.pow(draw(st.sampled_from(ids)), draw(st.integers(0, 4))))
    return b.build(draw(st.sampled_from(ids)))


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32), data=st.data(), count=st.sampled_from([0, 257]))
def test_programs_match_the_scalar_twin(field, seed, data, count):
    # count 0: the drawn points alone; 257: the drawn points repeated to 257
    rng = random.Random(seed)
    n = data.draw(st.integers(0, 3))
    circuits = [data.draw(diagonal_circuits(field, n)), data.draw(gate_circuits(field, n))]
    if n:
        circuits.append(random_circuit(rng, field, n, rng.randint(1, 8), 4))
    drawn = data.draw(st.lists(st.lists(coordinates(field), min_size=n, max_size=n), min_size=1, max_size=4))
    pts = [drawn[i % len(drawn)] for i in range(count or len(drawn))]
    for C in circuits:
        one = [C.evaluate(pt) for pt in drawn]
        assert C.evaluate_many(pts) == [one[i % len(drawn)] for i in range(len(pts))]
    # the grid {0, 1, 2}^n runs the gate program in chunks of its width
    C = circuits[1]
    grid = [[v // 3 ** (n - 1 - i) % 3 for i in range(n)] for v in range(3**n)]
    assert Oracle(C).eval_grid(3).tolist() == [C.evaluate(pt) for pt in grid]


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(data=st.data())
def test_a_point_batch_evaluates_as_its_points(field, data):
    # one batch of off-canonical coordinates, built once, runs through a
    # diagonal and a gate program as its raw points do, and its block stays
    # as it was built
    n = data.draw(st.integers(0, 3))
    circuits = [data.draw(diagonal_circuits(field, n)), data.draw(gate_circuits(field, n))]
    pts = data.draw(st.lists(st.lists(coordinates(field), min_size=n, max_size=n), min_size=1, max_size=6))
    batch = PointBatch(field, n, pts)
    block = batch.block.copy()
    assert not batch.block.flags.writeable and len(batch) == len(pts) and list(batch) == pts
    for C in circuits:
        assert C.evaluate_many(batch) == C.evaluate_many(pts) == [C.evaluate(pt) for pt in pts]
        assert Oracle(C, degree=4).eval_many(batch) == Oracle(C, degree=4).eval_many(pts)
    assert batch.block.dtype == block.dtype and np.array_equal(batch.block, block)


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
def test_runs_leave_a_batch_block_as_built(field):
    # every step kind reads block 0 through a view: a tuple pow out of
    # order, a mul, a dense and a sparse lincomb; a step that wrote to its
    # input would raise on the read-only block
    whole = slice(None)
    program = Program(field, 2, [
        ("pow", ((0, whole),), (2, 1, 3)),
        ("mul", ((0, whole),), np.array([[1, 2], [2, 1]], dtype=np.intp)),
        ("lincomb", ((0, whole),), weight_matrix(field, [[1, 2, 3]])),
        ("lincomb", ((0, slice(1, 3)),), weight_matrix(field, [[5, 6], [7]], [[0, 1], [1]])),
        ("lincomb", tuple((b, whole) for b in (1, 2, 3, 4)), weight_matrix(field, [[1] * 8])),
    ])
    pts = [(3, -4), (Fraction(1, 2), 10**30), (np.int64(-7), np.uint64((1 << 64) - 1))]
    F = field
    # 1 + x1 + x2^3 + 2 x1 x2 + (1 + 2 x1 + 3 x2) + (5 x1 + 6 x2) + 7 x2
    want = [F.add(F.add(F.of(2), F.mul(F.of(8), a)), F.add(F.mul(F.of(16), b), F.add(F.pow(b, 3), F.mul(F.of(2), F.mul(a, b)))))
            for a, b in ((F.of(x), F.of(y)) for x, y in pts)]
    batch = PointBatch(field, 2, pts)
    block = batch.block.copy()
    for _ in range(2):
        assert program.evaluate_many(batch) == program.evaluate_many(pts) == want
    assert np.array_equal(batch.block, block)


def test_a_batch_of_another_arity_or_field_is_refused():
    b = CircuitBuilder(M61, 2)
    circuits = [b.build(b.mul([b.input(0), b.input(1)])), DiagonalCircuit.make(M61, 2, [(1, 0, (1, 1), 2)])]
    for C in circuits:
        with pytest.raises(ArityMismatch):
            C.evaluate_many(PointBatch(M61, 3, [(1, 2, 3)]))
        with pytest.raises(FieldMismatch):
            C.evaluate_many(PointBatch(Field.prime(7), 2, [(1, 2)]))
        with pytest.raises(FieldMismatch):
            Oracle(C, degree=2).eval_many(PointBatch(Q, 2, [(1, 2)]))
        with pytest.raises(ArityMismatch):
            C.evaluate_many([(1, 2), (1,)])
    with pytest.raises(ArityMismatch):
        PointBatch(M61, 2, [(1, 2), (1, 2, 3)])


def fischer_zero(rng: random.Random, field: Field, n: int) -> Circuit:
    """Two products of two quadratics minus their Fischer power rewrite:
    identically zero, of depth 4 (squares of inputs, sums, products and
    squares, one sum)."""
    groups = [[random_multipoly(rng, field, n, 2, 3).add(MultiPoly.variable(field, n, j).mul(MultiPoly.variable(field, n, j)))
               for j in range(2)] for _ in range(2)]
    b = CircuitBuilder(field, n)
    tops = [(1, b.mul([b.poly(f) for f in fs])) for fs in groups]
    tops += [(field.neg(c), b.pow(b.poly(h), 2)) for c, h in fischer_rewrite(groups)]
    return b.build(b.add(tops))


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
def test_a_fischer_zero_circuit_is_one_step_per_level(field):
    rng = random.Random(13)
    for n in (2, 3, 5):
        C = fischer_zero(rng, field, n)
        assert len(C.gates) > 30 and len(C.program.steps) <= 6
        pts = [[rng.randrange(-99, 99) for _ in range(n)] for _ in range(257)]
        assert C.evaluate_many(pts) == [field.zero()] * len(pts)
        assert C.evaluate_many(pts[:5]) == [C.evaluate(pt) for pt in pts[:5]]


def test_level_compiler_edge_cases():
    # mul of fan-in 1, 2 and 3 at one depth are three steps; equal gates
    # share a row: a duplicate mul, and a sum whose weights cancel with
    # const 0, one row of one explicit zero; an unused gate compiles to nothing
    for F in PROGRAM_FIELDS:
        b = CircuitBuilder(F, 2)
        x, y = b.input(0), b.input(1)
        m1, m2, m3, m2b = b.mul([x]), b.mul([x, y]), b.mul([y, y, x]), b.mul([x, y])
        zero, z = b.add([(2, x), (-2, x), (1, b.const(0))]), b.const(0)
        b.pow(b.add([(5, x)]), 9)  # unused
        C = b.build(b.add([(1, m1), (3, m2), (-1, m3), (1, m2b), (1, zero), (1, b.mul([z, x]))]))
        ops = [(op, arg.shape if op == "mul" else len(arg)) for op, _, arg, _ in C.program.steps]
        assert sorted(ops[:4]) == [("lincomb", 1), ("mul", (1, 1)), ("mul", (2, 1)), ("mul", (3, 1))]
        (W,) = [arg for op, _, arg, _ in C.program.steps[:4] if op == "lincomb"]
        assert W.cols.tolist() == [0] and W.weights.tolist() == [[0]]
        assert ops[4:] == [("mul", (2, 1)), ("lincomb", 1)]
        for pt in ([2, 3], [0, -1], [5, 5]):
            assert C.evaluate_many([pt]) == [C.evaluate(pt)] == [F.of(pt[0] + 4 * pt[0] * pt[1] - pt[1] ** 2 * pt[0])]
        # the output an input, a const, or a pow
        for out in (y, z, b.pow(x, 3)):
            D = b.build(out)
            assert D.evaluate_many([[2, 3], [4, 1]]) == [D.evaluate([2, 3]), D.evaluate([4, 1])]


def wide_level_circuit() -> Circuit:
    """2,000 pow gates, 2,000 two-child sums of them, 1,000 products of
    pairs of sums and one sum of the products, over F_{2^31-1}."""
    rng = random.Random(13)
    F = Field.prime((1 << 31) - 1)
    b = CircuitBuilder(F, 2)
    x = [b.input(0), b.input(1)]
    pows = [b.pow(x[rng.randrange(2)], rng.randint(1, 3)) for _ in range(2000)]
    sums = [b.add([(F.random(rng), p) for p in rng.sample(pows, 2)]) for _ in range(2000)]
    products = [b.mul([sums[2 * i], sums[2 * i + 1]]) for i in range(1000)]
    return b.build(b.add([(F.random(rng), m) for m in products]))


def test_a_wide_level_stays_sparse():
    # a dense level would hold a weight for every (row, source) pair
    C = wide_level_circuit()
    W = [arg[0] if type(arg) is tuple else arg for op, _, arg, _ in C.program.steps if op == "lincomb"]
    assert all(type(w) is SparseRows for w in W)
    fan_in = sum(len(g.children) for g in C.gates if g.kind == "add")
    assert sum(w.cols.size for w in W) <= fan_in + sum(len(w) for w in W)
    # the widest array a run holds is the gathered entries of the sums
    assert C.program.width == W[0].cols.size > len(W[0]) == 2000
    # a pinned verdict, as one gate per step computed it
    assert brute_force_pit(Oracle(C)).render() == "NONZERO witness=x2^2 coeff=1984236975 tested=19 calls=49"


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
def test_diagonal_edge_cases(field):
    F = field
    at = [[1, 2], [3, -4]]
    none = DiagonalCircuit.make(F, 2, [])
    assert none.evaluate_many(at) == [F.zero()] * 2 == [none.evaluate(pt) for pt in at]
    # d = 0 is the constant c, whatever the form
    assert DiagonalCircuit.make(F, 2, [(5, 1, (2, 3), 0)]).evaluate_many(at) == [F.of(5)] * 2
    # a constant-only form, and arity 0
    assert DiagonalCircuit.make(F, 2, [(3, 2, (0, 0), 3)]).evaluate_many(at) == [F.of(24)] * 2
    D0 = DiagonalCircuit.make(F, 0, [(3, 2, (), 2), (1, 1, (), 0)])
    assert D0.evaluate_many([()] * 3) == [F.of(13)] * 3 == [D0.evaluate(())] * 3
    # no points at all
    assert D0.evaluate_many([]) == [] == none.evaluate_many([])
    with pytest.raises(ArityMismatch):
        none.evaluate_many([[1, 2], [3]])


def test_programs_compile_lazily_once():
    rng = random.Random(5)
    D = diagonal_from_json(diagonal_to_json(random_diagonal(rng, M61, 3, 4, 3)))
    C = parse(serialize(random_circuit(rng, M61, 3, 6, 3)))
    assert "program" not in vars(D) and "program" not in vars(C)
    D.evaluate_many([[1, 2, 3]])
    C.evaluate_many([[1, 2, 3]])
    assert vars(D)["program"] is D.program and vars(C)["program"] is C.program
    # L = A.[1; x], P = L^d row by row, c.P
    assert [op for op, *_ in D.program.steps] == ["lincomb", "pow", "lincomb"]


def test_diag_pit_builds_no_gate_circuit(monkeypatch):
    built = []
    to_circuit = DiagonalCircuit.to_circuit
    monkeypatch.setattr(DiagonalCircuit, "to_circuit", lambda self: built.append(self) or to_circuit(self))
    rng = random.Random(9)
    for zero in (True, False):
        for _ in range(4):
            D = random_diagonal(rng, M61, rng.randint(2, 4), 4, 3, force_zero=zero)
            assert diag_pit(D).is_zero == zero
    # all forms constant: the one evaluation at the origin
    assert diag_pit(DiagonalCircuit.make(M61, 2, [(2, 3, (0, 0), 2)])).coefficient == 18
    assert built == []


# -- like terms: the diagonal program collects terms of one (form, power)
# and drops those that cancel; the gate view keeps every term


@st.composite
def diagonals_with_like_terms(draw, field: Field, arity: int):
    """A forced-zero ``random_diagonal``, or none, plus terms drawn from one
    to three forms (a constant-only one among them) at powers 0 to 3 with
    c = 0 among the weights: one form at two powers, equal terms that add
    up, and, when drawn, the negation of every drawn term, so that all of
    them cancel."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    pairs = draw(st.integers(0, 2))
    zero = random_diagonal(rng, field, arity, 2 * pairs, 3, force_zero=True).terms if pairs else ()
    terms = [(t.c, t.const, t.coeffs, t.d) for t in zero]
    forms = [(field.random(rng), [field.random(rng) for _ in range(arity)]) for _ in range(draw(st.integers(1, 3)))]
    forms.append((field.random(rng), [0] * arity))
    drawn = []
    for _ in range(draw(st.integers(1, 5))):
        const, coeffs = draw(st.sampled_from(forms))
        drawn.append((draw(st.sampled_from([0, 1, -1, 2])), const, coeffs, draw(st.integers(0, 3))))
    if draw(st.sampled_from([False, False, True])):
        drawn += [(field.neg(field.of(c)), const, coeffs, d) for c, const, coeffs, d in drawn]
    order = draw(st.permutations(range(len(terms) + len(drawn))))
    return DiagonalCircuit.make(field, arity, [(terms + drawn)[i] for i in order])


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@SETTINGS
@given(data=st.data())
def test_collected_like_terms_keep_every_value_and_verdict(field, data):
    n = data.draw(st.integers(1, 3))
    D = data.draw(diagonals_with_like_terms(field, n))
    pts = data.draw(points(n))
    assert D.evaluate_many(pts) == [D.evaluate(pt) for pt in pts]
    if not field.size_exceeds(D.degree()):
        with pytest.raises(CharTooSmall):
            diag_pit(D)
        return
    got = diag_pit(D)
    try:
        truth = brute_force_pit(Oracle(build_psi(D).apply(D).to_circuit()))
    except RankZero:  # every form constant: diag_pit evaluates once, at the origin
        truth = brute_force_pit(D.as_oracle())
        assert (got.outcome, got.coefficient) == (truth.outcome, truth.coefficient)
        return
    assert (got.outcome, got.witness, got.coefficient) == (truth.outcome, truth.witness, truth.coefficient)


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
def test_the_diagonal_program_collects_like_terms(field):
    F = field
    rng = random.Random(3)

    def rows(D):
        (_, _, A, _), (_, _, d, _), (_, _, c, _) = D.program.steps
        return [F.of(x) for x in A.flatten()], d, [F.of(x) for x in c.flatten()]

    # a forced-zero circuit: no term is left, the program is the sum 0
    D = random_diagonal(rng, F, 3, 6, 4, force_zero=True)
    assert len(D.terms) == 6 and rows(D) == ([F.zero()] * 4, 0, [F.zero()])
    assert D.evaluate_many([[1, 2, 3]]) == [F.zero()] == [D.evaluate([1, 2, 3])]
    # c.l^d + c'.l^d is one row of weight c + c'; l^2 and l^3 stay two rows
    D = DiagonalCircuit.make(F, 2, [(3, 1, (2, 5), 4), (6, 1, (2, 5), 4)])
    assert rows(D) == ([F.of(x) for x in (1, 2, 5)], 4, [F.of(9)])
    assert len([g for g in D.to_circuit().gates if g.kind == "pow"]) == 2  # the gate view keeps both
    D = DiagonalCircuit.make(F, 2, [(3, 1, (2, 5), 3), (6, 1, (2, 5), 2)])
    assert rows(D) == ([F.of(x) for x in (1, 2, 5, 1, 2, 5)], (2, 3), [F.of(6), F.of(3)])


def test_grid_chunks_keep_every_block_within_the_bound(monkeypatch):
    # nine terms make blocks of nine rows, so a chunk holds GRID_CHUNK // 9
    # points and no block of a run exceeds GRID_CHUNK entries
    sizes = []
    run = Program.run
    monkeypatch.setattr(Program, "run", lambda self, kern, x: sizes.append((self.width, x.shape[1])) or run(self, kern, x))
    D = random_diagonal(random.Random(3), M61, 3, 9, 3)
    oracle = Oracle(D, degree=3)
    grid = oracle.eval_grid(17)
    assert D.program.width == 9 and max(w * n for w, n in sizes) <= GRID_CHUNK < 9 * sizes[0][1] + 9
    assert sum(n for _, n in sizes) == 17**3 and grid[-1] == D.evaluate([16, 16, 16])


#: the 2^61 - 1 kernel and the uint64 ones, whose sums must not overflow
LINCOMB_KERNELS = [Mersenne61Kernel(), SmallPrimeKernel(Field.prime((1 << 31) - 1)), SmallPrimeKernel(Field.prime(7))]


@pytest.mark.parametrize("kern", LINCOMB_KERNELS, ids=lambda k: f"p:{k.p}")
@pytest.mark.parametrize("rows, cols, points", [(1, 1, 3), (3, 5, 7), (6, 9, 40)])
def test_lincomb_is_the_mul_add_loop_at_the_overflow_edge(kern, rows, cols, points):
    p = kern.p
    rng = random.Random(rows * cols)
    for fill in (lambda: p - 1, lambda: rng.choice([0, 1, p - 1, rng.randrange(p)])):
        W = np.array([[fill() for _ in range(cols)] for _ in range(rows)], dtype=object)
        values = [[fill() for _ in range(points)] for _ in range(cols)]
        V = kern.array([v for row in values for v in row]).reshape(cols, points)
        loop = []
        for i in range(rows):
            acc = kern.full(points, 0)
            for j in range(cols):
                acc = kern.add(acc, kern.mul(kern.full(points, W[i, j]), V[j]))
            loop.append(acc.tolist())
        exact = [[sum(W[i, j] * values[j][t] for j in range(cols)) % p for t in range(points)] for i in range(rows)]
        sparse = SparseRows([range(cols)] * rows, W.tolist())
        assert kern.lincomb(W, V).tolist() == kern.lincomb(sparse, V).tolist() == loop == exact


@pytest.mark.parametrize("kern", LINCOMB_KERNELS[:2], ids=lambda k: f"p:{k.p}")
@pytest.mark.parametrize("terms", [1 << 16, (1 << 16) + 1, 3 << 16])
def test_lincomb_is_exact_at_2_16_terms_per_row(kern, terms):
    # every weight and value p - 1, one row and one point; for p < 2^31 the
    # dense sum takes 2^16 columns at a time (2^16 + 1 are two pieces, and
    # 3 * 2^16 in one piece would pass 2^64)
    p = kern.p
    W = np.full((1, terms), p - 1, dtype=object)
    V = kern.array([p - 1] * terms).reshape(terms, 1)
    exact = [[terms * (p - 1) ** 2 % p]]
    assert kern.lincomb(SparseRows([range(terms)], W.tolist()), V).tolist() == exact
    assert kern.lincomb(W, V).tolist() == exact


@pytest.mark.parametrize("field", PROGRAM_FIELDS + [Field.prime((1 << 89) - 1)], ids=lambda F: F.spec)
@pytest.mark.parametrize("count", [5, 257])
def test_pow_with_one_exponent_per_row(field, count):
    kern = kernel_for(field)
    rng = random.Random(count)
    exps = (3, 0, 1, 3, 70, 2, 1)
    values = [[rng.randrange(-50, 50) for _ in range(count)] for _ in exps]
    a = kern.array([v for row in values for v in row]).reshape(len(exps), count)
    got = kern.pow(a, exps).tolist()
    assert got == [[field.pow(field.of(v), e) for v in row] for row, e in zip(values, exps)]
    assert kern.pow(a[:0], ()).shape == (0, count)


# -- per-call waste: powers with no extra product, sources as views, grid
# nodes reduced once


def test_square_and_multiply_is_pow_with_the_fewest_products():
    # from the top set bit, base^e takes bit_length(e) + popcount(e) - 2
    # products for e >= 1, and the identity is built for e = 0 alone
    F = Field.prime(101)
    kern = SmallPrimeKernel(Field.prime((1 << 31) - 1))
    a = kern.array([0, 1, 2, kern.p - 1, 123456789])
    x = DensePoly.make(F, [3, 1, 4])
    for e in range(71):
        products, ones = [], []
        mul = lambda u, v: products.append(1) or F.mul(u, v)
        assert square_and_multiply(7, e, lambda: ones.append(1) or 1, mul) == pow(7, e, F.p)
        assert len(products) == (e.bit_length() + bin(e).count("1") - 2 if e else 0) and len(ones) == (e == 0)
        power = DensePoly.const(F, 1)
        for _ in range(e):
            power = power.mul(x)
        assert square_and_multiply(x, e, lambda: DensePoly.const(F, 1), DensePoly.mul) == x.pow(e) == power
        got = square_and_multiply(a, e, lambda: np.ones_like(a), kern.mul)
        assert got.dtype == np.uint64 and got.tolist() == [pow(v, e, kern.p) for v in a.tolist()]
    # e = 1 is the base itself
    assert square_and_multiply(a, 1, lambda: np.ones_like(a), kern.mul) is a


@pytest.mark.parametrize("field", PROGRAM_FIELDS + [Field.prime((1 << 89) - 1)], ids=lambda F: F.spec)
def test_one_exponent_is_the_field_power(field):
    # a square (over a prime on object arrays, a * a % p) and its neighbours
    kern = kernel_for(field)
    rng = random.Random(2)
    if field.p is None:
        values = [0, 1, -1] + [Fraction(rng.randrange(-99, 99), rng.randrange(1, 9)) for _ in range(20)]
    else:
        values = [0, 1, field.p - 1] + [rng.randrange(field.p) for _ in range(20)]
    a = kern.array(values)
    for e in (2, 0, 1, 3, 4):
        assert kern.pow(a, e).tolist() == [field.pow(field.of(v), e) for v in values]


def scalar_run(program: Program, point) -> Scalar:
    """The program's steps one field scalar at a time: its scalar twin."""
    F = program.field
    blocks = [[F.one()] + [F.of(x) for x in point]]
    for op, srcs, arg, _ in program.steps:
        v = [blocks[b][i] for b, r in srcs for i in np.arange(len(blocks[b]))[r].tolist()]
        if op == "pow":
            exps = arg if type(arg) is tuple else (arg,) * len(v)
            out = [F.pow(x, e) for x, e in zip(v, exps)]
        elif op == "mul":
            out = [functools.reduce(F.mul, (v[i] for i in col)) for col in arg.T.tolist()]
        elif type(arg) is SparseRows:
            ends = arg.starts.tolist()[1:] + [len(arg.cols)]
            entries = list(zip(arg.cols.tolist(), arg.weights[:, 0].tolist()))
            out = [functools.reduce(F.add, (F.mul(F.of(w), v[c]) for c, w in entries[s:t]))
                   for s, t in zip(arg.starts.tolist(), ends)]
        else:
            out = [functools.reduce(F.add, (F.mul(F.of(w), x) for w, x in zip(row, v))) for row in arg.tolist()]
        blocks.append(out)
    return blocks[-1][0]


def views_program(field: Field) -> Program:
    """Steps that read earlier blocks through consecutive rows and through
    rows that are not: a dense lincomb, a tuple pow out of order, a mul of
    two sources, a square (a tuple of one exponent), a pow by 1 and a sparse
    lincomb of five sources."""
    rows = lambda *r: np.array(r, dtype=np.intp)
    return Program(field, 2, [
        ("lincomb", ((0, rows(0, 1, 2)),), weight_matrix(field, [[1, 2, 3], [4, 0, 1], [0, 5, 6]])),
        ("pow", ((1, rows(0, 1, 2)),), (3, 1, 2)),
        ("mul", ((0, rows(1)), (2, rows(0, 2))), rows(0, 1, 2, 2).reshape(2, 2)),
        ("pow", ((3, rows(1)),), (2,)),
        ("pow", ((1, rows(2, 0)),), 1),
        ("lincomb", ((1, rows(0, 2)), (2, rows(1, 2)), (3, rows(0, 1)), (4, rows(0)), (5, rows(0, 1))),
         weight_matrix(field, [[1, 2, 3, 4, 5, 6], [7, 8]], [[0, 2, 4, 6, 7, 8], [1, 3]])),
    ])


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
def test_consecutive_rows_are_read_as_views_of_read_only_blocks(field):
    program = views_program(field)
    kinds = [[type(r) for _, r in srcs] for _, srcs, _, _ in program.steps]
    assert kinds == [[slice], [slice], [slice, np.ndarray], [slice], [np.ndarray], [np.ndarray, slice, slice, slice, slice]]
    assert [arg for op, _, arg, _ in program.steps if op == "pow"] == [(3, 1, 2), 2, 1]
    # the rows read in the last step, nine, are the widest array
    assert program.width == 9
    pts = [(3, -4), (Fraction(1, 2), 10**30), (np.int64(-7), np.uint64((1 << 64) - 1)), (0, 0)]
    batch = PointBatch(field, 2, pts)
    want = [scalar_run(program, pt) for pt in pts]
    assert program.evaluate_many(batch) == program.evaluate_many(pts) == want

    # every array a kernel call returns or reads is unchanged after the run
    kern, seen = batch.kernel, []

    class Recording:
        def __getattr__(self, name):
            def call(*args):
                out = getattr(kern, name)(*args)
                seen.extend((x, x.copy()) for x in (out, *args) if type(x) is np.ndarray)
                return out
            return call

    out = program.run(Recording(), batch.block)
    assert not out.flags.writeable and out.tolist() == program.run(kern, batch.block).tolist()
    assert seen and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in seen)

    # a step that wrote into the block it reads would raise, block 0 writeable or not
    class Writing:
        def __getattr__(self, name):
            return getattr(kern, name)

        def pow(self, a, e):
            a[...] = kern.pow(a, e)
            return a

    with pytest.raises(ValueError):
        program.run(Writing(), batch.block.copy())


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
def test_a_fischer_zero_program_reads_slices_and_one_exponent(field):
    rng = random.Random(13)
    for n in (2, 3, 5):
        C = fischer_zero(rng, field, n)
        srcs = [r for _, step, _, _ in C.program.steps for _, r in step]
        assert any(type(r) is slice for r in srcs)
        assert all(type(r) is slice or not (np.diff(r) == 1).all() for r in srcs)
        # every pow squares all its rows: one exponent, not a tuple of them
        assert [arg for op, _, arg, _ in C.program.steps if op == "pow"] == [2, 2]


@pytest.mark.parametrize("field, m", [(Field.prime(2), 3), (Field.prime(7), 9), (M61, 4), (Q, 4)], ids=lambda x: str(x))
def test_grid_nodes_are_the_reduced_nodes(field, m):
    # nodes past p read as their residues, as the scalar twin reads them
    rng = random.Random(m)
    for C in (random_circuit(rng, field, 2, 6, 3), random_diagonal(rng, field, 3, 3, 2)):
        n = C.arity
        oracle = Oracle(C, degree=3)
        grid = [[v // m ** (n - 1 - i) % m for i in range(n)] for v in range(m**n)]
        assert oracle.eval_grid(m).tolist() == [C.evaluate([field.of(x) for x in pt]) for pt in grid]
        assert oracle.calls == m**n
