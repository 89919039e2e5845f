"""The one evaluation engine: every field has a kernel, and the column engine
agrees with the scalar twin ``Circuit.evaluate`` on any integer input,
numpy integers included, in both residue layouts of the 2^61 - 1 kernel and
across grid chunks, and on rational input over Q and over every prime."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepit.circuits import GRID_CHUNK, Circuit, CircuitBuilder, Oracle, Program, dense_expand, parse, serialize, weight_matrix
from conepit.diagonal import DiagonalCircuit, diag_pit, diagonal_from_json, diagonal_to_json
from conepit.errors import ArityMismatch
from conepit.extraction import extract_coefficient
from conepit.fastmod import SMALL, Mersenne61Kernel, ObjectKernel, SmallPrimeKernel, kernel_for
from conepit.fields import Field
from conepit.generators import random_circuit, random_diagonal, random_multipoly
from conepit.pit import low_cone_pit
from conepit.polys import MultiPoly, enumerate_low_cone
from reference import poly_pow, reference_coefficient

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
@given(seed=st.integers(0, 1 << 32), data=st.data(), count=st.sampled_from([1, SMALL + 1]))
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
@given(seed=st.integers(0, 1 << 32), data=st.data(), count=st.sampled_from([1, SMALL + 1]))
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


def test_half_is_the_inverse_of_two():
    for field in (F for F in PRIME_FIELDS if F.p > 2):
        b = CircuitBuilder(field, 1)
        C = b.build(b.input(0))
        half = (field.p + 1) // 2
        for count in (1, SMALL + 1):
            assert C.evaluate_many([(Fraction(1, 2),)] * count) == [half] * count
        assert C.evaluate((Fraction(1, 2),)) == half


def test_every_field_has_a_kernel():
    kinds = [type(kernel_for(F, SMALL + 1)) for F in FIELDS]
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
    assert dense_expand(Oracle(Circuit.from_multipoly(P))) == P


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
def test_mersenne_layouts_agree(a, data, e):
    b = data.draw(st.lists(residues, min_size=len(a), max_size=len(a)))
    small, wide = kernel_for(M61, 1), kernel_for(M61, SMALL + 1)
    assert small.small and not wide.small
    want_mul = [x * y % M61.p for x, y in zip(a, b)]
    want_add = [(x + y) % M61.p for x, y in zip(a, b)]
    want_pow = [pow(x, e, M61.p) for x in a]
    for kern in (small, wide):
        xa, xb = kern.array(a), kern.array(b)
        assert kern.mul(xa, xb).tolist() == want_mul
        assert kern.add(xa, xb).tolist() == want_add
        assert kern.pow(xa, e).tolist() == want_pow
        assert kern.mul(kern.array([b[0]]), xa).tolist() == [b[0] * x % M61.p for x in a]


def test_object_layout_holds_python_ints():
    # numpy integers inside an object array would multiply in 64 bits and wrap
    kern = kernel_for(M61, SMALL)
    values = [M61.p - 1, -5, 1 << 40]
    x = kern.array([np.uint64(values[0]), np.int64(values[1]), values[2]])
    y = kern.mul(kern.mul(x, kern.full(3, np.uint64(M61.p - 2))), kern.array([np.uint64(3)]))
    assert all(type(v) is int for v in x.tolist() + y.tolist())
    assert y.tolist() == [3 * (M61.p - 2) * v % M61.p for v in values]


@pytest.mark.parametrize("count", [SMALL - 1, SMALL, SMALL + 1])
def test_evaluate_many_at_the_layout_boundary(count):
    assert kernel_for(M61, count).small == (count <= SMALL)
    rng = random.Random(count)
    C = random_circuit(rng, M61, 3, 10, 5)
    pts = [[rng.randrange(-(1 << 70), 1 << 70) for _ in range(3)] for _ in range(count)]
    assert C.evaluate_many(pts) == [C.evaluate(pt) for pt in pts]


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


@pytest.mark.parametrize("field", PROGRAM_FIELDS, ids=lambda F: F.spec)
@SETTINGS
@given(seed=st.integers(0, 1 << 32), data=st.data(), count=st.sampled_from([0, SMALL + 1]))
def test_programs_match_the_scalar_twin(field, seed, data, count):
    # count 0: the drawn points alone; SMALL + 1: repeated past the object
    # layout of 2^61 - 1 into the uint64 one
    rng = random.Random(seed)
    n = data.draw(st.integers(0, 3))
    circuits = [data.draw(diagonal_circuits(field, n))]
    if n:
        circuits.append(random_circuit(rng, field, n, rng.randint(1, 8), 4))
    drawn = data.draw(st.lists(st.lists(coordinates(field), min_size=n, max_size=n), min_size=1, max_size=4))
    pts = [drawn[i % len(drawn)] for i in range(count or len(drawn))]
    for C in circuits:
        one = [C.evaluate(pt) for pt in drawn]
        assert C.evaluate_many(pts) == [one[i % len(drawn)] for i in range(len(pts))]


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


UINT64_KERNELS = [Mersenne61Kernel(SMALL + 1), SmallPrimeKernel(Field.prime((1 << 31) - 1)), SmallPrimeKernel(Field.prime(7))]


@pytest.mark.parametrize("kern", UINT64_KERNELS, ids=lambda k: f"p:{k.p}")
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
        assert kern.lincomb(W, V).tolist() == loop == exact


@pytest.mark.parametrize("field", PROGRAM_FIELDS + [Field.prime((1 << 89) - 1)], ids=lambda F: F.spec)
@pytest.mark.parametrize("count", [5, SMALL + 1])
def test_pow_with_one_exponent_per_row(field, count):
    kern = kernel_for(field, count)
    rng = random.Random(count)
    exps = (3, 0, 1, 3, 70, 2, 1)
    values = [[rng.randrange(-50, 50) for _ in range(count)] for _ in exps]
    a = kern.array([v for row in values for v in row]).reshape(len(exps), count)
    got = kern.pow(a, exps).tolist()
    assert got == [[field.pow(field.of(v), e) for v in row] for row, e in zip(values, exps)]
    assert kern.pow(a[:0], ()).shape == (0, count)
