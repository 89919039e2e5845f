"""The one evaluation engine: every field has a kernel, and the column engine
agrees with the scalar twin ``Circuit.evaluate`` on any integer input,
numpy integers included, in both residue layouts of the 2^61 - 1 kernel and
across grid chunks, and over Q on rational input too."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepit.circuits import GRID_CHUNK, Circuit, CircuitBuilder, Oracle, dense_expand
from conepit.fastmod import SMALL, Mersenne61Kernel, ObjectKernel, SmallPrimeKernel, kernel_for
from conepit.fields import Field
from conepit.generators import random_circuit, random_diagonal, random_multipoly
from conepit.polys import MultiPoly

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
    assert dense_expand(Oracle.from_circuit(Circuit.from_multipoly(P))) == P


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

    oracle = Oracle.from_circuit(C, degree=2)
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
            poly, deg, gid = polys[x].pow(exp), degs[x] * exp, b.pow(x, exp)
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
    got = dense_expand(Oracle.from_circuit(C))
    assert got == P
    assert all(type(c) is Fraction for c in got.terms.values())


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
        assert kern.mul(kern.scalar(b[0]), xa).tolist() == [b[0] * x % M61.p for x in a]


def test_object_layout_holds_python_ints():
    # numpy integers inside an object array would multiply in 64 bits and wrap
    kern = kernel_for(M61, SMALL)
    values = [M61.p - 1, -5, 1 << 40]
    x = kern.array([np.uint64(values[0]), np.int64(values[1]), values[2]])
    y = kern.mul(kern.mul(x, kern.full(3, np.uint64(M61.p - 2))), kern.scalar(np.uint64(3)))
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
    oracle = Oracle.from_circuit(D.to_circuit(), degree=4)
    grid = oracle.eval_grid(5)
    assert oracle.calls == count
    for pos in (0, GRID_CHUNK - 1, GRID_CHUNK, 2 * GRID_CHUNK + 1, count - 1):
        pt = [pos // 5 ** (5 - i) % 5 for i in range(6)]
        assert int(grid[pos]) == D.evaluate(pt)
    P = dense_expand(oracle)
    for _ in range(20):
        pt = [rng.randrange(M61.p) for _ in range(6)]
        assert P.evaluate(pt) == D.evaluate(pt)
