import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepit import circuits
from conepit.circuits import (
    Circuit,
    CircuitBuilder,
    Gate,
    Oracle,
    dense_expand,
    parse,
    serialize,
)
from conepit.diagonal import DiagonalCircuit, diagonal_from_json, diagonal_to_json
from conepit.errors import ArityMismatch, BadParameters, CharTooSmall, FieldMismatch, ParseError, TooLarge, ValidationError
from conepit.fastmod import kernel_for
from conepit.fields import DensePoly, Field
from conepit.generators import random_circuit, random_diagonal, random_multipoly
from conepit.hsg import HsgTuple
from conepit.pit import NONZERO, ZERO, brute_force_pit
from conepit.polys import MultiPoly, VectorPoly, enumerate_low_cone
from reference import circuit_from_multipoly

Q = Field.rationals()
FP = Field.default_prime()


def build_sum_square(field):
    b = CircuitBuilder(field, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1))])
    return b.build(b.pow(s, 2))


def test_evaluate_examples():
    b = CircuitBuilder(Q, 2)
    C = b.build(b.add([(1, b.input(0)), (1, b.input(1))]))
    assert C.evaluate([Q.of(2), Q.of(3)]) == 5

    b = CircuitBuilder(Q, 2)
    C = b.build(b.pow(b.mul([b.input(0), b.input(1)]), 3))
    assert C.evaluate([Q.of(1), Q.of(1)]) == 1

    b = CircuitBuilder(Q, 1)
    C = b.build(b.const(0))
    assert C.evaluate([Q.of(42)]) == 0

    with pytest.raises(ArityMismatch):
        C.evaluate([])


def test_syntactic_degree_examples():
    b = CircuitBuilder(Q, 2)
    C = b.build(b.add([(1, b.input(0)), (1, b.input(1))]))
    assert C.syntactic_degree() == 1

    b = CircuitBuilder(Q, 2)
    inner = b.add([(1, b.input(0)), (1, b.const(1))])
    C = b.build(b.mul([b.pow(inner, 3), b.input(1)]))
    assert C.syntactic_degree() == 4

    b = CircuitBuilder(Q, 1)
    assert b.build(b.const(7)).syntactic_degree() == 0


def test_size_counts_gates_and_edges():
    C = build_sum_square(Q)
    # input, input, add(2 edges), pow(1 edge)
    assert C.size == 4 + 3


def test_substitute_examples():
    b = CircuitBuilder(Q, 2)
    C = b.build(b.mul([b.input(0), b.input(1)]))
    y2 = MultiPoly.make(Q, 1, {(2,): 1})
    y4 = MultiPoly.make(Q, 1, {(4,): 1})
    sub = C.substitute({0: y2, 1: y4})
    assert sub.arity == 1
    assert dense_expand(Oracle(sub)) == MultiPoly.make(Q, 1, {(6,): 1})

    identity = {i: MultiPoly.variable(Q, 2, i) for i in range(2)}
    again = C.substitute(identity)
    assert dense_expand(Oracle(again)) == dense_expand(Oracle(C))

    b = CircuitBuilder(Q, 2)
    C2 = b.build(b.add([(1, b.input(0)), (1, b.input(1))]))
    q = MultiPoly.make(Q, 1, {(1,): 1, (0,): 1})
    doubled = C2.substitute({0: q, 1: q})
    assert dense_expand(Oracle(doubled)) == MultiPoly.make(Q, 1, {(1,): 2, (0,): 2})


def test_substitute_field_mismatch():
    C = build_sum_square(Q)
    with pytest.raises(FieldMismatch):
        C.substitute({0: MultiPoly.variable(FP, 2, 0)})


def test_substitute_homomorphism_random():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 3)
        C = random_circuit(rng, FP, n, rng.randint(2, 8), 4)
        m = rng.randint(1, 3)
        sigma = {i: random_multipoly(rng, FP, m, 2, 3) for i in range(n)}
        sub = C.substitute(sigma)
        pt = [FP.random(rng) for _ in range(m)]
        images = [sigma[i].evaluate(pt) for i in range(n)]
        assert sub.evaluate(pt) == C.evaluate(images)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), point=st.lists(st.integers(-30, 30), min_size=3, max_size=3))
def test_with_field_is_the_circuit_read_mod_p(seed, n, point):
    # random_circuit over Q draws integral constants and weights, so every
    # value at an integer point is an integer, and F_13 reads it mod 13
    F13 = Field.prime(13)
    C = random_circuit(random.Random(seed), Q, n, 10, 5)
    D = C.with_field(F13)
    x = point[:n]
    assert D.field == F13 and D.evaluate(x) == F13.of(C.evaluate(x))
    assert D.syntactic_degree() == C.syntactic_degree()
    assert [g.id for g in D.gates] == list(range(len(D.gates)))
    assert C.with_field(C.field) is C


def test_dense_expand_examples():
    C = build_sum_square(Q)
    assert dense_expand(Oracle(C)) == MultiPoly.make(Q, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    b = CircuitBuilder(Q, 2)
    Z = b.build(b.const(0))
    assert dense_expand(Oracle(Z)).is_zero


def test_dense_expand_round_trip_random():
    # 500 random circuits, 20 random points each: the expansion and the
    # circuit agree exactly.
    rng = random.Random(2)
    for i in range(500):
        field = Q if i % 25 == 0 else FP
        n = rng.randint(1, 4)
        C = random_circuit(rng, field, n, rng.randint(2, 12), 5)
        assert C.size <= 120
        poly = dense_expand(Oracle(C))
        pts = [[field.random(rng) for _ in range(n)] for _ in range(20)]
        vals = C.evaluate_many(pts)
        for pt, v in zip(pts, vals):
            assert poly.evaluate(pt) == v


def test_dense_expand_guard_and_char(monkeypatch):
    b = CircuitBuilder(Q, 9)
    C = b.build(b.pow(b.input(0), 8))
    with pytest.raises(TooLarge):
        dense_expand(Oracle(C, degree=8))
    # One variable: the (d + 1)^2 interpolation table outgrows the grid.
    monkeypatch.setattr(circuits, "DENSE_EXPAND_GUARD", 100)
    b = CircuitBuilder(FP, 1)
    assert dense_expand(Oracle(b.build(b.pow(b.input(0), 9)))) == MultiPoly.make(FP, 1, {(9,): 1})
    b = CircuitBuilder(FP, 1)
    with pytest.raises(TooLarge):
        dense_expand(Oracle(b.build(b.pow(b.input(0), 10))))
    F3 = Field.prime(3)
    b = CircuitBuilder(F3, 1)
    C = b.build(b.pow(b.input(0), 4))
    with pytest.raises(CharTooSmall):
        dense_expand(Oracle(C))


@pytest.mark.parametrize("field", (FP, Field.prime((1 << 31) - 1)), ids=lambda F: F.spec)
def test_dense_expand_at_width_301(field):
    rng = random.Random(301)
    terms = [((e,), field.random(rng)) for e in rng.sample(range(300), 20)] + [((300,), field.p - 1), ((0,), 1)]
    P = MultiPoly.make(field, 1, terms)
    assert dense_expand(Oracle(circuit_from_multipoly(P), degree=300)) == P
    b = CircuitBuilder(field, 1)
    assert dense_expand(Oracle(b.build(b.pow(b.input(0), 300)))) == MultiPoly.make(field, 1, {(300,): 1})
    # arity 4 at degree 4: a grid of 625 points, with the corner x^(4,4,4,4)
    P = random_multipoly(rng, field, 4, 4, 30).add(MultiPoly.make(field, 4, {(4, 4, 4, 4): field.p - 1}))
    assert dense_expand(Oracle(circuit_from_multipoly(P), degree=4)) == P


GRID_FIELDS = (FP, Field.prime((1 << 31) - 1), Field.prime(7), Field.prime((1 << 89) - 1), Q)


def lincomb_calls(monkeypatch, field):
    """A list that grows by one entry on every ``lincomb`` of the field's kernel."""
    kern_type = type(kernel_for(field))
    real = kern_type.lincomb
    calls = []

    def lincomb(self, W, V):
        calls.append(W)
        return real(self, W, V)

    monkeypatch.setattr(kern_type, "lincomb", lincomb)
    return calls


@pytest.mark.parametrize("field", GRID_FIELDS, ids=lambda F: F.spec)
def test_dense_expand_of_a_zero_grid_interpolates_nothing(monkeypatch, field):
    rng = random.Random(17)
    b = CircuitBuilder(field, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1))])
    sum_square = b.build(
        b.add([(1, b.pow(s, 2)), (-1, b.pow(b.input(0), 2)), (-2, b.mul([b.input(0), b.input(1)])), (-1, b.pow(b.input(1), 2))])
    )
    diagonal = random_diagonal(rng, field, 3, 3, 3, force_zero=True).to_circuit()
    calls = lincomb_calls(monkeypatch, field)
    for C in (sum_square, diagonal):
        oracle = Oracle(C)
        grid = (oracle.degree + 1) ** C.arity
        Oracle(C).eval_grid(oracle.degree + 1)
        grid_lincombs = len(calls)
        assert dense_expand(oracle) == MultiPoly.zero(field, C.arity)
        # the grid's program again, and no interpolation pass
        assert len(calls) == 2 * grid_lincombs
        assert oracle.calls == grid
        verdict = brute_force_pit(Oracle(C))
        assert (verdict.outcome, verdict.oracle_calls) == (ZERO, grid)
        calls.clear()


@pytest.mark.parametrize("field", GRID_FIELDS, ids=lambda F: F.spec)
def test_dense_expand_of_a_mostly_zero_grid(monkeypatch, field):
    # prod over i of x_i (x_i - 1) ... (x_i - d + 1) vanishes on the grid
    # {0..d}^n except at its corner (d, ..., d)
    n, d = 3, 4
    P = MultiPoly.const(field, n, 1)
    for i in range(n):
        for j in range(d):
            P = P.mul(MultiPoly.variable(field, n, i).sub(MultiPoly.const(field, n, j)))
    C = circuit_from_multipoly(P)
    calls = lincomb_calls(monkeypatch, field)
    Oracle(C, degree=d).eval_grid(d + 1)
    grid_lincombs = len(calls)
    assert dense_expand(Oracle(C, degree=d)) == P
    # one interpolation pass per axis
    assert len(calls) == 2 * grid_lincombs + n
    verdict = brute_force_pit(Oracle(C, degree=d))
    assert (verdict.outcome, verdict.monomials_tested) == (NONZERO, len(P.terms))


def test_evaluate_many_matches_scalar_path():
    rng = random.Random(4)
    for field in (FP, Field.prime(101), Q):
        C = random_circuit(rng, field, 3, 8, 4)
        pts = [[field.random(rng) for _ in range(3)] for _ in range(32)]
        batched = C.evaluate_many(pts)
        assert batched == [C.evaluate(pt) for pt in pts]


@pytest.mark.parametrize("field", (FP, Field.prime((1 << 31) - 1), Field.prime(7), Q), ids=lambda F: F.spec)
def test_evaluate_many_matches_scalar_path_off_canonical(field):
    # Integers that are not canonical residues: at least p, wider than
    # uint64, and negative.  Both paths must reduce them the same way.
    rng = random.Random(6)
    wide = [(1 << 63) + 1, 1 << 40, (1 << 64) + 3, 1 << 100, -1, -(1 << 70), -7, 7]
    for n in (1, 3):
        pts = [[rng.choice(wide) + rng.randrange(3) for _ in range(n)] for _ in range(24)]
        b = CircuitBuilder(field, n)
        square = b.build(b.pow(b.input(0), 2))
        bare = CircuitBuilder(field, n)
        shapes = [square, bare.build(bare.input(n - 1))]
        shapes += [random_circuit(rng, field, n, 8, 4) for _ in range(4)]
        shapes += [random_diagonal(rng, field, n, 3, 3) for _ in range(4)]
        for C in shapes:
            assert C.evaluate_many(pts) == [C.evaluate(pt) for pt in pts]
    b = CircuitBuilder(field, 1)
    square = b.build(b.pow(b.input(0), 2))
    got = square.evaluate_many([[(1 << 63) + 1], [1 << 40], [-3]])
    assert got == [field.of(((1 << 63) + 1) ** 2), field.of(1 << 80), field.of(9)]


def test_serialize_parse_round_trip():
    for field in (Q, FP):
        C = build_sum_square(field)
        text = serialize(C)
        again = parse(text)
        assert again == C
        assert serialize(again) == text


def test_serialize_round_trip_random():
    rng = random.Random(31)
    for _ in range(30):
        C = random_circuit(rng, Q if rng.random() < 0.5 else FP, rng.randint(1, 4), rng.randint(1, 10), 6)
        assert parse(serialize(C)) == C


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("{not json")
    with pytest.raises(ParseError):
        parse('{"field": "q", "arity": 1, "gates": [{"id": 0, "kind": "fancy"}], "output": 0}')


def test_validation_errors():
    with pytest.raises(ValidationError):
        # forward reference: child id after parent
        Circuit(Q, 1, (Gate(0, "add", children=(1,)), Gate(1, "input", var=0)), 0)
    with pytest.raises(ValidationError):
        Circuit(Q, 1, (Gate(0, "input", var=3),), 0)
    with pytest.raises(ValidationError):
        Circuit(Q, 1, (Gate(1, "input", var=0), Gate(0, "const", value=Q.of(1))), 0)
    with pytest.raises(ValidationError):
        Circuit(Q, 1, (Gate(0, "input", var=0),), 5)


X0 = Gate(0, "input", var=0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Circuit(Q, 1, (Gate(0, "const"),), 0), ValidationError, "const without value"),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "add")), 1), ValidationError, "add needs at least one child"),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "mul")), 1), ValidationError, "mul needs at least one child"),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "add", children=(0, 0), weights=(Q.of(1),))), 1), ValidationError, "1 weights for 2 children"),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "pow", children=(0, 0), exp=2)), 1), ValidationError, "pow needs one child"),
        (lambda: DiagonalCircuit.make(Q, 2, [(1, 0, (1,), 2)]), ValidationError, "1 coefficients, arity is 2"),
        (lambda: DiagonalCircuit.make(Q, 1, [(1, 0, (1,), -1)]), ValidationError, "exponent must be a natural number"),
        (lambda: DiagonalCircuit.make(Q, 1, [(1, 0, (1,), True)]), ValidationError, "exponent must be a natural number, got true"),
        (lambda: DiagonalCircuit.make(Q, 1, [(1, 0, (1,), 2.5)]), ValidationError, "exponent must be a natural number, got 2.5"),
        (lambda: DiagonalCircuit.make(Q, 1, [(1, 0, (1,), "2")]), ValidationError, 'exponent must be a natural number, got "2"'),
        (lambda: DiagonalCircuit.make(Q, 1, [(1, 0, (1,), np.int64(-2))]), ValidationError, "exponent must be a natural number, got"),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "pow", children=(0,), exp=2.5)), 1), ValidationError, "gate 1: exp must be a natural number, got 2.5"),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "pow", children=(0,), exp="2")), 1), ValidationError, 'gate 1: exp must be a natural number, got "2"'),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "pow", children=(0,), exp=True)), 1), ValidationError, "gate 1: exp must be a natural number, got true"),
        (lambda: Circuit(Q, 1, (X0, Gate(1, "pow", children=(0,), exp=-1)), 1), ValidationError, "gate 1: exp must be a natural number, got -1"),
        (lambda: Circuit(Q, 3, (Gate(0, "input", var=1.5),), 0), ValidationError, "gate 0: var must be a natural number, got 1.5"),
        (lambda: Circuit(Q, 3, (Gate(0, "input", var=True),), 0), ValidationError, "gate 0: var must be a natural number, got true"),
        (lambda: Circuit(Q, 3, (Gate(0, "input", var=-1),), 0), ValidationError, "gate 0: variable index -1 out of range"),
        (lambda: CircuitBuilder(Q, 3).input(True), ValidationError, "var must be a natural number, got true"),
        (lambda: MultiPoly.make(Q, 2, [((-1, 0), 1)]), ValidationError, r"exponent \(-1, 0\) entry must be a natural number, got -1"),
        (lambda: MultiPoly.make(Q, 2, [((1.5, 0), 1)]), ValidationError, r"exponent \(1.5, 0\) entry must be a natural number, got 1.5"),
        (lambda: VectorPoly.make(Q, 2, 1, [((0, -1), [1])]), ValidationError, r"exponent \(0, -1\) entry must be a natural number, got -1"),
        (lambda: enumerate_low_cone(2, 1.5), BadParameters, "k must be a natural number, got 1.5"),
        (lambda: enumerate_low_cone(2.0, 3), BadParameters, "n must be a natural number, got 2.0"),
        (lambda: enumerate_low_cone(2, 3, 1.5), BadParameters, "dcap must be a natural number, got 1.5"),
        (lambda: HsgTuple.make(Q, [DensePoly.make(Q, [0, 1]), DensePoly.zero(Q)]), ValidationError, "univariate 2 is the zero"),
        (lambda: HsgTuple.make(Q, [DensePoly.make(FP, [0, 1])]), ValidationError, "univariate 1 is over p:"),
        (lambda: HsgTuple.make(Q, [DensePoly.make(Q, [0, 0, 1])], degree=1), ValidationError, "declared degree 1 below actual degree 2"),
        (lambda: MultiPoly.make(Q, 2, [((1, 0), 1), ((1,), 1)]), ArityMismatch, r"exponent \(1,\) has arity 1, expected 2"),
        (lambda: VectorPoly.make(Q, 2, 1, [((1,), [1])]), ArityMismatch, "has arity 1, expected 2"),
        (lambda: VectorPoly.make(Q, 1, 2, [((1,), [1])]), ArityMismatch, "coefficient vector of length 1, expected 2"),
    ],
)
def test_constructors_refuse_malformed_parts(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_numpy_integer_exponents_are_read_as_the_ints_they_equal():
    C = Circuit(Q, 1, (X0, Gate(1, "pow", children=(0,), exp=np.int64(3))), 1)
    assert type(C.gates[1].exp) is int and C.evaluate([Q.of(2)]) == 8
    assert parse(serialize(C)) == C
    D = DiagonalCircuit.make(FP, 2, [(1, 0, (1, 2), np.uint8(2)), (3, 1, (0, 1), np.int32(0))])
    assert [type(t.d) for t in D.terms] == [int, int]
    assert diagonal_from_json(diagonal_to_json(D)) == D
    P = MultiPoly.make(Q, 2, [((np.int64(1), np.uint8(2)), 1)])
    assert P == MultiPoly.make(Q, 2, [((1, 2), 1)]) and [type(x) for e in P.terms for x in e] == [int, int]
    assert VectorPoly.make(Q, 2, 1, [((np.int32(1), 0), [1])]).support() == [(1, 0)]


def test_numpy_integer_indices_and_bounds_are_read_as_the_ints_they_equal():
    b = CircuitBuilder(Q, 3)
    assert b.input(np.int64(1)) == b.input(1) == 0 and type(b.gates[0].var) is int
    assert enumerate_low_cone(np.int64(2), np.int64(4), np.int64(2), degree=np.int64(1)) == enumerate_low_cone(2, 4, 2, degree=1)


@pytest.mark.parametrize(
    "gate",
    [
        '{"id": 1, "kind": "const", "value": "1", "children": [0]}',
        '{"id": 1, "kind": "input", "var": 0, "children": [0]}',
        '{"id": 1, "kind": "input", "var": 0, "value": "2"}',
        '{"id": 1, "kind": "input", "var": 0, "exp": 2}',
        '{"id": 1, "kind": "mul", "children": [0], "weights": ["2"]}',
        '{"id": 1, "kind": "mul", "children": [0], "exp": 2}',
        '{"id": 1, "kind": "add", "children": [0], "var": 0}',
        '{"id": 1, "kind": "pow", "children": [0], "exp": 2, "value": "3"}',
    ],
)
def test_fields_of_another_gate_kind_are_rejected(gate):
    # a stray field would be dropped by serialize, so parse(serialize(C))
    # would not be C
    with pytest.raises(ValidationError, match="takes no"):
        parse('{"field": "q", "arity": 1, "gates": [{"id": 0, "kind": "input", "var": 0}, ' + gate + '], "output": 1}')
