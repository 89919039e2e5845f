import random

import pytest

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
from conepit.errors import ArityMismatch, CharTooSmall, FieldMismatch, ParseError, TooLarge, ValidationError
from conepit.fastmod import SMALL, ObjectKernel, kernel_for
from conepit.fields import Field
from conepit.generators import random_circuit, random_diagonal, random_multipoly
from conepit.polys import MultiPoly

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
    # 301 grid points cross SMALL into the uint64 layout, where the
    # interpolation runs as lincomb's mul/add loop
    assert 301 > SMALL and not isinstance(kernel_for(field, 301), ObjectKernel)
    rng = random.Random(301)
    terms = [((e,), field.random(rng)) for e in rng.sample(range(300), 20)] + [((300,), field.p - 1), ((0,), 1)]
    P = MultiPoly.make(field, 1, terms)
    assert dense_expand(Oracle(Circuit.from_multipoly(P), degree=300)) == P
    b = CircuitBuilder(field, 1)
    assert dense_expand(Oracle(b.build(b.pow(b.input(0), 300)))) == MultiPoly.make(field, 1, {(300,): 1})


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
