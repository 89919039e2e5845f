import random
from fractions import Fraction

import pytest

from conepit.circuits import Circuit, CircuitBuilder, Oracle, dense_expand
from conepit.errors import ArityMismatch, CharTooSmall, DuplicateNodes
from conepit.extraction import extract_coefficient, vandermonde_row
from conepit.fields import Field
from conepit.generators import random_circuit
from conepit.polys import cone_size, enumerate_low_cone

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
    return Oracle.from_circuit(b.build(b.pow(s, 2)))


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
    o = Oracle.from_circuit(b.build(b.pow(b.input(0), 2)))
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
            oracle = Oracle.from_circuit(C)
            truth = dense_expand(Oracle.from_circuit(C))
            for e in enumerate_low_cone(n, 16, dcap=oracle.degree):
                assert extract_coefficient(oracle, e) == truth.coefficient(e)


def test_call_count_is_exactly_cone_times_degree():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        C = random_circuit(rng, FP, n, 6, 4)
        oracle = Oracle.from_circuit(C)
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
        o1 = Oracle.from_circuit(random_circuit(rng, FP, n, 6, 3))
        o2 = Oracle.from_circuit(random_circuit(rng, FP, n, 6, 3))
        a, b = FP.random(rng), FP.random(rng)
        # a*p1 + b*p2 as one circuit; both random circuits have degree <= 3
        p1 = dense_expand(Oracle.from_circuit(o1.circuit))
        p2 = dense_expand(Oracle.from_circuit(o2.circuit))
        combo = Oracle.from_circuit(Circuit.from_multipoly(p1.scale(a).add(p2.scale(b))), degree=3)
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
