"""The one evaluation engine: every field has a kernel, and the column engine
agrees with the scalar twin ``Circuit.evaluate`` on any integer input."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepit.circuits import Circuit, CircuitBuilder, Oracle, dense_expand
from conepit.fastmod import Mersenne61Kernel, ObjectKernel, SmallPrimeKernel, kernel_for
from conepit.fields import Field
from conepit.generators import random_circuit, random_diagonal, random_multipoly

FIELDS = [Field.prime(p) for p in (2, 7, (1 << 31) - 1, (1 << 61) - 1, (1 << 89) - 1)] + [Field.rationals()]
IDS = [F.spec for F in FIELDS]
SETTINGS = settings(max_examples=40, deadline=None)

# any Python int: negative, at least p, wider than 64 bits
integers = st.integers(min_value=-(1 << 100), max_value=1 << 100)


def points(arity: int):
    return st.lists(st.lists(integers, min_size=arity, max_size=arity), min_size=1, max_size=12)


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
