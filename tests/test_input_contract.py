"""One input contract at the library's entry points.

Each case is a callable of one integer argument, the value that is valid
for it, and the :class:`ConepitError` subclass it raises when that integer
is malformed.  Every malformed value must raise that subclass, never a
bare builtin exception and never a result, with the extraction cache cold
and again once the valid call has warmed it: a float or a bool whose
cache key equals a kept int's is refused all the same.  A numpy integer
is read as the int it equals, a negative bound included.
"""

import numpy as np
import pytest

from conepit import (
    Circuit,
    DensePoly,
    DiagonalCircuit,
    Gate,
    HsgTuple,
    MultiPoly,
    Oracle,
    VectorPoly,
    cone_closed_basis_after_shift,
    cone_size,
    diag_power_vectorpoly,
    enumerate_low_cone,
    greedy_design,
    is_basis_isolating,
    is_cone_closed,
    is_submonomial,
    kronecker_weights,
    least_basis,
    local_kronecker,
    low_cone_pit,
    shift_by_weight,
    sz_pit,
    transfer_submatrix,
    vandermonde_row,
    weight_of,
)
from conepit.circuits import CircuitBuilder
from conepit.errors import BadParameters, ConepitError, ValidationError
from conepit.extraction import FilteredOracle, interpolation_row
from conepit.fields import Field
from conepit.polys import submonomials
from test_conebasis import example_f

Q = Field.rationals()
FP = Field.default_prime()


def input_after_x2(var):
    """A builder's input gate for ``var`` once it holds x2, so a ``True``
    that the memo would take for 1 is read first."""
    b = CircuitBuilder(Q, 3)
    return b.build(b.add([(1, b.input(1)), (1, b.input(var))]))


def x1_plus_x2():
    b = CircuitBuilder(FP, 2)
    return b.build(b.add([(1, b.input(0)), (1, b.input(1))]))


X = x1_plus_x2()
F = example_f()
X0, X1 = Gate(0, "input", var=0), Gate(1, "input", var=1)
P = MultiPoly.make(Q, 2, {(1, 0): 3, (0, 1): 5})
V = VectorPoly.make(Q, 2, 1, [((1, 0), [3])])

# name -> (call of the integer under test, a valid value, the error)
CASES = {
    "kronecker_weights n": (lambda v: kronecker_weights(v, 1), 2, BadParameters),
    "kronecker_weights d": (lambda v: kronecker_weights(2, v), 1, BadParameters),
    "local_kronecker block": (lambda v: local_kronecker(X, v), 2, BadParameters),
    "greedy_design l": (lambda v: greedy_design(v, 3, 1), 9, BadParameters),
    "greedy_design n": (lambda v: greedy_design(9, v, 1), 3, BadParameters),
    "greedy_design d": (lambda v: greedy_design(9, 3, v), 1, BadParameters),
    "transfer_submatrix A": (lambda v: transfer_submatrix([(v, 0)], [(1, 0)]), 0, BadParameters),
    "transfer_submatrix B": (lambda v: transfer_submatrix([(0, 0)], [(v, 0)]), 1, BadParameters),
    "Oracle.eval_grid": (lambda v: Oracle(X).eval_grid(v), 2, ValidationError),
    "Oracle degree": (lambda v: Oracle(X, v), 1, ValidationError),
    "low_cone_pit k": (lambda v: low_cone_pit(Oracle(X), v), 2, BadParameters),
    "sz_pit trials": (lambda v: sz_pit(Oracle(X), v, 1), 2, BadParameters),
    "sz_pit seed": (lambda v: sz_pit(Oracle(X), 2, v), 1, BadParameters),
    "vandermonde_row target": (lambda v: vandermonde_row([0, 1, 2], v, FP), 1, BadParameters),
    "interpolation_row target": (lambda v: interpolation_row(FP, 3, v), 1, BadParameters),
    "FilteredOracle exponent": (lambda v: FilteredOracle(Oracle(X), (v, 0)), 1, ValidationError),
    "Gate exp": (lambda v: Gate(1, "pow", children=(0,), exp=v), 2, ValidationError),
    "Gate var": (lambda v: Circuit(Q, 3, (Gate(0, "input", var=v),), 0), 1, ValidationError),
    "CircuitBuilder.input": (input_after_x2, 1, ValidationError),
    "enumerate_low_cone n": (lambda v: enumerate_low_cone(v, 4), 2, BadParameters),
    "enumerate_low_cone k": (lambda v: enumerate_low_cone(2, v), 4, BadParameters),
    "enumerate_low_cone dcap": (lambda v: enumerate_low_cone(2, 4, v), 1, BadParameters),
    "enumerate_low_cone degree": (lambda v: enumerate_low_cone(2, 4, degree=v), 1, BadParameters),
    "MultiPoly.make exponent": (lambda v: MultiPoly.make(Q, 2, [((v, 0), 1)]), 1, ValidationError),
    "VectorPoly.make exponent": (lambda v: VectorPoly.make(Q, 2, 1, [((v, 0), [1])]), 1, ValidationError),
    "DiagonalCircuit power": (lambda v: DiagonalCircuit.make(Q, 1, [(1, 0, (1,), v)]), 2, ValidationError),
    "is_basis_isolating weight": (lambda v: is_basis_isolating(F, (v, 2)), 1, BadParameters),
    "least_basis weight": (lambda v: least_basis(F, (v, 2)), 1, BadParameters),
    "shift_by_weight weight": (lambda v: shift_by_weight(F, (v, 2)), 1, BadParameters),
    "cone_closed_basis_after_shift weight": (lambda v: cone_closed_basis_after_shift(F, (v, 2)), 1, BadParameters),
    "cone_size entry": (lambda v: cone_size((v, 1)), 1, ValidationError),
    "Circuit arity": (lambda v: Circuit(Q, v, (X0,), 0), 1, ValidationError),
    "Circuit output": (lambda v: Circuit(Q, 2, (X0, X1), v), 1, ValidationError),
    "Gate id": (lambda v: Circuit(Q, 2, (X0, Gate(v, "input", var=1)), 0), 1, ValidationError),
    "Gate children": (lambda v: Circuit(Q, 2, (X0, X1, Gate(2, "mul", children=(0, v))), 2), 1, ValidationError),
    "MultiPoly.make arity": (lambda v: MultiPoly.make(Q, v, [((1,), 1)]), 1, ValidationError),
    "VectorPoly.make arity": (lambda v: VectorPoly.make(Q, v, 1, [((1,), [1])]), 1, ValidationError),
    "VectorPoly.make dim": (lambda v: VectorPoly.make(Q, 1, v, [((1,), [1])]), 1, ValidationError),
    "DiagonalCircuit arity": (lambda v: DiagonalCircuit.make(Q, v, [(1, 0, (1,), 2)]), 1, ValidationError),
    "HsgTuple degree": (lambda v: HsgTuple.make(Q, [DensePoly.make(Q, [0, 1])], v), 1, ValidationError),
    "DensePoly.pow": (lambda v: DensePoly.make(Q, [1, 1]).pow(v), 2, ValidationError),
    "MultiPoly.variable index": (lambda v: MultiPoly.variable(Q, 2, v), 1, ValidationError),
    "Field.prime": (Field.prime, 101, ValidationError),
    "MultiPoly.variable arity": (lambda v: MultiPoly.variable(Q, v, 0), 1, ValidationError),
    "MultiPoly.const arity": (lambda v: MultiPoly.const(Q, v, 1), 1, ValidationError),
    "diag_power_vectorpoly d": (lambda v: diag_power_vectorpoly(Q, [[1]], v), 1, ValidationError),
    "DiagonalCircuit direct power": (lambda v: DiagonalCircuit(Q, 1, [(1, 0, (1,), v)]), 2, ValidationError),
    "DiagonalCircuit direct arity": (lambda v: DiagonalCircuit(Q, v, [(1, 0, (1,), 2)]), 1, ValidationError),
    "is_submonomial e": (lambda v: is_submonomial((v, 0), (2, 0)), 1, ValidationError),
    "is_submonomial f": (lambda v: is_submonomial((1, 0), (v, 0)), 2, ValidationError),
    "is_cone_closed monomial": (lambda v: is_cone_closed([(v, 0)]), 0, ValidationError),
    "MultiPoly.coefficient exponent": (lambda v: P.coefficient((v, 0)), 1, ValidationError),
    "VectorPoly.coefficient exponent": (lambda v: V.coefficient((v, 0)), 1, ValidationError),
    "MultiPoly.mul_monomial exponent": (lambda v: P.mul_monomial((v, 0)), 1, ValidationError),
    "submonomials entry": (lambda v: list(submonomials((v, 1))), 1, ValidationError),
    "weight_of weight": (lambda v: weight_of((v, 2), (1, 1)), 1, BadParameters),
    "weight_of exponent": (lambda v: weight_of((1, 2), (v, 1)), 1, ValidationError),
}
MALFORMED = [-1, 1.5, 1.0, True, "2", None]
# where None is the argument's default: no exponent, the syntactic degree, no cap
OPTIONAL = {"Gate exp", "Oracle degree", "enumerate_low_cone dcap", "enumerate_low_cone degree", "HsgTuple degree"}
# where an int below 0 is a bound no vector meets, so the list is empty
NEGATIVE_BOUND = {"enumerate_low_cone dcap", "enumerate_low_cone degree"}


@pytest.mark.parametrize(
    "name, value",
    [(name, v) for name in sorted(CASES) for v in MALFORMED
     if not (v is None and name in OPTIONAL or v == -1 and name in NEGATIVE_BOUND)],
    ids=lambda x: x if isinstance(x, str) and x in CASES else repr(x),
)
def test_a_malformed_integer_raises_its_conepit_error(fresh_cache, name, value):
    call, valid, error = CASES[name]
    assert issubclass(error, ConepitError)
    fresh_cache()
    with pytest.raises(error):
        call(value)
    call(valid)
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_numpy_integer_is_read_as_the_int_it_equals(fresh_cache, name):
    call, valid, _ = CASES[name]
    fresh_cache()
    got, want = call(np.int64(valid)), call(valid)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    elif type(want).__eq__ is not object.__eq__:  # the result compares by value
        assert got == want


@pytest.mark.parametrize("bound", [-1, np.int64(-1)], ids=repr)
@pytest.mark.parametrize("name", sorted(NEGATIVE_BOUND))
def test_a_negative_bound_lists_nothing(name, bound):
    assert CASES[name][0](bound) == []


@pytest.mark.parametrize("index", [2, 3, np.int64(2)], ids=repr)
def test_a_variable_index_at_or_past_the_arity_is_refused(index):
    with pytest.raises(ValidationError, match="variable index"):
        MultiPoly.variable(Q, 2, index)
