"""Polynomial identity testing engines.

Three testers over the same oracle interface:

* :func:`low_cone_pit` -- deterministic blackbox test that extracts the
  coefficient of every monomial of cone size at most k (in ascending
  deg-lex order, stopping at the first nonzero).  Complete whenever the
  oracle's polynomial has partial-derivative-space dimension at most k;
  a Nonzero answer is always sound.  The extractions of one test share an
  evaluation plan: one total-degree layer at a time, the points of every
  monomial in the layer are gathered and those not evaluated earlier in
  the test go to the oracle in one batch.
* :func:`brute_force_pit` -- ground truth by dense grid expansion.
* :func:`sz_pit` -- seeded random evaluations, one-sided error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circuits import Oracle, dense_expand
from .errors import BadParameters, VerificationFailed
from .extraction import FilteredOracle, require_within_guard
from .fields import MERSENNE61, Scalar
from .polys import ExpVec, deglex_key, enumerate_low_cone, format_monomial, low_cone_count_bound

ZERO = "ZERO"
NONZERO = "NONZERO"


@dataclass(frozen=True)
class PitVerdict:
    outcome: str  # ZERO or NONZERO
    witness: ExpVec | None = None
    coefficient: Scalar | None = None
    monomials_tested: int = 0
    oracle_calls: int = 0

    @property
    def is_zero(self) -> bool:
        return self.outcome == ZERO

    def render(self) -> str:
        if self.outcome == ZERO:
            return ZERO
        parts = [NONZERO]
        if self.witness is not None:
            parts.append(f"witness={format_monomial(self.witness)}")
        parts.append(f"coeff={self.coefficient}")
        parts.append(f"tested={self.monomials_tested}")
        parts.append(f"calls={self.oracle_calls}")
        return " ".join(parts)


def low_cone_pit(oracle: Oracle, k: int) -> PitVerdict:
    """Test all monomials of cone size <= k (and degree within the oracle's
    bound) for a nonzero coefficient, in ascending deg-lex order.

    The caller promises that the dimension of the polynomial's partial
    derivative space is at most k; under that promise a Zero verdict is
    correct, because a nonzero polynomial's leading monomial has cone size
    at most that dimension.  Nonzero verdicts carry the deg-lex-least
    low-cone witness and are sound unconditionally.

    The monomials are walked one total-degree layer at a time.  The points
    of every extraction in a layer that this test has not evaluated yet go
    to ``oracle.eval_many`` in one batch, into a table; each extraction then
    combines values read from the table, and the walk stops at the first
    nonzero coefficient.  ``oracle.calls`` therefore grows by the distinct
    points of the layers walked, while the verdict's ``oracle_calls`` is the
    number of points the tested extractions requested,
    cone_size(e) * (d + 1) each.

    The first extraction, of the constant monomial, is checked against the
    extraction guard before the walk, so a degree bound too high to extract
    at raises TooLarge without enumerating a monomial.
    """
    require_within_guard(1, 0, oracle.degree)
    monomials = enumerate_low_cone(oracle.arity, k, dcap=oracle.degree)
    table = _Table(oracle)
    values = table.values
    tested = 0
    for _, layer in itertools.groupby(monomials, key=sum):
        extractions = [FilteredOracle(table, e) for e in layer]
        fresh = dict.fromkeys(pt for x in extractions for pt in x.queries()[0] if pt not in values)
        if fresh:
            values.update(zip(fresh, oracle.eval_many(list(fresh))))
        for x in extractions:
            tested += 1
            c = x.coefficient()
            if c != 0:
                _check_budget(tested, oracle.arity, k)
                return PitVerdict(NONZERO, x.e, c, tested, table.calls)
    _check_budget(tested, oracle.arity, k)
    return PitVerdict(ZERO, None, None, tested, table.calls)


class _Table:
    """The values one low-cone test has evaluated, as the kernel holds them,
    keyed by point, which the test's extractions read as their base oracle.
    ``calls`` counts the points read, so it sums the extractions' requests."""

    def __init__(self, oracle: Oracle):
        self.arity, self.degree, self.field = oracle.arity, oracle.degree, oracle.field
        self.values: dict[tuple[Scalar, ...], Scalar] = {}
        self.calls = 0

    def eval_many(self, points: list[tuple[Scalar, ...]]) -> list[Scalar]:
        self.calls += len(points)
        return [self.values[pt] for pt in points]


def _check_budget(tested: int, n: int, k: int) -> None:
    # The count bound is guaranteed for any (n, k); exceeding it means a
    # broken enumerator, not a bad input.
    bound = low_cone_count_bound(n, k) * (1 + 1e-9)
    if tested > bound:
        raise VerificationFailed(f"tested {tested} monomials, exceeding the cone-count bound {bound}")


def brute_force_pit(oracle: Oracle) -> PitVerdict:
    """Ground-truth tester: dense-expand the oracle and inspect the terms.

    The witness of a Nonzero verdict is the deg-lex-least term.
    """
    start_calls = oracle.calls
    poly = dense_expand(oracle)
    calls = oracle.calls - start_calls
    if poly.is_zero:
        return PitVerdict(ZERO, None, None, 0, calls)
    e = min(poly.terms, key=deglex_key)
    return PitVerdict(NONZERO, e, poly.terms[e], len(poly.terms), calls)


def splitmix64(seed: int):
    """The splitmix64 pseudo-random stream of 64-bit values."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z ^ (z >> 31)


def sz_pit(oracle: Oracle, trials: int, seed: int) -> PitVerdict:
    """Evaluate at ``trials`` seeded pseudo-random points; Nonzero on the
    first nonzero value (the witness stays unset and the coefficient field
    carries the value), Zero otherwise.  One-sided error: Zero may be wrong
    with probability at most (d / field size) per trial.

    Points come from a splitmix64 stream reduced into the field, consumed
    point-major then coordinate-minor, so runs are reproducible.  Fewer than
    one trial raises BadParameters rather than answer Zero untested.
    """
    if trials < 1:
        raise BadParameters(f"need at least one trial, got {trials}")
    F = oracle.field
    modulus = F.p if F.p is not None else MERSENNE61
    stream = splitmix64(seed)
    start_calls = oracle.calls
    for trial in range(trials):
        point = [F.of(next(stream) % modulus) for _ in range(oracle.arity)]
        v = oracle.eval_point(point)
        if v != 0:
            return PitVerdict(NONZERO, None, v, trial + 1, oracle.calls - start_calls)
    return PitVerdict(ZERO, None, None, trials, oracle.calls - start_calls)
