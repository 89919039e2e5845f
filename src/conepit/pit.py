"""Polynomial identity testing engines.

Three testers over the same oracle interface:

* :func:`low_cone_pit` -- deterministic blackbox test that extracts the
  coefficient of every monomial of cone size at most k (in ascending
  deg-lex order, stopping at the first nonzero).  Complete whenever the
  oracle's polynomial has partial-derivative-space dimension at most k;
  a Nonzero answer is always sound.  The low cone is enumerated one
  total-degree layer at a time, as the walk reaches it, and a layer's new
  points go to the oracle in one batch.  The query points are a hitting
  set that depends only on (field, n, k, d), never on the oracle: each
  layer's new points, the evaluator's input block, are built from points
  alone and kept per test shape in extraction's one bounded cache
  (``extraction.layer_points``).  A Zero verdict needs only their values,
  so coefficients, and with them query sets and weight rows, are built
  only from the first layer where a value read is nonzero.
* :func:`brute_force_pit` -- ground truth by dense grid expansion.
* :func:`sz_pit` -- seeded random evaluations, one-sided error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import Oracle, dense_expand
from .errors import BadParameters, TooLarge, VerificationFailed, integer, natural
from .extraction import FilteredOracle, layer_points, require_within_guard
from .fields import MERSENNE61, Scalar
from .polys import ExpVec, deglex_key, enumerate_low_cone, format_monomial, low_cone_count_bound

ZERO = "ZERO"
NONZERO = "NONZERO"
#: the most trials :func:`sz_pit` runs, one oracle evaluation each
TRIALS_GUARD = 10_000_000


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

    The walk takes one total-degree layer at a time, as
    ``enumerate_low_cone(..., degree=t)`` builds it.  The layer's points
    that no lower layer requested, a kept ``PointBatch``, and its request
    count, from ``extraction.layer_points``, need no weight and are cached
    per shape; the batch goes to ``oracle.eval_many`` whole, into a table.
    Until a value read is nonzero every coefficient combines zeros, so a
    layer counts its monomials as tested and its requests as read and builds
    no extraction; from there on one per monomial, in turn, combines values
    from the table, up to the first nonzero coefficient.  ``oracle.calls`` grows
    by the distinct points of the layers walked; ``oracle_calls`` counts the
    points the tested extractions requested, cone_size(e) * (d + 1) each.

    Refusals, in order: a ``k`` that is not an ``errors.integer`` of at
    least 1, the constant monomial's extraction past its guard (before any
    monomial is enumerated), the low cone past ``LOW_CONE_GUARD``, then a
    field too small for the first extraction.
    """
    if integer(k) is None or k < 1:
        raise BadParameters(f"cone-size budget k must be an int >= 1, got {k!r}")
    k = int(k)
    require_within_guard(1, 0, oracle.degree)
    F, n, d = oracle.field, oracle.arity, oracle.degree
    table = _Table(oracle)
    values = table.values
    tested = 0
    seen_nonzero = False
    for t in range(max(0, min(d, k - 1)) + 1):
        layer = enumerate_low_cone(n, k, dcap=d, degree=t)
        fresh, requests = layer_points(F, (n, k, d, t), layer, values)
        if fresh:
            read = oracle.eval_many(fresh)
            values.update(zip(fresh, read))
            seen_nonzero = seen_nonzero or any(read)
        if not seen_nonzero:
            tested += len(layer)
            table.calls += requests
            continue
        for e in layer:
            tested += 1
            c = FilteredOracle(table, e).coefficient()
            if c != 0:
                _check_budget(tested, n, k)
                return PitVerdict(NONZERO, e, c, tested, table.calls)
    _check_budget(tested, n, k)
    return PitVerdict(ZERO, None, None, tested, table.calls)


class _Table:
    """The values one low-cone test has evaluated, as the kernel holds them,
    keyed by point, which the test's extractions read as their base oracle.
    ``calls`` counts the points read, so it sums the extractions' requests
    (the zero phase adds those of the layers it skips)."""

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
    point-major then coordinate-minor, so runs are reproducible.  A
    ``trials`` or ``seed`` that is not a natural number (an int >= 0, a numpy
    integer too; no float, bool or string) raises BadParameters, and so does
    fewer than one trial rather than answer Zero untested.  More than
    ``TRIALS_GUARD`` trials raise TooLarge.
    """
    trials, seed = natural(trials, "trials", BadParameters), natural(seed, "seed", BadParameters)
    if trials < 1:
        raise BadParameters(f"need at least one trial, got {trials}")
    if trials > TRIALS_GUARD:
        raise TooLarge(f"{trials} trials exceed the guard {TRIALS_GUARD}")
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
