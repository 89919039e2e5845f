"""Weight assignments, least bases, cone-closed set isolation, and shifts.

A weight assignment w gives every monomial the weight <e, w>.  For a
vector-valued polynomial f, the greedy least basis scans the support in
increasing (weight, deg-lex) order and admits each monomial whose
coefficient vector is independent of the admitted ones.  A weight
assignment is basis isolating when the admitted weights are pairwise
distinct and every rejected coefficient already lies in the span of
strictly lighter admitted ones; in that case the greedy output is the
unique least basis.

``find_cone_closed`` turns any monomial set B into an equally large
cone-closed set A by recursing on the last coordinate's preimage
multiplicities; the binomial transfer matrix T[a][b] = prod C(b_i, a_i)
restricted to (A, B) is always invertible.  Shifting a polynomial by
x_i -> x_i + t^(w_i) re-expresses every shifted coefficient through that
transfer matrix, and when w is basis isolating, the A rows of the shifted
coefficient matrix keep full rank over F(t): the shifted polynomial has a
cone-closed coefficient basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Mapping, Sequence

from . import polys
from .errors import ArityMismatch, BadParameters, EmptyInput, NotIsolating, TooLarge, VerificationFailed, ZeroPolynomial, natural
from .fields import DensePoly, Field, Scalar, rank_over_ft
from .linalg import RowReducer
from .polys import ExpVec, VectorPoly, cone_size, deglex_key, submonomials

Weights = tuple[int, ...]


def weight_of(w: Sequence[int], e: ExpVec) -> int:
    """Monomial weight <e, w>."""
    if len(w) != len(e):
        raise ArityMismatch(f"weight vector length {len(w)}, exponent arity {len(e)}")
    return sum(a * b for a, b in zip(e, w))


def _weights(w: Sequence[int]) -> Weights:
    """Each weight read by ``errors.natural``, else BadParameters; the
    entry points read them once, so :func:`weight_of` need not."""
    return tuple(natural(x, "weight", BadParameters) for x in w)


def kronecker_weights(n: int, d: int) -> Weights:
    """w_i = (d+1)^(i-1): injective on exponent vectors of degree <= d,
    hence basis isolating for every polynomial of degree <= d.  Both are
    read by ``errors.natural``, else BadParameters."""
    n, d = natural(n, "arity", BadParameters), natural(d, "degree", BadParameters)
    return tuple((d + 1) ** i for i in range(n))


def least_basis(f: VectorPoly, w: Sequence[int]) -> list[ExpVec]:
    """Greedy basis of the coefficient span of f, scanning the support in
    increasing weight with deg-lex tie-break: the basis of
    :func:`is_basis_isolating`.

    When w is basis isolating this is the unique least basis; otherwise it
    is the greedy-canonical basis for the induced order.
    """
    return list(is_basis_isolating(f, w).basis)


@dataclass(frozen=True)
class BasisReport:
    """Least-basis analysis of (f, w).

    ``basis`` is ordered by admission (non-decreasing weight).  When
    ``isolating`` holds, ``certificate`` expresses each non-basis support
    monomial over strictly lighter basis monomials.
    """

    basis: tuple[ExpVec, ...]
    isolating: bool
    certificate: Mapping[ExpVec, tuple[tuple[ExpVec, Scalar], ...]] | None


def is_basis_isolating(f: VectorPoly, w: Sequence[int]) -> BasisReport:
    """Check the two isolation conditions for the greedy least basis:
    pairwise distinct basis weights, and every non-basis coefficient in the
    span of strictly lighter basis coefficients (with the combination).

    One :meth:`RowReducer.add` pass in scan order admits the greedy least
    basis and gives every other member its unique combination over the
    rows admitted before it: both conditions hold iff the admitted weights
    are pairwise distinct and every combination uses strictly lighter rows
    only, and the combinations are then the certificate.
    """
    w = _weights(w)
    if f.is_zero:
        raise ZeroPolynomial("least_basis of the zero polynomial")
    reducer = RowReducer(f.field)
    basis: list[ExpVec] = []
    combos: dict[ExpVec, tuple[tuple[ExpVec, Scalar], ...]] = {}
    isolating = True
    for e in sorted(f.terms, key=lambda e: (weight_of(w, e), deglex_key(e))):
        we = weight_of(w, e)
        combo = reducer.add(f.terms[e])
        if combo is None:
            isolating = isolating and not (basis and weight_of(w, basis[-1]) == we)
            basis.append(e)
        else:
            combos[e] = tuple((b, c) for b, c in zip(basis, combo) if c != 0)
            isolating = isolating and all(weight_of(w, b) < we for b, _ in combos[e])
    certificate = {e: combos[e] for e in f.support() if e in combos} if isolating else None
    return BasisReport(tuple(basis), isolating, certificate)


# ----------------------------------------------------------------------
# Cone-closed set construction
# ----------------------------------------------------------------------


def find_cone_closed(monomials: Iterable[ExpVec], n: int) -> list[ExpVec]:
    """Replace a monomial set B by an equally large cone-closed set.

    Recursion on the arity: with no variable B is {()}, and with one, |B|
    exponents collapse to {0, ..., |B|-1}.  Otherwise project away the last
    coordinate, group the projections by preimage multiplicity (F_1
    contains every projection, F_i those hit at least i times), recurse on
    each group, and lift group i to last coordinate i-1.  The output always
    satisfies |A| = |B|, is cone-closed, and the binomial transfer
    submatrix T[A, B] is invertible.
    """
    B = {tuple(e) for e in monomials}
    if not B:
        raise EmptyInput("the monomial set is empty; a cone-closed rewrite needs at least one monomial")
    for e in B:
        if len(e) != n:
            raise ArityMismatch(f"exponent {e} does not have arity {n}")
    return sorted(_fcc(B, n), key=deglex_key)


def _fcc(B: set[ExpVec], n: int) -> set[ExpVec]:
    if n <= 1:
        return {(i,) * n for i in range(len(B))}
    counts: dict[ExpVec, int] = {}
    for e in B:
        counts[e[:-1]] = counts.get(e[:-1], 0) + 1
    max_mult = max(counts.values())
    A: set[ExpVec] = set()
    for i in range(1, max_mult + 1):
        F_i = {proj for proj, c in counts.items() if c >= i}
        for s in _fcc(F_i, n - 1):
            A.add(s + (i - 1,))
    return A


def _transfer_entry(a: ExpVec, b: ExpVec) -> int:
    """T[a][b] = prod_i C(b_i, a_i), which vanishes unless a is a
    submonomial of b."""
    return prod(map(comb, b, a))


def transfer_submatrix(A: Iterable[ExpVec], B: Iterable[ExpVec]) -> list[list[int]]:
    """Integer matrix with rows indexed by A and columns by B (both in
    ascending deg-lex order); entry = prod_i C(b_i, a_i), which vanishes
    unless a is a submonomial of b.  Exponents are read by
    ``errors.natural``, else BadParameters."""
    def read(vectors):
        return sorted({tuple(natural(x, "exponent", BadParameters) for x in e) for e in vectors}, key=deglex_key)

    rows, cols = read(A), read(B)
    arities = {len(e) for e in rows} | {len(e) for e in cols}
    if len(arities) > 1:
        raise ArityMismatch(f"mixed arities {sorted(arities)}")
    return [[_transfer_entry(a, b) for b in cols] for a in rows]


# ----------------------------------------------------------------------
# Shifting by t^w
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedVectorPoly:
    """f(x + t^w): coefficients are vectors of polynomials in t."""

    field: Field
    arity: int
    dim: int
    terms: Mapping[ExpVec, tuple[DensePoly, ...]]

    def coefficient(self, e: ExpVec) -> tuple[DensePoly, ...]:
        zero = DensePoly.zero(self.field)
        return self.terms.get(tuple(e), (zero,) * self.dim)

    def rows(self, monomials: Sequence[ExpVec]) -> list[list[DensePoly]]:
        return [list(self.coefficient(e)) for e in monomials]


def shift_by_weight(f: VectorPoly, w: Sequence[int]) -> ShiftedVectorPoly:
    """Expand f(x_1 + t^(w_1), ..., x_n + t^(w_n)) by the binomial theorem:
    the new coefficient of x^a collects C(b, a) * t^(w(b) - w(a)) times the
    old coefficient of x^b over all supermonomials b in the support.

    The weights must be natural numbers: the coefficients are polynomials
    in t.
    """
    w = _weights(w)
    # each support monomial b adds at most dim coefficients of length
    # w(b) + 1 to each of its cone_size(b) submonomials: count before building
    if f.dim * sum(cone_size(b) * (weight_of(w, b) + 1) for b in f.terms) > polys.LOW_CONE_GUARD:
        raise TooLarge(f"shifting by t^w builds more than {polys.LOW_CONE_GUARD} coefficients")
    F = f.field
    acc: dict[ExpVec, list[list[Scalar]]] = {}
    for b, vec in f.terms.items():
        wb = weight_of(w, b)
        for a in submonomials(b):
            c = F.of(_transfer_entry(a, b))
            if c == 0:
                continue
            power = wb - weight_of(w, a)
            for coeffs, v in zip(acc.setdefault(a, [[] for _ in vec]), vec):
                if v != 0:
                    coeffs.extend([F.zero()] * (power + 1 - len(coeffs)))
                    coeffs[power] = F.add(coeffs[power], F.mul(c, v))
    terms: dict[ExpVec, tuple[DensePoly, ...]] = {}
    for a, slots in acc.items():
        shifted = tuple(DensePoly.make(F, coeffs) for coeffs in slots)
        if any(not p.is_zero for p in shifted):
            terms[a] = shifted
    return ShiftedVectorPoly(F, f.arity, f.dim, terms)


def cone_closed_basis_after_shift(f: VectorPoly, w: Sequence[int]) -> list[ExpVec]:
    """Cone-closed monomial set whose coefficients form a basis of the
    coefficient span of f(x + t^w) over F(t).

    Requires w to be basis isolating for f.  The set is obtained by running
    find_cone_closed on the least basis, and its validity is verified by
    comparing the rank of the corresponding shifted coefficient rows over
    F(t) against the coefficient rank of f.  Verification failure signals a
    bug or a violated precondition, never an expected outcome.
    """
    w = _weights(w)
    report = is_basis_isolating(f, w)
    if not report.isolating:
        raise NotIsolating("weight assignment is not basis isolating for this polynomial")
    A = find_cone_closed(report.basis, f.arity)
    shifted = shift_by_weight(f, w)
    expected = len(report.basis)
    got = rank_over_ft(shifted.rows(A), "the polynomial shifted by t^w")
    if got != expected:
        raise VerificationFailed(f"shifted rows of A have rank {got}, expected {expected}")
    return A
