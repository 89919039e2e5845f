"""Exponent vectors, the deg-lex order, cones, and sparse polynomials.

An exponent vector is a plain tuple of naturals, one entry per variable; it
stands for the monomial x1^e1 * ... * xn^en.  Sparse polynomials map
exponent vectors to nonzero scalars (:class:`MultiPoly`) or to nonzero
scalar vectors (:class:`VectorPoly`, a polynomial with coefficients in F^k).

The one monomial order used throughout is deg-lex with x1 > x2 > ... > xn:
compare total degree first, then lexicographically on the exponent tuple.
``1`` is the least monomial and the order is multiplicative.  Canonical
iteration of any monomial set is ascending deg-lex.

The cone of a monomial is the set of its submonomials (coordinatewise-<=
exponent vectors); its size is prod(e_i + 1).  Monomial sets closed under
submonomials are called cone-closed.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ArityMismatch, BadParameters, FieldMismatch, ParseError, TooLarge, ValidationError, ZeroPolynomial, integer, natural
from .fields import Field, Scalar
from .linalg import matrix_rank

ExpVec = tuple[int, ...]

#: :func:`enumerate_low_cone` refuses outputs of more exponent entries than
#: this (arity times vector count), as ``dense_expand`` refuses large grids.
LOW_CONE_GUARD = 10_000_000


def deglex_key(e: ExpVec) -> tuple[int, ExpVec]:
    """Sort key realizing deg-lex with x1 priority: (total degree, tuple)."""
    return (sum(e), e)


def cone_size(e: Sequence[int]) -> int:
    """Number of submonomials of x^e, i.e. prod(e_i + 1): e read by
    :func:`_exponent` (else ValidationError), then :func:`_cone_size`.

    The library checks once, at the boundary: a vector is read where it
    enters, by a public constructor or entry point, and every internal path
    that gets it after that (``extraction.query_set`` and ``layer_points``,
    ``conebasis.shift_by_weight``, :func:`pd_space_dim`) calls the unchecked
    :func:`_cone_size`, never this."""
    return _cone_size(_exponent(e, len(e)))


def _cone_size(e: ExpVec) -> int:
    """prod(e_i + 1) of a vector that has been read: no entry is checked."""
    out = 1
    for x in e:
        out *= x + 1
    return out


def is_submonomial(e: ExpVec, f: ExpVec) -> bool:
    """True iff x^e divides x^f (coordinatewise e <= f): e and then f read
    by :func:`_exponent` at e's arity (else ValidationError or ArityMismatch)."""
    e = _exponent(e, len(e))
    return all(a <= b for a, b in zip(e, _exponent(f, len(e))))


def submonomials(f: ExpVec) -> Iterator[ExpVec]:
    """All exponent vectors e <= f, in grid order; f read by :func:`_exponent`."""
    return itertools.product(*(range(x + 1) for x in _exponent(f, len(f))))


def exponents_of_degree(caps: Sequence[int], total: int) -> Iterator[ExpVec]:
    """The exponent vectors e with sum(e) = total and e_i <= caps[i], in
    ascending lex order, so ascending deg-lex.  Lazy, one recursion level
    per variable; x1 ranges only over values the later caps can complete."""
    if not caps:
        if total == 0:
            yield ()
        return
    rest = caps[1:]
    for x in range(max(0, total - sum(rest)), min(caps[0], total) + 1):
        for tail in exponents_of_degree(rest, total - x):
            yield (x,) + tail


def is_cone_closed(monomials: Iterable[ExpVec]) -> bool:
    """Is the set closed under taking submonomials?  The empty set is.

    Checking one-step predecessors (decrement a single positive coordinate)
    suffices: closure under those implies closure under all submonomials.
    Each monomial is read by :func:`_exponent` at the first one's arity, so
    mixed arities raise ArityMismatch.
    """
    s = list(monomials)
    if not s:
        return True
    s = {_exponent(f, len(s[0])) for f in s}
    for f in s:
        for i, x in enumerate(f):
            if x > 0 and f[:i] + (x - 1,) + f[i + 1 :] not in s:
                return False
    return True


def enumerate_low_cone(n: int, k: int, dcap: int | None = None, *, degree: int | None = None) -> list[ExpVec]:
    """All arity-n exponent vectors with cone size <= k (and degree <= dcap),
    ascending deg-lex; with ``degree=t`` only layer t of that list, ascending
    lex.  A layer is walked over its nonzero entries, at most log2 k deep for
    any n, at a cost of about its output times that depth.  Whatever the
    layer, raises TooLarge before building a vector when the whole list
    would hold more than ``LOW_CONE_GUARD`` entries (n times its count).
    An argument that is not an int is read by ``errors.natural``, else
    BadParameters; ``dcap`` and ``degree`` by ``errors.integer``, since a
    negative one bounds an empty list."""
    n, k = (x if type(x) is int else natural(x, what, BadParameters) for what, x in (("n", n), ("k", k)))
    dcap, degree = (x if x is None or type(x) is int else integer(x) if integer(x) is not None else natural(x, what, BadParameters) for what, x in (("dcap", dcap), ("degree", degree)))
    if n < 0 or k < 1:
        raise BadParameters("need n >= 0 and k >= 1")
    # a cone of size <= k bounds the degree by k - 1
    cap = k - 1 if dcap is None else min(dcap, k - 1)
    if cap < 0:
        return []
    if n and low_cone_count(n, k, cap, LOW_CONE_GUARD // n) > LOW_CONE_GUARD // n:
        raise TooLarge(f"more than {LOW_CONE_GUARD} exponent entries at arity {n}, cone size {k}")
    out: list[ExpVec] = [(0,) * n] if degree in (None, 0) else []
    for t in range(1, cap + 1) if degree is None else [degree] if 0 < degree <= cap else []:
        _low_cone_layer([0] * n, 0, 1, t, k, out)
    return out


@functools.lru_cache(maxsize=256)
def low_cone_count(n: int, k: int, cap: int, stop: int) -> int:
    """The number of arity-n vectors of cone size <= k and degree <= cap, or a
    number past ``stop`` once it passes that, from the multisets of nonzero
    entries: the ways to append a largest entry are counted in closed form,
    and only entries that leave room for another are walked on."""
    total = 1  # the zero vector
    stack = [(1, 0, 0, 0, 0, 1)]  # cone size, degree, entries, largest, its multiplicity, placements in n slots
    while stack and total <= stop:
        prod, deg, m, last, mult, ways = stack.pop()
        hi = min(k // prod - 1, cap - deg)  # the largest entry that fits
        new = ways * (n - m)  # the placements with an entry above last appended
        rep = new // (mult + 1)  # ... with last once more
        total += max(0, hi - last) * new + (rep if 0 < last <= hi else 0)
        v = max(last, 1)
        while m + 1 < n and total <= stop and prod * (v + 1) ** 2 <= k and deg + 2 * v <= cap:
            stack.append((prod * (v + 1), deg + v, m + 1, v) + ((mult + 1, rep) if v == last else (1, new)))
            v += 1
    return total


def _low_cone_layer(row: list[int], start: int, prod: int, rem: int, k: int, out: list[ExpVec]) -> None:
    """Append to out, ascending lex, each completion of row (zero from start
    on, cone size prod <= k / (rem + 1)) by entries past start adding up to
    rem >= 1: later first nonzero positions first, then smaller values v there;
    v leaves room for rem - v iff prod * (v + 1) * (rem - v + 1) <= k, which
    is symmetric in v and rem - v.  Module-level: no reference cycle."""
    lo = 1
    while lo < rem and prod * (lo + 1) * (rem - lo + 1) <= k:
        lo += 1
    values = range(1, rem + 1) if lo == rem else [*range(1, lo), *range(rem - lo + 1, rem + 1)]
    last = len(row) - 1
    for p in range(last, start - 1, -1):
        for v in values if p < last else (rem,):
            row[p] = v
            if v < rem:
                _low_cone_layer(row, p + 1, prod * (v + 1), rem - v, k, out)
            else:
                out.append(tuple(row))
        row[p] = 0


def low_cone_count_bound(n: int, k: int) -> float:
    """Cap on the number of arity-n monomials of cone size <= k:
    k^2 * (3n' / log2 k)^(log2 k) at n' = max(n, ceil(log2 k / 3)), k^2 for k = 1.
    At n' = n it can fall below the count where 3n < log2 k (n = 1, k >= 65); the
    count grows with n (append zeros to each vector), so n' >= n keeps a bound."""
    if k <= 1:
        return float(k * k)
    lg = math.log2(k)
    return k * k * (3.0 * max(n, math.ceil(lg / 3)) / lg) ** lg


# ----------------------------------------------------------------------
# Monomial text syntax: x1^2*x3  (1-based variables, "1" for the empty monomial)
# ----------------------------------------------------------------------

_MONO_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def format_monomial(e: ExpVec) -> str:
    parts = [f"x{i + 1}" + (f"^{x}" if x > 1 else "") for i, x in enumerate(e) if x > 0]
    return "*".join(parts) if parts else "1"


def parse_monomial(text: str, arity: int) -> ExpVec:
    text = text.strip()
    e = [0] * arity
    if text == "1":
        return tuple(e)
    for factor in text.split("*"):
        m = _MONO_FACTOR.match(factor.strip())
        if not m:
            raise ParseError(f"bad monomial factor {factor!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= arity:
            raise ParseError(f"variable x{idx} out of range for arity {arity}")
        e[idx - 1] += int(m.group(2) or 1)
    return tuple(e)


# ----------------------------------------------------------------------
# Sparse multivariate polynomials
# ----------------------------------------------------------------------


def _accumulate(field: Field, out: dict[ExpVec, Scalar], pairs: Iterable[tuple[ExpVec, Scalar]]) -> dict[ExpVec, Scalar]:
    """Add each scalar c into out[e], dropping every entry that cancels to
    zero, and return out."""
    zero = field.zero()
    for e, c in pairs:
        v = field.add(out.get(e, zero), c)
        if v == 0:
            out.pop(e, None)
        else:
            out[e] = v
    return out


def _exponent(e: Iterable[int], arity: int) -> ExpVec:
    """An exponent vector of the given arity, else ArityMismatch, its entries
    read by ``errors.natural`` (else ValidationError) unless all are ints >= 0."""
    v = tuple(e)
    if len(v) != arity:
        raise ArityMismatch(f"exponent {v} has arity {len(v)}, expected {arity}")
    for x in v:
        if type(x) is not int or x < 0:
            return tuple(natural(x, f"exponent {v} entry", ValidationError) for x in v)
    return v


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial: exponent vector -> nonzero scalar."""

    field: Field
    arity: int
    terms: Mapping[ExpVec, Scalar]

    @staticmethod
    def make(field: Field, arity: int, items: Mapping[ExpVec, int | Fraction | str] | Iterable[tuple[ExpVec, int | Fraction | str]]) -> "MultiPoly":
        """The sum of the terms c x^e: the arity read by ``errors.natural``,
        each e by :func:`_exponent` (else ValidationError or ArityMismatch)
        and each c by ``Field.of``, like terms added, zeros dropped."""
        arity = natural(arity, "arity", ValidationError)
        pairs = items.items() if isinstance(items, Mapping) else items
        return MultiPoly(field, arity, _accumulate(field, {}, ((_exponent(e, arity), field.of(c)) for e, c in pairs)))

    @staticmethod
    def zero(field: Field, arity: int) -> "MultiPoly":
        return MultiPoly(field, arity, {})

    @staticmethod
    def const(field: Field, arity: int, c: int | Fraction | str) -> "MultiPoly":
        return MultiPoly.make(field, arity, {(0,) * natural(arity, "arity", ValidationError): c})

    @staticmethod
    def variable(field: Field, arity: int, index: int) -> "MultiPoly":
        """x_index, the arity read first, then the index, which must be below
        it (else ValidationError)."""
        arity, index = natural(arity, "arity", ValidationError), natural(index, "variable index", ValidationError)
        if index >= arity:
            raise ValidationError(f"variable index {index} outside 0..{arity - 1}")
        return MultiPoly.make(field, arity, {tuple([int(i == index) for i in range(arity)]): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[ExpVec]:
        """Monomials with nonzero coefficient, ascending deg-lex."""
        return sorted(self.terms, key=deglex_key)

    def coefficient(self, e: ExpVec) -> Scalar:
        """The coefficient of x^e, e read by :func:`_exponent`."""
        return self.terms.get(_exponent(e, self.arity), self.field.zero())

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def individual_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.arity
        for e in self.terms:
            for i, x in enumerate(e):
                degs[i] = max(degs[i], x)
        return tuple(degs)

    def add(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        return MultiPoly(self.field, self.arity, _accumulate(self.field, dict(self.terms), other.terms.items()))

    def neg(self) -> "MultiPoly":
        F = self.field
        return MultiPoly(F, self.arity, {e: F.neg(c) for e, c in self.terms.items()})

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self.add(other.neg())

    def scale(self, c: Scalar) -> "MultiPoly":
        F = self.field
        if c == 0:
            return MultiPoly.zero(F, self.arity)
        return MultiPoly(F, self.arity, {e: F.mul(c, v) for e, v in self.terms.items()})

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        F = self.field
        products = (
            (tuple(x + y for x, y in zip(ea, eb)), F.mul(ca, cb))
            for ea, ca in self.terms.items()
            for eb, cb in other.terms.items()
        )
        return MultiPoly(F, self.arity, _accumulate(F, {}, products))

    def mul_monomial(self, e: ExpVec) -> "MultiPoly":
        """This polynomial times x^e, e read by :func:`_exponent`."""
        e = _exponent(e, self.arity)
        return MultiPoly(self.field, self.arity, {tuple(a + b for a, b in zip(m, e)): v for m, v in self.terms.items()})

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """The value at a point, its coordinates read by ``Field.of`` as
        ``Circuit.evaluate`` reads them."""
        if len(point) != self.arity:
            raise ArityMismatch(f"point has {len(point)} coordinates, arity is {self.arity}")
        F = self.field
        point = [F.of(x) for x in point]
        acc = F.zero()
        for e, c in self.terms.items():
            term = c
            for x, v in zip(e, point):
                if x:
                    term = F.mul(term, F.pow(v, x))
            acc = F.add(acc, term)
        return acc

    def render(self) -> str:
        """Human text: `c*mono` terms joined by ` + `, ascending deg-lex."""
        if self.is_zero:
            return "0"
        parts = []
        for e in self.support():
            c = self.field.render(self.terms[e])
            mono = format_monomial(e)
            parts.append(c if mono == "1" else (mono if c == "1" else f"{c}*{mono}"))
        return " + ".join(parts)

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")
        if self.field != other.field:
            raise FieldMismatch(f"field {self.field.spec} vs {other.field.spec}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.arity == other.arity
            and dict(self.terms) == dict(other.terms)
        )


def leading_monomial(p: MultiPoly) -> ExpVec:
    """Deg-lex-maximum monomial in the support; raises on the zero polynomial."""
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no leading monomial")
    return max(p.terms, key=deglex_key)


# ----------------------------------------------------------------------
# Partial-derivative span
# ----------------------------------------------------------------------


class PolySpan:
    """Linear span of sparse polynomials, kept in echelon form by leading
    monomial.  insert() returns the reduced remainder when it is new."""

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[ExpVec, MultiPoly] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, p: MultiPoly) -> MultiPoly | None:
        F = self.field
        while not p.is_zero:
            lm = leading_monomial(p)
            row = self.rows.get(lm)
            if row is None:
                p = p.scale(F.inv(p.terms[lm]))
                self.rows[lm] = p
                return p
            p = p.sub(row.scale(p.terms[lm]))
        return None


def partial_derivative(p: MultiPoly, var: int) -> MultiPoly:
    F = p.field
    terms = (
        (e[:var] + (e[var] - 1,) + e[var + 1 :], F.mul(F.of(e[var]), c))
        for e, c in p.terms.items()
        if e[var]
    )
    return MultiPoly(F, p.arity, _accumulate(F, {}, terms))


def pd_space_dim(p: MultiPoly) -> int:
    """Dimension of the span of all iterated partial derivatives of p.

    Closure iteration: reduce p into the span, then keep differentiating
    newly independent elements until nothing new appears.  Terminates since
    the dimension is finite and strictly grows until the fixpoint.
    """
    if p.is_zero:
        return 0
    # every derivative lies in the span of the support's cones
    if sum(map(_cone_size, p.terms)) > LOW_CONE_GUARD:
        raise TooLarge(f"the cones of the support hold more than {LOW_CONE_GUARD} monomials")
    span = PolySpan(p.field)
    work = [p]
    while work:
        q = work.pop()
        reduced = span.insert(q)
        if reduced is None:
            continue
        for var in range(p.arity):
            d = partial_derivative(reduced, var)
            if not d.is_zero:
                work.append(d)
    return span.dim


# ----------------------------------------------------------------------
# Vector-valued polynomials (coefficients in F^k)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VectorPoly:
    """Sparse polynomial with coefficient vectors in F^k.

    The coefficient matrix has one row per support monomial (canonical
    deg-lex iteration) and k columns.
    """

    field: Field
    arity: int
    dim: int
    terms: Mapping[ExpVec, tuple[Scalar, ...]]

    @staticmethod
    def make(field: Field, arity: int, dim: int, items: Iterable[tuple[ExpVec, Sequence[int | Fraction | str]]]) -> "VectorPoly":
        """As :meth:`MultiPoly.make`, each c a vector of ``dim`` scalars; dim
        is read by ``errors.natural`` too."""
        arity, dim = natural(arity, "arity", ValidationError), natural(dim, "dim", ValidationError)
        terms: dict[ExpVec, tuple[Scalar, ...]] = {}
        for e, vec in items:
            e = _exponent(e, arity)
            if len(vec) != dim:
                raise ArityMismatch(f"coefficient vector of length {len(vec)}, expected {dim}")
            cur = terms.get(e, (field.zero(),) * dim)
            new = tuple(field.add(a, field.of(b)) for a, b in zip(cur, vec))
            if any(x != 0 for x in new):
                terms[e] = new
            else:
                terms.pop(e, None)
        return VectorPoly(field, arity, dim, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[ExpVec]:
        return sorted(self.terms, key=deglex_key)

    def coefficient(self, e: ExpVec) -> tuple[Scalar, ...]:
        return self.terms.get(_exponent(e, self.arity), (self.field.zero(),) * self.dim)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coordinate(self, t: int) -> MultiPoly:
        """The t-th coordinate as a scalar polynomial."""
        return MultiPoly(
            self.field,
            self.arity,
            {e: v[t] for e, v in self.terms.items() if v[t] != 0},
        )


def coeff_rank(f: VectorPoly) -> int:
    """Rank over F of the coefficient matrix of f (0 for the zero polynomial)."""
    return matrix_rank([f.terms[e] for e in f.support()], f.field)
