"""Hardness-from-hitting-set constructions.

The pieces assemble the classical pipeline from a hitting-set generator (an
n-tuple of univariates) to a hard polynomial and back into a variable
substitution:

* :func:`build_annihilator` -- a nonzero polynomial g with g(f_1(y), ...,
  f_n(y)) identically zero, with controlled individual and total degree,
  found as the first linear dependency among the images of a fixed small
  support, read lazily in one pass up to that dependency.
* :func:`greedy_design` -- bounded-pairwise-intersection set families by
  greedy selection over subsets in lexicographic order.
* :func:`hard_map_substitution` -- plugs copies of one hard polynomial,
  restricted to design subsets of a fresh variable set, into a circuit.
* :func:`fischer_rewrite` -- rewrites sums of degree-r products as signed
  combinations of r-th powers (characteristic 0 or > r).
* :func:`local_kronecker` -- blockwise arity reduction x -> y^(2^i) that is
  injective on multilinear monomials.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .circuits import Circuit
from .documents import json_list, load_document, scalar_list
from .errors import (
    ArityMismatch,
    ArityTooSmall,
    BadParameters,
    CharTooSmall,
    DesignTooSmall,
    RaggedInput,
    TooLarge,
    ValidationError,
    VerificationFailed,
    natural,
)
from .fields import DensePoly, Field, Scalar, clear_denominators
from .linalg import first_dependency, first_integer_dependency
from .polys import ExpVec, MultiPoly, exponents_of_degree

DESIGN_GUARD = 10_000_000


# ----------------------------------------------------------------------
# Hitting-set generator tuples
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HsgTuple:
    """An n-tuple of nonzero univariates f_1(y), ..., f_n(y) with a shared
    degree bound."""

    field: Field
    degree: int
    polys: tuple[DensePoly, ...]

    @staticmethod
    def make(field: Field, polys: Sequence[DensePoly], degree: int | None = None) -> "HsgTuple":
        for i, p in enumerate(polys):
            if p.is_zero:
                raise ValidationError(f"univariate {i + 1} is the zero polynomial")
            if p.field != field:
                raise ValidationError(f"univariate {i + 1} is over {p.field.spec}, expected {field.spec}")
        actual = max((p.degree() for p in polys), default=0)
        d = actual if degree is None else degree
        if d < actual:
            raise ValidationError(f"declared degree {d} below actual degree {actual}")
        return HsgTuple(field, d, tuple(polys))

    @property
    def arity(self) -> int:
        return len(self.polys)

    def monomial_images(self, exps: Iterable[ExpVec]) -> list[DensePoly]:
        """prod f_i^(e_i) as a univariate in y, for each exponent vector, by
        :func:`_images`: each power vector needed costs one univariate
        multiplication by some f_i."""
        return list(_images(exps, self.polys, DensePoly.mul, DensePoly.const(self.field, 1)))

    def compose(self, g: MultiPoly) -> DensePoly:
        """g(f_1(y), ..., f_n(y)), expanded exactly."""
        if g.arity != self.arity:
            raise ArityMismatch(f"polynomial arity {g.arity}, tuple arity {self.arity}")
        acc = DensePoly.zero(self.field)
        for c, img in zip(g.terms.values(), self.monomial_images(g.terms)):
            acc = acc.add(img.scale(c))
        return acc


def _images(exps: Iterable[ExpVec], factors: Sequence, times: Callable, one) -> Iterator:
    """Lazily, prod factors[i]^(e_i) under ``times`` for each e in ``exps``.

    The images share a prefix memo: the image of e is its predecessor's
    times one factor, where the predecessor of e is e minus one in its last
    nonzero entry, so each power vector needed costs one ``times``.
    """
    memo = {(0,) * len(factors): one}
    for e in exps:
        chain = []
        while e not in memo:
            i = max(j for j, x in enumerate(e) if x > 0)
            chain.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1 :]
        out = memo[e]
        for e, i in reversed(chain):
            out = memo[e] = times(out, factors[i])
        yield out


def hsg_to_json(t: HsgTuple) -> str:
    doc = {
        "field": t.field.spec,
        "degree": t.degree,
        "polys": [[t.field.render(c) for c in p.coeffs] for p in t.polys],
    }
    return json.dumps(doc, separators=(", ", ": "))


def hsg_from_json(text: str) -> HsgTuple:
    def build(doc) -> HsgTuple:
        field = Field.from_spec(doc["field"])
        polys = [DensePoly.make(field, scalar_list(coeffs, "coefficients")) for coeffs in json_list(doc["polys"], "polys")]
        degree = natural(doc["degree"], "degree") if "degree" in doc else None
        return HsgTuple.make(field, polys, degree)

    return load_document(text, build)


# ----------------------------------------------------------------------
# Annihilator construction
# ----------------------------------------------------------------------


def annihilator_delta(n: int, d: int) -> int:
    """The smallest delta with delta^(n-1) > d*n."""
    delta = 1
    while delta ** (n - 1) <= d * n:
        delta += 1
    return delta


def _smallest_vectors(n: int, entry_cap: int, count: int) -> Iterator[ExpVec]:
    """The ``count`` deg-lex-least arity-n vectors with entries < entry_cap,
    read lazily in ascending deg-lex order (fewer if there are not enough)."""
    caps = [entry_cap - 1] * n
    layers = (exponents_of_degree(caps, s) for s in range(sum(caps) + 1))
    return itertools.islice(itertools.chain.from_iterable(layers), count)


def _deficit_monomial(deficit: int, caps: Sequence[int]) -> ExpVec:
    """Deg-lex-least exponent vector of total degree ``deficit`` with
    entrywise caps (minimize x1 first, then x2, ...)."""
    for e in exponents_of_degree(caps, deficit):
        return e
    raise VerificationFailed("degree deficit exceeds the admissible caps")


def build_annihilator(t: HsgTuple) -> MultiPoly:
    """A nonzero g with g(f_1(y), ..., f_n(y)) = 0, individual degree below
    2*delta, and total degree exactly delta*n, for delta the smallest
    integer with delta^(n-1) > d*n.

    The support of the linear system is fixed to the d*n*delta + 1
    deg-lex-least exponent vectors with entries below delta; comparing the
    coefficients of every power of y in g(f) gives strictly fewer equations
    than unknowns, so a nontrivial kernel always exists.  The canonical
    kernel vector (reduced echelon, first free variable 1, other free
    variables 0) is used; over the rationals it is scaled to integers with
    content 1 and a positive coefficient on the deg-lex-leading support
    monomial.  If the resulting degree falls short of delta*n, g is
    multiplied by the deg-lex-least monomial closing the gap while keeping
    individual degrees below 2*delta.

    The canonical vector is the first linear dependency among the columns:
    for j0 the first column in the span of the columns before it, it is 1
    at j0, zero after j0, and unique on the independent columns before j0.
    So every column prefix containing j0 has the same canonical vector,
    and every shorter prefix has a trivial kernel.  The columns are
    therefore solved in one pass: each image is built by the walk of
    :meth:`HsgTuple.monomial_images`, :func:`_images`, and reduced against
    the columns before it once, and the pass stops at j0, so the support
    is read lazily and no further.  Over F_p the reduction is
    :func:`first_dependency`.  Over Q the columns are integers, the images
    scaled by products of the univariates' denominators, reduced by the
    column-lazy Bareiss elimination :func:`first_integer_dependency`; the
    kernel vector is scaled back at the end.
    """
    n = t.arity
    if n < 2:
        raise ArityTooSmall("annihilator construction needs at least 2 univariates")
    d = max(p.degree() for p in t.polys)
    if d < 1:
        raise BadParameters("all univariates are constant; no annihilator of bounded degree exists")
    F = t.field
    delta = annihilator_delta(n, d)
    delta0 = d * n * delta + 1

    vectors, reread = itertools.tee(_smallest_vectors(n, delta, delta0))
    # Over Q, where a column is its image times prod D_i^(e_i) for f_i
    # integer numerators over D_i, the factors are those numerators.
    if F.is_rational:
        cleared = [clear_denominators(p.coeffs) for p in t.polys]
        cols = _images(vectors, [np.array(c, dtype=object) for c, _ in cleared], np.convolve, np.array([1], dtype=object))
    else:
        cols = _images(vectors, t.polys, DensePoly.mul, DensePoly.const(F, 1))
    vec = first_integer_dependency(c.tolist() for c in cols) if F.is_rational else first_dependency((c.coeffs for c in cols), F)
    support = list(itertools.islice(reread, None if vec is None else len(vec)))
    if vec is None:
        if len(support) < delta0:
            raise VerificationFailed("support enumeration fell short of the guaranteed size")
        raise VerificationFailed("annihilator system has a guaranteed kernel; none found")

    if F.is_rational and any(D != 1 for _, D in cleared):
        # column j was scaled by s_j = prod D_i^(e_i) > 0, so its kernel
        # entry is s_j times the primitive vector's, up to one common factor
        vec = [v * math.prod(D**x for (_, D), x in zip(cleared, e)) for e, v in zip(support, vec)]
        g = math.gcd(*vec)
        vec = [v // g for v in vec]
    # over Q the entry at j0, the deg-lex-largest monomial kept, is positive
    coeffs = {e: F.of(c) for e, c in zip(support, vec) if c != 0}
    g = MultiPoly(F, n, coeffs)

    target = delta * n
    deficit = target - g.degree()
    if deficit > 0:
        caps = [2 * delta - 1 - ind for ind in g.individual_degrees()]
        g = g.mul_monomial(_deficit_monomial(deficit, caps))
    return g


# ----------------------------------------------------------------------
# Greedy bounded-intersection designs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DesignFamily:
    """Family of size-n subsets of {0, ..., base_size - 1} meeting pairwise
    in at most ``intersection_bound`` points.  Subsets are sorted tuples of
    0-based indices; rendering uses 1-based indices."""

    base_size: int
    subset_size: int
    intersection_bound: int
    subsets: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        return "\n".join(" ".join(str(i + 1) for i in s) for s in self.subsets)


def greedy_design(base_size: int, subset_size: int, intersection_bound: int) -> DesignFamily:
    """Greedy selection over all size-n subsets of the base set in
    lexicographic order, admitting a subset iff it meets every admitted one
    in at most d points.

    Equivalent formulation used here: a candidate is admissible iff none of
    its (d+1)-subsets occurs inside any admitted set, so admission testing
    hashes (d+1)-subsets instead of scanning all admitted sets.  Whenever
    base_size > 10 * n^2 / d the admitted count reaches at least 2^(d/10).
    A size that is not an int is read by ``errors.natural``, else
    BadParameters.
    """
    sizes = {"base size": base_size, "subset size": subset_size, "intersection bound": intersection_bound}
    l, n, d = (x if type(x) is int else natural(x, what, BadParameters) for what, x in sizes.items())
    if not (l > n > d >= 1):
        raise BadParameters(f"need base > subset > intersection >= 1, got ({l}, {n}, {d})")
    if comb(l, n) > DESIGN_GUARD:
        raise TooLarge(f"C({l}, {n}) exceeds the enumeration guard {DESIGN_GUARD}")
    admitted: list[tuple[int, ...]] = []
    blocked: set[tuple[int, ...]] = set()
    for cand in itertools.combinations(range(l), n):
        witnesses = itertools.combinations(cand, d + 1)
        if any(wset in blocked for wset in witnesses):
            continue
        admitted.append(cand)
        blocked.update(itertools.combinations(cand, d + 1))
    if l * d > 10 * n * n and len(admitted) < 2 ** (d / 10):
        raise VerificationFailed(f"greedy design produced {len(admitted)} < 2^({d}/10) subsets")
    return DesignFamily(l, n, d, tuple(admitted))


# ----------------------------------------------------------------------
# Substituting a hard polynomial along a design
# ----------------------------------------------------------------------


def scatter_polynomial(q: MultiPoly, positions: Sequence[int], width: int) -> MultiPoly:
    """Re-embed an arity-m polynomial into ``width`` variables, sending its
    j-th variable to the variable at positions[j]."""
    if len(positions) != q.arity:
        raise ArityMismatch(f"{len(positions)} positions for arity {q.arity}")
    terms = {}
    for e, c in q.terms.items():
        new = [0] * width
        for j, x in enumerate(e):
            new[positions[j]] = x
        terms[tuple(new)] = c
    return MultiPoly(q.field, width, terms)


def hard_map_substitution(circuit: Circuit, q: MultiPoly, design: DesignFamily) -> Circuit:
    """Substitute x_i -> q(variables indexed by the i-th design subset),
    producing a circuit over the design's base variable set."""
    if circuit.arity > len(design.subsets):
        raise DesignTooSmall(f"{len(design.subsets)} subsets for arity {circuit.arity}")
    if q.arity != design.subset_size:
        raise ArityMismatch(f"polynomial arity {q.arity}, design subset size {design.subset_size}")
    sigma = {
        i: scatter_polynomial(q, sorted(design.subsets[i]), design.base_size)
        for i in range(circuit.arity)
    }
    return circuit.substitute(sigma)


# ----------------------------------------------------------------------
# Fischer rewriting
# ----------------------------------------------------------------------


def fischer_rewrite(terms: Sequence[Sequence[MultiPoly]]) -> list[tuple[Scalar, MultiPoly]]:
    """Rewrite sum_i prod_j g_ij (each product of length r) as a signed sum
    of r-th powers: every product becomes the 2^(r-1) combinations
    (prod_j eps_j) / (2^(r-1) r!) * (g_1 + sum_j eps_j g_(j+1))^r over sign
    patterns eps in {+1, -1}^(r-1).  Requires characteristic 0 or > r."""
    if not terms:
        return []
    r = len(terms[0])
    if any(len(fs) != r for fs in terms):
        raise RaggedInput("all factor lists must share one length")
    if r == 0:
        raise RaggedInput("factor lists must be nonempty")
    field = terms[0][0].field
    if not field.size_exceeds(r):
        raise CharTooSmall(f"Fischer rewriting needs characteristic 0 or > {r}")
    if r == 1:
        return [(field.one(), fs[0]) for fs in terms]
    scale = field.inv(field.of((1 << (r - 1)) * factorial(r)))
    out: list[tuple[Scalar, MultiPoly]] = []
    for fs in terms:
        for eps in itertools.product((1, -1), repeat=r - 1):
            h = fs[0]
            sign = 1
            for e, g in zip(eps, fs[1:]):
                sign *= e
                h = h.add(g) if e == 1 else h.sub(g)
            c = field.mul(field.of(sign), scale)
            out.append((c, h))
    return out


# ----------------------------------------------------------------------
# Local Kronecker map
# ----------------------------------------------------------------------


def local_kronecker(circuit: Circuit, block: int) -> Circuit:
    """Blockwise arity reduction: the i-th variable of block j maps to
    y_j^(2^i) (i = 1..block), so each block of ``block`` variables collapses
    into one.  A trailing partial block is padded implicitly.  Distinct
    multilinear monomials keep distinct images because the exponents
    2, 4, ..., 2^block have distinct subset sums within each block.  A
    block that is not an int is read by ``errors.natural``, else
    BadParameters."""
    if type(block) is not int:
        block = natural(block, "block size", BadParameters)
    if block < 1:
        raise BadParameters("block size must be at least 1")
    n = circuit.arity
    if n == 0:
        return circuit
    blocks = (n + block - 1) // block
    F = circuit.field
    sigma = {}
    for v in range(n):
        j = v // block
        i = v % block
        e = [0] * blocks
        e[j] = 1 << (i + 1)
        sigma[v] = MultiPoly.make(F, blocks, {tuple(e): 1})
    return circuit.substitute(sigma)
