"""Independent reference implementations used as test oracles.

Everything here recomputes results by a route different from the package
code: literal grids, number-theoretic counting, pairwise scans, symbolic
expansion.  Kept deliberately simple and slow.  The last section holds
the few circuit helpers the tests share and the library does not need.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from conepit import hsg, polys
from conepit.circuits import Circuit, CircuitBuilder, Oracle, serialize
from conepit.conebasis import BasisReport, weight_of
from conepit.diagonal import DiagonalCircuit, PsiMap, pd_dim_bound
from conepit.errors import BadParameters, TooLarge, VerificationFailed
from conepit.extraction import extract_coefficient, vandermonde_row
from conepit.errors import ArityMismatch
from conepit.fields import DensePoly, Field, Scalar, square_and_multiply
from conepit.linalg import RowReducer, integer_nullspace_canonical, nullspace_canonical
from conepit.pit import NONZERO, ZERO, PitVerdict, low_cone_pit
from conepit.polys import ExpVec, MultiPoly, VectorPoly, deglex_key


def grid_low_cone_count(n: int, k: int, dcap: int | None = None) -> int:
    """Count cone-size <= k monomials by scanning the full grid {0..k-1}^n."""
    count = 0
    for e in itertools.product(range(k), repeat=n):
        prod = 1
        for x in e:
            prod *= x + 1
        if prod <= k and (dcap is None or sum(e) <= dcap):
            count += 1
    return count


def factorization_low_cone_count(n: int, k: int) -> int:
    """Count cone-size <= k monomials arithmetically: a vector e with
    prod(e_i + 1) = c corresponds to an ordered factorization of c into n
    positive parts, and those number prod C(a_i + n - 1, n - 1) over the
    prime powers p_i^a_i of c."""
    total = 0
    for c in range(1, k + 1):
        ways = 1
        m = c
        p = 2
        while p * p <= m:
            if m % p == 0:
                a = 0
                while m % p == 0:
                    m //= p
                    a += 1
                ways *= comb(a + n - 1, n - 1)
            p += 1
        if m > 1:
            ways *= comb(1 + n - 1, n - 1)
        total += ways
    return total


def reference_enumerate_low_cone(n: int, k: int, dcap: int | None = None) -> list[ExpVec]:
    """The whole low cone by one depth-first walk over nonzero entries,
    then a deg-lex sort; raises TooLarge as soon as the vectors built hold
    more than ``polys.LOW_CONE_GUARD`` entries (read at call time)."""
    if n < 0 or k < 1:
        raise BadParameters("need n >= 0 and k >= 1")
    cap = k - 1 if dcap is None else dcap
    if cap < 0:
        return []
    if n > polys.LOW_CONE_GUARD:
        raise TooLarge("arity past the guard")
    out = [(0,) * n]
    _reference_low_cone_walk([0] * n, 0, 1, 0, k, cap, out)
    out.sort(key=deglex_key)
    return out


def _reference_low_cone_walk(row, start, prod, deg, k, cap, out) -> None:
    for i in range(start, len(row)):
        v = 1
        while prod * (v + 1) <= k and deg + v <= cap:
            row[i] = v
            out.append(tuple(row))
            if len(row) * len(out) > polys.LOW_CONE_GUARD:
                raise TooLarge("low cone past the guard")
            if prod * (v + 1) * 2 <= k and deg + v < cap:
                _reference_low_cone_walk(row, i + 1, prod * (v + 1), deg + v, k, cap, out)
            v += 1
        row[i] = 0


def reference_low_cone_pit(oracle, k: int) -> PitVerdict:
    """The low-cone test as one independent ``extract_coefficient`` per
    monomial of :func:`reference_enumerate_low_cone`, in deg-lex order, up
    to the first nonzero coefficient: no layer, no shared points, no table."""
    start = oracle.calls
    tested = 0
    for e in reference_enumerate_low_cone(oracle.arity, k, dcap=oracle.degree):
        tested += 1
        c = extract_coefficient(oracle, e)
        if c != 0:
            return PitVerdict(NONZERO, e, c, tested, oracle.calls - start)
    return PitVerdict(ZERO, None, None, tested, oracle.calls - start)


def reference_psi(circuit: DiagonalCircuit) -> PsiMap | None:
    """The coordinate selection onto the pivot columns of a ``RowReducer``
    fed every term's form in turn, or None when every form is constant."""
    red = RowReducer(circuit.field)
    for t in circuit.terms:
        red.insert(list(t.coeffs))
    return PsiMap(circuit.arity, tuple(sorted(red.pivots))) if red.rank else None


def reference_diag_pit(circuit: DiagonalCircuit) -> tuple[PitVerdict, Oracle | None]:
    """``diag_pit`` by separate steps, none fused: :func:`reference_psi`,
    each term's form restricted to its columns one term at a time (no
    ``PsiMap.apply``, which collects like terms), the image's own program
    (which collects them) and ``low_cone_pit`` under the input's degree
    bound.  A rank-0 circuit is its constant, read once at the origin by
    the scalar twin.  Returns the verdict and the oracle the test ran on,
    if any."""
    circuit.field.require_size_over(circuit.degree(), "diagonal identity test")
    psi = reference_psi(circuit)
    if psi is None:
        v = circuit.evaluate([circuit.field.zero()] * circuit.arity)
        return (PitVerdict(ZERO, None, None, 1, 1) if v == 0 else PitVerdict(NONZERO, (), v, 1, 1)), None
    image = [(t.c, t.const, [t.coeffs[j] for j in psi.columns], t.d) for t in circuit.terms]
    oracle = Oracle(DiagonalCircuit.make(circuit.field, len(psi.columns), image), circuit.degree())
    return low_cone_pit(oracle, pd_dim_bound(circuit)), oracle


def naive_is_cone_closed(monomials) -> bool:
    s = set(monomials)
    for f in s:
        for e in itertools.product(*(range(x + 1) for x in f)):
            if e not in s:
                return False
    return True


def naive_pd_dim(p: MultiPoly) -> int:
    """Partial-derivative-space dimension by enumerating every derivative
    order up to the individual degrees and ranking the dense coefficient
    matrix."""
    if p.is_zero:
        return 0
    F = p.field
    caps = p.individual_degrees()
    columns = sorted({e for e in itertools.product(*(range(c + 1) for c in caps))})
    col_index = {e: i for i, e in enumerate(columns)}
    red = RowReducer(F)
    for a in itertools.product(*(range(c + 1) for c in caps)):
        row = [F.zero()] * len(columns)
        nonzero = False
        for e, c in p.terms.items():
            if any(x < y for x, y in zip(e, a)):
                continue
            shifted = tuple(x - y for x, y in zip(e, a))
            factor = 1
            for x, y in zip(e, a):
                for j in range(y):
                    factor *= x - j
            v = F.mul(c, F.of(factor))
            if v != 0:
                row[col_index[shifted]] = F.add(row[col_index[shifted]], v)
                nonzero = True
        if nonzero:
            red.insert(row)
    return red.rank


def pairwise_design_ok(subsets, n: int, d: int) -> bool:
    """Literal check of both design clauses."""
    sets = [frozenset(s) for s in subsets]
    if any(len(s) != n for s in sets):
        return False
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) > d:
                return False
    return True


def subset_uniqueness_design_ok(subsets, n: int, d: int) -> bool:
    """Equivalent intersection check: no (d+1)-subset may appear inside two
    members.  Used where the quadratic scan is too large."""
    seen = set()
    for s in subsets:
        if len(set(s)) != n:
            return False
        for t in itertools.combinations(sorted(s), d + 1):
            if t in seen:
                return False
            seen.add(t)
    return True


def poly_pow(p: MultiPoly, e: int) -> MultiPoly:
    """p^e by repeated squaring of sparse polynomials."""
    return square_and_multiply(p, e, lambda: MultiPoly.const(p.field, p.arity, 1), MultiPoly.mul)


def compose(p: MultiPoly, images) -> MultiPoly:
    """p with images[i] substituted for variable i, expanded term by term;
    the images share one arity and field."""
    if len(images) != p.arity:
        raise ArityMismatch(f"need {p.arity} images, got {len(images)}")
    F = p.field
    m = images[0].arity if images else 0
    out = MultiPoly.zero(F, m)
    for e, c in p.terms.items():
        term = MultiPoly.const(F, m, 1)
        for img, x in zip(images, e):
            if x:
                term = term.mul(poly_pow(img, x))
        out = out.add(term.scale(c))
    return out


def symbolic_shift_coefficients(f: VectorPoly, w) -> dict[ExpVec, list[dict[int, Scalar]]]:
    """Coefficients of f(x + t^w) computed by literal substitution in a ring
    with t appended as an extra variable.  Returns, per monomial in x, one
    {t-power: scalar} map per coordinate."""
    F = f.field
    n = f.arity
    images = []
    for i in range(n):
        e_x = [0] * (n + 1)
        e_x[i] = 1
        e_t = [0] * (n + 1)
        e_t[n] = w[i]
        images.append(MultiPoly.make(F, n + 1, [(tuple(e_x), 1), (tuple(e_t), 1)]))
    out: dict[ExpVec, list[dict[int, Scalar]]] = {}
    for t in range(f.dim):
        coord = f.coordinate(t)
        lifted = MultiPoly(F, n + 1, {e + (0,): c for e, c in coord.terms.items()})
        shifted = compose(lifted, images + [MultiPoly.variable(F, n + 1, n)])
        for e, c in shifted.terms.items():
            x_part, t_pow = e[:n], e[n]
            slot = out.setdefault(x_part, [dict() for _ in range(f.dim)])
            slot[t][t_pow] = F.add(slot[t].get(t_pow, F.zero()), c)
    return out


def multipoly_from_dense_rows(field: Field, arity: int, pairs) -> MultiPoly:
    return MultiPoly.make(field, arity, pairs)


def schoolbook_mul(a: DensePoly, b: DensePoly) -> DensePoly:
    """Product of two dense univariates by the double loop over coefficient
    pairs, one field operation at a time."""
    F = a.field
    if a.is_zero or b.is_zero:
        return DensePoly.zero(F)
    out = [F.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return DensePoly.make(F, out)


def reference_query_points(field: Field, e: ExpVec, degree: int) -> list[tuple[Scalar, ...]]:
    """The base points of the extraction of x^e at degree bound ``degree``:
    per-variable stages of nodes 0..e_i (node 1 alone for e_i = 0), then a
    tau stage over 0..degree, tau-major, x1's node slowest."""
    F = field
    if sum(e) > degree:
        return []
    t_nodes = [F.of(j) for j in range(degree + 1)]
    stage_nodes = [[F.one()] if ei == 0 else t_nodes[: ei + 1] for ei in e]
    return [pt for tau in t_nodes for pt in itertools.product(*([F.mul(a, tau) for a in ns] for ns in stage_nodes))]


def reference_queries(field: Field, e: ExpVec, degree: int) -> tuple[list[tuple[Scalar, ...]], list[Scalar]]:
    """:func:`reference_query_points` and their weights, built one
    extraction at a time: the Vandermonde row of x_i^e_i per stage (weight
    1 for e_i = 0), then that of tau^|e| over the tau stage."""
    F = field
    points = reference_query_points(field, e, degree)
    if not points:
        return points, []
    t_nodes = [F.of(j) for j in range(degree + 1)]
    stage_weights = [[F.one()] if ei == 0 else vandermonde_row(t_nodes[: ei + 1], ei, F) for ei in e]
    combo_weights = [F.one()]
    for ws in stage_weights:
        combo_weights = [F.mul(w, x) for w in combo_weights for x in ws]
    weights = [F.mul(tw, w) for tw in vandermonde_row(t_nodes, sum(e), F) for w in combo_weights]
    return points, weights


def reference_layer_points(field: Field, n: int, k: int, degree: int, t: int) -> tuple[set[tuple[Scalar, ...]], int]:
    """The points that layer t of the arity-n low cone of cone size <= k at
    degree bound ``degree`` requests and no layer below t does, and how many
    points the layer requests in all, from the reference walk and query
    points."""
    sets = {e: reference_query_points(field, e, degree) for e in reference_enumerate_low_cone(n, k, degree) if sum(e) <= t}
    below = {pt for e, pts in sets.items() if sum(e) < t for pt in pts}
    layer = [pts for e, pts in sets.items() if sum(e) == t]
    return {pt for pts in layer for pt in pts} - below, sum(map(len, layer))


def reference_coefficient(circuit, e: ExpVec, degree: int) -> Scalar:
    """The coefficient of x^e by the scalar reference: the points and
    weights of :func:`reference_queries`, every point through the scalar
    twin ``circuit.evaluate``, summed in field arithmetic (over Q, in
    ``Fraction``s throughout)."""
    F = circuit.field
    acc = F.zero()
    for pt, w in zip(*reference_queries(F, e, degree)):
        acc = F.add(acc, F.mul(w, circuit.evaluate(pt)))
    return acc


def scalar_bareiss_echelon(rows):
    """Fraction-free row echelon form by the scalar Bareiss triple loop:
    (echelon rows, pivot column per row), pivot = first nonzero at or
    below the current row."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    piv_rows, piv_cols = [], []
    prev = 1
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        piv_rows.append(a[r])
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return piv_rows, piv_cols


def bareiss_det(rows):
    """Exact determinant of a square integer matrix (fraction-free)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_annihilator(t: hsg.HsgTuple) -> MultiPoly:
    """:func:`conepit.hsg.build_annihilator` by one solve of the whole
    system: the support cut from the sorted grid of vectors with entries
    below delta, the images of every support vector (each a product of its
    factors by :func:`schoolbook_mul`), every power of y as a
    row, one canonical kernel vector, then the same integer scaling, sign
    and degree-deficit monomial."""
    n = t.arity
    d = max(p.degree() for p in t.polys)
    F = t.field
    delta = hsg.annihilator_delta(n, d)
    support = sorted(itertools.product(range(delta), repeat=n), key=deglex_key)[: d * n * delta + 1]
    one = DensePoly.const(F, 1)
    images = [functools.reduce(schoolbook_mul, [f for f, x in zip(t.polys, e) for _ in range(x)], one) for e in support]
    top = max(p.degree() for p in images)
    rows = [[p.coefficient(k) for p in images] for k in range(top + 1)]
    if F.is_rational:
        vec = integer_nullspace_canonical(rows, len(support))
    else:
        vec = nullspace_canonical(rows, F, len(support))
    if vec is None:
        raise VerificationFailed("annihilator system has a guaranteed kernel; none found")
    coeffs = {e: F.of(c) for e, c in zip(support, vec) if c != 0}
    if F.is_rational:
        lead = max(coeffs, key=deglex_key)
        if coeffs[lead] < 0:
            coeffs = {e: F.neg(c) for e, c in coeffs.items()}
    g = MultiPoly(F, n, coeffs)
    deficit = delta * n - g.degree()
    if deficit > 0:
        caps = [2 * delta - 1 - ind for ind in g.individual_degrees()]
        g = g.mul_monomial(hsg._deficit_monomial(deficit, caps))
    return g


def in_span(vec, basis, field: Field) -> tuple[bool, list[Scalar]]:
    """Is vec in the span of basis?  Returns (membership, combination).

    The combination lists one coefficient per basis vector, in order, such
    that vec = sum coeff_i * basis_i when membership holds.  Each basis
    vector is inserted with the unit vector e_i appended, so reducing
    [vec | 0] leaves [vec - sum c_i * basis_i | -c].
    """
    F = field
    n, m = len(vec), len(basis)
    red = RowReducer(F)
    for i, b in enumerate(basis):
        red.insert(list(b) + [F.one() if j == i else F.zero() for j in range(m)])
    out = red.reduce(list(vec) + [F.zero()] * m)
    return all(x == 0 for x in out[:n]), [F.neg(x) for x in out[n:]]


def reference_least_basis(f: VectorPoly, w) -> list[ExpVec]:
    """The greedy least basis by its definition: scan the support in
    increasing (weight, deg-lex) order and admit each monomial whose
    coefficient vector :meth:`RowReducer.insert` finds independent."""
    reducer = RowReducer(f.field)
    order = sorted(f.terms, key=lambda e: (weight_of(w, e), deglex_key(e)))
    return [e for e in order if reducer.insert(list(f.terms[e]))]


def reference_is_basis_isolating(f: VectorPoly, w) -> BasisReport:
    """:func:`conepit.conebasis.is_basis_isolating` by its definition: the
    greedy least basis, a check that its weights are pairwise distinct, then
    one fresh :func:`in_span` solve per non-basis monomial against the
    strictly lighter basis monomials."""
    basis = reference_least_basis(f, w)
    weights = [weight_of(w, e) for e in basis]
    if len(set(weights)) != len(weights):
        return BasisReport(tuple(basis), False, None)
    certificate = {}
    basis_set = set(basis)
    for e in f.support():
        if e in basis_set:
            continue
        we = weight_of(w, e)
        lighter = [b for b in basis if weight_of(w, b) < we]
        ok, combo = in_span(list(f.terms[e]), [list(f.terms[b]) for b in lighter], f.field)
        if not ok:
            return BasisReport(tuple(basis), False, None)
        certificate[e] = tuple((b, c) for b, c in zip(lighter, combo) if c != 0)
    return BasisReport(tuple(basis), True, certificate)


# ----------------------------------------------------------------------
# Test helpers: building and saving circuits, the Kronecker exponent map
# ----------------------------------------------------------------------


def circuit_from_multipoly(poly: MultiPoly) -> Circuit:
    """A gate circuit computing ``poly`` term by term."""
    builder = CircuitBuilder(poly.field, poly.arity)
    return builder.build(builder.poly(poly))


def save_circuit(circuit: Circuit, path: str) -> None:
    """Write the circuit's JSON document to ``path``, as the CLI reads it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(circuit))
        fh.write("\n")


def kronecker_exponent_image(e: ExpVec, block: int) -> ExpVec:
    """Image of a monomial's exponent vector under ``hsg.local_kronecker``'s
    blockwise map: variable i of block j goes to y_j^(2^(i+1))."""
    n = len(e)
    blocks = (n + block - 1) // block
    out = [0] * blocks
    for v, x in enumerate(e):
        out[v // block] += x * (1 << ((v % block) + 1))
    return tuple(out)
