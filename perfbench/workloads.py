"""The four benchmark workloads: seeded instance generation, set-up from
documents, the timed operation, its rendering and its correctness check.

Each workload generates its instances from a ``random.Random`` seeded by the
run's ``--seed``.  The *shape* of instance ``i`` (arity, powers, field,
instance family) is a fixed function of ``i``; the seed only draws the
coefficients.  Per-op cost then depends on the shape, so the cost of a whole
pass changes little from seed to seed and run-to-run spread reflects the
program, not the draw.  Instances are handed to the program as JSON
documents, parsed by the program's own parsers during set-up.

Every workload object has:

* ``generate(rng, count)`` -> list of (document text, meta); meta is the
  benchmark's own knowledge of the instance (expected verdict, ...) and is
  never shown to the program;
* ``load(doc)`` -> the parsed instance plus any oracle, built once in set-up;
* ``op(inst)`` -> the program's output for one instance (the timed work);
* ``render(out)`` -> canonical text of the output, hashed for the digest;
* ``queries(out)`` -> base-oracle evaluations the op spent;
* ``check(meta, inst, out)`` -> None when the output is correct, else a
  one-line reason.  Runs outside the timed region.
"""

from __future__ import annotations

import random

from conepit import circuits, conebasis, diagonal, documents, hsg, pit, polys
from conepit.diagonal import DiagonalCircuit, diagonal_to_json
from conepit.fields import Field
from conepit.generators import (
    random_circuit,
    random_diagonal_depth4,
    random_hsg,
    random_multipoly,
    random_vectorpoly,
)
from conepit.polys import MultiPoly

FP = Field.default_prime()
F31 = Field.prime((1 << 31) - 1)
Q = Field.rationals()


def _nonzero(rng: random.Random, field: Field) -> int:
    while True:
        c = field.random(rng)
        if c != 0:
            return c


class DiagPit:
    """Depth-3 diagonal circuits over F_{2^61-1} through ``diag_pit``.

    Instance ``i`` is, by ``i % 3``: a forced-zero circuit (pairs of terms
    that cancel), a nonzero circuit whose constant term is the witness
    (shallow), or the forced-zero pairs plus c*(<a,x>)^d with affine
    constant 0, whose witness has degree d (deep).  Arity runs 4..7.
    """

    name = "diag-pit"
    pairs = 3

    def _powers(self, i: int) -> list[int]:
        return [1 + (i // 12 + j) % 4 for j in range(self.pairs)]

    def generate(self, rng: random.Random, count: int):
        out = []
        for i in range(count):
            kind = i % 3
            n = 4 + (i // 3) % 4
            rows = []
            for d in self._powers(i):
                c = _nonzero(rng, FP)
                const = FP.random(rng)
                coeffs = [FP.random(rng) for _ in range(n)]
                rows.append((c, const, coeffs, d))
                if kind == 1:
                    # an independent second term in place of the cancelling one
                    rows.append((_nonzero(rng, FP), FP.random(rng), [FP.random(rng) for _ in range(n)], d))
                else:
                    rows.append((FP.neg(c), const, list(coeffs), d))
            if kind == 2:
                d = 2 + (i // 3) % 3
                rows.append((_nonzero(rng, FP), 0, [FP.random(rng) for _ in range(n)], d))
            circuit = DiagonalCircuit.make(FP, n, rows)
            out.append((diagonal_to_json(circuit), {"expect": pit.ZERO if kind == 0 else pit.NONZERO}))
        return out

    def load(self, doc: str):
        return diagonal.diagonal_from_json(doc)

    def op(self, circuit):
        return diagonal.diag_pit(circuit)

    def render(self, verdict) -> str:
        return verdict.render()

    def queries(self, verdict) -> int:
        return verdict.oracle_calls

    def check(self, meta, circuit, verdict):
        if verdict.outcome != meta["expect"]:
            return f"verdict {verdict.outcome}, expected {meta['expect']}"
        if not verdict.is_zero:
            # the witness is a monomial of the rank-reduced circuit
            reduced = diagonal.build_psi(circuit).apply(circuit)
            truth = circuits.dense_expand(reduced.as_oracle())
            if truth.coefficient(verdict.witness) != verdict.coefficient:
                return f"witness coefficient {verdict.coefficient} differs from the dense expansion"
        return None


def _fischer_zero(rng: random.Random, field: Field, n: int) -> circuits.Circuit:
    """sum of products of two degree-2 factors, minus their power rewrite:
    an identically zero circuit of syntactic degree exactly 4."""
    groups = []
    for g in range(2):
        factors = []
        for j in range(2):
            f = random_multipoly(rng, field, n, 1, 2)
            sq = [0] * n
            sq[(g + j) % n] = 2
            factors.append(f.add(MultiPoly.make(field, n, [(tuple(sq), _nonzero(rng, field))])))
        groups.append(factors)
    b = circuits.CircuitBuilder(field, n)
    tops = [(1, b.mul([b.poly(f) for f in fs])) for fs in groups]
    for c, h in hsg.fischer_rewrite(groups):
        tops.append((field.neg(c), b.pow(b.poly(h), 2)))
    return b.build(b.add(tops))


class CircuitPit:
    """Gate circuits through ``low_cone_pit`` and then ``brute_force_pit``.

    Instance ``i`` takes its field from ``i % 3`` (F_{2^61-1}, F_{2^31-1},
    Q) and its family from ``(i // 3) % 5``: three fifths are zero circuits
    "products minus their Fischer power rewrite" (degree 4), which run the
    whole low-cone scan; the rest come from ``random_circuit`` and
    ``random_diagonal_depth4`` and exit early.  Arity is 3 over
    F_{2^31-1}, whose kernel is cheapest, and 2 elsewhere.  Then every
    nonzero op is cheaper than an F_{2^31-1} zero circuit, those fill the
    40th to 60th percentile, and p50 falls in the middle of one mode
    rather than on the edge between two.
    """

    name = "circuit-pit"
    fields = (FP, F31, Q)
    families = ("zero", "random", "zero", "depth4", "zero")
    k = 16

    def generate(self, rng: random.Random, count: int):
        out = []
        for i in range(count):
            field = self.fields[i % 3]
            family = self.families[(i // 3) % 5]
            n = 3 if field is F31 else 2
            if family == "random":
                circuit = random_circuit(rng, field, n, 12, 5)
            elif family == "depth4":
                circuit = random_diagonal_depth4(rng, field, n, 2, 2, 2, 2)
            else:
                circuit = _fischer_zero(rng, field, n)
            out.append((circuits.serialize(circuit), {"zero": family == "zero"}))
        return out

    def load(self, doc: str):
        circuit = circuits.parse(doc)
        return circuit, circuits.Oracle.from_circuit(circuit)

    def op(self, inst):
        oracle = inst[1]
        return pit.low_cone_pit(oracle, self.k), pit.brute_force_pit(oracle)

    def render(self, out) -> str:
        return f"{out[0].render()} | {out[1].render()}"

    def queries(self, out) -> int:
        return out[0].oracle_calls + out[1].oracle_calls

    def check(self, meta, inst, out):
        low, brute = out
        if meta["zero"] and not brute.is_zero:
            return "brute force calls a zero circuit NONZERO"
        if brute.is_zero and not low.is_zero:
            return "low-cone NONZERO where brute force says ZERO"
        if not low.is_zero:
            truth = circuits.dense_expand(circuits.Oracle.from_circuit(inst[0]))
            if truth.coefficient(low.witness) != low.coefficient:
                return f"witness coefficient {low.coefficient} differs from the dense expansion"
        return None


def _annihilate_order():
    """23 shapes: 16 over Q (arity 2 at degree 1..4, arity 3..4 at degree
    1..6) with one of 7 shapes over F_{2^61-1} after every two."""
    q = [(Q, n, d) for n in (2, 3, 4) for d in range(1, 7) if not (n == 2 and d > 4)]
    p = [(FP, n, d) for n, d in ((2, 5), (2, 6), (3, 6), (4, 6), (3, 3), (4, 2), (2, 2))]
    order = []
    for j in range(0, len(q), 2):
        order += q[j:j + 2] + p[j // 2:j // 2 + 1]
    return order


class Annihilate:
    """``build_annihilator`` on ``random_hsg`` tuples, arity 2..4, degree 1..6.

    Arity 2 at degree 5 and 6 costs 0.3 s and 1 s over Q, more than the rest
    of a pass together, so those shapes run over F_{2^61-1} only.  A tuple
    is redrawn until every entry has the full degree: ``random_hsg`` draws
    the degree of entries after the first, and that draw alone moves an
    op's cost several-fold.  With full degrees each shape has one cost, and
    with an odd number of equally weighted shapes p50 and p95 fall inside a
    shape's block rather than on the edge between two.
    """

    name = "annihilate"
    order = _annihilate_order()

    def generate(self, rng: random.Random, count: int):
        out = []
        for i in range(count):
            field, n, d = self.order[i % len(self.order)]
            while True:
                t = random_hsg(rng, field, n, d)
                if all(p.degree() == d for p in t.polys):
                    break
            out.append((hsg.hsg_to_json(t), {}))
        return out

    def load(self, doc: str):
        return hsg.hsg_from_json(doc)

    def op(self, t):
        return hsg.build_annihilator(t)

    def render(self, g) -> str:
        return f"degree={g.degree()} g={g.render()}"

    def queries(self, g) -> int:
        return 0

    def check(self, meta, t, g):
        delta = hsg.annihilator_delta(t.arity, max(p.degree() for p in t.polys))
        if g.is_zero:
            return "annihilator is zero"
        if g.degree() != delta * t.arity:
            return f"total degree {g.degree()}, expected {delta * t.arity}"
        if any(x >= 2 * delta for x in g.individual_degrees()):
            return f"individual degrees {g.individual_degrees()} reach 2*delta={2 * delta}"
        if not t.compose(g).is_zero:
            return "g(f) is not zero"
        return None


class ConeBasis:
    """``cone_closed_basis_after_shift`` on ``random_vectorpoly`` over
    F_{2^61-1} with Kronecker weights; arity 1..3, dimension 2..4,
    degree <= 4."""

    name = "cone-basis"
    degree = 4

    def generate(self, rng: random.Random, count: int):
        out = []
        for i in range(count):
            n = 1 + i % 3
            dim = 2 + (i // 3) % 3
            while True:
                f = random_vectorpoly(rng, FP, n, dim, self.degree, 6)
                if not f.is_zero:
                    break
            out.append((documents.vectorpoly_to_json(f), {}))
        return out

    def load(self, doc: str):
        f = documents.vectorpoly_from_json(doc)
        return f, conebasis.kronecker_weights(f.arity, self.degree)

    def op(self, inst):
        return conebasis.cone_closed_basis_after_shift(*inst)

    def render(self, A) -> str:
        return "{" + ",".join("(" + ",".join(str(x) for x in e) + ")" for e in A) + "}"

    def queries(self, A) -> int:
        return 0

    def check(self, meta, inst, A):
        f = inst[0]
        if len(A) != polys.coeff_rank(f):
            return f"|A|={len(A)}, coefficient rank {polys.coeff_rank(f)}"
        if not polys.is_cone_closed(A):
            return "A is not cone-closed"
        return None


#: workload name -> (workload, instances in a full pass, instances in a smoke pass)
WORKLOADS = {
    w.name: (w, full, smoke)
    for w, full, smoke in (
        (DiagPit(), 48, 6),
        (CircuitPit(), 45, 15),
        (Annihilate(), 46, 9),
        (ConeBasis(), 432, 6),
    )
}
