"""Acceptance suite: every criterion at its stated size, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` or directly with
``python tests/test_acceptance.py``.
"""

import functools
import random
import sys
import time
from fractions import Fraction
from math import comb, log2

from conepit.circuits import Oracle, dense_expand
from conepit.conebasis import (
    cone_closed_basis_after_shift,
    find_cone_closed,
    is_basis_isolating,
    kronecker_weights,
    least_basis,
    transfer_submatrix,
)
from conepit.diagonal import diag_pit, diag_power_vectorpoly
from conepit.extraction import extract_coefficient
from conepit.fields import Field
from conepit.generators import (
    random_circuit,
    random_diagonal,
    random_hsg,
    random_multipoly,
    random_vectorpoly,
)
from conepit.hsg import HsgTuple, annihilator_delta, build_annihilator, fischer_rewrite, greedy_design
from conepit.pit import brute_force_pit
from conepit.polys import (
    MultiPoly,
    coeff_rank,
    cone_size,
    enumerate_low_cone,
    is_cone_closed,
    leading_monomial,
    low_cone_count_bound,
    pd_space_dim,
)
from reference import (
    bareiss_det,
    factorization_low_cone_count,
    grid_low_cone_count,
    pairwise_design_ok,
    poly_pow,
    subset_uniqueness_design_ok,
)

FP = Field.default_prime()
Q = Field.rationals()

SEED = 20260810

_registry = []


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:2d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:2d} {name}: PASS")

        _registry.append(wrapper)
        return wrapper

    return deco


@criterion(1, "low-cone PIT equals brute force on 500 diagonal circuits")
def test_criterion_1_diag_pit_oracle_equivalence():
    rng = random.Random(SEED)
    started = time.perf_counter()
    zero_engineered = 0
    for i in range(500):
        force_zero = i % 10 == 0
        n = rng.randint(1, 6)
        terms = rng.randint(2, 5) if force_zero else rng.randint(1, 5)
        D = random_diagonal(rng, FP, n, terms, rng.randint(1, 6), force_zero=force_zero)
        if force_zero:
            zero_engineered += 1
        fast = diag_pit(D)
        truth = brute_force_pit(D.as_oracle())
        assert fast.outcome == truth.outcome, f"instance {i}: {fast.outcome} vs {truth.outcome}"
        if force_zero:
            assert truth.outcome == "ZERO"
    elapsed = time.perf_counter() - started
    assert zero_engineered >= 50
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"


@criterion(2, "low-cone count equals grid count and respects the bound")
def test_criterion_2_count_bound():
    for n in range(1, 11):
        for k in (2, 4, 8, 16, 32, 64):
            got = len(enumerate_low_cone(n, k))
            want = factorization_low_cone_count(n, k)
            assert got == want, f"(n={n}, k={k}): enumerated {got}, counted {want}"
            if k ** n <= 1_000_000:
                assert got == grid_low_cone_count(n, k)
            assert got <= low_cone_count_bound(n, k) * (1 + 1e-9)


@criterion(3, "coefficient extraction matches dense expansion with exact call counts")
def test_criterion_3_extraction():
    rng = random.Random(SEED + 3)
    for i in range(200):
        n = rng.randint(1, 4)
        C = random_circuit(rng, FP, n, rng.randint(3, 14), 6)
        oracle = Oracle(C)
        d = oracle.degree
        truth = dense_expand(Oracle(C))
        for e in enumerate_low_cone(n, 64, dcap=d):
            before = oracle.calls
            got = extract_coefficient(oracle, e)
            assert oracle.calls - before == cone_size(e) * (d + 1)
            assert got == truth.coefficient(e), f"instance {i}, exponent {e}"


@criterion(4, "cone-closed rewrite: size, closure, invertibility, monotonicity")
def test_criterion_4_algorithm1_suite():
    rng = random.Random(SEED + 4)
    for _ in range(1000):
        n = rng.randint(1, 4)
        B = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 14))}
        A = find_cone_closed(B, n)
        assert len(A) == len(B)
        assert is_cone_closed(A)
        assert bareiss_det(transfer_submatrix(A, B)) != 0
    for _ in range(200):
        n = rng.randint(1, 4)
        B2 = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(2, 14))}
        B1 = {e for e in B2 if rng.random() < 0.6} or {next(iter(B2))}
        assert set(find_cone_closed(B1, n)) <= set(find_cone_closed(B2, n))


@criterion(5, "weighted shift yields a verified cone-closed basis (300 instances)")
def test_criterion_5_shifted_basis():
    rng = random.Random(SEED + 5)
    done = 0
    while done < 300:
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        d = rng.randint(0, 4)
        f = random_vectorpoly(rng, FP, n, k, d, rng.randint(1, 7))
        if f.is_zero:
            continue
        w = kronecker_weights(n, 4)
        assert is_basis_isolating(f, w).isolating
        A = cone_closed_basis_after_shift(f, w)
        r = coeff_rank(f)
        assert len(A) == r and is_cone_closed(A)
        assert max(cone_size(e) for e in A) <= r
        assert all(sum(1 for x in e if x > 0) <= log2(2 * r) for e in A)
        done += 1


@criterion(6, "annihilators vanish exactly with the promised degrees (200 tuples)")
def test_criterion_6_annihilator():
    def check(t: HsgTuple):
        n = t.arity
        d = max(p.degree() for p in t.polys)
        delta = annihilator_delta(n, d)
        g = build_annihilator(t)
        assert not g.is_zero
        assert all(x < 2 * delta for x in g.individual_degrees())
        assert g.degree() == delta * n
        if t.field.is_rational:
            assert all(isinstance(c, Fraction) and c.denominator == 1 for c in g.terms.values())
        # independent zero check: a univariate of degree <= D vanishing on
        # D+1 distinct points is identically zero
        D = max(sum(x * p.degree() for x, p in zip(e, t.polys)) for e in g.terms)
        for tau in range(D + 1):
            y = t.field.of(tau)
            point = [p.eval(y) for p in t.polys]
            assert g.evaluate(point) == 0
        return g

    from conepit.fields import DensePoly

    y = DensePoly.make(Q, [0, 1])
    check(HsgTuple.make(Q, [y, y.pow(2)]))
    check(HsgTuple.make(Q, [y, y]))

    rng = random.Random(SEED + 6)
    for _ in range(198):
        n = rng.choice((2, 3, 4))
        check(random_hsg(rng, Q, n, rng.randint(1, 6)))


@criterion(7, "greedy designs verify exhaustively; count clause holds")
def test_criterion_7_designs():
    triples = []
    for l in range(3, 14):
        for n in range(2, l):
            if comb(l, n) > 100_000:
                continue
            for d in range(1, n):
                triples.append((l, n, d))
    triples += [(25, 4, 2), (41, 2, 1), (46, 3, 2), (54, 4, 3), (100, 2, 1)]
    for l, n, d in triples:
        fam = greedy_design(l, n, d)
        if len(fam.subsets) <= 1000:
            assert pairwise_design_ok(fam.subsets, n, d), (l, n, d)
        else:
            assert subset_uniqueness_design_ok(fam.subsets, n, d), (l, n, d)
        if l * d > 10 * n * n:
            assert len(fam.subsets) >= 2 ** (d / 10), (l, n, d)


@criterion(8, "power rewriting reproduces products exactly for r <= 5")
def test_criterion_8_fischer():
    rng = random.Random(SEED + 8)
    for i in range(100):
        r = (i % 5) + 1
        arity = rng.randint(1, 3)
        k = rng.randint(1, 3)
        groups = []
        want = MultiPoly.zero(Q, arity)
        for _ in range(k):
            factors = []
            for _ in range(r):
                f = random_multipoly(rng, Q, arity, rng.randint(0, 2), rng.randint(1, 3))
                factors.append(f if not f.is_zero else MultiPoly.const(Q, arity, 1))
            groups.append(factors)
            prod = MultiPoly.const(Q, arity, 1)
            for f in factors:
                prod = prod.mul(f)
            want = want.add(prod)
        pairs = fischer_rewrite(groups)
        assert len(pairs) <= k * 2 ** r
        acc = MultiPoly.zero(Q, arity)
        for c, h in pairs:
            acc = acc.add(poly_pow(h, r).scale(c))
        assert acc == want, f"instance {i} (r={r})"


@criterion(9, "componentwise affine powers have cone-closed greedy bases (300)")
def test_criterion_9_diag_power_basis():
    worked = diag_power_vectorpoly(Q, [[1, 1], [1, 2]], 2)
    assert least_basis(worked, (0, 0)) == [(0, 0), (0, 1)]
    assert is_cone_closed(least_basis(worked, (0, 0)))

    rng = random.Random(SEED + 9)
    done = 0
    while done < 299:
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        d = rng.randint(0, 5)
        rows = [[FP.random(rng) for _ in range(n)] for _ in range(k)]
        vp = diag_power_vectorpoly(FP, rows, d)
        if vp.is_zero:
            continue
        assert is_cone_closed(least_basis(vp, (0,) * n))
        done += 1


@criterion(10, "leading-monomial cone size is bounded by the derivative dimension (500)")
def test_criterion_10_leading_monomial_bound():
    rng = random.Random(SEED + 10)
    done = 0
    while done < 500:
        n = rng.randint(1, 4)
        p = random_multipoly(rng, Q, n, rng.randint(0, 5), rng.randint(1, 6))
        if p.is_zero:
            continue
        assert cone_size(leading_monomial(p)) <= pd_space_dim(p)
        done += 1


if __name__ == "__main__":
    failures = 0
    for fn in _registry:
        try:
            fn()
        except BaseException as exc:  # keep going so every line prints
            failures += 1
            print(f"  error: {exc}", file=sys.stderr)
    sys.exit(1 if failures else 0)
