import random

import pytest

from conepit.circuits import Oracle, dense_expand
from conepit.conebasis import least_basis
from conepit.diagonal import (
    DiagonalCircuit,
    build_psi,
    diag_pit,
    diag_power_vectorpoly,
    diagonal_from_json,
    diagonal_to_json,
    pd_dim_bound,
    rank_of_forms,
)
from conepit.errors import CharTooSmall, RankZero
from conepit.fields import Field
from conepit.generators import random_diagonal
from conepit.linalg import matrix_rank
from conepit.pit import NONZERO, ZERO, brute_force_pit
from conepit.polys import MultiPoly, is_cone_closed, pd_space_dim
from reference import poly_pow

Q = Field.rationals()
FP = Field.default_prime()


def test_rank_of_forms_examples():
    D = DiagonalCircuit.make(Q, 2, [(1, 1, (1, 0), 1), (1, 2, (1, 0), 1), (1, 0, (0, 1), 1)])
    assert rank_of_forms(D) == (2, (1, 3))

    consts = DiagonalCircuit.make(Q, 2, [(1, 1, (0, 0), 2), (1, 5, (0, 0), 3)])
    assert rank_of_forms(consts) == (0, ())

    full = DiagonalCircuit.make(Q, 3, [(1, 0, (1, 0, 0), 1), (1, 0, (0, 1, 0), 1), (1, 0, (0, 0, 1), 1)])
    assert rank_of_forms(full) == (3, (1, 2, 3))


def test_build_psi_examples():
    D = DiagonalCircuit.make(Q, 3, [(1, 0, (1, 0, 0), 2), (1, 0, (0, 1, 0), 2)])
    psi = build_psi(D)
    assert psi.columns == (0, 1)
    reduced = psi.apply(D)
    assert reduced.arity == 2

    D1 = DiagonalCircuit.make(Q, 2, [(1, 0, (1, 1), 3)])
    psi1 = build_psi(D1)
    assert psi1.columns == (0,)
    assert psi1.apply(D1).terms[0].coeffs == (Q.one(),)

    consts = DiagonalCircuit.make(Q, 1, [(1, 4, (0,), 2)])
    with pytest.raises(RankZero):
        build_psi(consts)


def test_build_psi_keeps_basis_independent():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 6)
        D = random_diagonal(rng, FP, n, rng.randint(1, 6), 4)
        r, basis_rows = rank_of_forms(D)
        if r == 0:
            continue
        psi = build_psi(D)
        reduced = psi.apply(D)
        rows = [list(reduced.terms[i - 1].coeffs) for i in basis_rows]
        assert matrix_rank(rows, FP) == r


def test_diag_pit_examples():
    D = DiagonalCircuit.make(FP, 2, [(1, 1, (1, 1), 2), (FP.neg(1), 1, (1, 1), 2)])
    assert diag_pit(D).outcome == ZERO

    D2 = DiagonalCircuit.make(FP, 2, [(1, 1, (1, 0), 2), (1, 1, (0, 1), 2)])
    v = diag_pit(D2)
    assert v.outcome == NONZERO
    assert v.coefficient == 2  # constant term

    with pytest.raises(CharTooSmall):
        diag_pit(DiagonalCircuit.make(Field.prime(3), 1, [(1, 0, (1,), 5)]))


def test_diag_pit_constant_instances():
    zero = DiagonalCircuit.make(FP, 2, [])
    assert diag_pit(zero).outcome == ZERO
    c = DiagonalCircuit.make(FP, 2, [(2, 3, (0, 0), 2)])
    v = diag_pit(c)
    assert v.outcome == NONZERO and v.coefficient == 18


def test_diag_pit_matches_brute_force():
    from conepit.polys import low_cone_count_bound

    rng = random.Random(47)
    for i in range(60):
        n = rng.randint(1, 5)
        D = random_diagonal(rng, FP, n, rng.randint(1, 4), 4, force_zero=(i % 5 == 0))
        verdict = diag_pit(D)
        assert verdict.outcome == brute_force_pit(D.as_oracle()).outcome
        r, _ = rank_of_forms(D)
        if r > 0:
            assert verdict.monomials_tested <= low_cone_count_bound(r, pd_dim_bound(D)) * (1 + 1e-9)


def test_pd_dim_bound_is_sound():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(1, 3)
        D = random_diagonal(rng, Q, n, rng.randint(1, 3), 3)
        poly = dense_expand(D.as_oracle())
        if poly.is_zero:
            continue
        assert pd_space_dim(poly) <= pd_dim_bound(D)


def test_diag_power_vectorpoly_examples():
    vp = diag_power_vectorpoly(Q, [[1]], 2)
    assert vp.coefficient((0,)) == (1,)
    assert vp.coefficient((1,)) == (2,)
    assert vp.coefficient((2,)) == (1,)

    vp2 = diag_power_vectorpoly(Q, [[1, 1], [1, 2]], 2)
    want = {
        (0, 0): (1, 1),
        (1, 0): (2, 2),
        (0, 1): (2, 4),
        (1, 1): (2, 4),
        (2, 0): (1, 1),
        (0, 2): (1, 4),
    }
    assert {e: vp2.coefficient(e) for e in vp2.support()} == {e: tuple(map(Q.of, v)) for e, v in want.items()}

    vp0 = diag_power_vectorpoly(Q, [[3, 5], [7, 9]], 0)
    assert vp0.support() == [(0, 0)]
    assert vp0.coefficient((0, 0)) == (1, 1)


def test_diag_power_worked_basis():
    vp = diag_power_vectorpoly(Q, [[1, 1], [1, 2]], 2)
    basis = least_basis(vp, (0, 0))
    assert basis == [(0, 0), (0, 1)]
    assert is_cone_closed(basis)


def test_diag_power_greedy_basis_cone_closed_random():
    rng = random.Random(59)
    for _ in range(60):
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        d = rng.randint(0, 5)
        rows = [[FP.random(rng) for _ in range(n)] for _ in range(k)]
        vp = diag_power_vectorpoly(FP, rows, d)
        if vp.is_zero:
            continue
        assert is_cone_closed(least_basis(vp, (0,) * n))


def test_psi_preserves_nonzeroness_random():
    # 500 random nonzero circuits: the coordinate-selected image expands to
    # a nonzero polynomial.
    rng = random.Random(61)
    done = 0
    while done < 500:
        n = rng.randint(1, 5)
        D = random_diagonal(rng, FP, n, rng.randint(1, 4), 4)
        r, _ = rank_of_forms(D)
        if r == 0 or brute_force_pit(D.as_oracle()).outcome == ZERO:
            continue
        reduced = build_psi(D).apply(D)
        assert brute_force_pit(reduced.as_oracle()).outcome == NONZERO
        done += 1


def test_diagonal_json_round_trip():
    D = DiagonalCircuit.make(FP, 3, [(4, 1, (1, 0, 2), 3), (FP.neg(2), 0, (0, 1, 1), 5)])
    assert diagonal_from_json(diagonal_to_json(D)) == D


def test_diagonal_evaluate_many_matches_scalar():
    rng = random.Random(67)
    D = random_diagonal(rng, FP, 4, 3, 5)
    pts = [[FP.random(rng) for _ in range(4)] for _ in range(50)]
    assert D.evaluate_many(pts) == [D.evaluate(pt) for pt in pts]


def test_to_circuit_agrees():
    # reference: sum c_i * (const_i + <a_i, x>)^(d_i) expanded with MultiPoly
    # arithmetic, which never goes through to_circuit()
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randint(1, 3)
        D = random_diagonal(rng, Q, n, 2, 3)
        ref = MultiPoly.zero(Q, n)
        for t in D.terms:
            form = MultiPoly.const(Q, n, t.const)
            for i, a in enumerate(t.coeffs):
                form = form.add(MultiPoly.variable(Q, n, i).scale(a))
            ref = ref.add(poly_pow(form, t.d).scale(t.c))
        C = D.to_circuit()
        for _ in range(5):
            pt = [Q.random(rng) for _ in range(n)]
            assert C.evaluate(pt) == ref.evaluate(pt)
        assert dense_expand(Oracle(C)) == ref
        assert dense_expand(D.as_oracle()) == ref
