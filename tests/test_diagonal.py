import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepit import diagonal
from conepit.circuits import Oracle, dense_expand
from conepit.conebasis import least_basis
from conepit.diagonal import (
    DiagonalCircuit,
    PsiMap,
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
from conepit.linalg import RowReducer, matrix_rank
from conepit.pit import NONZERO, ZERO, brute_force_pit
from conepit.polys import MultiPoly, is_cone_closed, pd_space_dim
from reference import poly_pow, reference_diag_pit, reference_psi

Q = Field.rationals()
FP = Field.default_prime()
F2 = Field.prime(2)


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


def _forms_dependent_only_mod_2(rng):
    """Integer forms u, v and u + v + 2w, of rank 3 over Q and 2 mod 2."""
    while True:
        u, v, w = ([rng.randint(-3, 3) for _ in range(4)] for _ in range(3))
        forms = [u, v, [a + b + 2 * c for a, b, c in zip(u, v, w)]]
        if [matrix_rank([[F.of(x) for x in f] for f in forms], F) for F in (Q, F2)] == [3, 2]:
            return forms


def _circuits_with_repeated_forms(field, rng):
    """30 forced-zero circuits, every form twice; over Q with fractional
    forms, and over F_2 with forms that are dependent only mod 2 as well."""
    out = []
    for _ in range(30):
        if field.p == 2:
            out.append(DiagonalCircuit.make(field, 4, [(1, rng.randint(0, 1), f, 1) for f in _forms_dependent_only_mod_2(rng) for _ in (0, 1)]))
            continue
        D = random_diagonal(rng, field, rng.randint(1, 5), rng.randint(2, 8), 3, force_zero=True)
        if field.p is None:  # a pair shares its denominator, so its form stays one
            D = DiagonalCircuit.make(Q, D.arity, [(t.c, t.const, [a / (2 + i // 2) for a in t.coeffs], t.d) for i, t in enumerate(D.terms)])
        out.append(D)
    return out


@pytest.mark.parametrize("field", [FP, Field.prime(7), Q, F2], ids=lambda F: F.spec)
def test_repeated_forms_leave_psi_and_rank_as_they_were(field):
    """Inserting each distinct form once, by the inverse-free elimination,
    gives the rank, basis rows and pivots of a RowReducer fed every form."""
    for D in _circuits_with_repeated_forms(field, random.Random(29)):
        red = RowReducer(field)
        every = tuple(i + 1 for i, t in enumerate(D.terms) if red.insert(list(t.coeffs)))
        assert rank_of_forms(D) == (red.rank, every)
        if red.rank:
            assert build_psi(D) == PsiMap(D.arity, tuple(sorted(red.pivots)))


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


def _assert_diag_pit_matches_twin(D):
    """``diag_pit`` against ``reference_diag_pit``: one verdict, rendering
    and call count, an oracle under the input's degree, and a reduced
    program equal at random points to the image under ``reference_psi``,
    whose pivots come from ``RowReducer``."""
    with mock.patch.object(diagonal, "low_cone_pit", wraps=diagonal.low_cone_pit) as spy:
        verdict = diag_pit(D)
    twin, twin_oracle = reference_diag_pit(D)
    assert verdict == twin and verdict.render() == twin.render()  # outcome, witness, tested= and calls=
    if twin_oracle is None:
        assert not spy.called
        return
    oracle = spy.call_args.args[0]
    assert (oracle.calls, oracle.degree, oracle.arity) == (twin_oracle.calls, D.degree(), twin_oracle.arity)
    reduced, F, rng = oracle.circuit, D.field, random.Random(len(D.terms))
    assert isinstance(reduced, DiagonalCircuit)
    pts = [[F.random(rng) if F.p else Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(reduced.arity)] for _ in range(8)]
    assert reduced.program.evaluate_many(pts) == reference_psi(D).apply(D).program.evaluate_many(pts)
    assert [reduced.evaluate(pt) for pt in pts] == reduced.program.evaluate_many(pts)


F13 = Field.prime(13)
TWIN_CASES = {
    "repeated forms": DiagonalCircuit.make(FP, 3, [(2, 1, (1, 2, 3), 2), (5, 0, (1, 2, 3), 3), (1, 1, (1, 2, 3), 2), (4, 7, (0, 1, 1), 1)]),
    "rank 0": DiagonalCircuit.make(Q, 2, [(Fraction(1, 2), 3, (0, 0), 2), (1, Fraction(-2, 3), (0, 0), 1)]),
    "more variables than forms": DiagonalCircuit.make(F13, 6, [(3, 1, (1, 0, 2, 0, 5, 1), 2), (1, 0, (0, 4, 0, 0, 0, 7), 3)]),
    "all terms cancel at degree 3": DiagonalCircuit.make(
        Q, 2, [(Fraction(3, 4), 1, (Fraction(1, 2), 1), 3), (2, 0, (0, 1), 2), (Fraction(-3, 4), 1, (Fraction(1, 2), 1), 3), (-2, 0, (0, 1), 2)]
    ),
}


@pytest.mark.parametrize("name", TWIN_CASES)
def test_diag_pit_matches_its_unfused_twin_on_named_cases(name):
    _assert_diag_pit_matches_twin(TWIN_CASES[name])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 1 << 32),
    field=st.sampled_from([FP, F13, F2, Field.prime(3), Q]),
    shape=st.tuples(st.integers(0, 6), st.integers(1, 4), st.integers(0, 7), st.integers(1, 4)),
    cancel=st.booleans(),
)
def test_diag_pit_matches_its_unfused_twin(seed, field, shape, cancel):
    """Random circuits drawing their forms from a small pool (so forms
    repeat, some are 0, and arity may exceed the rank), over Q with
    fractional values; with ``cancel`` every term meets its negation."""
    rng = random.Random(seed)
    arity, pool, count, top = shape
    top = min(top, field.p - 1) if field.p else top

    def value():
        return field.random(rng) if field.p else Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    forms = [[value() if rng.random() < 0.7 else 0 for _ in range(arity)] for _ in range(pool)]
    terms = [(value(), value(), rng.choice(forms), rng.randint(0, top)) for _ in range(count)]
    if cancel:
        terms += [(field.neg(field.of(c)), const, form, d) for c, const, form, d in terms]
    _assert_diag_pit_matches_twin(DiagonalCircuit.make(field, arity, terms))


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 1 << 32),
    field=st.sampled_from([Q, FP, Field.prime(7)]),
    shape=st.tuples(st.integers(0, 4), st.integers(0, 6), st.integers(1, 5)),
    force_zero=st.booleans(),
    den=st.integers(1, 12),
)
def test_diagonal_json_round_trip_random(seed, field, shape, force_zero, den):
    arity, terms, max_power = shape
    D = random_diagonal(random.Random(seed), field, arity, terms, max_power, force_zero=force_zero)
    if field.p is None:
        # non-integral rationals too: they render as "a/b"
        D = DiagonalCircuit.make(field, arity, [(t.c / den, t.const / den, [a / den for a in t.coeffs], t.d) for t in D.terms])
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
