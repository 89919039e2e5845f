import gc
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepit.circuits import CircuitBuilder, Oracle, dense_expand
from conepit import hsg, linalg
from conepit.errors import (
    ArityMismatch,
    ArityTooSmall,
    BadParameters,
    CharTooSmall,
    DesignTooSmall,
    RaggedInput,
    TooLarge,
    ValidationError,
    VerificationFailed,
)
from conepit.fields import DensePoly, Field
from conepit.generators import random_circuit, random_hsg, random_multipoly
from conepit.hsg import (
    HsgTuple,
    annihilator_delta,
    build_annihilator,
    fischer_rewrite,
    greedy_design,
    hard_map_substitution,
    hsg_from_json,
    hsg_to_json,
    local_kronecker,
    scatter_polynomial,
)
from conepit.pit import brute_force_pit
from conepit.polys import MultiPoly, leading_monomial
from reference import circuit_from_multipoly, kronecker_exponent_image, pairwise_design_ok, poly_pow, reference_annihilator

Q = Field.rationals()
FP = Field.default_prime()

Y = DensePoly.make(Q, [0, 1])


def check_annihilator(t, g):
    n, d = t.arity, max(p.degree() for p in t.polys)
    delta = annihilator_delta(n, d)
    assert not g.is_zero
    assert t.compose(g).is_zero
    assert all(x < 2 * delta for x in g.individual_degrees())
    assert g.degree() == delta * n
    return delta


def test_annihilator_y_y2():
    t = HsgTuple.make(Q, [Y, Y.pow(2)])
    g = build_annihilator(t)
    check_annihilator(t, g)
    # x1^2 - x2 lies in the kernel of the same system
    witness = MultiPoly.make(Q, 2, {(2, 0): 1, (0, 1): -1})
    assert t.compose(witness).is_zero


def test_annihilator_y_y():
    t = HsgTuple.make(Q, [Y, Y])
    g = build_annihilator(t)
    check_annihilator(t, g)
    witness = MultiPoly.make(Q, 2, {(1, 0): 1, (0, 1): -1})
    assert t.compose(witness).is_zero


def test_annihilator_integrality_and_sign():
    rng = random.Random(5)
    for _ in range(10):
        t = random_hsg(rng, Q, rng.choice((2, 3)), rng.randint(1, 3))
        g = build_annihilator(t)
        check_annihilator(t, g)
        for c in g.terms.values():
            assert isinstance(c, Fraction) and c.denominator == 1
        assert g.terms[leading_monomial(g)] > 0


def test_annihilator_over_prime_field():
    t = HsgTuple.make(FP, [DensePoly.make(FP, [1, 2]), DensePoly.make(FP, [0, 0, 5])])
    g = build_annihilator(t)
    assert not g.is_zero
    assert t.compose(g).is_zero


def test_annihilator_arity_too_small():
    with pytest.raises(ArityTooSmall):
        build_annihilator(HsgTuple.make(Q, [Y]))


def test_annihilator_rejects_all_constant():
    with pytest.raises(BadParameters):
        build_annihilator(HsgTuple.make(Q, [DensePoly.const(Q, 2), DensePoly.const(Q, 3)]))


P89 = "p:618970019642690137449562111"  # 2^89 - 1, outside both uint64 kernels

# Renderings of build_annihilator before its products and elimination moved
# onto numpy object arrays.  The Q tuples have non-integer coefficients, so
# they exercise the common-denominator paths of DensePoly.mul and of the
# integer kernel.
PINNED_ANNIHILATORS = [
    ("q", [["1/2", "0", "3/4"], ["-2/3", "5"]], "154*x1*x2^7 + 12*x1*x2^8 + -300*x1^2*x2^7 + 9*x1*x2^9"),
    ("q", [["0", "1/3"], ["1/5", "-7/2", "2/9"]], "2*x2^8 + -10*x2^9 + -105*x1*x2^8 + 20*x1^2*x2^8"),
    ("q", [["1/2", "1"], ["0", "2/3"], ["-1", "0", "3/7"]], "-1*x2^3*x3^5 + -3*x2^4*x3^5 + 2*x1*x2^3*x3^5"),
    (
        "q",
        [["3/8", "-1/6", "0", "5/4"], ["7", "1/10", "-2/5", "0", "11/3"]],
        "1562651953*x2^14 + -670309390*x2^15 + 23569428*x1*x2^14 + 95789250*x2^16 + -5605200*x1*x2^15"
        " + 10801584*x1^2*x2^14 + -4556250*x2^17 + 8078400*x1^2*x2^15 + -128589120*x1^3*x2^14"
        " + 91998720*x1^4*x2^14",
    ),
    (
        P89,
        [["3", "0", "5"], ["123456789012345678901234567", "-1", "0", "2"]],
        "266255048205546562483968340*x2^11 + 597894087380668350657196161*x2^12"
        " + 154742504910672534362390591*x1*x2^11 + 464227514732017603087171552*x2^13"
        " + 618970019642690137449562097*x1^2*x2^11 + x1^3*x2^11",
    ),
    (
        P89,
        [["1", "2"], ["0", "-5", "7"], ["1/3", "0", "0", "9"]],
        "196698927524936515982513905*x2^4*x3^6 + 176848577040768610699874885*x2^4*x3^7"
        " + 310387298479716337146719194*x2^5*x3^6 + 363321566437497417900423244*x1*x2^4*x3^6"
        " + 606337978425492379542428190*x2^6*x3^6 + x1*x2^4*x3^7",
    ),
]


@pytest.mark.parametrize("spec, polys, rendered", PINNED_ANNIHILATORS)
def test_pinned_annihilators(spec, polys, rendered):
    F = Field.from_spec(spec)
    t = HsgTuple.make(F, [DensePoly.make(F, p) for p in polys])
    g = build_annihilator(t)
    assert g.render() == rendered
    check_annihilator(t, g)


TWIN_FIELDS = [Q, Field.prime(7), Field.prime(101), FP, Field.from_spec(P89)]


def outcome(build, t):
    """The rendered annihilator, or the VerificationFailed message."""
    try:
        return build(t).render()
    except VerificationFailed as exc:
        return f"VerificationFailed: {exc}"


@pytest.mark.parametrize("field", TWIN_FIELDS, ids=lambda F: F.spec)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1 << 32), arity=st.integers(2, 4), data=st.data())
def test_prefix_solve_matches_the_full_system(field, seed, arity, data):
    """The one-pass solves over F_p and over Q give the annihilator of one
    solve of the whole system, or fail the same way."""
    degree = data.draw(st.integers(1, {2: 5, 3: 3, 4: 2}[arity]))
    t = random_hsg(random.Random(seed), field, arity, degree)
    assert outcome(build_annihilator, t) == outcome(reference_annihilator, t)


SMALL_PRIMES = [Field.prime(2), Field.prime(3), Field.prime(7), Field.prime(101)]


@pytest.mark.parametrize("field", SMALL_PRIMES + [Q], ids=lambda F: F.spec)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_pass_solve_with_constant_entries_matches_the_full_system(field, data):
    """Over small primes and Q, with one or more constant univariates, the
    one-pass solve gives the annihilator of one solve of the whole
    system, or fails the same way.  Over Q the constants are integral or
    fractional, so the integer columns of e and of e + x_i for a constant
    x_i are proportional, and equal for a constant of 1 or -1."""
    arity = data.draw(st.integers(2, 3))
    degree = {2: 3, 3: 2}[arity]
    constant = data.draw(st.sets(st.integers(0, arity - 1), min_size=1, max_size=arity - 1))
    if field.is_rational:
        coeff = st.one_of(st.integers(-2, 2), st.fractions(min_value=-4, max_value=4, max_denominator=5))
    else:
        coeff = st.integers(0, field.p - 1)
    polys = [
        data.draw(st.lists(coeff, min_size=1, max_size=1 if i in constant else degree + 1).filter(any))
        for i in range(arity)
    ]
    assume(any(len(DensePoly.make(field, p).coeffs) > 1 for p in polys))
    t = HsgTuple.make(field, [DensePoly.make(field, p) for p in polys])
    assert outcome(build_annihilator, t) == outcome(reference_annihilator, t)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rational_denominators_match_the_full_system(data):
    """Over Q, univariates with denominators give integer columns scaled
    by the products of the denominators; the kernel vector scaled back is
    the one solve of the whole system over the rationals."""
    arity = data.draw(st.integers(2, 3))
    degree = {2: 3, 3: 2}[arity]
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    polys = [data.draw(st.lists(coeff, min_size=1, max_size=degree + 1).filter(any)) for _ in range(arity)]
    assume(max(map(len, polys)) > 1 and any(c.denominator != 1 for p in polys for c in p))
    t = HsgTuple.make(Q, [DensePoly.make(Q, p) for p in polys])
    assert build_annihilator(t).render() == reference_annihilator(t).render()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_annihilators_over_q_lead_with_a_positive_coefficient(data):
    """The support is read in ascending deg-lex order, so the first
    dependent column holds the deg-lex-largest monomial kept, and its
    kernel entry is 1 times positive factors: whatever the univariates'
    signs, the leading coefficient is positive with no flip."""
    arity = data.draw(st.integers(2, 3))
    degree = {2: 3, 3: 2}[arity]
    coeff = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6))
    polys = [DensePoly.make(Q, data.draw(st.lists(coeff, min_size=1, max_size=degree + 1).filter(any))) for _ in range(arity)]
    assume(max(p.degree() for p in polys) > 0)
    g = build_annihilator(HsgTuple.make(Q, polys))
    assert g.terms[leading_monomial(g)] > 0


def test_rational_solve_is_one_lazy_pass(monkeypatch):
    """Over Q no whole-matrix elimination runs, and no column past the
    first dependent one is built."""
    t = HsgTuple.make(Q, [DensePoly.make(Q, ["1/2", 2, 3]), DensePoly.make(Q, [0, -1, 0, "4/3"])])
    want = reference_annihilator(t).render()

    def refuse(*args):
        raise AssertionError("whole-matrix elimination on the one-pass path")

    monkeypatch.setattr(linalg, "bareiss_echelon", refuse)
    monkeypatch.setattr(linalg, "integer_nullspace_canonical", refuse)
    reads, vecs = [], []

    def counted(columns):
        vecs.append(linalg.first_integer_dependency(c for c in columns if not reads.append(c)))
        return vecs[-1]

    monkeypatch.setattr(hsg, "first_integer_dependency", counted)
    assert build_annihilator(t).render() == want
    assert len(reads) == len(vecs[0]) == 10 < 2 * 3 * annihilator_delta(2, 3) + 1


@pytest.mark.parametrize("field", [Q, FP], ids=lambda F: F.spec)
def test_images_leave_no_reference_cycle(field):
    t = HsgTuple.make(field, [DensePoly.make(field, ["1/2", 2, 3]), DensePoly.make(field, [0, 1, 5])])
    gc.collect()
    gc.disable()
    try:
        t.monomial_images([(2, 1), (1, 3), (0, 0)])
        build_annihilator(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hsg_tuple_validation_and_json():
    with pytest.raises(ValidationError):
        HsgTuple.make(Q, [Y, DensePoly.zero(Q)])
    t = HsgTuple.make(Q, [Y, Y.pow(2)])
    assert hsg_from_json(hsg_to_json(t)) == t


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 1 << 32),
    field=st.sampled_from([Q, FP, Field.prime(7)]),
    arity=st.integers(1, 4),
    degree=st.integers(0, 6),
)
def test_hsg_json_round_trip(seed, field, arity, degree):
    t = random_hsg(random.Random(seed), field, arity, degree)
    assert hsg_from_json(hsg_to_json(t)) == t


def test_greedy_design_examples():
    fam = greedy_design(5, 2, 1)
    assert len(fam.subsets) == comb(5, 2)
    fam = greedy_design(4, 3, 2)
    assert len(fam.subsets) == 4
    with pytest.raises(BadParameters):
        greedy_design(3, 3, 1)
    with pytest.raises(TooLarge):
        greedy_design(60, 25, 5)


def test_greedy_design_matches_naive_greedy():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 5)
        l = rng.randint(n + 1, n + 6)
        d = rng.randint(1, n - 1)
        fam = greedy_design(l, n, d)
        # replay the quadratic greedy
        admitted = []
        for cand in itertools.combinations(range(l), n):
            if all(len(set(cand) & set(j)) <= d for j in admitted):
                admitted.append(cand)
        assert list(fam.subsets) == admitted
        assert pairwise_design_ok(fam.subsets, n, d)


def test_greedy_design_count_guarantee():
    for l, n, d in ((41, 2, 1), (46, 3, 2), (54, 4, 3)):
        assert l * d > 10 * n * n
        fam = greedy_design(l, n, d)
        assert len(fam.subsets) >= 2 ** (d / 10)


def test_scatter_polynomial():
    q = MultiPoly.make(Q, 2, {(1, 2): 3})
    s = scatter_polynomial(q, [1, 3], 5)
    assert s == MultiPoly.make(Q, 5, {(0, 1, 0, 2, 0): 3})


def test_hard_map_substitution_disjoint_sums():
    b = CircuitBuilder(Q, 2)
    C = b.build(b.mul([b.input(0), b.input(1)]))
    fam = greedy_design(5, 2, 1)
    q = MultiPoly.make(Q, 2, {(1, 0): 1, (0, 1): 1})  # sum of the block variables
    sub = hard_map_substitution(C, q, fam)
    assert sub.arity == 5
    truth = dense_expand(Oracle(sub))
    s0 = scatter_polynomial(q, sorted(fam.subsets[0]), 5)
    s1 = scatter_polynomial(q, sorted(fam.subsets[1]), 5)
    assert truth == s0.mul(s1)


def test_hard_map_substitution_nonzero_and_zero():
    rng = random.Random(15)
    fam = greedy_design(6, 2, 1)
    for _ in range(10):
        C = random_circuit(rng, FP, 2, 5, 3)
        q = random_multipoly(rng, FP, 2, 2, 3)
        if q.is_zero:
            continue
        sub = hard_map_substitution(C, q, fam)
        direct = brute_force_pit(Oracle(C))
        if direct.outcome == "ZERO":
            assert brute_force_pit(Oracle(sub)).outcome == "ZERO"

    b = CircuitBuilder(FP, 2)
    Z = b.build(b.const(0))
    assert brute_force_pit(Oracle(hard_map_substitution(Z, q, fam))).outcome == "ZERO"


def test_hard_map_substitution_guards():
    b = CircuitBuilder(Q, 3)
    C = b.build(b.mul([b.input(0), b.input(2)]))
    fam = greedy_design(4, 3, 2)
    q2 = MultiPoly.make(Q, 2, {(1, 1): 1})
    with pytest.raises(ArityMismatch):
        hard_map_substitution(C, q2, fam)
    tiny = greedy_design(5, 2, 1)
    b = CircuitBuilder(Q, 11)
    C11 = b.build(b.input(10))
    with pytest.raises(DesignTooSmall):
        hard_map_substitution(C11, q2, tiny)


def test_fischer_examples():
    x1 = MultiPoly.variable(Q, 2, 0)
    x2 = MultiPoly.variable(Q, 2, 1)
    pairs = fischer_rewrite([[x1, x2]])
    assert len(pairs) == 2
    assert {c for c, _ in pairs} == {Fraction(1, 4), Fraction(-1, 4)}
    acc = MultiPoly.zero(Q, 2)
    for c, h in pairs:
        acc = acc.add(poly_pow(h, 2).scale(c))
    assert acc == x1.mul(x2)

    single = fischer_rewrite([[x1]])
    assert single == [(Q.one(), x1)]


def test_fischer_identity_random():
    rng = random.Random(19)
    for r in (2, 3, 4, 5):
        groups = []
        want = MultiPoly.zero(Q, 2)
        for _ in range(rng.randint(1, 3)):
            factors = [random_multipoly(rng, Q, 2, 1, 3) for _ in range(r)]
            factors = [f if not f.is_zero else MultiPoly.const(Q, 2, 1) for f in factors]
            groups.append(factors)
            prod = MultiPoly.const(Q, 2, 1)
            for f in factors:
                prod = prod.mul(f)
            want = want.add(prod)
        pairs = fischer_rewrite(groups)
        assert len(pairs) <= len(groups) * 2 ** r
        maxdeg = max(f.degree() for g in groups for f in g)
        acc = MultiPoly.zero(Q, 2)
        for c, h in pairs:
            assert h.degree() <= maxdeg
            acc = acc.add(poly_pow(h, r).scale(c))
        assert acc == want


def test_fischer_guards():
    x1 = MultiPoly.variable(Q, 2, 0)
    with pytest.raises(RaggedInput):
        fischer_rewrite([[x1, x1], [x1]])
    F3 = Field.prime(3)
    y = MultiPoly.variable(F3, 1, 0)
    with pytest.raises(CharTooSmall):
        fischer_rewrite([[y, y, y]])


def test_local_kronecker_examples():
    b = CircuitBuilder(Q, 4)
    C = b.build(b.mul([b.input(0), b.input(2)]))
    K = local_kronecker(C, 2)
    assert K.arity == 2
    assert dense_expand(Oracle(K)) == MultiPoly.make(Q, 2, {(2, 2): 1})

    b = CircuitBuilder(Q, 2)
    C = b.build(b.add([(1, b.input(0)), (1, b.input(1))]))
    K = local_kronecker(C, 1)
    assert K.arity == 2
    assert dense_expand(Oracle(K)) == MultiPoly.make(Q, 2, {(2, 0): 1, (0, 2): 1})


def test_local_kronecker_injective_on_multilinear():
    for n in range(1, 13):
        for beta in range(1, 5):
            images = set()
            for e in itertools.product((0, 1), repeat=n):
                img = kronecker_exponent_image(e, beta)
                assert img not in images
                images.add(img)


def test_local_kronecker_preserves_multilinear_nonzeroness():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        items = []
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 1) for _ in range(n))
            items.append((e, FP.random(rng)))
        p = MultiPoly.make(FP, n, items)
        if p.is_zero:
            continue
        K = local_kronecker(circuit_from_multipoly(p), 2)
        assert brute_force_pit(Oracle(K)).outcome == "NONZERO"


def test_deficit_monomial_past_the_caps_is_verification_failure():
    assert hsg._deficit_monomial(5, [1, 3, 2]) == (0, 3, 2)
    # The caps sum to 7: no vector of degree 8 fits under them.
    with pytest.raises(VerificationFailed, match="degree deficit"):
        hsg._deficit_monomial(8, [0, 3, 1, 3, 0])


def test_broken_invariant_is_verification_failure(monkeypatch):
    t = HsgTuple.make(Q, [DensePoly.make(Q, [0, 1]), DensePoly.make(Q, [0, 0, 1])])
    monkeypatch.setattr(hsg, "_smallest_vectors", lambda n, cap, count: [])
    with pytest.raises(VerificationFailed, match="support enumeration"):
        build_annihilator(t)
