import random
from fractions import Fraction

import pytest

from conepit import pit
from conepit.circuits import CircuitBuilder, Oracle, dense_expand
from conepit.errors import BadParameters, TooLarge, VerificationFailed
from conepit.extraction import FilteredOracle, extract_coefficient
from conepit.fields import Field
from conepit.generators import random_circuit, random_diagonal
from conepit.pit import NONZERO, ZERO, PitVerdict, brute_force_pit, low_cone_pit, splitmix64, sz_pit
from conepit.polys import deglex_key, enumerate_low_cone, low_cone_count_bound

Q = Field.rationals()
FP = Field.default_prime()


def zero_circuit_oracle(field):
    # (x1+x2)^2 - x1^2 - 2 x1 x2 - x2^2
    b = CircuitBuilder(field, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1))])
    sq = b.pow(s, 2)
    parts = [
        (field.of(1), sq),
        (field.of(-1), b.pow(b.input(0), 2)),
        (field.of(-2), b.mul([b.input(0), b.input(1)])),
        (field.of(-1), b.pow(b.input(1), 2)),
    ]
    return Oracle(b.build(b.add(parts)))


def cube_oracle(field):
    b = CircuitBuilder(field, 2)
    s = b.add([(1, b.const(1)), (1, b.input(0)), (1, b.input(1))])
    return Oracle(b.build(b.pow(s, 3)))


def test_low_cone_pit_zero_example():
    for k in (1, 4, 8):
        assert low_cone_pit(zero_circuit_oracle(FP), k).outcome == ZERO


def test_low_cone_pit_constant_witness():
    v = low_cone_pit(cube_oracle(FP), 4)
    assert v.outcome == NONZERO
    assert v.witness == (0, 0)
    assert v.coefficient == 1


def test_low_cone_pit_statistics_within_budget():
    v = low_cone_pit(zero_circuit_oracle(FP), 8)
    assert v.monomials_tested <= low_cone_count_bound(2, 8)
    assert v.oracle_calls > 0


def test_low_cone_pit_witness_is_least_and_verified():
    rng = random.Random(37)
    for _ in range(30):
        D = random_diagonal(rng, FP, rng.randint(1, 3), rng.randint(1, 3), 3)
        oracle = D.as_oracle()
        k = sum(t.d + 1 for t in D.terms)
        verdict = low_cone_pit(oracle, k)
        truth = dense_expand(D.as_oracle())
        if verdict.outcome == NONZERO:
            assert truth.coefficient(verdict.witness) == verdict.coefficient
            low_cone = [e for e in truth.support() if e in set(
                __import__("conepit.polys", fromlist=["enumerate_low_cone"]).enumerate_low_cone(D.arity, k, oracle.degree))]
            if low_cone:
                assert verdict.witness == min(low_cone, key=deglex_key)
        else:
            assert truth.is_zero


def test_brute_force_pit_examples():
    assert brute_force_pit(zero_circuit_oracle(Q)).outcome == ZERO
    b = CircuitBuilder(Q, 2)
    o = Oracle(b.build(b.input(0)))
    v = brute_force_pit(o)
    assert v.outcome == NONZERO and v.witness == (1, 0) and v.coefficient == 1


def test_brute_force_matches_low_cone_on_valid_instances():
    rng = random.Random(41)
    for _ in range(40):
        D = random_diagonal(rng, FP, rng.randint(1, 4), rng.randint(1, 3), 4, force_zero=rng.random() < 0.3)
        k = sum(t.d + 1 for t in D.terms)
        a = low_cone_pit(D.as_oracle(), k)
        b = brute_force_pit(D.as_oracle())
        assert a.outcome == b.outcome


def test_completeness_with_verified_promise():
    # 500 random instances whose partial-derivative dimension is verified
    # to satisfy the promise; verdicts must then agree with ground truth.
    from conepit.polys import pd_space_dim

    rng = random.Random(43)
    done = 0
    while done < 500:
        D = random_diagonal(rng, FP, rng.randint(1, 3), rng.randint(1, 3), 4, force_zero=rng.random() < 0.2)
        k = sum(t.d + 1 for t in D.terms)
        truth = dense_expand(D.as_oracle())
        assert pd_space_dim(truth) <= k
        verdict = low_cone_pit(D.as_oracle(), k)
        assert verdict.outcome == (ZERO if truth.is_zero else NONZERO)
        done += 1


def test_splitmix64_reference_values():
    # First outputs for seed 1234567, from the reference splitmix64 stream.
    stream = splitmix64(1234567)
    got = [next(stream) for _ in range(3)]
    assert got == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_sz_pit_examples_and_determinism():
    assert sz_pit(zero_circuit_oracle(FP), 10, 0).outcome == ZERO

    b = CircuitBuilder(FP, 2)
    o = Oracle(b.build(b.add([(1, b.input(0)), (FP.neg(1), b.input(1))])))
    v = sz_pit(o, 20, 0)
    assert v.outcome == NONZERO
    assert v.witness is None
    again = sz_pit(Oracle(b.build(b.add([(1, b.input(0)), (FP.neg(1), b.input(1))]))), 20, 0)
    assert (v.outcome, v.coefficient, v.monomials_tested) == (again.outcome, again.coefficient, again.monomials_tested)

    b = CircuitBuilder(FP, 1)
    const = Oracle(b.build(b.const(1)))
    v = sz_pit(const, 5, 9)
    assert v.outcome == NONZERO and v.monomials_tested == 1


def test_sz_pit_over_rationals():
    assert sz_pit(zero_circuit_oracle(Q), 3, 7).outcome == ZERO


@pytest.mark.parametrize("trials", [0, -1])
def test_sz_pit_needs_a_trial(trials):
    # no point evaluated, so Zero would be untested
    b = CircuitBuilder(FP, 1)
    with pytest.raises(BadParameters):
        sz_pit(Oracle(b.build(b.const(1))), trials, 1)


def test_verdict_rendering():
    v = low_cone_pit(cube_oracle(FP), 4)
    text = v.render()
    assert text.startswith("NONZERO witness=1 coeff=1 tested=1 calls=")
    assert low_cone_pit(zero_circuit_oracle(FP), 4).render() == "ZERO"


def test_tiny_arity_at_high_degree():
    # (x + y + 1)^300: the constant term is the witness, read through the
    # weight row of 301 nodes
    b = CircuitBuilder(FP, 2)
    s = b.add([(1, b.input(0)), (1, b.input(1)), (1, b.const(1))])
    oracle = Oracle(b.build(b.pow(s, 300)))
    assert low_cone_pit(oracle, 2).render() == "NONZERO witness=1 coeff=1 tested=1 calls=301"


# ----------------------------------------------------------------------
# The shared evaluation plan against one extraction per monomial
# ----------------------------------------------------------------------

PLAN_FIELDS = (FP, Field.prime((1 << 31) - 1), Field.prime(7), Field.prime((1 << 89) - 1), Q)


def reference_low_cone_pit(oracle, k):
    """low_cone_pit as one independent extract_coefficient per monomial."""
    start = oracle.calls
    tested = 0
    for e in enumerate_low_cone(oracle.arity, k, dcap=oracle.degree):
        tested += 1
        c = extract_coefficient(oracle, e)
        if c != 0:
            return PitVerdict(NONZERO, e, c, tested, oracle.calls - start)
    return PitVerdict(ZERO, None, None, tested, oracle.calls - start)


def plan_instances(field, rng):
    """Gate and diagonal circuits over ``field``, zero and nonzero, as
    (oracle factory, low-cone bound k).  Degrees stay below 6 so F_7
    qualifies."""
    out = []
    for _ in range(4):
        n = rng.randint(1, 4)
        C = random_circuit(rng, field, n, rng.randint(2, 8), 4)
        out.append((lambda C=C: Oracle(C), rng.choice((4, 8, 16))))
        D = random_diagonal(rng, field, n, rng.randint(1, 4), 3, force_zero=rng.random() < 0.5)
        out.append((D.as_oracle, sum(t.d + 1 for t in D.terms)))
        Z = random_diagonal(rng, field, n, rng.randint(2, 4), 3, force_zero=True).to_circuit()
        out.append((lambda Z=Z: Oracle(Z), 8))
    return out


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=lambda F: F.spec)
def test_plan_matches_per_monomial_extraction(field):
    rng = random.Random(53 if field.p is None else field.p % 1000)
    outcomes = set()
    for make_oracle, k in plan_instances(field, rng):
        got = low_cone_pit(make_oracle(), k)
        want = reference_low_cone_pit(make_oracle(), k)
        assert got == want
        assert type(got.coefficient) is type(want.coefficient)
        assert got.render() == want.render()
        outcomes.add(got.outcome)
    assert outcomes == {ZERO, NONZERO}


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=lambda F: F.spec)
def test_plan_evaluates_each_distinct_point_once(field):
    rng = random.Random(59 if field.p is None else field.p % 997)
    for make_oracle, k in plan_instances(field, rng):
        oracle = make_oracle()
        verdict = low_cone_pit(oracle, k)
        # every layer up to the witness's total degree is prefetched whole
        last = sum(verdict.witness) if verdict.outcome == NONZERO else oracle.degree
        walked = [e for e in enumerate_low_cone(oracle.arity, k, dcap=oracle.degree) if sum(e) <= last]
        requested = [pt for e in walked for pt in FilteredOracle(oracle, e).queries()[0]]
        assert oracle.calls == len(set(requested))
        if verdict.outcome == ZERO:
            assert oracle.calls <= verdict.oracle_calls == len(requested)
        else:
            assert verdict.oracle_calls <= len(requested)


def test_plan_prefetches_the_witness_layer_whole():
    # x5 in arity 5: the witness opens layer 1 in deg-lex order, and the
    # other four monomials of the layer are prefetched too, so distinct
    # evaluations exceed the request count.
    b = CircuitBuilder(FP, 5)
    oracle = Oracle(b.build(b.input(4)), degree=2)
    verdict = low_cone_pit(oracle, 2)
    assert (verdict.witness, verdict.coefficient, verdict.monomials_tested) == ((0, 0, 0, 0, 1), 1, 2)
    assert verdict.oracle_calls == 3 + 6
    assert oracle.calls == 3 + 5 * 2 > verdict.oracle_calls


def test_budget_overrun_is_verification_failure(monkeypatch):
    real = pit.enumerate_low_cone
    monkeypatch.setattr(pit, "enumerate_low_cone", lambda n, k, dcap=None: [e for e in real(n, k, dcap) for _ in range(4)])
    with pytest.raises(VerificationFailed, match="cone-count bound"):
        low_cone_pit(zero_circuit_oracle(FP), 1)


def test_over_guard_degree_is_refused_before_enumerating(monkeypatch):
    # (d + 1)^2 > EXTRACTION_GUARD already for the constant monomial, so the
    # test must refuse before it walks the low cone
    def walk(n, k, dcap=None):
        raise AssertionError("enumerated the low cone")

    monkeypatch.setattr(pit, "enumerate_low_cone", walk)
    b = CircuitBuilder(FP, 1)
    oracle = Oracle(b.build(b.input(0)), degree=10**6)
    with pytest.raises(TooLarge):
        low_cone_pit(oracle, 2)
    assert oracle.calls == 0


def test_the_table_over_q_holds_the_kernel_ints(monkeypatch):
    # integer query points into circuits over Q, with integral and with
    # rational weights (x y = ((x + y)^2 - (x - y)^2) / 4): the low-cone
    # table keeps the kernel's ints, and only a coefficient is a Fraction
    tables = []
    init = pit._Table.__init__
    monkeypatch.setattr(pit._Table, "__init__", lambda self, oracle: tables.append(self) or init(self, oracle))
    b = CircuitBuilder(Q, 2)
    x, y = b.input(0), b.input(1)
    plus, minus = b.pow(b.add([(1, x), (1, y)]), 2), b.pow(b.add([(1, x), (-1, y)]), 2)
    quarter = Oracle(b.build(b.add([(Fraction(1, 4), plus), (Fraction(-1, 4), minus), (-1, b.mul([x, y]))])))
    assert low_cone_pit(quarter, 8).render() == low_cone_pit(zero_circuit_oracle(Q), 8).render() == "ZERO"
    nonzero = low_cone_pit(cube_oracle(Q), 4)
    assert nonzero.render() == "NONZERO witness=1 coeff=1 tested=1 calls=4" and type(nonzero.coefficient) is Fraction
    assert len(tables) == 3
    for table in tables:
        assert {type(x) for pt in table.values for x in pt} == {int}
        assert {type(v) for v in table.values.values()} == {int}
