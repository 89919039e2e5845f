import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conepit import extraction, pit, polys
from conepit.circuits import CircuitBuilder, Oracle, dense_expand
from conepit.diagonal import DiagonalCircuit, diag_pit
from conepit.errors import BadParameters, CharTooSmall, TooLarge, ValidationError, VerificationFailed
from conepit.extraction import CACHE_ENTRIES, FilteredOracle, query_set
from conepit.fastmod import PointBatch
from conepit.fields import Field
from conepit.generators import random_circuit, random_diagonal, random_diagonal_depth4
from conepit.pit import NONZERO, ZERO, brute_force_pit, low_cone_pit, splitmix64, sz_pit
from conepit.polys import cone_size, deglex_key, enumerate_low_cone, low_cone_count_bound
from reference import reference_enumerate_low_cone, reference_layer_points, reference_low_cone_pit, reference_queries

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


def x_plus_one(field=FP):
    b = CircuitBuilder(field, 1)
    return b.build(b.add([(1, b.input(0)), (1, b.const(1))]))


@pytest.mark.parametrize("degree", [-1, 1.5, True, "2"], ids=["-1", "1.5", "True", "'2'"])
@pytest.mark.parametrize(
    "tester",
    [lambda o: low_cone_pit(o, 3), brute_force_pit, lambda o: sz_pit(o, 4, 1), dense_expand],
    ids=["low_cone_pit", "brute_force_pit", "sz_pit", "dense_expand"],
)
def test_a_malformed_degree_bound_is_refused_before_any_tester_runs(tester, degree):
    # x + 1 is nonzero: a degree bound of -1 read as given made every tester
    # answer ZERO (and dense_expand the zero polynomial)
    with pytest.raises(ValidationError, match="^degree bound must be a natural number, got "):
        tester(Oracle(x_plus_one(), degree))


def test_a_numpy_integer_degree_bound_is_the_int_it_equals():
    for degree in (np.int64(3), np.uint8(3)):
        oracle = Oracle(x_plus_one(), degree)
        assert type(oracle.degree) is int and oracle.degree == 3
        assert low_cone_pit(oracle, 3) == low_cone_pit(Oracle(x_plus_one(), 3), 3)
        assert brute_force_pit(Oracle(x_plus_one(), degree)) == brute_force_pit(Oracle(x_plus_one(), 3))
    assert low_cone_pit(Oracle(x_plus_one(), 0), 3).render() == "NONZERO witness=1 coeff=1 tested=1 calls=1"


@pytest.mark.parametrize(
    "trials, seed",
    [(2.5, 1), (True, 1), ("2", 1), (None, 1), (1, 1.5), (1, "1"), (1, None), (1, True), (1, -1)],
)
def test_sz_pit_reads_trials_and_seed_as_natural_numbers(trials, seed):
    # 2.5 and the seeds 1.5, "1" and None used to raise bare TypeErrors, and
    # True ran one trial
    oracle = Oracle(x_plus_one())
    with pytest.raises(BadParameters, match="^(trials|seed) must be a natural number, got "):
        sz_pit(oracle, trials, seed)
    assert oracle.calls == 0


def test_sz_pit_refuses_more_trials_than_its_guard():
    # on a zero polynomial every trial runs, so a 40-digit count never ended
    oracle = Oracle(x_plus_one())
    with pytest.raises(TooLarge, match=f"^{pit.TRIALS_GUARD + 1} trials exceed the guard {pit.TRIALS_GUARD}$"):
        sz_pit(oracle, pit.TRIALS_GUARD + 1, 1)
    assert oracle.calls == 0


def test_sz_pit_reads_numpy_integers_as_the_ints_they_equal():
    assert sz_pit(Oracle(x_plus_one()), np.int64(3), np.uint8(5)) == sz_pit(Oracle(x_plus_one()), 3, 5)


@pytest.mark.parametrize("k", [0, -1, 2.5, True, "3", None])
def test_low_cone_pit_needs_an_int_budget_of_at_least_one(k):
    oracle = Oracle(x_plus_one())
    with pytest.raises(BadParameters, match="^cone-size budget k must be an int >= 1, got "):
        low_cone_pit(oracle, k)
    assert oracle.calls == 0


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


def count_coefficients(monkeypatch):
    """Patch ``FilteredOracle.coefficient`` to record the exponent of each
    extraction that combines its values."""
    real = FilteredOracle.coefficient
    combined = []

    def coefficient(self):
        combined.append(self.e)
        return real(self)

    monkeypatch.setattr(FilteredOracle, "coefficient", coefficient)
    return combined


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=lambda F: F.spec)
def test_zero_phase_skips_layers_that_read_only_zeros(monkeypatch, field):
    # x1 - x2 vanishes on the constant monomial's points tau * (1, 1), so
    # layer 0 combines nothing and layer 1 names the witness
    b = CircuitBuilder(field, 2)
    C = b.build(b.add([(1, b.input(0)), (-1, b.input(1))]))
    want = reference_low_cone_pit(Oracle(C), 4)
    combined = count_coefficients(monkeypatch)
    got = low_cone_pit(Oracle(C), 4)
    assert got == want and got.outcome == NONZERO
    assert type(got.coefficient) is type(want.coefficient)
    assert combined and all(sum(e) == 1 for e in combined)


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=lambda F: F.spec)
def test_zero_phase_combines_nothing_on_zero_circuits(monkeypatch, field):
    rng = random.Random(71)
    D = random_diagonal(rng, field, 3, 3, 3, force_zero=True)
    cases = ((lambda: zero_circuit_oracle(field), 8), (D.as_oracle, 16))
    wants = [reference_low_cone_pit(make_oracle(), k) for make_oracle, k in cases]
    combined = count_coefficients(monkeypatch)
    for (make_oracle, k), want in zip(cases, wants):
        got = low_cone_pit(make_oracle(), k)
        assert got == want and got.outcome == ZERO and got.monomials_tested > 0
    assert combined == []


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


def test_layers_are_enumerated_on_demand_and_the_zero_phase_reads_points_only(monkeypatch):
    real = pit.enumerate_low_cone
    asked = []

    def layer(n, k, dcap=None, *, degree=None):
        asked.append(degree)
        return real(n, k, dcap, degree=degree)

    monkeypatch.setattr(pit, "enumerate_low_cone", layer)
    # the constant term is the witness: only layer 0 is built
    assert low_cone_pit(cube_oracle(FP), 4).render() == "NONZERO witness=1 coeff=1 tested=1 calls=4"
    assert asked == [0]
    # a zero polynomial walks layers 0 .. min(d, k - 1) = 0 .. 2 and combines
    # no coefficient, so it builds no extraction
    asked.clear()

    def no_extraction(*args):
        raise AssertionError("built an extraction in the zero phase")

    monkeypatch.setattr(pit, "FilteredOracle", no_extraction)
    oracle = zero_circuit_oracle(FP)
    verdict = low_cone_pit(oracle, 8)
    assert (verdict.outcome, verdict.monomials_tested, asked) == (ZERO, 6, [0, 1, 2])
    # 45 points requested, 11 of them distinct (as when every layer was enumerated up front)
    assert (verdict.oracle_calls, oracle.calls) == (45, 11)


def test_refusals_keep_their_order(monkeypatch):
    # x1^5 over F_5: the extraction needs a field of more than 5 elements,
    # but a low cone past its guard is refused first
    b = CircuitBuilder(Field.prime(5), 2)
    oracle = Oracle(b.build(b.pow(b.input(0), 5)))
    with pytest.raises(CharTooSmall):
        low_cone_pit(oracle, 4)
    monkeypatch.setattr(polys, "LOW_CONE_GUARD", 2 * 8 - 1)
    with pytest.raises(TooLarge):
        low_cone_pit(oracle, 4)
    assert oracle.calls == 0


def test_budget_overrun_is_verification_failure(monkeypatch):
    real = pit.enumerate_low_cone
    monkeypatch.setattr(
        pit, "enumerate_low_cone", lambda n, k, dcap=None, *, degree=None: [e for e in real(n, k, dcap, degree=degree) for _ in range(4)]
    )
    with pytest.raises(VerificationFailed, match="cone-count bound"):
        low_cone_pit(zero_circuit_oracle(FP), 1)


def test_over_guard_degree_is_refused_before_enumerating(monkeypatch):
    # (d + 1)^2 > EXTRACTION_GUARD already for the constant monomial, so the
    # test must refuse before it walks the low cone
    def walk(n, k, dcap=None, *, degree=None):
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


# ----------------------------------------------------------------------
# The layer table: shared points, the same verdicts and refusals
# ----------------------------------------------------------------------


def check_cache(cache):
    """The cache's running total is the entries of the items it keeps, and
    both stay within the bound."""
    assert cache.entries == sum(entries for _, entries in cache.items.values()) <= extraction.CACHE_ENTRIES
    assert len(cache.items) <= extraction.CACHE_ITEMS
    assert all(entries <= extraction.CACHE_ENTRIES // 64 for _, entries in cache.items.values())


def check_layer_table(keys=None):
    """Every layer entry the extraction cache keeps, or those of ``keys``
    (field, n, k, d, t), against the twin: layer t's points that no layer
    below t requests, each once, as a read-only batch over the entry's field
    and arity, counted as that many entries, the layer's request count and
    its largest cone; no oracle value."""
    table = {key[1:]: item for key, item in extraction._cache.items.items() if key[0] == "layer"}
    for key in list(table) if keys is None else [key for key in keys if key in table]:
        field, n, k, d, t = key
        (batch, requests, cone), entries = table[key]
        new, want = reference_layer_points(field, n, k, d, t)
        assert type(batch) is PointBatch and (batch.field, batch.arity) == (field, n)
        assert len(set(batch)) == len(batch) == entries <= CACHE_ENTRIES // 64 and set(batch) == new
        assert (requests, cone) == (want, max(map(cone_size, enumerate_low_cone(n, k, d, degree=t)), default=0))
        assert not batch.block.flags.writeable
    check_cache(extraction._cache)


def distinct_reference_points(field, monomials, degree):
    """The distinct base points of the extractions of ``monomials``, by the
    reference construction."""
    return {pt for e in monomials for pt in reference_queries(field, e, degree)[0]}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    field=st.sampled_from((FP, Field.prime((1 << 31) - 1), Q)),
    family=st.sampled_from(("circuit", "diagonal", "zero diagonal", "linear power")),
    n=st.integers(1, 4),
    k=st.sampled_from((1, 2, 4, 8, 16)),
    seed=st.integers(0, 2**32 - 1),
)
def test_low_cone_pit_matches_the_twin_with_the_layer_table_cold_and_warm(fresh_cache, field, family, n, k, seed):
    rng = random.Random(seed)
    if family == "circuit":
        circuit = random_circuit(rng, field, n, rng.randint(2, 8), 4)
    elif family == "linear power":
        # (a . x)^m: no constant term, so coefficients are combined from
        # layer 0 on and the witness has degree m
        b = CircuitBuilder(field, n)
        form = b.add([(field.of(rng.randint(-3, 3)), b.input(i)) for i in range(n)])
        circuit = b.build(b.pow(form, rng.randint(1, 4)))
    else:
        circuit = random_diagonal(rng, field, n, rng.randint(1, 4), 3, force_zero=family == "zero diagonal").to_circuit()
    want = reference_low_cone_pit(Oracle(circuit), k)
    # every layer up to the witness's degree is evaluated whole, each distinct point once
    d = Oracle(circuit).degree
    last = sum(want.witness) if want.outcome == NONZERO else d
    walked = [e for e in reference_enumerate_low_cone(n, k, dcap=d) if sum(e) <= last]
    evaluated = len(distinct_reference_points(field, walked, d))
    fresh_cache()
    for _ in ("cold", "warm"):
        oracle = Oracle(circuit)
        got = low_cone_pit(oracle, k)
        assert got == want and type(got.coefficient) is type(want.coefficient)
        assert oracle.calls == evaluated
    check_layer_table([(field, n, k, d, t) for t in range(last + 1)])


@pytest.mark.parametrize("ks", [(5, 6), (6, 5)], ids=["5 then 6", "6 then 5"])
def test_layer_table_keys_on_k(fresh_cache, ks):
    # at n = 2 and d = 4, layer 4 is {x1^4, x2^4} at k = 5 and at k = 6, but
    # layer 3 adds x1^2 x2 and x1 x2^2 at k = 6, so a layer's new points
    # depend on k; x1^4 + 2 x1^2 x2 has its witness in layer 3 at k = 6 and
    # in layer 4 at k = 5, and the zero quartic walks every layer
    assert enumerate_low_cone(2, 5, 4, degree=4) == enumerate_low_cone(2, 6, 4, degree=4)
    assert enumerate_low_cone(2, 5, 4, degree=3) != enumerate_low_cone(2, 6, 4, degree=3)
    b = CircuitBuilder(FP, 2)
    x, y = b.input(0), b.input(1)
    quartic = b.pow(b.add([(1, x), (1, y)]), 4)
    circuits = [b.build(b.add([(1, b.pow(x, 4)), (2, b.mul([b.pow(x, 2), y]))])), b.build(b.add([(1, quartic), (-1, quartic)]))]
    cache = fresh_cache()
    for k in ks:
        for circuit in circuits:
            want = reference_low_cone_pit(Oracle(circuit), k)
            last = sum(want.witness) if want.outcome == NONZERO else 4
            walked = [e for e in reference_enumerate_low_cone(2, k, dcap=4) if sum(e) <= last]
            for _ in ("cold", "warm"):
                oracle = Oracle(circuit)
                assert low_cone_pit(oracle, k) == want
                assert oracle.calls == len(distinct_reference_points(FP, walked, 4))
    assert {key for key in cache.items if key[0] == "layer"} == {("layer", FP, 2, k, 4, t) for k in ks for t in range(5)}
    check_layer_table()


def record_builds(monkeypatch):
    """Patch the builders of the extraction cache's items (weight rows,
    query sets and layer batches) to record each call by name."""
    builds = []
    for name in ("_lagrange_rows", "_build_query_set", "PointBatch"):
        build = getattr(extraction, name)
        monkeypatch.setattr(extraction, name, lambda *args, _name=name, _build=build: builds.append(_name) or _build(*args))
    return builds


def test_a_second_pass_builds_nothing(fresh_cache, monkeypatch):
    # the PIT benchmark's circuit families over its three fields, low-cone
    # then brute force: the second pass finds every row, query set and
    # layer in the cache
    fresh_cache()
    rng = random.Random(26)
    oracles = []
    for field in (FP, Field.prime((1 << 31) - 1), Q):
        for n in (2, 3):
            oracles.append(Oracle(random_circuit(rng, field, n, 12, 5)))
            oracles.append(Oracle(random_diagonal_depth4(rng, field, n, 2, 2, 2, 2)))
            oracles.append(random_diagonal(rng, field, n, 4, 3, force_zero=True).as_oracle())
            oracles.append(random_diagonal(rng, field, n, 3, 3).as_oracle())
    builds = record_builds(monkeypatch)
    passes, built = [], []
    for _ in ("cold", "warm"):
        builds.clear()
        passes.append([(low_cone_pit(oracle, 16), brute_force_pit(oracle)) for oracle in oracles])
        built.append(set(builds))
    assert passes[1] == passes[0]
    assert built == [{"_lagrange_rows", "_build_query_set", "PointBatch"}, set()]
    assert {ZERO, NONZERO} <= {low.outcome for low, _ in passes[0]}


def test_a_zero_verdict_builds_points_only(fresh_cache, monkeypatch):
    # a zero verdict reads nothing but the values at the layers' points, so
    # no weight row and no query set is built, and the cache keeps layers
    cache = fresh_cache()
    builds = record_builds(monkeypatch)
    D = random_diagonal(random.Random(27), Q, 3, 4, 3, force_zero=True)
    for oracle, k in ((zero_circuit_oracle(FP), 8), (D.as_oracle(), 16)):
        assert low_cone_pit(oracle, k).outcome == ZERO
    assert set(builds) == {"PointBatch"}
    assert {key[0] for key in cache.items} == {"layer"}
    check_layer_table()


def test_a_second_zero_diagonal_test_at_high_degree_builds_nothing(fresh_cache, monkeypatch):
    # rank 3 at arity 3: three cancelling pairs of 16th powers, so k = 6 * 17
    # = 102 and the walk takes all 17 layers, whose points fit the cache
    # together when no query set's weights are kept beside them
    cache = fresh_cache()
    rng = random.Random(7)
    terms = []
    for _ in range(3):
        c, const, coeffs = FP.random(rng), FP.random(rng), [FP.random(rng) for _ in range(3)]
        terms += [(c, const, coeffs, 16), (FP.neg(c), const, coeffs, 16)]
    D = DiagonalCircuit.make(FP, 3, terms)
    builds = record_builds(monkeypatch)
    assert diag_pit(D).render() == "ZERO"
    assert builds == ["PointBatch"] * 17
    assert set(cache.items) == {("layer", FP, 3, 102, 16, t) for t in range(17)}
    builds.clear()
    assert diag_pit(D).render() == "ZERO" and builds == []


@pytest.mark.parametrize(
    "field, n, d",
    [(FP, 2, 12), (FP, 4, 8), (Field.prime(13), 2, 12), (Field.prime(13), 3, 10), (Q, 3, 9), (Q, 4, 8)],
    ids=lambda x: x.spec if isinstance(x, Field) else str(x),
)
def test_high_degree_layers_match_the_twin(fresh_cache, field, n, d):
    # degree bounds 8 to 12, where tau * a wraps mod 13 over F_13: a zero
    # pair of d-th powers, alone and beside (a . x)^(d - 2), whose witness
    # lies in layer d - 2
    rng = random.Random(d * n)
    b = CircuitBuilder(field, n)
    linear = [(field.of(rng.randint(1, 3)), b.input(i)) for i in range(n)]
    affine = b.add([(field.of(rng.randint(-3, 3)), b.const(1))] + linear)
    pair = [(1, b.pow(affine, d)), (-1, b.pow(affine, d))]
    circuits = [b.build(b.add(pair)), b.build(b.add(pair + [(1, b.pow(b.add(linear), d - 2))]))]
    fresh_cache()
    for circuit in circuits:
        want = reference_low_cone_pit(Oracle(circuit), 12)
        last = sum(want.witness) if want.outcome == NONZERO else d
        walked = [e for e in reference_enumerate_low_cone(n, 12, dcap=d) if sum(e) <= last]
        for _ in ("cold", "warm"):
            oracle = Oracle(circuit)
            got = low_cone_pit(oracle, 12)
            assert got == want and type(got.coefficient) is type(want.coefficient)
            assert oracle.calls == len(distinct_reference_points(field, walked, d))
    assert want.outcome == NONZERO and sum(want.witness) == d - 2
    check_layer_table([(field, n, 12, d, t) for t in range(d + 1)])


def xy_oracle(field):
    b = CircuitBuilder(field, 2)
    return Oracle(b.build(b.mul([b.input(0), b.input(1)])))


@pytest.mark.parametrize("make_oracle", [zero_circuit_oracle, xy_oracle], ids=["zero", "x1*x2"])
def test_refusals_keep_their_messages_on_a_warm_layer_table(monkeypatch, make_oracle):
    # degree 2 at k = 8 walks layers 0, 1 and 2, and the table keeps them;
    # x1 x2 reads nonzero values from layer 0 on, so its refusals come from
    # the phase that combines coefficients
    want = low_cone_pit(make_oracle(FP), 8)
    assert want == reference_low_cone_pit(make_oracle(FP), 8)
    assert ("layer", FP, 2, 8, 2, 2) in extraction._cache.items
    # (d + 1)^2 = 9 for the constant monomial and 3 * 4 = 12 for x1 x2: a guard
    # of 8 refuses up front, one of 11 refuses layer 2 at x1 x2, as the twin does
    for guard in (8, 11):
        monkeypatch.setattr(extraction, "EXTRACTION_GUARD", guard)
        with pytest.raises(TooLarge) as expected:
            reference_low_cone_pit(make_oracle(FP), 8)
        oracle = make_oracle(FP)
        with pytest.raises(TooLarge) as refused:
            low_cone_pit(oracle, 8)
        assert str(refused.value) == str(expected.value)
    # layer 2 is refused before any of its points is evaluated
    assert oracle.calls == len(distinct_reference_points(FP, [(0, 0), (0, 1), (1, 0)], 2))
    monkeypatch.setattr(extraction, "EXTRACTION_GUARD", 12)
    assert low_cone_pit(make_oracle(FP), 8) == want
    # a field too small for the degree is refused at the first layer with the
    # message of one extraction, and nothing is evaluated
    F2 = Field.prime(2)
    with pytest.raises(CharTooSmall) as expected:
        query_set(F2, (0, 0), 2)
    oracle = make_oracle(F2)
    with pytest.raises(CharTooSmall) as refused:
        low_cone_pit(oracle, 8)
    assert str(refused.value) == str(expected.value) and oracle.calls == 0
