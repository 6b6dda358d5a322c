import contextlib
import random

import pytest
from hypothesis import example, given, strategies as st

from limitlab import criteria
from limitlab.canonical import Workbench, always_change
from limitlab.cli import main
from limitlab.criteria import (
    InvalidWitnessError,
    MonWitness,
    check_bc,
    check_ex,
    check_global,
    check_mon,
    check_smon,
    mon_from_smon_witness,
)
from limitlab.hypospace import (
    NO,
    NOT_DECIDABLE,
    YES,
    Finite,
    Lazy,
    Registry,
    descriptor_decides,
    ind,
    pad,
)
from limitlab.learnkit import g_learner, run, star
from limitlab.textkit import PAUSE, canonical_text, content, finite_text
from oracles import all_pairs_scan, first_violation


# A text showing the element 1 first, for sequences learning {1}.
ONE = finite_text((1,))


@pytest.fixture
def wb():
    return Workbench()


def test_ex_constant_sequence(wb):
    seq = [ind({1})] * 5
    v = check_ex(wb.registry, seq, ONE, Finite(frozenset({1})), 100, 100)
    assert v.confirmed and v.n0 == 0


def test_ex_thm3_on_canonical_l5(wb):
    text = canonical_text(wb.odd_class_descriptor(5))
    seq = run(star(wb.thm3_learner()), text, 10)
    v = check_ex(wb.registry, seq, text, wb.odd_class_descriptor(5), 500, 100)
    assert v.confirmed
    assert seq[-1] == wb.p(5)


def test_ex_alternating_padding_refuted(wb):
    e = ind({1})
    seq = [pad(e, [i % 2]) for i in range(8)]
    v = check_ex(wb.registry, seq, ONE, Finite(frozenset({1})), 100, 100)
    assert v.refuted


def test_ex_undefined_entry_refutes(wb):
    v = check_ex(wb.registry, [ind({1}), None, ind({1})], ONE,
                 Finite(frozenset({1})), 100, 100)
    assert v.refuted


def test_ex_single_late_change_inconclusive(wb):
    seq = [ind({1})] * 5 + [ind({1, 2})]
    v = check_ex(wb.registry, seq, finite_text((1,) * 4 + (2,)),
                 Finite(frozenset({1, 2})), 100, 100)
    assert v.kind == "inconclusive"


def test_bc_alternating_padding_confirmed(wb):
    e = ind({1})
    seq = [pad(e, [i % 2]) for i in range(8)]
    v = check_bc(wb.registry, seq, ONE, Finite(frozenset({1})), 100, 100)
    assert v.confirmed


def test_bc_wrong_tail_refuted(wb):
    seq = [ind({1}), ind(())]
    v = check_bc(wb.registry, seq, ONE, Finite(frozenset({1})), 100, 100)
    assert v.refuted


def test_ex_bc_cut_short_inconclusive(wb):
    # thm3 answers the evens until 201, the last element of L201, arrives.
    target = wb.odd_class_descriptor(201)
    text = canonical_text(target)
    seq = run(wb.thm3_learner(), text, 50)
    for check in (check_ex, check_bc):
        v = check(wb.registry, seq, text, target, 500, 100)
        assert v.kind == "inconclusive"
        assert v.evidence["unshown"] == 100
        assert v.reason == "horizon ends before target element 100 is shown"


def test_ex_bc_refute_once_target_shown_up_to_bound(wb):
    # thm3 settles on L1 = {0, 1} on the naturals; the target's elements up
    # to the bound 100 are all shown from horizon 101 on.
    text = canonical_text(wb.naturals)
    for horizon, kind in ((100, "inconclusive"), (101, "refuted")):
        seq = run(wb.thm3_learner(), text, horizon)
        for check in (check_ex, check_bc):
            v = check(wb.registry, seq, text, wb.naturals, 500, 100)
            assert v.kind == kind, (check.__name__, horizon)


def test_ex_bc_compare_target_up_to_requested_bound(wb):
    # The naturals declare bound 100, but bound 150 asks for 101..150 too,
    # and the final hypothesis lacks 111.
    text = canonical_text(wb.naturals)
    seq = [ind(range(111))] * 160
    missing = {"kind": "refuted-missing", "element": 111, "reason": None}
    ex = check_ex(wb.registry, seq, text, wb.naturals, 500, 150)
    assert ex.refuted and ex.evidence["lang_equal"] == missing
    bc = check_bc(wb.registry, seq, text, wb.naturals, 500, 150)
    assert bc.refuted and bc.evidence["final"] == missing


def test_ex_confirmed_implies_bc_confirmed(wb):
    rng = random.Random(1)
    for _ in range(30):
        target = frozenset(rng.sample(range(20), rng.randrange(1, 5)))
        noise = [ind(frozenset(rng.sample(range(20), 2)))
                 for _ in range(rng.randrange(3))]
        seq = noise + [ind(target)] * rng.randrange(2, 6)
        text = finite_text(tuple(sorted(target)))
        ex = check_ex(wb.registry, seq, text, Finite(target), 100, 100)
        bc = check_bc(wb.registry, seq, text, Finite(target), 100, 100)
        if ex.confirmed:
            assert bc.confirmed


def test_smon_growing_chain(wb):
    v = check_smon(wb.registry, [ind({1}), ind({1, 2})], 100)
    assert v.confirmed


def test_smon_shrinking_refuted(wb):
    v = check_smon(wb.registry, [ind({1, 2}), ind({1})], 100)
    assert v.refuted
    assert (v.witness.n, v.witness.m, v.witness.x) == (0, 1, 2)
    assert v.witness.tier == "exact"


def test_smon_thm3_witness_is_six(wb):
    seq = run(star(wb.thm3_learner()), finite_text((0, 2, 5)), 10)
    v = check_smon(wb.registry, seq, 500)
    assert v.refuted and v.witness.x == 6
    assert (v.witness.n, v.witness.m, v.witness.tier) == (0, 3, "exact")


def test_mon_thm3_confirmed_on_l5_text(wb):
    text = finite_text((0, 2, 5), wb.odd_class_descriptor(5))
    seq = run(star(wb.thm3_learner()), text, 10)
    v = check_mon(wb.registry, seq, text, 500)
    assert v.confirmed


def test_mon_refuted_inside_content(wb):
    text = finite_text((1, 2))
    v = check_mon(wb.registry, [ind({1, 2}), ind({1})], text, 100)
    assert v.refuted and v.witness.x == 2


def test_mon_single_entry_confirmed(wb):
    text = finite_text((1,))
    assert check_mon(wb.registry, [ind({1})], text, 100).confirmed


def test_smon_confirmed_implies_mon_confirmed(wb):
    rng = random.Random(2)
    for _ in range(30):
        sets = []
        current = set()
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.7:
                current |= {rng.randrange(10)}
            else:
                current -= {rng.randrange(10)}
            sets.append(frozenset(current))
        seq = [ind(s) for s in sets]
        text = finite_text(tuple(sorted(frozenset().union(*sets))) or ())
        if check_smon(wb.registry, seq, 100).confirmed:
            assert check_mon(wb.registry, seq, text, 100).confirmed


# -- surgery ----------------------------------------------------------------

def test_mon_from_smon_witness_thm3(wb):
    h = wb.thm3_learner()
    text = finite_text((0, 2, 5), wb.odd_class_descriptor(5))
    seq = run(star(h), text, 10)
    w = check_smon(wb.registry, seq, 500).witness
    surgered = mon_from_smon_witness(text, w, h, wb.registry, 500)
    assert surgered.prefix(4) == (0, 2, 5, 6)
    seq2 = run(star(h), surgered, 10)
    v = check_mon(wb.registry, seq2, surgered, 500)
    assert v.refuted and v.witness.x == 6


def test_mon_from_smon_witness_rejects_bad_witness(wb):
    text = finite_text((0, 2, 5), wb.odd_class_descriptor(5))
    with pytest.raises(InvalidWitnessError):
        mon_from_smon_witness(text, MonWitness(3, 1, 6))
    with pytest.raises(InvalidWitnessError):
        mon_from_smon_witness(text, MonWitness(0, 3, 7),
                              wb.thm3_learner(), wb.registry)


def test_mon_from_smon_identity_when_element_present(wb):
    text = finite_text((0, 6, 2), Finite(frozenset({0, 2, 6})))
    h = g_learner(lambda s: ind({6}) if len(s) < 2 else ind({0}))
    surgered = mon_from_smon_witness(text, MonWitness(1, 2, 6), h, wb.registry)
    assert content(surgered.prefix(6)) == content(text.prefix(6))


# Thirty items with repeats and pauses; at horizon 40 the text ends in pauses.
PREFIX_30 = (5, 2, 6, 10, 0, 1, 8, 1, 5, 9, 0, 8, 3, 0, 1, 6, 6, 1, PAUSE, 1,
             8, 6, 0, 9, 1, PAUSE, 10, 10, 9, 0)


def _drops_late(sigma):
    """Guesses the content plus 99 (never in the text) up to length 11,
    then drops 99, and drops 5 (the text's first item) from length 25."""
    guess = set(content(sigma)) | ({99} if len(sigma) < 12 else set())
    return ind(guess - ({5} if len(sigma) >= 25 else set()))


@pytest.mark.parametrize("learner", ["always-change", "thm3", "thm4",
                                     "drops-late"])
def test_monotonicity_scan_matches_all_pairs_oracle(learner):
    wb = Workbench()
    h = {"always-change": always_change, "thm3": wb.thm3_learner,
         "thm4": wb.thm4_learner,
         "drops-late": lambda: g_learner(_drops_late)}[learner]()
    text = finite_text(PREFIX_30)
    seq = run(star(h), text, 40, 500)
    elements = text.content_descriptor.elements
    for verdict, keep in ((check_smon(wb.registry, seq, 500), None),
                          (check_mon(wb.registry, seq, text, 500),
                           lambda x: x in elements)):
        expected = first_violation(wb.registry, seq, 500, keep)
        if expected is None:
            assert verdict.confirmed
        else:
            assert verdict.refuted and verdict.witness.tier == "exact"
            w = verdict.witness
            assert (w.n, w.m, w.x) == expected


# Sequences mixing every kind of hypothesis; finite sets are drawn from
# few elements, so that they often nest, and the budget cuts the decidable
# languages off at 8.  A "lazy-partial" language claims to be exact but
# leaves a second small set undecided, as coolsep's capped-k languages do
# while f(j) is unresolved.
SCAN_BUDGET = 8
small_sets = st.frozensets(st.integers(0, 9), max_size=4)
hypothesis_specs = st.one_of(
    st.just(("none",)), st.just(("evens",)), st.just(("naturals",)),
    st.tuples(st.just("odd"), st.sampled_from([1, 3, 5, 7])),
    st.tuples(st.just("fin"), small_sets),
    st.tuples(st.just("pad"), small_sets, st.integers(0, 2)),
    st.tuples(st.just("lazy"), small_sets),
    st.tuples(st.just("lazy-exact"), small_sets),
    st.tuples(st.just("lazy-partial"), small_sets, small_sets))
content_specs = st.one_of(
    st.just(("evens",)), st.just(("naturals",)),
    st.tuples(st.just("fin"), small_sets), st.tuples(st.just("lazy"), small_sets))


def _hypothesis(wb, spec, lazies):
    kind, *args = spec
    if kind == "none":
        return None
    if kind in ("evens", "naturals"):
        return {"evens": wb.e2N, "naturals": wb.p2}[kind]
    if kind == "odd":
        return wb.p(args[0])
    if kind == "fin":
        return ind(args[0])
    if kind == "pad":
        return pad(ind(args[0]), [args[1]])
    # One index per Lazy language, so that repeats give equal entries.
    if spec not in lazies:
        elements = args[0]
        undecided = args[1] if kind == "lazy-partial" else frozenset()
        decide = ((lambda x: YES if x in elements else
                   NOT_DECIDABLE if x in undecided else NO)
                  if kind != "lazy" else None)
        lazies[spec] = wb.registry.register(
            Lazy(kind, lambda budget: elements, decide))
    return lazies[spec]


def _content(wb, spec):
    kind, *args = spec
    if kind in ("evens", "naturals"):
        return {"evens": wb.evens, "naturals": wb.naturals}[kind]
    if kind == "fin":
        return Finite(args[0])
    return Lazy("content", lambda budget, elements=args[0]: elements)


def _all_pairs_verdict(check, *args):
    def scan(*scan_args):
        witness, all_exact, gaps = all_pairs_scan(*scan_args, False)
        return witness, all_exact and gaps == 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "_monotonicity_scan", scan)
        return check(*args)


# Undecided at run 1, decided out at run 2: the budget-tier witness comes first.
BUDGET_BEFORE_EXACT = [("fin", frozenset({1})),
                       ("lazy-partial", frozenset(), frozenset({1})),
                       ("fin", frozenset())]
# Claimed exact, leaves 1 undecided and never decides it out.
UNDECIDED_NEVER_OUT = [("fin", frozenset({1})),
                       ("lazy-partial", frozenset({2}), frozenset({1}))]


@given(st.lists(hypothesis_specs, min_size=1, max_size=8), content_specs)
@example([("fin", frozenset({1})), ("fin", frozenset({1, 2})),
          ("fin", frozenset({1})), ("fin", frozenset())], ("naturals",))
@example(BUDGET_BEFORE_EXACT, ("naturals",))
@example(UNDECIDED_NEVER_OUT, ("naturals",))
def test_first_miss_scan_matches_all_pairs(specs, content_spec):
    wb = Workbench()
    lazies = {}
    seq = [_hypothesis(wb, spec, lazies) for spec in specs]
    desc = _content(wb, content_spec)
    text = finite_text((), desc)
    keep = ((lambda x: x in desc.generate(SCAN_BUDGET)) if isinstance(desc, Lazy)
            else (lambda x: descriptor_decides(desc, x)))
    for check, args, oracle_keep in (
            (check_smon, (wb.registry, seq, SCAN_BUDGET), None),
            (check_mon, (wb.registry, seq, text, SCAN_BUDGET), keep)):
        verdict = check(*args)
        assert verdict.to_json() == _all_pairs_verdict(check, *args).to_json()
        expected = first_violation(wb.registry, seq, SCAN_BUDGET, oracle_keep)
        if expected is None:
            assert not verdict.refuted
        else:
            w = verdict.witness
            assert verdict.refuted and w.tier == "exact"
            assert (w.n, w.m, w.x) == expected


def test_budget_witness_before_exact_one(wb):
    seq = [_hypothesis(wb, spec, {}) for spec in BUDGET_BEFORE_EXACT]
    exact = check_smon(wb.registry, seq, SCAN_BUDGET)
    assert exact.refuted and exact.witness == MonWitness(0, 2, 1)


def test_undecided_exact_claim_is_inconclusive(wb):
    seq = [_hypothesis(wb, spec, {}) for spec in UNDECIDED_NEVER_OUT]
    for v in (check_smon(wb.registry, seq, SCAN_BUDGET),
              check_mon(wb.registry, seq, finite_text((1, 2)), SCAN_BUDGET)):
        assert v.kind == "inconclusive" and v.reason == "budget exhausted"
        assert v.evidence["near_witness"]["tier"] == "budget"


@contextlib.contextmanager
def _counted_decides(monkeypatch):
    calls = [0]
    decide = Registry.decide

    def counted(self, e, x):
        calls[0] += 1
        return decide(self, e, x)

    with monkeypatch.context() as mp:
        mp.setattr(Registry, "decide", counted)
        yield calls


def _decide_calls(monkeypatch, argv):
    with _counted_decides(monkeypatch) as calls:
        assert main(argv) == 0
    return calls[0]


def test_smon_scan_decides_grow_quadratically(monkeypatch, capsys):
    # always-change changes its mind at every step and never drops an
    # element: each element is decided once per later run, so doubling the
    # horizon about quadruples the count (all pairs of runs: about 8x).
    counts = [_decide_calls(monkeypatch, [
        "check", "--criterion", "smon", "--learner", "always-change",
        "--text", "canonical:N", "--horizon", str(horizon)])
        for horizon in (60, 120)]
    capsys.readouterr()
    assert counts[1] <= 5 * counts[0], counts


def test_semi_decidable_scan_decides_grow_quadratically(monkeypatch):
    # Nested languages {0}, {0, 1}, ... that no decide settles: each element
    # is asked of every later run once, about h^2 / 2 calls (all pairs of
    # runs times their elements: about h^3 / 6).
    counts = []
    for h in (40, 80):
        wb = Workbench()
        seq = [wb.registry.register(Lazy(f"upto-{k}",
                                         lambda budget, k=k: frozenset(range(k + 1))))
               for k in range(h)]
        with _counted_decides(monkeypatch) as calls:
            assert check_smon(wb.registry, seq, SCAN_BUDGET).kind == "inconclusive"
        counts.append(calls[0])
    assert counts[1] <= 5 * counts[0], counts


# -- global variants --------------------------------------------------------

def test_global_vacuous(wb):
    v = check_global("mon", wb.thm3_learner(), [], 10, 100, wb.registry)
    assert v.confirmed


def test_global_mon_thm3_over_class(wb):
    texts = [canonical_text(wb.evens)] + [
        canonical_text(wb.odd_class_descriptor(k)) for k in (1, 3, 5, 9)]
    v = check_global("mon", wb.thm3_learner(), texts, 20, 500, wb.registry)
    assert v.confirmed


def test_global_smon_thm3_refuted(wb):
    texts = [finite_text((0, 2, 5), wb.odd_class_descriptor(5))]
    v = check_global("smon", wb.thm3_learner(), texts, 10, 500, wb.registry)
    assert v.refuted and v.witness.x == 6


def test_global_rejects_unknown_restriction(wb):
    with pytest.raises(ValueError):
        check_global("ex", wb.thm3_learner(), [], 5, 50, wb.registry)
