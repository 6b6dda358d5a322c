import pytest
from hypothesis import given, strategies as st

from limitlab.adversary import (
    SESSIONS,
    Budgets,
    CoolsepSession,
    GsmonSession,
    KindMismatchError,
    SdSession,
    TotalPsdSession,
    coolsep_diagnose,
    coolsep_session,
    gsmon_diagnose,
    gsmon_session,
    sd_diagnose,
    sd_session,
    totalpsd_diagnose,
    totalpsd_session,
)
from limitlab.canonical import (
    Workbench,
    always_change,
    constant_learner,
    family_overgeneralizer,
    min_consistent,
    set_copier,
)
from limitlab.coding import Tag, encode, pair
from limitlab.hypospace import NO, NOT_DECIDABLE, YES, Registry, ind, pad
from limitlab.learnkit import PSD, psd_learner, sd_learner, wrap_learner
from oracles import (
    coolsep_element_by_formula,
    sd_element_by_formula,
    totalpsd_element_by_formula,
)

FAST = Budgets(search_bound=50, mind_change_goal=10, error_goal=5)


def copier_as_psd():
    return wrap_learner(set_copier(), PSD)


def constant_nat_psd(session):
    return constant_learner(Workbench(session.registry).p2, "Psd")


def constant_nat_sd(session):
    return constant_learner(Workbench(session.registry).p2, "Sd")


# -- order-of-presentation session ------------------------------------------

def test_coolsep_rejects_wrong_kind():
    with pytest.raises(KindMismatchError):
        coolsep_session(set_copier(), FAST)


def test_coolsep_family_membership():
    s = coolsep_session(family_overgeneralizer, FAST)
    assert s.registry.decide(s.family_index(0), s.element(0, 5)) is YES
    assert s.registry.decide(s.family_index(0), s.element(1, 0)) is NO


def test_coolsep_f_against_overgeneralizer():
    s = coolsep_session(family_overgeneralizer, FAST)
    for j in range(11):
        assert s.f(j) == 1


def test_coolsep_f_against_copier():
    s = coolsep_session(copier_as_psd(), FAST)
    assert s.f(0) is None


def test_coolsep_capped_index_geometry():
    s = coolsep_session(family_overgeneralizer, FAST)
    f1 = s.f(1)
    assert s.registry.decide(s.capped_index(1), s.element(1, f1)) is YES
    assert s.registry.decide(s.capped_index(1), s.element(1, f1 + 1)) is NO


def test_coolsep_union_geometry():
    """Marked elements sit in the capped language but outside the union of
    pre-overgeneralization prefixes, whose elements all sit inside."""
    s = coolsep_session(family_overgeneralizer, FAST)
    e = s.union_index()
    for j in range(6):
        fj = s.f(j)
        marked = s.element(j, fj)
        assert s.registry.decide(s.capped_index(j), marked) is YES
        assert s.registry.decide(e, marked) is NO
        for x in s.element_prefix(j, fj):
            assert s.registry.decide(e, x) is YES


def test_coolsep_union_enumeration_monotone():
    s = coolsep_session(family_overgeneralizer, FAST)
    for b in range(0, 12, 3):
        assert (s.registry.enumerate(s.union_index(), b)
                <= s.registry.enumerate(s.union_index(), b + 3))


def test_coolsep_witness_text_blocks():
    s = coolsep_session(family_overgeneralizer, FAST)
    t = s.witness_text()
    assert t.prefix(3) == (s.element(0, 0), s.element(1, 0), s.element(2, 0))
    assert t.content_descriptor is s.registry.descriptor(s.union_index())


def test_coolsep_diagnose_overgeneralizer():
    s = coolsep_session(family_overgeneralizer, FAST)
    report = coolsep_diagnose(s, 5)
    assert report.variant == "WrongForever"
    positions = report.evidence[0]["wrong_positions"]
    assert len(positions) >= 5
    for rec in positions:
        assert s.registry.member(rec["hypothesis"], rec["element"], 500)
        assert s.registry.decide(s.union_index(), rec["element"]) is NO


def test_coolsep_diagnose_copier():
    s = coolsep_session(copier_as_psd(), FAST)
    report = coolsep_diagnose(s, 5)
    assert report.variant == "FailsToOvergeneralize"
    assert report.evidence[0]["family"] == 0
    assert report.evidence[0]["search_bound"] == FAST.search_bound


def test_coolsep_diagnose_goal_zero():
    s = coolsep_session(family_overgeneralizer, FAST)
    report = coolsep_diagnose(s, 0)
    assert report.variant == "WrongForever"
    assert report.evidence[0]["wrong_positions"] == []


def test_coolsep_deterministic():
    r1 = coolsep_diagnose(coolsep_session(family_overgeneralizer, FAST), 5)
    r2 = coolsep_diagnose(coolsep_session(family_overgeneralizer, FAST), 5)
    assert r1.dumps() == r2.dumps()


# -- mind-change extension session ------------------------------------------

def test_gsmon_always_change():
    s = gsmon_session(always_change(), FAST)
    report = gsmon_diagnose(s, 10)
    assert report.variant == "InfiniteMindChanges"
    assert report.evidence[0]["count"] == 10
    # replay the recorded steps against the session's own prefixes
    for step in report.evidence[0]["steps"]:
        i = step["stage"]
        assert s._hstar(s.sigma(i)) == step["before"]
        assert s._hstar(s.sigma(i + 1)) == step["after"]
        assert step["before"] != step["after"]


def test_gsmon_goal_zero_vacuous():
    s = gsmon_session(always_change(), FAST)
    assert gsmon_diagnose(s, 0).variant == "InfiniteMindChanges"


def test_gsmon_min_consistent_definitive():
    report = gsmon_diagnose(gsmon_session(min_consistent(), FAST), 10)
    assert report.definitive
    assert report.variant == "InfiniteMindChanges"


def test_gsmon_monotonicity_trap_on_constant_learner():
    s = gsmon_session(constant_nat_psd, FAST)
    report = gsmon_diagnose(s, 10)
    assert report.variant == "MonotonicityTrap"
    ev = report.evidence[0]
    assert all(rec["member"] for rec in ev["membership_after_singleton_block"])
    assert all(rec["equals_base"] for rec in ev["state_coincidence"])
    # the confusable pair differs exactly by the kept elements
    l1, l2 = ev["confusable_languages"]["L1"], ev["confusable_languages"]["L2"]
    d1 = s.registry.enumerate(l1, 500)
    d2 = s.registry.enumerate(l2, 500)
    assert ev["kept_elements"][0] in d1 and ev["kept_elements"][1] in d2


def test_gsmon_singleton_not_learned():
    never = psd_learner(lambda view: 0, name="empty-guess")
    report = gsmon_diagnose(gsmon_session(never, FAST), 10)
    assert report.variant == "SingletonNotLearned"


def test_gsmon_a_indices_self_referential():
    s = gsmon_session(always_change(), FAST)
    d = frozenset({5, 6})
    a = s.a(d)
    assert s.registry.enumerate(a, 100) == d | {pair(a, 0)}
    assert s.a(d) == a  # memoized


# -- totality-forcing partially set-driven session --------------------------

def test_totalpsd_copier_changes_forever():
    report = totalpsd_diagnose(totalpsd_session(copier_as_psd(), FAST), 10)
    assert report.variant == "InfiniteMindChanges"


def test_totalpsd_constant_confused_pair():
    s = totalpsd_session(constant_nat_psd, FAST)
    report = totalpsd_diagnose(s, 10)
    assert report.variant == "ConfusedPair"
    ev = report.evidence[0]
    assert ev["element_outside_L"]
    assert ev["shared_hypothesis"]["before"] == ev["shared_hypothesis"]["after"]
    assert s.registry.decide(s.e, ev["element"]) is NO
    assert s.registry.decide(s.e_prime, ev["element"]) is YES


def test_totalpsd_totality_violation():
    bad = psd_learner(lambda view: None, name="silent")
    s = totalpsd_session(bad, FAST)
    report = totalpsd_diagnose(s, 10)
    assert report.variant == "TotalityViolated"
    # The first question: a(0) once, asked for the singleton time of a(0).
    assert report.evidence == [{"input": repr(([s.a(0)], 1))}]


def test_totalpsd_paired_languages_disagree_only_at_failure():
    s = totalpsd_session(constant_nat_psd, FAST)
    totalpsd_diagnose(s, 10)
    # P(0) failed, so L = W_e is empty while L' holds a(0)
    assert s.registry.enumerate(s.e, 50) == frozenset()
    assert s.a(0) in s.registry.enumerate(s.e_prime, 50)


# -- set-driven probe session -----------------------------------------------

def test_sd_copier_changes_forever():
    s = sd_session(set_copier(), FAST)
    report = sd_diagnose(s, 10)
    assert report.variant == "InfiniteMindChanges"
    for rec in report.evidence[0]["changes"]:
        assert rec["before"] != rec["after"]


def test_sd_constant_confused_pair():
    s = sd_session(constant_nat_sd, FAST)
    report = sd_diagnose(s, 10)
    assert report.variant == "ConfusedPair"
    ev = report.evidence[0]
    assert ev["stage"] == 0
    assert ev["reinvoked_equal"]


def test_sd_rejects_wrong_kind():
    with pytest.raises(KindMismatchError):
        sd_session(min_consistent(), FAST)


def test_sd_totality_violation():
    bad = sd_learner(lambda d: None, name="silent")
    s = sd_session(bad, FAST)
    report = sd_diagnose(s, 10)
    assert report.variant == "TotalityViolated"
    assert report.evidence == [{"input": repr([s.element(0)])}]


def test_sd_halting_probe_tracks_repeat():
    s = sd_session(constant_nat_sd, FAST)
    assert s.repeat_at() == 0
    assert s.registry.halts_within(s.halting_probe, 1)
    s2 = sd_session(set_copier(), FAST)
    assert s2.repeat_at() is None
    assert not s2.registry.halts_within(s2.halting_probe, 10**6)


def test_sd_goal_zero_vacuous():
    report = sd_diagnose(sd_session(set_copier(), FAST), 0)
    assert report.variant == "InfiniteMindChanges"


def test_reports_serialize_deterministically():
    r1 = sd_diagnose(sd_session(set_copier(), FAST), 10)
    r2 = sd_diagnose(sd_session(set_copier(), FAST), 10)
    assert r1.dumps() == r2.dumps()
    payload = r1.to_json()
    assert set(payload) == {"theorem", "variant", "evidence", "budgets",
                            "learner"}


# -- cached session elements against their closed forms ----------------------
#
# Each session keeps its elements in one list that grows on demand; these
# tests interleave every reader of that list in random orders and at random
# budgets and compare each answer with the closed-form oracles.

small = st.integers(min_value=0, max_value=12)


def _threshold(j: int) -> int:
    return 1 + (3 * j) % 5


def threshold_learner(session):
    """Answers family j once it has seen _threshold(j) of its elements, so
    f(j) = _threshold(j) whenever the search bound reaches it."""

    def h(view):
        d, _t = view
        families = {session.decode_element(x)[0] for x in d}
        if len(families) == 1:
            (j,) = families
            if len(d) >= _threshold(j):
                return session.family_index(j)
        return ind(d)

    return psd_learner(h, name="threshold")


coolsep_ops = st.lists(st.one_of(
    st.tuples(st.just("element"), small, small),
    st.tuples(st.just("prefix"), small, small),
    st.tuples(st.just("f"), small),
    st.tuples(st.just("family"), small, small, small, small, st.booleans()),
    st.tuples(st.just("capped"), small, small, small, small, st.booleans()),
    st.tuples(st.just("union"), small, small, small, st.booleans()),
    st.tuples(st.just("families"), st.frozensets(small, min_size=1, max_size=3),
              small, small, small, st.booleans()),
), max_size=12)


@given(st.integers(min_value=0, max_value=5), coolsep_ops)
def test_coolsep_cached_elements_match_closed_form(search_bound, ops):
    s = coolsep_session(threshold_learner,
                        Budgets(search_bound=search_bound, enum_budget=8))
    reg = s.registry

    def a(j, i, foreign=False):
        return coolsep_element_by_formula(s.sid + foreign, j, i)

    def f(j):
        return _threshold(j) if _threshold(j) <= search_bound else None

    def first(j, n):
        return {a(j, i) for i in range(n)}

    def capped(k):
        out = set().union(*(first(j, f(j)) for j in range(k + 1) if f(j)))
        return out | ({a(k, f(k))} if f(k) else set())

    for op in ops:
        kind, args = op[0], op[1:]
        if kind == "element":
            assert s.element(*args) == a(*args)
        elif kind == "prefix":
            j, i = args
            assert s.element_prefix(j, i) == tuple(a(j, k) for k in range(i))
        elif kind == "f":
            assert s.f(*args) == f(*args)
        else:
            *key, budget, xj, xi, foreign = args
            x = a(xj, xi, foreign)
            if kind == "family":
                (j,) = key
                lazy = reg.descriptor(s.family_index(j))
                want = first(j, budget + 1)
                decision = YES if not foreign and xj == j else NO
            elif kind == "families":
                (fams,) = key
                lazy = reg.descriptor(s.families_union_index(fams))
                want = set().union(*(first(j, budget + 1) for j in fams))
                decision = YES if not foreign and xj in fams else NO
            elif kind == "capped":
                (k,) = key
                lazy = reg.descriptor(s.capped_index(k))
                want = capped(k)
                if foreign or xj > k:
                    decision = NO
                elif f(xj) is None:
                    decision = NOT_DECIDABLE
                else:
                    decision = (YES if xi < f(xj) or (xj == k and xi == f(xj))
                                else NO)
            else:
                lazy = reg.descriptor(s.union_index())
                want = set().union(*(first(j, f(j))
                                     for j in range(min(budget, search_bound) + 1)
                                     if f(j)))
                if foreign:
                    decision = NO
                elif f(xj) is None:
                    decision = NOT_DECIDABLE
                else:
                    decision = YES if xi < f(xj) else NO
            assert lazy.generate(budget) == want
            assert lazy.decide(x) is decision


def sticky_learner(stuck: frozenset[int]):
    """Drops the elements a(i), i in ``stuck`` (all at least 2), from its
    answer on any content but a singleton, so P(i) holds iff i is not in
    ``stuck``."""

    def factory(session):
        stuck_codes = {totalpsd_element_by_formula(session.sid, i) for i in stuck}

        def h(view):
            d, _t = view
            return ind(d if len(d) == 1 else d - stuck_codes)

        return psd_learner(h, name="sticky")

    return factory


totalpsd_ops = st.lists(st.one_of(
    st.tuples(st.just("a"), small),
    st.tuples(st.just("prefix_content"), small),
    st.tuples(st.sampled_from(("e", "e_prime")), small, small, st.booleans()),
), max_size=12)


@given(st.frozensets(st.integers(min_value=2, max_value=10), max_size=4),
       st.integers(min_value=0, max_value=8), totalpsd_ops)
def test_totalpsd_cached_elements_match_closed_form(stuck, goal, ops):
    s = totalpsd_session(sticky_learner(stuck), Budgets(mind_change_goal=goal))
    reg = s.registry

    def a(i, foreign=False):
        return totalpsd_element_by_formula(s.sid + foreign, i)

    def holds_below(n):
        return all(j not in stuck for j in range(n))

    seen = set()
    for kind, *args in ops:
        if kind == "a":
            (i,) = args
            got = {s.a(i)}
            assert got == {a(i)}
        elif kind == "prefix_content":
            (i,) = args
            got = s.prefix_content(i)
            assert got == {a(j) for j in range(i)}
        else:
            budget, xi, foreign = args
            # W_e needs P(0..i), W_e' needs P(0..i-1).
            shift = 1 if kind == "e" else 0
            lazy = reg.descriptor(s.e if kind == "e" else s.e_prime)
            got = lazy.generate(budget)
            assert got == {a(i) for i in range(min(budget, goal + 1) + 1)
                           if holds_below(i + shift)}
            assert lazy.decide(a(xi, foreign)) is (
                YES if not foreign and holds_below(xi + shift) else NO)
        seen |= got
    # Every element handed out carries its payload.
    for i in range(13):
        if a(i) in seen:
            assert reg.payload(a(i), budget=i) == (
                pad(s.e, [1]) if i not in stuck else pad(s.e_prime, [2]))


sd_ops = st.lists(st.one_of(
    st.tuples(st.just("element"), small),
    st.tuples(st.just("probe_set"), small),
    st.tuples(st.just("e"), small, small, st.booleans()),
), max_size=12)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=8),
       sd_ops)
def test_sd_cached_elements_match_closed_form(r, search_bound, ops):
    """The learner answers min(|D|, r), so answers first repeat at j = r-1."""
    views = []

    def h(d):
        views.append(d)
        return min(len(d), r)

    s = sd_session(sd_learner(h, name="capped-size"),
                   Budgets(search_bound=search_bound))
    lazy = s.registry.descriptor(s.e)

    def el(i, foreign=False):
        return sd_element_by_formula(s.e, s.halting_probe + foreign, i)

    repeat = r - 1 if r - 1 <= search_bound else None
    for kind, *args in ops:
        if kind == "element":
            (i,) = args
            assert s.element(i) == el(i)
        elif kind == "probe_set":
            (j,) = args
            assert s.probe_set(j) == {el(i) for i in range(j + 1)}
        else:
            budget, xi, foreign = args
            assert lazy.generate(budget) == {
                el(i) for i in range(min(budget, search_bound) + 1) if i < r - 1}
            if foreign:
                decision = NO
            elif repeat is None:
                decision = YES if xi <= search_bound else NOT_DECIDABLE
            else:
                decision = YES if xi < repeat else NO
            assert lazy.decide(el(xi, foreign)) is decision
    # Each answer is asked of the learner once, in the order of the probe sets.
    assert views == [{el(i) for i in range(j + 1)} for j in range(len(views))]


# -- the session protocol ----------------------------------------------------

SESSION_CLASSES = (CoolsepSession, GsmonSession, TotalPsdSession, SdSession)


def test_sessions_table_lists_every_session():
    assert SESSIONS == {cls.theorem: (cls.run, cls.kind) for cls in SESSION_CLASSES}
    assert {name: run.__self__.goal_field for name, (run, _) in SESSIONS.items()} == {
        "coolsep": "error_goal", "gsmon": "mind_change_goal",
        "totalpsd": "mind_change_goal", "sd": "mind_change_goal"}


@pytest.mark.parametrize("cls", SESSION_CLASSES)
def test_session_reads_only_its_own_codes(cls):
    registry = Registry()
    other = cls(constant_learner(0, cls.kind), FAST, registry)
    s = cls(constant_learner(0, cls.kind), FAST, registry)
    assert s.sid != other.sid
    for n in (0, 1, 7, pair(3, 4)):
        assert s.owned(s.own(n)) == n
        assert s.owned(other.own(n)) is None
        for tag in Tag:
            if tag is not Tag.PROG:
                assert s.owned(encode(tag, pair(s.sid, n))) is None
        assert s.owned(pair(len(Tag), pair(s.sid, n))) is None  # unknown tag


def test_coolsep_decode_element_rejects_foreign_codes():
    s = coolsep_session(family_overgeneralizer, FAST)
    assert s.decode_element(s.element(2, 5)) == (2, 5)
    assert s.decode_element(encode(Tag.REG, pair(s.sid, pair(2, 5)))) is None
    assert s.decode_element(pair(len(Tag) + 3, 0)) is None


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_run_matches_session_then_diagnose(name):
    run, kind = SESSIONS[name]
    learner = constant_nat_sd if kind == "Sd" else constant_nat_psd
    make, diagnose, goal = {
        "coolsep": (coolsep_session, coolsep_diagnose, FAST.error_goal),
        "gsmon": (gsmon_session, gsmon_diagnose, FAST.mind_change_goal),
        "totalpsd": (totalpsd_session, totalpsd_diagnose, FAST.mind_change_goal),
        "sd": (sd_session, sd_diagnose, FAST.mind_change_goal),
    }[name]
    assert run(learner, FAST).dumps() == diagnose(make(learner, FAST), goal).dumps()
