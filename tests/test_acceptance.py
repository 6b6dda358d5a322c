"""The ten acceptance criteria, one test each, printing one pass/fail line
per criterion.  Each refutation-style criterion re-verifies its witnesses
from raw enumeration/decision data rather than trusting the report."""

import json
import random
import time

from limitlab.adversary import (
    Budgets,
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
    AuxFlags,
    Workbench,
    always_change,
    aux_flags,
    constant_learner,
    coolsep_learner,
    family_overgeneralizer,
    min_consistent,
    relations_map,
    set_copier,
    thm4_table,
)
from limitlab.coding import decode, encode, pair, proj1, triple, unpair, Tag
from limitlab.criteria import check_ex, check_mon, check_smon, mon_from_smon_witness
from limitlab.hypospace import NO, YES, Finite, Registry, descriptor_elements, ind, pad
from limitlab.learnkit import Learner, g_learner, run, star
from limitlab.textkit import finite_text, canonical_text, content, psd_reachable
from oracles import all_states, reachable_state_pairs

_T0 = time.time()


def _report(capsys, num, label, fn):
    start = time.time()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"\n[acceptance {num:2d}] FAIL - {label}")
        raise
    with capsys.disabled():
        print(f"\n[acceptance {num:2d}] PASS - {label} "
              f"({time.time() - start:.1f}s)")


# -- 1: coding laws ---------------------------------------------------------

def test_criterion_01_coding_laws(capsys):
    def body():
        for x in range(1001):
            row = [(x + y) * (x + y + 1) // 2 + y for y in range(1001)]
            for y in range(1001):
                z = row[y]
                assert pair(x, y) == z
                assert unpair(z) == (x, y)
                if y:
                    assert z > row[y - 1]
            if x:
                assert row[0] > pair(x - 1, 0)
        seen = set()
        for tag in Tag:
            for payload in range(10_001):
                code = encode(tag, payload)
                assert decode(code) == (tag, payload)
                assert code not in seen
                seen.add(code)

    _report(capsys, 1, "pairing laws and tag-space partition", body)


# -- 2: reachability oracle -------------------------------------------------

def test_criterion_02_reachability_oracle(capsys):
    def body():
        table = reachable_state_pairs()
        for d, t in all_states():
            for d2, t2 in all_states():
                assert psd_reachable((d, t), (d2, t2)) == \
                    ((d, t, d2, t2) in table)

    _report(capsys, 2, "state order matches brute-force text enumeration", body)


# -- 3: evens-or-capped learner positive half -------------------------------

def test_criterion_03_thm3_positive(capsys):
    def body():
        start = time.time()
        wb = Workbench()
        h = wb.thm3_learner()
        targets = [("2N", wb.evens)] + [
            (f"L{2 * k + 1}", wb.odd_class_descriptor(2 * k + 1))
            for k in range(26)]
        for name, target in targets:
            texts = [canonical_text(target)]
            elements = descriptor_elements(target, 100)
            for seed in range(50):
                rng = random.Random(f"{name}:{seed}")
                shuffled = elements[:]
                rng.shuffle(shuffled)
                texts.append(finite_text(tuple(shuffled[:60]), target))
            for text in texts:
                seq = run(star(h), text, 60, 500)
                assert check_ex(wb.registry, seq, text, target, 500, 100).confirmed, \
                    (name, text.label)
                assert check_mon(wb.registry, seq, text, 500).confirmed, \
                    (name, text.label)
        seq = run(star(h), finite_text((0, 2, 5)), 60, 500)
        v = check_smon(wb.registry, seq, 500)
        assert v.refuted and v.witness.x == 6 and v.witness.tier == "exact"
        assert time.time() - start < 10

    _report(capsys, 3, "canonical class learner: Ex+Mon confirmed, SMon "
                       "refuted at x=6", body)


# -- 4: witness surgery -----------------------------------------------------

def test_criterion_04_witness_surgery(capsys):
    def body():
        registry = Registry()
        for seed in range(100):
            rng = random.Random(seed)
            language = sorted(rng.sample(range(100), rng.randrange(2, 8)))
            extra = next(x for x in range(100, 200)
                         if x not in language and rng.random() < 0.5)
            switch = rng.randrange(1, 5)

            def h(sigma, switch=switch, extra=extra):
                c = content(sigma)
                return ind(c | {extra}) if len(sigma) < switch else ind(c)

            learner = g_learner(h, name=f"seeded-{seed}")
            items = language[:]
            rng.shuffle(items)
            text = finite_text(tuple(items), Finite(frozenset(language)))
            seq = run(learner, text, 20, 200)
            v = check_smon(registry, seq, 200)
            assert v.refuted and v.witness.x == extra
            surgered = mon_from_smon_witness(text, v.witness, learner,
                                             registry, 200)
            seq2 = run(learner, surgered, 21, 200)
            v2 = check_mon(registry, seq2, surgered, 200)
            assert v2.refuted and v2.witness.x == extra, seed

    _report(capsys, 4, "strong-monotonicity witnesses convert to "
                       "monotonicity refutations with the same element", body)


# -- 5: order-of-presentation adversary -------------------------------------

def test_criterion_05_coolsep_adversary(capsys):
    def body():
        start = time.time()
        budgets = Budgets()
        session = coolsep_session(family_overgeneralizer, budgets)
        report = coolsep_diagnose(session, 5)
        assert report.variant == "WrongForever"
        positions = report.evidence[0]["wrong_positions"]
        assert len(positions) >= 5
        prefix: list[int] = []
        for j, rec in enumerate(positions):
            fj = session.f(rec["family"])
            prefix.extend(session.element_prefix(rec["family"], fj))
            hyp = session.learner.apply((content(prefix), len(prefix)), 500)
            assert hyp == rec["hypothesis"]
            assert session.registry.member(hyp, rec["element"], 500)
            assert session.registry.decide(session.union_index(),
                                           rec["element"]) is NO

        copier = Learner("Psd", "set-copier^Psd",
                         lambda view, budget: ind(view[0]))
        session2 = coolsep_session(copier, budgets)
        report2 = coolsep_diagnose(session2, 5)
        assert report2.variant == "FailsToOvergeneralize"
        assert report2.evidence[0]["family"] == 0
        assert report2.evidence[0]["search_bound"] == 200
        assert time.time() - start < 30

    _report(capsys, 5, "presentation-order adversary: WrongForever / "
                       "FailsToOvergeneralize", body)


# -- 6: mind-change extension adversary -------------------------------------

def test_criterion_06_gsmon_adversary(capsys):
    def body():
        start = time.time()
        session = gsmon_session(always_change(), Budgets())
        report = gsmon_diagnose(session, 10)
        assert report.variant == "InfiniteMindChanges"
        assert report.evidence[0]["count"] == 10

        session2 = gsmon_session(min_consistent(), Budgets())
        report2 = gsmon_diagnose(session2, 10)
        assert report2.definitive
        assert report2.variant != "BudgetExhausted"
        for step in report2.evidence[0]["steps"]:
            i = step["stage"]
            sigma, nxt = session2.sigma(i), session2.sigma(i + 1)
            before = session2.learner.apply((content(sigma), len(sigma)), 500)
            after = session2.learner.apply((content(nxt), len(nxt)), 500)
            assert (before, after) == (step["before"], step["after"])
            assert before != after
        assert time.time() - start < 30

    _report(capsys, 6, "mind-change adversary: definitive reports with "
                       "replayable evidence", body)


# -- 7: set-driven and totality adversaries ---------------------------------

def test_criterion_07_sd_and_totalpsd(capsys):
    def body():
        report = sd_diagnose(sd_session(set_copier(), Budgets()), 10)
        assert report.variant == "InfiniteMindChanges"

        def const_sd(session):
            return constant_learner(Workbench(session.registry).p2, "Sd")

        session = sd_session(const_sd, Budgets())
        report2 = sd_diagnose(session, 10)
        assert report2.variant == "ConfusedPair"
        ev = report2.evidence[0]
        k = ev["stage"]
        direct1 = session.learner.apply(session.probe_set(k), 500)
        direct2 = session.learner.apply(session.probe_set(k + 1), 500)
        assert direct1 == direct2 == ev["shared_hypothesis"]

        copier = Learner("Psd", "set-copier^Psd",
                         lambda view, budget: ind(view[0]))
        report3 = totalpsd_diagnose(totalpsd_session(copier, Budgets()), 10)
        assert report3.variant == "InfiniteMindChanges"

        def const_psd(session):
            return constant_learner(Workbench(session.registry).p2, "Psd")

        session4 = totalpsd_session(const_psd, Budgets())
        report4 = totalpsd_diagnose(session4, 10)
        assert report4.variant == "ConfusedPair"
        ev4 = report4.evidence[0]
        k4 = ev4["stage"]
        t4 = session4.singleton_time(session4.a(k4))
        before = session4.learner.apply(
            (session4.prefix_content(k4), t4 + k4), 500)
        after = session4.learner.apply(
            (session4.prefix_content(k4 + 1), t4 + k4 + 1), 500)
        assert before == after
        assert session4.registry.decide(session4.e, ev4["element"]) is NO

    _report(capsys, 7, "probe-set and totality adversaries: "
                       "InfiniteMindChanges / ConfusedPair re-invoked", body)


# -- 8: case tables ---------------------------------------------------------

def test_criterion_08_case_tables(capsys):
    def body():
        from limitlab.hypospace import unpad
        from limitlab.textkit import PAUSE

        wb = Workbench()
        h3 = wb.thm3_learner()
        assert h3.apply(frozenset(), 100) == wb.e2N
        assert h3.apply(frozenset({0, 2, 4}), 100) == wb.e2N
        assert h3.apply(frozenset({0, 5}), 100) == wb.p(5)

        assert aux_flags((0, 0)) == AuxFlags(0, 0, 0, 0)
        assert aux_flags((6,)) == AuxFlags(1, 0, 0, 6)
        assert aux_flags((8,)) == AuxFlags(1, 0, 8, 0)

        rows = [
            ((0, PAUSE), pad(ind(()), [0, 0, 0, 0])),
            ((8,), pad(ind({8}), [1, 0, 8, 0])),
            ((6,), pad(ind({6}), [1, 0, 0, 6])),
            ((8, 12), pad(proj1(8), [1, 1, 8, 0])),
            ((8, 6), pad(proj1(6), [1, 1, 8, 6])),
            ((6, 1), pad(ind(()), [0, 0, 0, 0])),
        ]
        for sigma, expected in rows:
            got = thm4_table(sigma)
            assert got == expected, sigma
            assert unpad(got, 1) == unpad(expected, 1)
            assert [unpad(got, i) for i in (2, 3, 4, 5)] == \
                [unpad(expected, i) for i in (2, 3, 4, 5)]

        h5 = wb.thm5_learner()
        assert h5.apply(frozenset(), 100) == pad(wb.p0, [0])
        assert h5.apply(frozenset({42}), 100) == pad(ind({42}), [0])
        e = wb.registry.register(Finite(frozenset({900, 901})))
        e2 = wb.registry.register(Finite(frozenset({900})))
        wb.registry.set_payload(901, pad(e, [1]))
        wb.registry.set_payload(902, pad(e, [1]))
        assert h5.apply(frozenset({901, 902}), 100) == e
        wb.registry.set_payload(903, pad(e2, [2]))
        assert h5.apply(frozenset({901, 903}), 100) == e2
        wb.registry.set_payload(904, pad(e, [9]))
        assert h5.apply(frozenset({901, 904}), 100) is None

        h6 = wb.thm6_learner()
        assert h6.apply((frozenset(), 7), 100) == wb.p0
        assert h6.apply((frozenset({triple(3, 4, 0), triple(5, 4, 0)}), 2),
                        100) == wb.p2
        d = frozenset({triple(70, 80, 0)})
        assert h6.apply((d, 7), 100) == 70
        wb.registry.set_halting(80, 4)
        assert h6.apply((d, 4), 100) == wb.registry.join(70, d)

        session = coolsep_session(family_overgeneralizer, Budgets())
        hc = coolsep_learner(session)
        assert hc.apply((), 100) == ind(())
        assert hc.apply((session.element(0, 0), session.element(0, 2)),
                        100) == session.family_index(0)
        assert hc.apply((session.element(0, 0), session.element(1, 0)),
                        100) == session.union_index()
        assert hc.apply((session.element(0, 0), session.element(1, 1)),
                        100) == session.capped_index(1)
        assert hc.apply((session.element(1, 0), session.element(0, 0)),
                        100) == session.capped_index(1)
        assert hc.apply((7,), 100) is None

    _report(capsys, 8, "per-row case tables for all four concrete learners",
            body)


# -- 9: relation map --------------------------------------------------------

def test_criterion_09_relation_map(capsys):
    def body():
        rel = relations_map()
        assert rel.is_quotient_dag()
        for beta in ("Sd", "Psd", "G"):
            assert rel.query(f"tau(Mon)-{beta}-Ex",
                             f"tau(SMon)-{beta}-Ex") == "same-class"
        assert rel.query("Psd-Mon-Bc", "G-Mon-Bc") == "strict-inclusion"

    _report(capsys, 9, "relation map: quotient DAG, global collapse, "
                       "strict memory edge", body)


# -- 10: determinism --------------------------------------------------------

def _artifact_bundle() -> str:
    wb = Workbench()
    seq = run(star(wb.thm3_learner()), finite_text((0, 2, 5)), 30, 500)
    pieces = [
        json.dumps(check_smon(wb.registry, seq, 500).to_json(), sort_keys=True),
        coolsep_diagnose(coolsep_session(family_overgeneralizer, Budgets()),
                         5).dumps(),
        gsmon_diagnose(gsmon_session(always_change(), Budgets()), 10).dumps(),
        totalpsd_diagnose(
            totalpsd_session(Learner("Psd", "copier",
                                     lambda v, b: ind(v[0])), Budgets()),
            10).dumps(),
        sd_diagnose(sd_session(set_copier(), Budgets()), 10).dumps(),
        json.dumps(relations_map().to_json(), sort_keys=True),
    ]
    return "\n".join(pieces)


def test_criterion_10_determinism(capsys):
    def body():
        assert _artifact_bundle() == _artifact_bundle()
        assert time.time() - _T0 < 120

    _report(capsys, 10, "bit-identical artifacts on rerun; suite inside "
                        "the wall-clock budget", body)
