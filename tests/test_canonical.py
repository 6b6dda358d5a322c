import random

import pytest
from hypothesis import given, strategies as st

from limitlab.adversary import Budgets, CoolsepSession
from limitlab.canonical import (
    STRICT,
    AuxFlags,
    RelationMap,
    Workbench,
    always_change,
    aux_flags,
    constant_learner,
    coolsep_learner,
    family_overgeneralizer,
    min_consistent,
    odd_class_language,
    relations_map,
    set_copier,
    thm4_table,
)
from limitlab.coding import pair, proj1, triple
from limitlab.hypospace import Finite, Lazy, ind, pad, unpad
from limitlab.learnkit import run, star
from limitlab.textkit import PAUSE, finite_text
from oracles import aux_flags_by_scan, thm6_by_scan


@pytest.fixture
def wb():
    return Workbench()


def test_odd_class_language():
    assert odd_class_language(5) == {0, 2, 4, 5}
    assert odd_class_language(1) == {0, 1}
    with pytest.raises(ValueError):
        odd_class_language(4)


def test_p_injective(wb):
    assert len({wb.p(2 * k + 1) for k in range(30)}) == 30


# -- evens-or-capped learner case rows --------------------------------------

def test_thm3_rows(wb):
    h = wb.thm3_learner()
    assert h.apply(frozenset(), 100) == wb.e2N
    assert h.apply(frozenset({0, 2, 4}), 100) == wb.e2N
    assert h.apply(frozenset({0, 5}), 100) == wb.p(5)
    assert wb.registry.enumerate(wb.p(5), 100) == {0, 2, 4, 5}
    assert h.apply(frozenset({3, 5}), 100) == wb.p(3)


# -- flag quadruple ---------------------------------------------------------

def test_aux_flags_rows():
    assert aux_flags((0, 0)) == AuxFlags(0, 0, 0, 0)
    assert aux_flags((6,)) == AuxFlags(1, 0, 0, 6)   # 6 = <3,0>
    assert aux_flags((8,)) == AuxFlags(1, 0, 8, 0)   # 8 = <1,2>
    assert aux_flags(()) == AuxFlags(0, 0, 0, 0)
    # an initial 0 pins z at 0 even though later zero-second-component
    # elements arrive
    assert aux_flags((0, 8, 6)) == AuxFlags(1, 1, 8, 0)


def test_aux_flags_change_at_most_once():
    rng = random.Random(3)
    for _ in range(1000):
        prefix = tuple(rng.choice((0, 1, 2, 6, 8, 12, PAUSE))
                       for _ in range(rng.randrange(8)))
        states = [aux_flags(prefix[:i]) for i in range(len(prefix) + 1)]
        for name in ("w", "x", "y", "z"):
            values = [getattr(s, name) for s in states]
            changes = sum(1 for a, b in zip(values, values[1:]) if a != b)
            assert changes <= 1, (prefix, name)


# -- full-information case table --------------------------------------------

def test_thm4_row_empty_content():
    assert thm4_table((0, PAUSE)) == pad(ind(()), [0, 0, 0, 0])
    assert thm4_table(()) == pad(ind(()), [0, 0, 0, 0])


def test_thm4_row_single_nonzero_second():
    assert thm4_table((8,)) == pad(ind({8}), [1, 0, 8, 0])


def test_thm4_row_single_zero_second():
    assert thm4_table((6,)) == pad(ind({6}), [1, 0, 0, 6])


def test_thm4_row_pair_no_zero_second():
    # 8 = <1,2>, 12 = <2,2>: two elements, no zero second component
    assert thm4_table((8, 12)) == pad(proj1(8), [1, 1, 8, 0])
    assert proj1(8) == 1


flag_items = st.one_of(st.integers(0, 40), st.just(PAUSE),
                       st.builds(pair, st.integers(0, 5), st.integers(0, 5)))


@given(st.lists(flag_items, max_size=30).map(tuple))
def test_aux_flags_match_full_scan(sigma):
    fl = aux_flags(sigma)
    assert (fl.w, fl.x, fl.y, fl.z) == aux_flags_by_scan(sigma)


small = st.integers(0, 2)
# Contents sharing their first two components, plus a few strays.
thm6_contents = st.builds(
    lambda e, p, steps, strays: frozenset(triple(e, p, i) for i in steps) | strays,
    small, small, st.lists(st.integers(0, 6), max_size=5),
    st.frozensets(st.builds(triple, small, small, small), max_size=2))


@given(thm6_contents, st.integers(0, 12))
def test_thm6_matches_full_scan(d, t):
    benches = [Workbench(), Workbench()]
    for bench in benches:
        bench.registry.set_halting(1, 5)  # probe 1 halts at step 5
    assert benches[0].thm6_learner().apply((d, t), 100) == \
        thm6_by_scan(benches[1], (d, t))


def test_thm4_row_pair_with_zero_second():
    # 6 = <3,0> supplies z; hypothesis follows the zero-component element
    assert thm4_table((8, 6)) == pad(proj1(6), [1, 1, 8, 6])


def test_thm4_row_otherwise():
    # two elements, both with zero second components: y never fires
    assert aux_flags((6, 1)).y == 0
    assert thm4_table((6, 1)) == pad(ind(()), [0, 0, 0, 0])


def test_thm4_hypotheses_grow_on_shared_first_component(wb):
    registry = wb.registry
    x = registry.allocate()
    elements = [pair(x, k) for k in (1, 2, 3)] + [pair(x, 0)]
    registry.bind(x, Finite(frozenset(elements)))
    text = finite_text(tuple(elements))
    seq = run(wb.thm4_learner(), text, 6, 200)
    langs = [registry.enumerate(h, 200) for h in seq]
    for a, b in zip(langs, langs[1:]):
        assert a <= b


# -- payload-consulting set-driven learner ----------------------------------

def _payload_setup(wb):
    registry = wb.registry
    e = registry.register(Finite(frozenset({101, 102})))
    e2 = registry.register(Finite(frozenset({101})))
    return e, e2


def test_thm5_row_empty_and_singleton(wb):
    h = wb.thm5_learner()
    assert h.apply(frozenset(), 100) == pad(wb.p0, [0])
    assert h.apply(frozenset({42}), 100) == pad(ind({42}), [0])


def test_thm5_row_unresolved_payload_gives_no_answer(wb):
    h = wb.thm5_learner()
    wb.registry.set_payload(201, 0, cost=1000)
    assert h.apply(frozenset({201, 202}), 100) is None


def test_thm5_row_agreeing_first_components(wb):
    e, _ = _payload_setup(wb)
    h = wb.thm5_learner()
    wb.registry.set_payload(301, pad(e, [1]))
    wb.registry.set_payload(302, pad(e, [1]))
    assert h.apply(frozenset({301, 302}), 100) == e


def test_thm5_row_second_language_case(wb):
    e, e2 = _payload_setup(wb)
    h = wb.thm5_learner()
    wb.registry.set_payload(311, pad(e, [1]))
    wb.registry.set_payload(312, pad(e2, [2]))
    wb.registry.set_payload(313, pad(e2, [2]))
    assert h.apply(frozenset({311, 312, 313}), 100) == e2


def test_thm5_row_bad_marker(wb):
    e, _ = _payload_setup(wb)
    h = wb.thm5_learner()
    wb.registry.set_payload(321, pad(e, [7]))
    wb.registry.set_payload(322, pad(e, [1]))
    assert h.apply(frozenset({321, 322}), 100) is None


def test_thm5_row_conflicting_marker_ones(wb):
    e, e2 = _payload_setup(wb)
    h = wb.thm5_learner()
    wb.registry.set_payload(331, pad(e, [1]))
    wb.registry.set_payload(332, pad(e2, [1]))
    assert h.apply(frozenset({331, 332}), 100) is None


# -- halting-probe learner --------------------------------------------------

def test_thm6_row_empty(wb):
    assert wb.thm6_learner().apply((frozenset(), 7), 100) == wb.p0


def test_thm6_row_nonuniform_components(wb):
    h = wb.thm6_learner()
    d = frozenset({triple(3, 4, 0), triple(5, 4, 0)})
    assert h.apply((d, 2), 100) == wb.p2
    d2 = frozenset({triple(3, 4, 0), triple(3, 5, 0)})
    assert h.apply((d2, 2), 100) == wb.p2


def test_thm6_row_probe_unresolved(wb):
    h = wb.thm6_learner()
    e, p = 50, 60
    d = frozenset({triple(e, p, 0)})
    assert h.apply((d, 7), 100) == e  # no probe registered: never halts


def test_thm6_row_probe_resolved_joins(wb):
    h = wb.thm6_learner()
    e, p = 50, 61
    wb.registry.set_halting(p, 3)
    d = frozenset({triple(e, p, 0), triple(e, p, 1)})
    assert h.apply((d, 2), 100) == e          # halts at 3 > t=2
    joined = h.apply((d, 3), 100)
    assert joined == wb.registry.join(e, d)
    assert wb.registry.enumerate(joined, 100) >= d


# -- order-sensitive full-information learner -------------------------------

@pytest.fixture
def session():
    return CoolsepSession(family_overgeneralizer, Budgets(search_bound=20))


def test_coolsep_row_empty(session):
    h = coolsep_learner(session)
    assert h.apply((), 100) == ind(())


def test_coolsep_row_single_family(session):
    h = coolsep_learner(session)
    sigma = (session.element(0, 0), session.element(0, 2))
    assert h.apply(sigma, 100) == session.family_index(0)


def test_coolsep_row_union(session):
    h = coolsep_learner(session)
    sigma = (session.element(0, 0), session.element(1, 0))
    assert h.apply(sigma, 100) == session.union_index()


def test_coolsep_row_marked_element(session):
    h = coolsep_learner(session)
    assert session.f(1) == 1
    sigma = (session.element(0, 0), session.element(1, 1))
    assert h.apply(sigma, 100) == session.capped_index(1)


def test_coolsep_row_first_element_in_max_family(session):
    h = coolsep_learner(session)
    sigma = (session.element(1, 0), session.element(0, 0))
    assert h.apply(sigma, 100) == session.capped_index(1)


def test_coolsep_row_foreign_element(session):
    h = coolsep_learner(session)
    assert h.apply((7,), 100) is None


# -- sample learners --------------------------------------------------------

def test_sample_learners(wb):
    assert set_copier().apply(frozenset({1, 2}), 10) == ind({1, 2})
    assert min_consistent().apply((frozenset({3}), 5), 10) == ind({3})
    a = always_change()
    assert a.apply((frozenset({3}), 1), 10) != a.apply((frozenset({3}), 2), 10)
    c = constant_learner(wb.p2, "Psd")
    assert c.apply((frozenset(), 0), 10) == wb.p2


# -- relation map -----------------------------------------------------------

def test_relations_quotient_is_dag():
    assert relations_map().is_quotient_dag()


def test_relations_global_collapse_per_operator():
    rel = relations_map()
    for beta in ("Sd", "Psd", "G"):
        assert rel.query(f"tau(Mon)-{beta}-Ex",
                         f"tau(SMon)-{beta}-Ex") == "same-class"


def test_relations_headline_strict_edge():
    assert relations_map().query("Psd-Mon-Bc", "G-Mon-Bc") == "strict-inclusion"


def test_relations_reject_strict_edge_inside_class():
    rel = relations_map()
    with pytest.raises(ValueError, match="collapse class"):
        RelationMap(rel.nodes, rel.classes,
                    rel.edges + [("G-Mon-Ex", "R-G-Mon-Ex", STRICT)])


def test_relations_reflexive_query():
    assert relations_map().query("G-Mon-Ex", "G-Mon-Ex") == "inclusion"


def test_relations_memory_ladder():
    rel = relations_map()
    assert rel.query("Sd-SMon-Ex", "G-SMon-Ex") in ("inclusion",
                                                    "strict-inclusion")


def test_relations_unknown_node():
    with pytest.raises(KeyError):
        relations_map().query("nope", "G-Mon-Ex")


def test_relations_classes_disjoint_and_present():
    rel = relations_map()
    seen = set()
    for cls in rel.classes:
        assert not (cls & seen)
        seen |= cls
        for node in cls:
            assert node in rel.nodes
