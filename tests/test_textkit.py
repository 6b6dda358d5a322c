from hypothesis import given, strategies as st

from limitlab.hypospace import Decidable, Finite
from limitlab.textkit import (
    PAUSE,
    canonical_text,
    concat,
    content,
    finite_text,
    first,
    format_prefix,
    insertion_text,
    parse_prefix,
    psd_reachable,
    repeat,
    stitched_text,
    union_with_element,
)
from oracles import all_states, reachable_state_pairs

items = st.one_of(st.integers(min_value=0, max_value=50), st.just(PAUSE))


def test_content_and_first():
    assert content((PAUSE, 3, PAUSE, 3)) == {3}
    assert first((PAUSE, PAUSE, 5, 2)) == 5
    assert first((PAUSE, PAUSE)) is None


def test_concat_repeat():
    assert concat((1,), (2, PAUSE)) == (1, 2, PAUSE)
    assert repeat(7, 3) == (7, 7, 7)


@given(st.lists(items), st.lists(items))
def test_content_of_concat(a, b):
    assert content(concat(a, b)) == content(a) | content(b)


def test_prefix_literals_round_trip():
    assert parse_prefix("0,2,#,5") == (0, 2, PAUSE, 5)
    assert parse_prefix("") == ()
    assert format_prefix((0, 2, PAUSE, 5)) == "0,2,#,5"
    assert parse_prefix(format_prefix((1, PAUSE))) == (1, PAUSE)


def test_canonical_text_finite():
    t = canonical_text(Finite(frozenset({2, 5})))
    assert t.prefix(4) == (2, 5, PAUSE, PAUSE)
    assert canonical_text(Finite(frozenset())).prefix(3) == (PAUSE,) * 3


def test_canonical_text_decidable():
    evens = Decidable("evens", lambda x: x % 2 == 0, 100)
    assert canonical_text(evens).prefix(3) == (0, 2, 4)


def test_canonical_text_finite_decidable_pads_out():
    tiny = Decidable("tiny", lambda x: x == 1, 5)
    assert canonical_text(tiny).prefix(3) == (1, PAUSE, PAUSE)


def test_finite_text_declares_content():
    t = finite_text((3, PAUSE, 1))
    assert isinstance(t.content_descriptor, Finite)
    assert t.content_descriptor.elements == {1, 3}
    assert t.at(10) == PAUSE


def test_stitched_text():
    t = stitched_text([(1, 2), (3,)])
    assert t.prefix(5) == (1, 2, 3, PAUSE, PAUSE)


def test_texts_draw_items_on_demand():
    # Blocks may call a learner (coolsep's witness text), so block k+1 is
    # drawn only once an item past block k is read.
    drawn = []

    def blocks():
        for k in range(3):
            drawn.append(k)
            yield (10 * k, 10 * k + 1)

    t = stitched_text(blocks())
    assert t.at(1) == 1 and drawn == [0]
    assert t.prefix(2) == (0, 1) and drawn == [0]
    assert t.at(2) == 10 and drawn == [0, 1]
    assert t.at(6) == PAUSE and drawn == [0, 1, 2]

    asked = []
    evens = Decidable("evens", lambda x: asked.append(x) or x % 2 == 0, 100)
    t = canonical_text(evens)
    assert t.at(2) == 4 and asked == [0, 1, 2, 3, 4]
    assert t.prefix(3) == (0, 2, 4) and asked == [0, 1, 2, 3, 4]


def test_insertion_text():
    base = finite_text((0, 2, 5))
    t = insertion_text(base, 2, 9)
    assert t.prefix(5) == (0, 2, 9, 5, PAUSE)


def test_union_with_element():
    d = union_with_element(Finite(frozenset({1})), 4)
    assert d.elements == {1, 4}
    evens = Decidable("evens", lambda x: x % 2 == 0, 10)
    d2 = union_with_element(evens, 7)
    assert d2.pred(7) and d2.pred(4) and not d2.pred(5)


def test_psd_reachable_examples():
    assert psd_reachable((frozenset(), 0), (frozenset(), 0))
    assert psd_reachable((frozenset({1}), 1), (frozenset({1, 2}), 2))
    assert not psd_reachable((frozenset({1, 2}), 2), (frozenset({1}), 3))


def test_psd_reachable_matches_brute_force_oracle():
    table = reachable_state_pairs()
    for d, t in all_states():
        for d2, t2 in all_states():
            expected = (d, t, d2, t2) in table
            assert psd_reachable((d, t), (d2, t2)) == expected, (d, t, d2, t2)


def test_psd_reachable_partial_order():
    states = [(d, t) for d, t in all_states() if len(d) <= t]
    for s in states:
        assert psd_reachable(s, s)
    for a in states:
        for b in states:
            if psd_reachable(a, b) and psd_reachable(b, a):
                assert a == b
    import random

    rng = random.Random(7)
    for _ in range(4000):
        a, b, c = rng.choice(states), rng.choice(states), rng.choice(states)
        if psd_reachable(a, b) and psd_reachable(b, c):
            assert psd_reachable(a, c)
