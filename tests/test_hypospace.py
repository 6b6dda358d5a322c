import pytest
from hypothesis import given, strategies as st

from limitlab.coding import Tag, encode
from limitlab.hypospace import (
    NO,
    NOT_DECIDABLE,
    YES,
    Decidable,
    DoubleBindError,
    Finite,
    Lazy,
    NotPaddedError,
    Registry,
    UnknownIndexError,
    ind,
    pad,
    unpad,
)


@pytest.fixture
def registry():
    return Registry()


def test_ind_empty_enumerates_empty(registry):
    for b in (0, 1, 100):
        assert registry.enumerate(ind(()), b) == frozenset()


def test_ind_injective_on_small_sets():
    seen = set()
    for a in range(6):
        for b in range(6):
            code = ind({a, b})
            seen.add(code)
    # {a,b} over 0..5: 15 two-element sets + 6 singletons
    assert len(seen) == 21


def test_pad_delegates_and_unpads(registry):
    e = ind({5})
    padded = pad(e, [0])
    for b in (0, 7):
        assert registry.enumerate(padded, b) == {5}
    assert unpad(padded, 1) == e
    assert unpad(padded, 2) == 0


@pytest.mark.parametrize("code", [ind({3, 1, 4}), ind(()),
                                  pad(ind({2, 9}), [7, 0]),
                                  pad(pad(ind({5}), [1]), [2, 3])])
def test_structural_descriptor_decoded_once(code):
    registry = Registry()
    first = registry.descriptor(code)
    assert first == Registry().descriptor(code)
    assert registry.descriptor(code) is first
    for x in range(12):
        assert registry.decide(code, x) is Registry().decide(code, x)
    for b in (0, 20):
        assert registry.enumerate(code, b) == Registry().enumerate(code, b)
    assert registry.is_exact(code)


def test_pad_injective():
    codes = {pad(ind({1}), [k]) for k in range(20)}
    codes |= {pad(ind({k}), [0]) for k in range(20)}
    assert len(codes) == 39  # pad(ind({1}), [0]) occurs in both families


def test_unpad_errors():
    with pytest.raises(NotPaddedError):
        unpad(ind({1}), 1)
    with pytest.raises(NotPaddedError):
        unpad(pad(ind(()), [1]), 3)
    with pytest.raises(ValueError):
        pad(ind(()), [])


def test_join_laws(registry):
    assert registry.enumerate(registry.join(ind(()), {1}), 5) == {1}
    e = registry.register(Finite(frozenset({3, 4})))
    assert registry.enumerate(registry.join(e, ()), 5) == {3, 4}
    assert registry.enumerate(registry.join(ind({2}), {2, 4}), 5) == {2, 4}
    # memoized
    assert registry.join(e, {7}) == registry.join(e, {7})


def test_allocate_then_bind(registry):
    x = registry.allocate()
    assert registry.enumerate(x, 100) == frozenset()
    assert registry.decide(x, 0) is NOT_DECIDABLE
    registry.bind(x, Finite(frozenset({9})))
    assert registry.enumerate(x, 100) == {9}
    assert registry.decide(x, 9) is YES
    with pytest.raises(DoubleBindError):
        registry.bind(x, Finite(frozenset()))


def test_bind_requires_allocation(registry):
    with pytest.raises(UnknownIndexError):
        registry.bind(encode(Tag.REG, 99), Finite(frozenset()))
    with pytest.raises(UnknownIndexError):
        registry.bind(ind({1}), Finite(frozenset()))


def test_unstructured_codes_are_empty(registry):
    prog = encode(Tag.PROG, 5)
    assert registry.enumerate(prog, 50) == frozenset()
    assert registry.decide(prog, 3) is NO


def test_decidable_enumeration_budget(registry):
    evens = registry.register(Decidable("evens", lambda x: x % 2 == 0, 100))
    assert registry.enumerate(evens, 10) == {0, 2, 4, 6, 8, 10}
    assert registry.enumerate(evens, 10) <= frozenset(range(0, 101, 2)) | frozenset(range(102, 200, 2))
    assert registry.decide(evens, 7) is NO


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_lazy_enumeration_monotone(b1, b2):
    registry = Registry()
    lazy = registry.register(
        Lazy("ramp", lambda b: frozenset(range(0, b, 3))))
    lo, hi = sorted((b1, b2))
    assert registry.enumerate(lazy, lo) <= registry.enumerate(lazy, hi)


def test_lazy_without_decide_is_semi_decidable(registry):
    lazy = registry.register(Lazy("mystery", lambda b: frozenset({1})))
    assert registry.decide(lazy, 1) is NOT_DECIDABLE
    assert not registry.is_exact(lazy)
    assert registry.member(lazy, 1, 0)


def test_payload_budget_gating(registry):
    code = encode(Tag.PROG, 77)
    registry.set_payload(code, 42, cost=10)
    assert registry.payload(code, 9) is None
    assert registry.payload(code, 10) == 42
    assert registry.payload(ind({1}), 100) is None
    with pytest.raises(DoubleBindError):
        registry.set_payload(code, 0)


def test_halting_probe(registry):
    code = encode(Tag.PROG, 78)
    registry.set_halting(code, 5)
    assert not registry.halts_within(code, 4)
    assert registry.halts_within(code, 5)
    assert not registry.halts_within(encode(Tag.PROG, 79), 1000)


def test_lang_equal_confirmed(registry):
    target = Finite(frozenset({0, 2, 4, 5}))
    res = registry.lang_equal(ind({0, 2, 4, 5}), target, budget=100, bound=100)
    assert res.confirmed


def test_lang_equal_refuted_extra(registry):
    res = registry.lang_equal(ind({0, 9}), Finite(frozenset({0})), 100, 100)
    assert res.kind == "refuted-extra" and res.element == 9


def test_lang_equal_refuted_missing(registry):
    res = registry.lang_equal(ind({0}), Finite(frozenset({0, 3})), 100, 100)
    assert res.kind == "refuted-missing" and res.element == 3


def test_lang_equal_inconclusive_on_semi_decidable(registry):
    lazy = registry.register(Lazy("partial", lambda b: frozenset({0, 3})))
    res = registry.lang_equal(lazy, Finite(frozenset({0, 3})), 100, 100)
    assert res.kind == "inconclusive"


def test_binding_is_append_only(registry):
    """Registering new indices never changes earlier enumerations."""
    e = registry.register(Finite(frozenset({1})))
    before = registry.enumerate(e, 50)
    for k in range(10):
        registry.register(Finite(frozenset({k})))
    assert registry.enumerate(e, 50) == before
