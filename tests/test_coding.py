import pytest
from hypothesis import example, given, strategies as st

from limitlab.coding import (
    Tag,
    components,
    decode,
    decode_list,
    decode_set,
    encode,
    encode_list,
    encode_set,
    pair,
    proj1,
    proj2,
    tag_of,
    triple,
    unpair,
)
from oracles import decode_list_by_pairs, encode_list_by_bits, pair_by_search

nats = st.integers(min_value=0, max_value=10**18)


def test_pair_base_cases():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2
    assert pair(3, 0) == 6
    assert pair(1, 2) == 8
    assert pair(2, 2) == 12


def test_projections_base_cases():
    assert proj1(2) == 0 and proj2(2) == 1
    assert proj1(pair(7, 9)) == 7
    assert proj2(0) == 0


@given(nats, nats)
def test_pair_round_trip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(min_value=0, max_value=10**12))
def test_unpair_is_right_inverse(z):
    x, y = unpair(z)
    assert pair(x, y) == z


def test_pair_agrees_with_search_oracle():
    for z in range(500):
        assert unpair(z) == pair_by_search(z)


def test_pair_strictly_monotone():
    for x in range(30):
        for y in range(30):
            assert pair(x + 1, y) > pair(x, y)
            assert pair(x, y + 1) > pair(x, y)


@given(nats, nats, nats)
def test_triple_round_trip(e, p, i):
    assert components(triple(e, p, i)) == (e, p, i)


def test_triple_base_cases():
    assert triple(0, 0, 0) == 0
    seen = set()
    for e in range(8):
        for p in range(8):
            for i in range(8):
                seen.add(triple(e, p, i))
    assert len(seen) == 512


@given(st.lists(nats, max_size=8))
def test_list_code_round_trip(items):
    assert decode_list(encode_list(tuple(items))) == tuple(items)


def test_list_code_empty_is_zero():
    assert encode_list(()) == 0
    assert decode_list(0) == ()


@example([], -5, [])
@given(st.lists(nats, max_size=6), st.integers(max_value=-1),
       st.lists(nats, max_size=6))
def test_encode_list_rejects_negative_elements(before, negative, after):
    with pytest.raises(ValueError):
        encode_list([*before, negative, *after])


@given(st.integers(min_value=0, max_value=10**9))
def test_decode_list_total(code):
    decode_list(code)  # must never raise


# Codes built from digit pairs hit terminators, malformed pairs (10) and a
# dangling last bit far more often than uniform ints do.
pair_streams = st.builds(
    lambda pairs, tail: int("1" + "".join(pairs) + tail, 2),
    st.lists(st.sampled_from(("00", "11", "01", "10")), max_size=80),
    st.sampled_from(("", "0", "1")))


@given(st.one_of(st.integers(min_value=0, max_value=2**700), pair_streams,
                 st.lists(nats, max_size=12).map(encode_list)))
def test_decode_list_matches_pairwise_reference(code):
    assert decode_list(code) == decode_list_by_pairs(code)


@given(st.lists(st.integers(min_value=0, max_value=2**700), max_size=12))
def test_encode_list_matches_bitwise_reference(items):
    assert encode_list(items) == encode_list_by_bits(items)
    assert encode_list(tuple(items)) == encode_list_by_bits(items)


@given(st.frozensets(nats, max_size=8))
def test_set_code_round_trip(elements):
    assert decode_set(encode_set(elements)) == elements


def test_set_code_canonical_in_order():
    assert encode_set([3, 1, 2]) == encode_set([2, 3, 1, 1])


def test_tag_values_are_stable():
    assert [t.value for t in Tag] == [0, 1, 2, 3, 4]


def test_tag_space_partition():
    seen = {}
    for tag in Tag:
        for payload in range(300):
            code = encode(tag, payload)
            assert code not in seen
            seen[code] = (tag, payload)
            assert decode(code) == (tag, payload)
            assert tag_of(code) is tag


def test_decode_rejects_foreign_tags():
    with pytest.raises(ValueError):
        decode(pair(9, 0))
    assert tag_of(pair(9, 0)) is Tag.PLAIN
