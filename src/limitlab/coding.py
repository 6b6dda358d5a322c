"""Cantor pairing, nested tuples, list codes and the tagged code space.

Everything downstream (indices, language codes, learner hypotheses) is a
plain ``int``; this module owns the arithmetic that packs structure into
those ints and gets it back out.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence


def pair(x: int, y: int) -> int:
    """Cantor pairing: (x+y)(x+y+1)/2 + y.  Bijective N^2 -> N and strictly
    monotone in each argument."""
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def proj1(z: int) -> int:
    return unpair(z)[0]


def proj2(z: int) -> int:
    return unpair(z)[1]


def triple(e: int, p: int, i: int) -> int:
    """Three-component code, right-nested: <e, <p, i>>."""
    return pair(e, pair(p, i))


def components(z: int) -> tuple[int, int, int]:
    """Inverse of :func:`triple`."""
    e, rest = unpair(z)
    p, i = unpair(rest)
    return e, p, i


_BASE4_DIGITS = str.maketrans("1,", "31")


def encode_list(items: Sequence[int]) -> int:
    """Injective code for finite tuples of non-negative ints; 0 is the
    empty tuple.

    Each element's binary digits are doubled (0 -> 00, 1 -> 11) and closed
    with the terminator 01; a leading 1 preserves the digit stream.  Unlike
    iterated pairing, the code grows linearly in the total bit length, so
    large sets stay tractable.

    Read in base 4, the digit pairs 00, 11 and 01 are the digits 0, 3 and
    1, so the code is built in C with one Python-level call per element:
    the elements' binary digits are joined with commas, 1 becomes 3, each
    comma a terminator 1, and the string is read in base 4.

    Raises ValueError for a negative element, which has no code.
    """
    if not items:
        return 0
    digits = ",".join(map("{:b}".format, items)) + ","
    if "-" in digits:
        raise ValueError("list codes hold non-negative ints only")
    return int("1" + digits.translate(_BASE4_DIGITS), 4)


def decode_list(code: int) -> tuple[int, ...]:
    """Left inverse of :func:`encode_list`; total (malformed digit pairs
    act as element terminators, dangling bits are dropped).

    Runs in time linear in the bit length: the even and odd bits of the
    digit stream are split apart, XOR-ed as ints to mark the terminator
    pairs (those whose two bits differ), and the even bits, which carry the
    digits, are cut at the marks.
    """
    if code <= 0:
        return ()
    stream = format(code, "b")[1:]
    width = len(stream) // 2
    if not width:
        return ()
    digits = stream[0:2 * width:2]
    marks = format(int(digits, 2) ^ int(stream[1:2 * width:2], 2),
                   f"0{width}b")
    out: list[int] = []
    start = 0
    end = marks.find("1")
    while end != -1:
        out.append(int(digits[start:end], 2) if end > start else 0)
        start = end + 1
        end = marks.find("1", start)
    if start < width:
        out.append(int(digits[start:], 2))
    return tuple(out)


def encode_set(elements: Iterable[int]) -> int:
    """Canonical code for a finite set: the list code of its sorted
    elements.  Injective on finite sets."""
    return encode_list(sorted(set(elements)))


def decode_set(code: int) -> frozenset[int]:
    return frozenset(decode_list(code))


class Tag(enum.IntEnum):
    """Partition of the code space.  Values are part of the trace format
    and must never change."""

    FIN = 0
    PAD = 1
    REG = 2
    PROG = 3
    PLAIN = 4


_MAX_TAG = int(max(Tag))


def encode(tag: Tag, payload: int) -> int:
    return pair(int(tag), payload)


def decode(code: int) -> tuple[Tag, int]:
    """Inverse of :func:`encode`.  Raises ValueError off the tagged range."""
    t, payload = unpair(code)
    if t > _MAX_TAG:
        raise ValueError(f"code {code} carries unknown tag {t}")
    return Tag(t), payload


def tag_of(code: int) -> Tag:
    t, _ = unpair(code)
    return Tag(t) if t <= _MAX_TAG else Tag.PLAIN
