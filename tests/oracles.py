"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's own closed forms: the reachability
oracle enumerates presentations outright, the pairing oracle inverts by
linear search, the list-code oracle reads one bit pair at a time, and the
monotonicity oracle compares every pair of positions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from limitlab.hypospace import NO
from limitlab.textkit import PAUSE, content

ALPHABET = (0, 1, 2, 3, PAUSE)
MAX_LEN = 6


@lru_cache(maxsize=1)
def reachable_state_pairs() -> frozenset[tuple]:
    """All ((D,t),(D',t')) with some presentation over {0..3,#} of length
    <= 6 whose length-t prefix has content D and length-t' prefix content D'."""
    found = set()
    for t2 in range(MAX_LEN + 1):
        for seq in itertools.product(ALPHABET, repeat=t2):
            c2 = content(seq)
            for t in range(t2 + 1):
                found.add((content(seq[:t]), t, c2, t2))
    return frozenset(found)


def pair_by_search(z: int, limit: int = 2000) -> tuple[int, int]:
    """Invert the diagonal pairing by walking the diagonals."""
    for s in range(limit):
        base = s * (s + 1) // 2
        if base <= z <= base + s:
            y = z - base
            return s - y, y
    raise ValueError(f"no preimage below diagonal {limit}")


def all_states(max_t: int = MAX_LEN):
    for t in range(max_t + 1):
        for bits in itertools.product((0, 1), repeat=4):
            yield frozenset(i for i, b in enumerate(bits) if b), t


def decode_list_by_pairs(code: int) -> tuple[int, ...]:
    """Decode a list code one digit pair at a time: 00 and 11 are digits,
    01 and 10 end an element, a dangling last bit is dropped."""
    if code <= 0:
        return ()
    stream = format(code, "b")[1:]
    out: list[int] = []
    digits = ""
    for k in range(0, len(stream) - len(stream) % 2, 2):
        d = stream[k:k + 2]
        if d == "00":
            digits += "0"
        elif d == "11":
            digits += "1"
        else:
            out.append(int(digits, 2) if digits else 0)
            digits = ""
    if digits:
        out.append(int(digits, 2))
    return tuple(out)


def first_violation(registry, seq, budget: int, keep=None):
    """The first (n, m, x), in the order of n, then m, then x, with n < m,
    x enumerated for seq[n] and decided out of seq[m]; ``keep`` restricts x.
    Every position is compared with every later one, so this is only
    meant for exact hypotheses and short sequences."""
    for n, hyp_n in enumerate(seq):
        if hyp_n is None:
            continue
        elements = sorted(registry.enumerate(hyp_n, budget))
        for m in range(n + 1, len(seq)):
            if seq[m] is None:
                continue
            for x in elements:
                if (keep is None or keep(x)) and registry.decide(seq[m], x) is NO:
                    return n, m, x
    return None
