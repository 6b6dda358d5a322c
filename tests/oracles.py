"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's own closed forms: the reachability
oracle enumerates presentations outright, the pairing oracle inverts by
linear search, the list-code oracles write and read one bit pair at a time,
the monotonicity oracles compare every pair of positions (one of them,
the all-pairs scan, is the reference for the checkers' one scan), the run,
flag and thm6 oracles rebuild everything from the whole prefix or content
at every step, and the session element oracles compute every element
code afresh from its closed form, with their own pairing arithmetic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from limitlab.coding import Tag, components, proj2
from limitlab.criteria import MonWitness, _runs
from limitlab.hypospace import NO, NOT_DECIDABLE
from limitlab.learnkit import G, PSD, SD
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


def encode_list_by_bits(items) -> int:
    """Write a list code one binary digit at a time: 0 -> 00, 1 -> 11, and
    01 after each element, behind a leading 1."""
    if not items:
        return 0
    bits = ["1"]
    for x in items:
        for b in format(x, "b"):
            bits.append("00" if b == "0" else "11")
        bits.append("01")
    return int("".join(bits), 2)


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


def all_pairs_scan(registry, seq, budget: int, target_decide,
                   allow_budget_witness: bool):
    """The checkers' monotonicity scan by comparing every run with every
    later run: (witness, all_exact, gaps), where ``target_decide`` restricts
    witness elements and gaps counts undecided memberships and elements it
    cannot place.

    Each run's hypothesis is checked for exactness after its own row of the
    scan, so when a witness ends the scan early, ``all_exact`` and ``gaps``
    cover only the rows before it; the checkers then refute and do not
    read them.
    """
    runs = _runs(seq)
    all_exact = True
    gaps = 0
    budget_witness: MonWitness | None = None
    for a in range(len(runs)):
        pos_n, hyp_n = runs[a]
        if hyp_n is None:
            continue
        candidates = sorted(registry.enumerate(hyp_n, budget))
        for b in range(a + 1, len(runs)):
            pos_m, hyp_m = runs[b]
            if hyp_m is None or hyp_m == hyp_n:
                continue
            for x in candidates:
                if target_decide is not None:
                    keep = target_decide(x)
                    if keep is None:
                        gaps += 1
                        continue
                    if not keep:
                        continue
                d = registry.decide(hyp_m, x)
                if d is NO:
                    return MonWitness(pos_n, pos_m, x), all_exact, gaps
                if d is NOT_DECIDABLE:
                    if not registry.member(hyp_m, x, budget):
                        w = MonWitness(pos_n, pos_m, x, tier="budget",
                                       budget=budget)
                        if allow_budget_witness:
                            return w, all_exact, gaps
                        if budget_witness is None:
                            budget_witness = w
                    gaps += 1
        if not registry.is_exact(hyp_n):
            all_exact = False
    return budget_witness, all_exact, gaps


def run_by_prefixes(h, text, horizon: int, budget: int) -> list:
    """The learner applied to the view of every prefix, each prefix read
    from the text afresh."""
    out = []
    for n in range(horizon + 1):
        prefix = tuple(text.at(i) for i in range(n))
        view = {G: prefix, PSD: (content(prefix), n), SD: content(prefix)}[h.kind]
        out.append(h.apply(view, budget))
    return out


def aux_flags_by_scan(sigma) -> tuple[int, int, int, int]:
    """(w, x, y, z) from the whole content and a scan of the whole prefix."""
    c = content(sigma)
    w = 0 if c <= {0} else 1
    x = 0 if len(c) <= 1 else 1
    elements = [item for item in sigma if item != PAUSE]
    y = next((item for item in elements if proj2(item) != 0), 0)
    z = next((item for item in elements if proj2(item) == 0), 0)
    return w, x, y, z


def thm6_by_scan(workbench, view):
    """The thm6 hypothesis from the components of every element."""
    d, t = view
    if not d:
        return workbench.p0
    decoded = [components(x) for x in d]
    firsts = {c[0] for c in decoded}
    seconds = {c[1] for c in decoded}
    if len(firsts) > 1 or len(seconds) > 1:
        return workbench.p2
    (e,), (p,) = firsts, seconds
    if not workbench.registry.halts_within(p, t):
        return e
    return workbench.registry.join(e, d)


def _cantor(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def coolsep_element_by_formula(sid: int, j: int, i: int) -> int:
    """a_j(i) of the coolsep session with id ``sid``: <PROG, <sid, <j, i>>>."""
    return _cantor(int(Tag.PROG), _cantor(sid, _cantor(j, i)))


def totalpsd_element_by_formula(sid: int, i: int) -> int:
    """a(i) of the totalpsd session with id ``sid``: <PROG, <sid, i>>."""
    return _cantor(int(Tag.PROG), _cantor(sid, i))


def sd_element_by_formula(e: int, probe: int, i: int) -> int:
    """The i-th probe element of the sd session: <e, <probe, i>>."""
    return _cantor(e, _cantor(probe, i))
