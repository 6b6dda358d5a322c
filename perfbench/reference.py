"""Reference model the benchmark checks limitlab's outputs against.

Everything here is written from the documented definitions, not imported
from limitlab: Cantor pairing, the doubled-digit list code, the five-tag
code space, the two standing REG languages of a fresh ``Workbench``
(evens, then naturals), the sample learners and brute-force versions of
the criteria.  An output is accepted only when it agrees with what this
module computes on its own.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

PAUSE = "#"

FIN, PAD, REG, PROG, PLAIN = range(5)

# A fresh Workbench registers evens, then naturals, as its first two REG
# payloads (after any REG codes its registry allocated before).
EVENS_PAYLOAD = 0
NATURALS_PAYLOAD = 1

# limitlab's defaults for --budget, --bound and a Workbench's declared
# element bound.
ENUM_BUDGET = 500
EQUALITY_BOUND = 100
DECLARED_BOUND = 100


class Mismatch(Exception):
    """An output disagrees with the reference model."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# --------------------------------------------------------------------------
# Coding


def pair(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def components(z: int) -> tuple[int, int, int]:
    e, rest = unpair(z)
    p, i = unpair(rest)
    return e, p, i


_DOUBLED = str.maketrans({"0": "00", "1": "11"})


def encode_list(items: Sequence[int]) -> int:
    """A leading 1, then each element's binary digits doubled (0 -> 00,
    1 -> 11) and closed by the terminator 01; the empty tuple is 0."""
    if not items:
        return 0
    digits = "".join(bin(x)[2:].translate(_DOUBLED) + "01" for x in items)
    return int("1" + digits, 2)


def decode_list(code: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_list`, read two bits at a time from the
    top: a digit pair other than 00/11 ends an element, and a dangling
    odd bit at the bottom is dropped."""
    if code <= 0:
        return ()
    width = code.bit_length() - 1  # bits after the leading 1
    out: list[int] = []
    value = 0
    digits = 0
    for shift in range(width - 2, -1 if width % 2 == 0 else 0, -2):
        d = (code >> shift) & 0b11
        if d == 0b00 or d == 0b11:
            value = (value << 1) | (d & 1)
            digits += 1
        else:
            out.append(value)
            value = 0
            digits = 0
    if digits:
        out.append(value)
    return tuple(out)


def encode(tag: int, payload: int) -> int:
    return pair(tag, payload)


def ind(elements: Iterable[int]) -> int:
    return encode(FIN, encode_list(sorted(set(elements))))


def pad(e: int, extras: Sequence[int]) -> int:
    return encode(PAD, pair(e, encode_list(extras)))


def reg(payload: int) -> int:
    return encode(REG, payload)


def prog(payload: int) -> int:
    return encode(PROG, payload)


# --------------------------------------------------------------------------
# Languages: ("finite", frozenset) | ("evens",) | ("naturals",)

EMPTY = ("finite", frozenset())
EVENS = ("evens",)
NATURALS = ("naturals",)


def finite(elements: Iterable[int]) -> tuple:
    return ("finite", frozenset(elements))


def workbench_regs(earlier: int = 0) -> dict[int, tuple]:
    """REG payloads of a registry whose Workbench came after ``earlier``
    other allocations; those earlier (session) languages are opaque."""
    return {earlier + EVENS_PAYLOAD: EVENS, earlier + NATURALS_PAYLOAD: NATURALS}


def language(index: int, regs: dict[int, tuple] | None = None) -> tuple:
    """W(index).  Unbound REG, PROG, PLAIN and out-of-range tags denote the
    empty language."""
    if regs is None:
        regs = workbench_regs()
    while True:
        tag, payload = unpair(index)
        if tag == FIN:
            return finite(decode_list(payload))
        if tag == PAD:
            index, _ = unpair(payload)
            continue
        if tag == REG:
            return regs.get(payload, EMPTY)
        return EMPTY


def contains(lang: tuple, x: int) -> bool:
    if lang[0] == "finite":
        return x in lang[1]
    if lang[0] == "evens":
        return x % 2 == 0
    return True


def enumerated(lang: tuple, budget: int) -> list[int]:
    """Ascending elements an enumeration with this budget shows: all of a
    finite language, the elements up to the budget of an infinite one."""
    if lang[0] == "finite":
        return sorted(lang[1])
    return list(range(0, budget + 1, 2 if lang[0] == "evens" else 1))


def odd_class(odd: int) -> frozenset[int]:
    return frozenset(range(0, odd, 2)) | {odd}


def target_language(spec: str) -> tuple:
    if spec == "2N":
        return EVENS
    if spec == "N":
        return NATURALS
    if spec.startswith("L"):
        return finite(odd_class(int(spec[1:])))
    return finite(int(part) for part in spec.split(",") if part.strip())


# --------------------------------------------------------------------------
# Texts


def literal_items(spec: str) -> list:
    return [PAUSE if raw.strip() == PAUSE else int(raw)
            for raw in spec.split(",") if raw.strip()]


def text_items(spec: str, n: int) -> list:
    """First n items of a CLI text spec: ``canonical:<2N|N|L<odd>>`` or a
    literal prefix, followed by pauses."""
    if spec == "canonical:N":
        return list(range(n))
    if spec == "canonical:2N":
        return list(range(0, 2 * n, 2))
    if spec.startswith("canonical:L"):
        items = sorted(odd_class(int(spec[len("canonical:L"):])))
    else:
        items = literal_items(spec)
    return (items + [PAUSE] * n)[:n]


def text_language(spec: str) -> tuple:
    """The declared content of a text spec."""
    if spec.startswith("canonical:"):
        return target_language(spec[len("canonical:"):])
    return finite(x for x in literal_items(spec) if x != PAUSE)


# --------------------------------------------------------------------------
# Learners, on partially set-driven views (content, count).  Every learner
# the reference knows is content driven; set-driven ones ignore the count.

CONTENT_LEARNERS = ("set-copier", "min-consistent", "always-change")


class Learner:
    def __init__(self, spec: str, earlier_regs: int = 0) -> None:
        self.spec = spec
        self._evens = reg(earlier_regs + EVENS_PAYLOAD)
        self._naturals = reg(earlier_regs + NATURALS_PAYLOAD)
        self._ind: dict[frozenset[int], int] = {}
        if spec.startswith("constant:"):
            raw = spec.split(":")[1]
            self._constant = {"N": self._naturals, "naturals": self._naturals,
                              "2N": self._evens, "evens": self._evens}.get(raw)
            if self._constant is None:
                self._constant = int(raw)
        elif spec not in CONTENT_LEARNERS + ("thm3", "thm5", "thm6"):
            raise ValueError(f"no reference learner for {spec!r}")

    def index_of(self, d: frozenset[int]) -> int:
        if d not in self._ind:
            self._ind[d] = ind(d)
        return self._ind[d]

    def __call__(self, d: frozenset[int], t: int) -> int | None:
        spec = self.spec
        if spec in ("set-copier", "min-consistent"):
            return self.index_of(d)
        if spec == "always-change":
            return pad(self.index_of(d), [t + 1])
        if spec == "thm3":
            odds = [x for x in d if x % 2]
            return ind(odd_class(min(odds))) if odds else self._evens
        if spec == "thm5":
            # No element of a fresh registry carries a program payload, so
            # two or more elements get no answer.
            if len(d) >= 2:
                return None
            return pad(self.index_of(d), [0])
        if spec == "thm6":
            # No halting probe is registered, so uniform content answers
            # its shared first component.
            if not d:
                return ind(())
            parts = [components(x) for x in d]
            if len({c[0] for c in parts}) > 1 or len({c[1] for c in parts}) > 1:
                return self._naturals
            return parts[0][0]
        return self._constant


def learning_sequence(learner_spec: str, text_spec: str, horizon: int) -> list:
    """Hypotheses on the prefixes of length 0..horizon.  Content only grows
    along a text, so content-determined answers are reused until it does."""
    h = Learner(learner_spec)
    uses_count = learner_spec == "always-change"
    items = text_items(text_spec, horizon)
    d: set[int] = set()
    frozen = frozenset()
    out = []
    for t in range(horizon + 1):
        if t and items[t - 1] != PAUSE and items[t - 1] not in d:
            d.add(items[t - 1])
            frozen = frozenset(d)
        elif t and not uses_count:
            out.append(out[-1])
            continue
        out.append(h(frozen, t))
    return out


def mind_changes(h: Learner, prefix: list) -> int:
    changes = 0
    d: set[int] = set()
    before = h(frozenset(), 0)
    for t, x in enumerate(prefix, 1):
        if x != PAUSE:
            d.add(x)
        after = h(frozenset(d), t)
        changes += after != before
        before = after
    return changes


# --------------------------------------------------------------------------
# check, by brute force


def _runs(seq: list) -> list[int]:
    """Start positions of the runs of equal consecutive entries."""
    return [i for i in range(len(seq)) if i == 0 or seq[i] != seq[i - 1]]


def mon_violation(seq: list, budget: int, within: tuple | None) -> bool:
    """Whether some hypothesis shows, within the enumeration budget, an
    element that a later defined hypothesis lacks.  All pairs are scanned;
    ``within`` restricts the element to a text's content (plain
    monotonicity)."""
    values = [seq[i] for i in _runs(seq) if seq[i] is not None]
    langs = {h: language(h) for h in values}
    for a, h_n in enumerate(values):
        shown = [x for x in enumerated(langs[h_n], budget)
                 if within is None or contains(within, x)]
        for h_m in values[a + 1:]:
            if h_m != h_n and any(not contains(langs[h_m], x) for x in shown):
                return True
    return False


EXIT_OF = {"confirmed": 0, "refuted": 1, "inconclusive": 3}


def check_monotonicity(out: dict, rc: int, seq: list, criterion: str,
                       text_spec: str, budget: int) -> None:
    within = text_language(text_spec) if criterion == "mon" else None
    if mon_violation(seq, budget, within):
        verdict = "refuted"
        w = out["witness"] or {}
        n, m, x = w.get("n"), w.get("m"), w.get("x")
        expect(w.get("tier") == "exact", "refutation witness is not exact")
        expect(isinstance(n, int) and isinstance(m, int) and 0 <= n < m < len(seq),
               f"witness positions {n}, {m} out of order")
        expect(seq[n] is not None and seq[m] is not None, "witness at an undefined entry")
        expect(x in enumerated(language(seq[n]), budget), "x not in W(h_n)")
        expect(not contains(language(seq[m]), x), "x still in W(h_m)")
        expect(within is None or contains(within, x), "x outside the text's content")
    elif any(h is None for h in seq):
        verdict = "inconclusive"
    else:
        verdict = "confirmed"
    expect(out["verdict"] == verdict, f"expected {verdict}, got {out['verdict']}")
    expect(rc == EXIT_OF[verdict], f"{verdict} verdict exited {rc}")


def bounded_equal(hyp: tuple, target: tuple, budget: int, bound: int) -> str:
    """limitlab's documented bounded equality: no enumerated element
    outside the target, every target element up to the bound present, and
    a budget of at least the bound."""
    if any(not contains(target, x) for x in enumerated(hyp, budget)):
        return "refuted"
    needed = (sorted(target[1]) if target[0] == "finite"
              else enumerated(target, min(bound, DECLARED_BOUND)))
    if any(not contains(hyp, x) for x in needed):
        return "refuted"
    return "confirmed" if budget >= bound else "inconclusive"


def expected_convergence(criterion: str, seq: list, target: tuple,
                         budget: int, bound: int) -> tuple[str, int | None]:
    """(verdict, n0) of ex or bc on a finite learning sequence."""
    if criterion == "ex":
        if any(h is None for h in seq):
            return "refuted", None
        starts = _runs(seq)
        n0 = starts[-1]
        if n0 == len(seq) - 1 and len(seq) > 1:
            return ("refuted" if len(starts) > 2 else "inconclusive"), None
        verdict = bounded_equal(language(seq[-1]), target, budget, bound)
        return verdict, (n0 if verdict == "confirmed" else None)
    results = [None if h is None else bounded_equal(language(h), target, budget, bound)
               for h in seq]
    if results[-1] in (None, "refuted"):
        return "refuted", None
    n0 = len(seq)
    while n0 > 0 and results[n0 - 1] == "confirmed":
        n0 -= 1
    return ("confirmed", n0) if n0 < len(seq) else ("inconclusive", None)


def check_convergence(out: dict, rc: int, seq: list, criterion: str,
                      target_spec: str, budget: int, bound: int) -> None:
    verdict, n0 = expected_convergence(criterion, seq, target_language(target_spec),
                                       budget, bound)
    expect(out["verdict"] == verdict, f"expected {verdict}, got {out['verdict']}")
    if verdict == "confirmed":
        expect(out["n0"] == n0, f"expected n0 {n0}, got {out['n0']}")
    expect(rc == EXIT_OF[verdict], f"{verdict} verdict exited {rc}")


# --------------------------------------------------------------------------
# learn


def check_learn(out: dict, rc: int, learner_spec: str, text_spec: str,
                horizon: int) -> None:
    expect(rc == 0, f"learn exited {rc}")
    entries = out["entries"]
    expect(out["learner"] == learner_spec and out["text"] == text_spec
           and out["horizon"] == horizon, "learn header does not echo the request")
    expect(len(entries) == horizon + 1, f"{len(entries)} entries for horizon {horizon}")
    if learner_spec == "thm4":
        check_thm4_entries(entries)
        return
    want = learning_sequence(learner_spec, text_spec, horizon)
    for i, (got, ref) in enumerate(zip(entries, want)):
        expect(got == ref, f"entry {i} differs from the reference learner")


def check_thm4_entries(entries: list) -> None:
    """Each entry is PAD-coded with four flags, and each flag changes its
    value at most once along the run."""
    previous = None
    changes = [0, 0, 0, 0]
    for i, entry in enumerate(entries):
        expect(isinstance(entry, int), f"entry {i} is undefined")
        tag, payload = unpair(entry)
        expect(tag == PAD, f"entry {i} is not PAD-coded")
        flags = decode_list(unpair(payload)[1])
        expect(len(flags) == 4, f"entry {i} carries {len(flags)} flags")
        if previous is not None:
            for k in range(4):
                changes[k] += flags[k] != previous[k]
        previous = flags
    expect(max(changes) <= 1, f"a flag changed {max(changes)} times")


# --------------------------------------------------------------------------
# adversary

# REG codes each session allocates before its learner factory runs, and so
# before a Workbench built there registers evens and naturals.
SESSION_REGS = {"coolsep": 1, "gsmon": 1, "totalpsd": 2, "sd": 1}

# The first session of a fresh registry gets id 1.
SESSION_ID = 1

# The report each session must give against each sample learner, from the
# learner's definition.
EXPECTED_VARIANT = {
    # The overgeneralizer answers a whole family after one element of it;
    # content copiers never propose an element they have not seen.
    ("coolsep", "family-overgeneralizer"): "WrongForever",
    ("coolsep", "set-copier"): "FailsToOvergeneralize",
    ("coolsep", "min-consistent"): "FailsToOvergeneralize",
    ("coolsep", "always-change"): "FailsToOvergeneralize",
    # Every new probe changes a content-driven learner's mind; a constant
    # never changes, and N holds every probe.
    ("gsmon", "always-change"): "InfiniteMindChanges",
    ("gsmon", "min-consistent"): "InfiniteMindChanges",
    ("gsmon", "set-copier"): "InfiniteMindChanges",
    ("gsmon", "constant:N:Psd"): "MonotonicityTrap",
    ("totalpsd", "set-copier"): "InfiniteMindChanges",
    ("totalpsd", "min-consistent"): "InfiniteMindChanges",
    ("totalpsd", "always-change"): "InfiniteMindChanges",
    ("totalpsd", "constant:N:Psd"): "ConfusedPair",
    ("sd", "set-copier"): "InfiniteMindChanges",
    ("sd", "constant:N"): "ConfusedPair",
}


def check_session(out: dict, rc: int, session: str, spec: str, goal: int,
                  error_goal: int, search_bound: int,
                  budget: int = ENUM_BUDGET) -> None:
    variant = EXPECTED_VARIANT[(session, spec)]
    expect(out["variant"] == variant, f"expected {variant}, got {out['variant']}")
    expect(out["theorem"] == session, "report names another session")
    expect(rc == 0, f"definitive report exited {rc}")
    ev = out["evidence"][0]
    if variant == "WrongForever":
        check_wrong_forever(ev, error_goal)
        return
    earlier = SESSION_REGS[session]
    h = Learner(spec, earlier)
    regs = workbench_regs(earlier)
    if variant == "InfiniteMindChanges":
        expect(ev["count"] == goal, f"count {ev['count']} for goal {goal}")
        changes = mind_changes(h, ev["text_prefix"])
        expect(changes >= goal, f"{changes} mind changes along text_prefix, goal {goal}")
    elif variant == "ConfusedPair" and session == "sd":
        small = frozenset(decode_list(unpair(ev["L"])[1]))
        large = frozenset(decode_list(unpair(ev["L_prime"])[1]))
        expect(small < large and ev["separating_element"] in large - small,
               "separating element is not in L' minus L")
        expect(h(small, len(small)) == h(large, len(large)) == ev["shared_hypothesis"],
               "fresh calls do not give the shared hypothesis on both contents")
    elif variant == "ConfusedPair":
        k = ev["stage"]
        ak = prog(pair(SESSION_ID, k))
        expect(ev["element"] == ak, "confused element is not a(k)")
        expect(ev["element_outside_L"] is True, "a(k) is not shown outside L")
        before = frozenset(prog(pair(SESSION_ID, j)) for j in range(k))
        samples = ev["kept_membership_samples"]
        t = samples[0]["count"]
        shared = ev["shared_hypothesis"]
        expect(shared["before"] == h(before, t) and shared["after"] == h(before | {ak}, t + 1)
               and shared["before"] == shared["after"],
               "fresh calls do not give the shared hypothesis on both contents")
        for sample in samples:
            hyp = h(before, sample["count"])
            expect(sample["hypothesis"] == hyp, "membership sample differs from a fresh call")
            expect(sample["member"] == (ak in enumerated(language(hyp, regs), budget)),
                   "kept element's membership disagrees with the reference")
    elif variant == "MonotonicityTrap":
        check_monotonicity_trap(ev, h, regs, budget)
    else:
        expect(ev["family"] == 0 and ev["search_bound"] == search_bound
               and ev["wrong_positions_so_far"] == [],
               "the learner overgeneralized on family 0")
        family = [prog(pair(SESSION_ID, pair(0, i))) for i in range(search_bound + 1)]
        for i in sorted({0, 1, search_bound // 2, search_bound}):
            hyp = h(frozenset(family[:i]), i)
            expect(family[i] not in enumerated(language(hyp, regs), budget),
                   f"a_0({i}) is in the hypothesis on a_0[{i}]")


def check_monotonicity_trap(ev: dict, h: Learner, regs: dict, budget: int) -> None:
    k = ev["stage"]
    e = reg(0)  # the session's union index is its first allocation
    x1, x2 = pair(e, 2 * k + 1), pair(e, 2 * k + 2)
    expect(ev["kept_elements"] == [x1, x2], "kept elements are not the stage's probes")
    sigma = ev["sigma_k"]
    d = frozenset(x for x in sigma if x != PAUSE)
    base = h(d, len(sigma))
    expect(ev["base_hypothesis"] == base, "base hypothesis differs from a fresh call")
    times = ev["singleton_times"]
    for rec, probe in zip(ev["membership_after_singleton_block"], (2 * k + 1, 2 * k + 2)):
        x = rec["element"]
        hyp = h(d | {x}, times[str(probe)] + len(sigma))
        expect(rec["hypothesis"] == hyp, "singleton-block hypothesis differs from a fresh call")
        expect(rec["member"] == (x in enumerated(language(hyp, regs), budget)),
               "marked element's membership disagrees with the reference")
        expect(rec["member"], "a kept element never entered the hypothesis")
    for rec in ev["state_coincidence"]:
        hyp = h(d | {rec["element"]}, rec["length"])
        expect(rec["hypothesis"] == hyp and rec["equals_base"] == (hyp == base),
               "state coincidence differs from a fresh call")
    expect(any(rec["equals_base"] for rec in ev["state_coincidence"]),
           "no state coincides with the base")


def check_wrong_forever(ev: dict, error_goal: int) -> None:
    """The family overgeneralizer learns a family from its first element
    (f(j) = 1), so the witness text is a_0(0) a_1(0) ..., and after a_j(0)
    it proposes the union of families 0..j.  That union holds the marked
    a_j(1), which the session's union language (a_j(i) for i < f(j))
    lacks."""
    def element(j: int, i: int) -> int:
        return prog(pair(SESSION_ID, pair(j, i)))

    wrong = ev["wrong_positions"]
    expect(len(wrong) >= error_goal, f"{len(wrong)} wrong positions, goal {error_goal}")
    prefix = ev["text_prefix"]
    expect(prefix == [element(j, 0) for j in range(len(prefix))],
           "witness text is not a_0(0) a_1(0) ...")
    union_of: dict[int, int] = {}
    for rec in wrong:
        j = rec["family"]
        expect(rec["position"] == j + 1 <= len(prefix), "wrong position is not right after a_j(0)")
        expect(rec["element"] == element(j, 1), "marked element is not a_j(f(j))")
        expect(unpair(rec["hypothesis"])[0] == REG, "hypothesis is not a session language")
        # One index per union of families: the hypothesis after a_j(0)
        # names families 0..j, which no other position names.
        expect(union_of.setdefault(rec["hypothesis"], j) == j,
               "one index names two different family unions")
