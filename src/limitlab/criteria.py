"""Finite-horizon, budget-aware checkers for explanatory, behaviourally
correct, strongly monotone and monotone learning, their global variants,
and the text-surgery step turning a strong-monotonicity violation of a
starred learner into a monotonicity violation.

Verdicts are three-valued: a checker never silently asserts a fact it could
not establish within its budgets.

A monotonicity witness (n, m, x) is the least in the order of n, then m,
then x.  One scan finds it for every kind of hypothesis: each element is
checked from the first run that enumerates it against each later run, up
to its first miss, in about (runs) x (elements) ``decide`` calls.  Only an
exact witness refutes, one whose x is decided out of the later hypothesis.
A membership that no ``decide`` settled yields at most a budget-tier near
witness, in an inconclusive verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hypospace import (
    NO,
    NOT_DECIDABLE,
    Decidable,
    Finite,
    Index,
    LangEqual,
    Lazy,
    Registry,
    descriptor_decides,
    descriptor_elements,
)
from .learnkit import Learner, LearningSequence, run, star
from .textkit import Text, content, insertion_text, union_with_element

CONFIRMED = "confirmed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class InvalidWitnessError(Exception):
    pass


@dataclass(frozen=True)
class MonWitness:
    """A monotonicity violation: element x proposed at position n is gone
    from the hypothesis at position m."""

    n: int
    m: int
    x: int
    tier: str = "exact"  # "exact" or "budget"
    budget: int | None = None

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "x": self.x, "tier": self.tier,
                "budget": self.budget}


@dataclass
class Verdict:
    criterion: str
    kind: str  # confirmed | refuted | inconclusive
    witness: MonWitness | None = None
    n0: int | None = None
    reason: str | None = None
    evidence: dict = field(default_factory=dict)

    @property
    def confirmed(self) -> bool:
        return self.kind == CONFIRMED

    @property
    def refuted(self) -> bool:
        return self.kind == REFUTED

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.kind,
            "witness": self.witness.to_json() if self.witness else None,
            "n0": self.n0,
            "reason": self.reason,
            "evidence": self.evidence,
        }


def _runs(seq: LearningSequence) -> list[tuple[int, Index | None]]:
    """Compress a learning sequence into (first position, value) runs."""
    out: list[tuple[int, Index | None]] = []
    for i, value in enumerate(seq):
        if not out or out[-1][1] != value:
            out.append((i, value))
    return out


# --------------------------------------------------------------------------
# Convergence criteria

def _first_unshown(text: Text, horizon: int, target, bound: int) -> int | None:
    """The first target element up to the bound (every element of a finite
    target) that the text's first ``horizon`` items do not show, or None."""
    shown = content(text.prefix(horizon))
    return next((x for x in descriptor_elements(target, bound) if x not in shown),
                None)


def _cut_short(criterion: str, x: int, evidence: dict) -> Verdict:
    return Verdict(criterion, INCONCLUSIVE,
                   reason=f"horizon ends before target element {x} is shown",
                   evidence={**evidence, "unshown": x})


def check_ex(registry: Registry, seq: LearningSequence, text: Text, target,
             budget: int, bound: int) -> Verdict:
    """Syntactic convergence to one correct index.

    An undefined entry is a failure.  A sequence still moving at the final
    entry is refuted as unstable when it shows repeated mind changes, and
    inconclusive when the horizon simply cut a single late change short.
    An incorrect final hypothesis refutes only once the text has shown
    every target element up to the bound; before that the horizon may
    have cut a mind change short, and the verdict is inconclusive.
    """
    if any(entry is None for entry in seq):
        pos = seq.index(None)
        return Verdict("ex", REFUTED, reason=f"undefined entry at {pos}",
                       evidence={"position": pos})
    runs = _runs(seq)
    n0 = runs[-1][0]
    if n0 == len(seq) - 1 and len(seq) > 1:
        if len(runs) > 2:
            return Verdict("ex", REFUTED, reason="no syntactic convergence",
                           evidence={"mind_changes": len(runs) - 1})
        return Verdict("ex", INCONCLUSIVE, reason="horizon exhausted")
    final = seq[-1]
    eq = registry.lang_equal(final, target, budget, bound)
    evidence = {"final": final, "lang_equal": eq.to_json()}
    if eq.confirmed:
        return Verdict("ex", CONFIRMED, n0=n0, evidence=evidence)
    if eq.refuted:
        unshown = _first_unshown(text, len(seq) - 1, target, bound)
        if unshown is not None:
            return _cut_short("ex", unshown, evidence)
        return Verdict("ex", REFUTED, reason="final hypothesis incorrect",
                       evidence=evidence)
    return Verdict("ex", INCONCLUSIVE, reason="budget exhausted",
                   evidence={"lang_equal": eq.to_json()})


def check_bc(registry: Registry, seq: LearningSequence, text: Text, target,
             budget: int, bound: int) -> Verdict:
    """Semantic convergence: a cofinite tail of correct hypotheses.  Padding
    changes never refute, and an incorrect tail refutes only once the text
    has shown every target element up to the bound."""
    results: list[LangEqual | None] = []
    for entry in seq:
        results.append(None if entry is None else
                       registry.lang_equal(entry, target, budget, bound))
    bad = [i for i, r in enumerate(results) if r is None or r.refuted]
    last = results[-1]
    if last is None or last.refuted:
        evidence = {"wrong_positions": bad,
                    "final": None if last is None else last.to_json()}
        unshown = _first_unshown(text, len(seq) - 1, target, bound)
        if unshown is not None:
            return _cut_short("bc", unshown, evidence)
        return Verdict("bc", REFUTED, reason="tail still incorrect",
                       evidence=evidence)
    # Longest suffix of confirmed entries.
    n0 = len(seq)
    while n0 > 0 and results[n0 - 1] is not None and results[n0 - 1].confirmed:
        n0 -= 1
    if n0 < len(seq):
        return Verdict("bc", CONFIRMED, n0=n0,
                       evidence={"wrong_positions": bad})
    return Verdict("bc", INCONCLUSIVE, reason="budget exhausted")


# --------------------------------------------------------------------------
# Monotonicity criteria

def _monotonicity_scan(registry: Registry, seq: LearningSequence, budget: int,
                       target_decide) -> tuple[MonWitness | None, bool]:
    """Shared scan for SMon/Mon.  ``target_decide`` restricts witness
    elements (None for SMon).  Returns (witness, settled).

    The witness is the least (n, m, x) in the order of n, then m, then x:
    n and m start runs of equal entries, x is enumerated for the hypothesis
    of n's run and decided out of the differing hypothesis of m's run.
    Only such an exact witness refutes.  Failing one, the scan returns the
    least budget-tier witness as a near witness: x meets an undecided
    membership that the budget's enumeration does not show either.

    A hypothesis that enumerates x never decides x out (structural
    descriptors do not, and neither may a ``Lazy``).  So every witness for
    x also appears at a(x), the first run that enumerates x, and each
    element is checked from a(x) against each later differing hypothesis
    until its first miss, in about (runs) x (elements) ``decide`` calls.
    Once an exact witness is held, elements admitted at or after its run
    cannot beat it and are dropped.

    ``settled`` is true when every hypothesis is None or exact and no
    ``decide`` answered NOT_DECIDABLE; it only counts when there is no
    exact witness.
    """
    runs = _runs(seq)
    settled = all(hyp is None or registry.is_exact(hyp) for _, hyp in runs)
    seen: set[int] = set()
    live: dict[int, tuple[int, Index]] = {}  # x -> (a(x), hypothesis of a(x))
    # The least (a, b, x, tier) of each tier, with a and b as run numbers.
    exact = near = None
    for b, (_, hyp_b) in enumerate(runs):
        if hyp_b is None:
            continue
        for x, (a, hyp_a) in list(live.items()):
            if hyp_b == hyp_a:
                continue
            d = registry.decide(hyp_b, x)
            if d is NO:
                del live[x]
                if exact is None or (a, b, x) < exact[:3]:
                    exact = (a, b, x, "exact")
            elif d is NOT_DECIDABLE:
                settled = False
                if ((near is None or (a, b, x) < near[:3])
                        and not registry.member(hyp_b, x, budget)):
                    near = (a, b, x, "budget")
        if exact is not None:
            live = {x: v for x, v in live.items() if v[0] < exact[0]}
            if not live:
                break
            continue
        for x in registry.enumerate(hyp_b, budget) - seen:
            seen.add(x)
            if target_decide is None or target_decide(x):
                live[x] = (b, hyp_b)
    best = exact or near
    if best is None:
        return None, settled
    a, b, x, tier = best
    return MonWitness(runs[a][0], runs[b][0], x, tier,
                      budget if tier == "budget" else None), settled


def _check_monotone(criterion: str, registry: Registry, seq: LearningSequence,
                    budget: int, target_decide, confirmable: bool) -> Verdict:
    """Refuted on an exact witness; confirmed only when ``confirmable`` and
    the scan settled every membership it needed; otherwise inconclusive,
    with the near witness if there is one."""
    witness, settled = _monotonicity_scan(registry, seq, budget, target_decide)
    if witness is not None and witness.tier == "exact":
        return Verdict(criterion, REFUTED, witness=witness)
    if any(entry is None for entry in seq):
        return Verdict(criterion, INCONCLUSIVE, reason="undefined entries")
    if settled and confirmable:
        return Verdict(criterion, CONFIRMED)
    return Verdict(criterion, INCONCLUSIVE, reason="budget exhausted",
                   evidence={"near_witness": witness.to_json() if witness else None})


def check_smon(registry: Registry, seq: LearningSequence, budget: int) -> Verdict:
    """Hypotheses must form a subset chain of languages."""
    return _check_monotone("smon", registry, seq, budget, None, True)


def check_mon(registry: Registry, seq: LearningSequence, text: Text,
              budget: int) -> Verdict:
    """Like check_smon, but a violation only counts on elements of the
    text's declared content.  A Finite or Decidable content decides each
    element; any other (session-generated) content counts only the elements
    its enumeration shows within the budget, and such a check is never
    confirmed."""
    desc = text.content_descriptor
    if desc is None:
        return Verdict("mon", INCONCLUSIVE, reason="text has no declared content")
    if isinstance(desc, (Finite, Decidable)):
        return _check_monotone("mon", registry, seq, budget,
                               lambda x: descriptor_decides(desc, x), True)
    known = desc.generate(budget) if isinstance(desc, Lazy) else frozenset()
    v = _check_monotone("mon", registry, seq, budget, known.__contains__, False)
    if v.refuted:
        v.evidence["content_check"] = "restricted to enumerated elements"
    return v


# --------------------------------------------------------------------------
# Text surgery (monotone from strongly monotone witnesses)

def mon_from_smon_witness(text: Text, witness: MonWitness,
                          learner: Learner | None = None,
                          registry: Registry | None = None,
                          budget: int = 500) -> Text:
    """Insert the discarded element right after the prefix that dropped it.

    The witness must come from a starred-learner run on ``text``: the
    element x sits in the hypothesis at prefix length n but not at length m.
    The returned text presents text[m], then x, then the rest of the text,
    so the same run refutes plain monotonicity with the same element.
    """
    if witness.n >= witness.m:
        raise InvalidWitnessError("witness needs n < m")
    if learner is not None and registry is not None:
        h = star(learner)
        hyp_n = h.apply(text.prefix(witness.n), budget)
        hyp_m = h.apply(text.prefix(witness.m), budget)
        if hyp_n is None or witness.x not in registry.enumerate(hyp_n, budget):
            raise InvalidWitnessError("element not in earlier hypothesis")
        if hyp_m is None or registry.decide(hyp_m, witness.x) is not NO:
            raise InvalidWitnessError("element not excluded from later hypothesis")
    desc = text.content_descriptor
    new_desc = union_with_element(desc, witness.x) if desc is not None else None
    return insertion_text(text, witness.m, witness.x, new_desc)


# --------------------------------------------------------------------------
# Global (any-text) variants

def check_global(restriction: str, h: Learner, texts: list[Text], horizon: int,
                 budget: int, registry: Registry) -> Verdict:
    """Apply the per-text checker to runs of the learner on every supplied
    text; any refutation refutes the global restriction."""
    if restriction not in ("mon", "smon"):
        raise ValueError("restriction must be 'mon' or 'smon'")
    if not texts:
        return Verdict(f"global-{restriction}", CONFIRMED,
                       reason="vacuous: no texts supplied")
    inconclusive = None
    for i, text in enumerate(texts):
        seq = run(h, text, horizon, budget)
        if restriction == "smon":
            v = check_smon(registry, seq, budget)
        else:
            v = check_mon(registry, seq, text, budget)
        if v.refuted:
            out = Verdict(f"global-{restriction}", REFUTED, witness=v.witness,
                          evidence={"text": text.label, "text_position": i})
            return out
        if not v.confirmed and inconclusive is None:
            inconclusive = Verdict(f"global-{restriction}", INCONCLUSIVE,
                                   reason=v.reason,
                                   evidence={"text": text.label})
    return inconclusive or Verdict(f"global-{restriction}", CONFIRMED,
                                   evidence={"texts": len(texts)})
