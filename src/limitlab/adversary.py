"""Executable diagonalization sessions: each takes a black-box restricted
learner plus budgets and produces a re-verifiable failure witness.

Every session owns a fresh registry, allocates its self-referential indices
through allocate-then-bind, memoizes all searches, and caps with explicit
budgets the searches the underlying arguments treat as unbounded.  Reports
state their bounds rather than claiming the infinite statement.

The protocol, kept by the ``Session`` base class:

- A session class names its ``theorem``, the learner ``kind`` it needs and
  the ``Budgets`` field that holds its goal (``goal_field``).
- Constructing a session takes a new session id from its registry, lets the
  class register its languages (``setup``) and only then resolves
  the learner: a factory is called with the session, so learners that
  consult the session registry share its indices, and a learner of another
  kind raises KindMismatchError.
- The session asks the learner through ``ask``, at the enumeration budget.
  In a ``total`` session a missing answer violates totality, and
  ``diagnose(goal)`` then returns a TotalityViolated report; otherwise it
  returns the report of the class's own ``_diagnose``.  Every report is
  built by ``report``, which adds the theorem, the budgets and the learner.
- The session's own elements are PROG codes of (session id, n), written by
  ``own`` and read back by ``owned``.

``SESSIONS`` maps each session name to ``(run, kind)``: ``run(learner,
budgets)`` builds a fresh session and diagnoses it at the goal its budgets
hold.  The CLI, ``scripts/run_adversaries.py`` and the tests read it.

Session elements are computed once per session: each element family is a
list that grows on demand, and prefixes, probe sets and the enumerations
of the session's languages are slices of it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass

from .coding import Tag, components, decode, encode, pair, triple, unpair
from .hypospace import (
    NO,
    NOT_DECIDABLE,
    YES,
    Decision,
    Finite,
    Index,
    Lazy,
    Registry,
    ind,
    pad,
)
from .learnkit import PSD, SD, KindMismatchError, Learner
from .textkit import SequencePrefix, Text, content, stitched_text

# Witness variants.
INFINITE_MIND_CHANGES = "InfiniteMindChanges"
WRONG_FOREVER = "WrongForever"
CONFUSED_PAIR = "ConfusedPair"
MONOTONICITY_TRAP = "MonotonicityTrap"
FAILS_TO_OVERGENERALIZE = "FailsToOvergeneralize"
SINGLETON_NOT_LEARNED = "SingletonNotLearned"
TOTALITY_VIOLATED = "TotalityViolated"
BUDGET_EXHAUSTED = "BudgetExhausted"

DEFINITIVE_VARIANTS = frozenset({
    INFINITE_MIND_CHANGES, WRONG_FOREVER, CONFUSED_PAIR, MONOTONICITY_TRAP,
    FAILS_TO_OVERGENERALIZE, SINGLETON_NOT_LEARNED, TOTALITY_VIOLATED,
})


class _Totality(Exception):
    def __init__(self, view: object) -> None:
        super().__init__(f"learner gave no answer on {view!r}")
        self.view = view


class _Cycle(Exception):
    """A session value was asked for again while it was being computed, so
    the search defining it cannot end."""

    def __init__(self, cycle: list[int]) -> None:
        super().__init__(f"value {cycle[-1]} needs itself via {cycle!r}")
        self.cycle = cycle


@dataclass(frozen=True)
class Budgets:
    horizon: int = 60
    enum_budget: int = 500
    search_bound: int = 200
    mind_change_goal: int = 10
    error_goal: int = 10

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class WitnessReport:
    theorem: str
    variant: str
    evidence: list[dict]
    budgets: dict
    learner: str = ""

    @property
    def definitive(self) -> bool:
        return self.variant in DEFINITIVE_VARIANTS

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "variant": self.variant,
            "evidence": self.evidence,
            "budgets": self.budgets,
            "learner": self.learner,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


LearnerOrFactory = Learner | Callable[["object"], Learner]


class Session:
    """What every session shares: its registry, id and learner, the codes
    of its own elements, the singleton-time search and its reports."""

    theorem = ""
    kind = PSD
    goal_field = "mind_change_goal"
    total = False  # whether a learner that gives no answer violates totality

    def __init__(self, learner: LearnerOrFactory, budgets: Budgets | None = None,
                 registry: Registry | None = None) -> None:
        self.budgets = budgets or Budgets()
        self.registry = registry if registry is not None else Registry()
        self.sid = self.registry.new_session_id()
        self._times: dict[int, int | None] = {}
        self.setup()
        if not isinstance(learner, Learner):
            learner = learner(self)
        if learner.kind != self.kind:
            raise KindMismatchError(
                f"{self.theorem} needs a {self.kind} learner, got {learner.kind}")
        self.learner = learner

    def setup(self) -> None:
        """Register the session's languages.  Runs before the
        learner is resolved, so their indices come before any that a
        learner factory allocates."""

    @classmethod
    def run(cls, learner: LearnerOrFactory, budgets: Budgets) -> WitnessReport:
        """A fresh session against the learner, diagnosed at the goal the
        budgets hold in ``goal_field``."""
        return cls(learner, budgets).diagnose(getattr(budgets, cls.goal_field))

    # -- the learner -----------------------------------------------------

    def ask(self, view: object) -> Index | None:
        hyp = self.learner.apply(view, self.budgets.enum_budget)
        if hyp is None and self.total:
            # Reports show the content as a sorted list.
            raise _Totality(sorted(view) if self.kind == SD
                            else (sorted(view[0]), view[1]))
        return hyp

    def includes(self, hyp: Index | None, x: int) -> bool:
        """Whether the learner gave a hypothesis and x is in it."""
        return hyp is not None and self.registry.member(
            hyp, x, self.budgets.enum_budget)

    def singleton_time(self, x: int) -> int | None:
        """Least t with x inside the hypothesis on t copies of x; None when
        no t up to the search bound works."""
        if x not in self._times:
            self._times[x] = next(
                (t for t in range(1, self.budgets.search_bound + 1)
                 if self.includes(self.ask((frozenset({x}), t)), x)), None)
        return self._times[x]

    # -- own element codes -----------------------------------------------

    def own(self, n: int) -> int:
        """The session's n-th PROG code."""
        return encode(Tag.PROG, pair(self.sid, n))

    def owned(self, x: int) -> int | None:
        """n when x is ``own(n)``; None for any other code."""
        try:
            tag, payload = decode(x)
        except ValueError:
            return None
        if tag is not Tag.PROG:
            return None
        sid, n = unpair(payload)
        return n if sid == self.sid else None

    # -- reports ---------------------------------------------------------

    def report(self, variant: str, **evidence: object) -> WitnessReport:
        return WitnessReport(self.theorem, variant, evidence=[evidence],
                             budgets=self.budgets.to_json(),
                             learner=self.learner.name)

    def diagnose(self, goal: int) -> WitnessReport:
        try:
            return self._diagnose(goal)
        except _Totality as exc:
            return self.report(TOTALITY_VIOLATED, input=repr(exc.view))

    def _diagnose(self, goal: int) -> WitnessReport:
        raise NotImplementedError


# ==========================================================================
# Self-learning separation (order of presentation matters for monotone
# behaviourally correct learners)

class CoolsepSession(Session):
    """Element families a_j(i), their overgeneralization times f(j), and the
    languages built from them."""

    theorem = "coolsep"
    goal_field = "error_goal"

    def setup(self) -> None:
        self._f: dict[int, int | None] = {}
        self._families: dict[int, list[int]] = {}
        self._family: dict[int, Index] = {}
        self._capped: dict[int, Index] = {}
        self._union_families: dict[frozenset[int], Index] = {}
        self._e = self.registry.register(
            Lazy("coolsep-union", self._enum_union, self._decide_union))

    # -- element codes ---------------------------------------------------

    def _family_codes(self, j: int, n: int) -> list[int]:
        """a_j(0), a_j(1), ...: at least n of them, each computed once."""
        codes = self._families.setdefault(j, [])
        for i in range(len(codes), n):
            codes.append(self.own(pair(j, i)))
        return codes

    def element(self, j: int, i: int) -> int:
        """a_j(i): strictly monotone in i, ranges pairwise disjoint."""
        return self._family_codes(j, i + 1)[i]

    def decode_element(self, x: int) -> tuple[int, int] | None:
        n = self.owned(x)
        return None if n is None else unpair(n)

    def element_prefix(self, j: int, i: int) -> SequencePrefix:
        return tuple(self._family_codes(j, i)[:i])

    # -- the overgeneralization search ----------------------------------

    def f(self, j: int) -> int | None:
        """Least i with a_j(i) inside the learner's hypothesis on the first
        i family elements; None when no i at most the search bound works."""
        if j not in self._f:
            found = None
            for i in range(self.budgets.search_bound + 1):
                codes = self._family_codes(j, i + 1)
                if self.includes(self.ask((frozenset(codes[:i]), i)), codes[i]):
                    found = i
                    break
            self._f[j] = found
        return self._f[j]

    # -- session languages ----------------------------------------------

    def family_index(self, j: int) -> Index:
        """e_j with W equal to the whole family range(a_j)."""
        if j not in self._family:
            def generate(budget: int, j=j) -> frozenset[int]:
                return frozenset(self._family_codes(j, budget + 1)[:budget + 1])

            def decide(x: int, j=j) -> Decision:
                decoded = self.decode_element(x)
                return YES if decoded is not None and decoded[0] == j else NO

            self._family[j] = self.registry.register(
                Lazy(f"family-{j}", generate, decide))
        return self._family[j]

    def capped_index(self, k: int) -> Index:
        """ê_k: the first f(j') elements of every family up to k, plus the
        marked element a_k(f(k))."""
        if k not in self._capped:
            def generate(budget: int, k=k) -> frozenset[int]:
                out: set[int] = set()
                for j in range(k + 1):
                    fj = self.f(j)
                    if fj is not None:
                        out.update(self._family_codes(j, fj)[:fj])
                fk = self.f(k)
                if fk is not None:
                    out.add(self.element(k, fk))
                return frozenset(out)

            def decide(x: int, k=k) -> Decision:
                decoded = self.decode_element(x)
                if decoded is None:
                    return NO
                j, i = decoded
                if j > k:
                    return NO
                fj = self.f(j)
                if fj is None:
                    return NOT_DECIDABLE
                if i < fj or (j == k and i == fj):
                    return YES
                return NO

            self._capped[k] = self.registry.register(
                Lazy(f"capped-{k}", generate, decide))
        return self._capped[k]

    def union_index(self) -> Index:
        """W_e: the union of the pre-overgeneralization prefixes of every
        family."""
        return self._e

    def families_union_index(self, families: frozenset[int]) -> Index:
        """Union of whole families; used by the overgeneralizing sample
        learner on mixed content."""
        if families not in self._union_families:
            def generate(budget: int, families=families) -> frozenset[int]:
                out: set[int] = set()
                for j in sorted(families):
                    out.update(self._family_codes(j, budget + 1)[:budget + 1])
                return frozenset(out)

            def decide(x: int, families=families) -> Decision:
                decoded = self.decode_element(x)
                return YES if decoded is not None and decoded[0] in families else NO

            self._union_families[families] = self.registry.register(
                Lazy(f"families-{'-'.join(map(str, sorted(families)))}",
                     generate, decide))
        return self._union_families[families]

    def _enum_union(self, budget: int) -> frozenset[int]:
        out: set[int] = set()
        for j in range(min(budget, self.budgets.search_bound) + 1):
            fj = self.f(j)
            if fj is not None:
                out.update(self._family_codes(j, fj)[:fj])
        return frozenset(out)

    def _decide_union(self, x: int) -> Decision:
        decoded = self.decode_element(x)
        if decoded is None:
            return NO
        j, i = decoded
        fj = self.f(j)
        if fj is None:
            return NOT_DECIDABLE
        return YES if i < fj else NO

    def witness_text(self) -> Text:
        """a_0[f(0)] a_1[f(1)] ...; only well-formed for families with f
        resolved, which diagnosis checks first."""
        def blocks():
            j = 0
            while True:
                fj = self.f(j)
                if fj is None:
                    return
                yield self.element_prefix(j, fj)
                j += 1

        return stitched_text(blocks(),
                             content_descriptor=self.registry.descriptor(self._e),
                             label="coolsep-witness")

    def _diagnose(self, error_goal: int) -> WitnessReport:
        b = self.budgets
        wrong: list[dict] = []
        prefix: list[int] = []
        j = 0
        while len(wrong) < error_goal and j <= b.search_bound:
            fj = self.f(j)
            if fj is None:
                return self.report(FAILS_TO_OVERGENERALIZE, family=j,
                                   search_bound=b.search_bound,
                                   wrong_positions_so_far=wrong)
            prefix.extend(self.element_prefix(j, fj))
            pos = len(prefix)
            hyp = self.ask((content(prefix), pos))
            marked = self.element(j, fj)
            if (self.includes(hyp, marked)
                    and self.registry.decide(self.union_index(), marked) is NO):
                wrong.append({"position": pos, "hypothesis": hyp,
                              "element": marked, "family": j})
            j += 1
        if len(wrong) >= error_goal:
            return self.report(WRONG_FOREVER, text_prefix=list(prefix),
                               wrong_positions=wrong)
        return self.report(BUDGET_EXHAUSTED, stage="wrong-position sweep",
                           wrong_positions=wrong)


def coolsep_session(learner: LearnerOrFactory, budgets: Budgets | None = None,
                    registry: Registry | None = None) -> CoolsepSession:
    return CoolsepSession(learner, budgets, registry)


def coolsep_diagnose(session: CoolsepSession, error_goal: int) -> WitnessReport:
    return session.diagnose(error_goal)


# ==========================================================================
# Full information beats partially set-driven monotone learners (syntactic
# convergence): mind-change extension search

class GsmonSession(Session):
    theorem = "gsmon"

    def setup(self) -> None:
        self._e = self.registry.register(Lazy("gsmon-union", self._enum_we))
        self._sigma: list[SequencePrefix] = [()]
        self._sigma_done = False
        self._steps: list[dict] = []
        self._a: dict[frozenset[int], Index] = {}

    @property
    def union_index(self) -> Index:
        return self._e

    def probe_element(self, i: int) -> int:
        """<e, i> for the session's union index e."""
        return pair(self._e, i)

    def _hstar(self, sigma: SequencePrefix) -> Index | None:
        return self.ask((content(sigma), len(sigma)))

    def sigma(self, i: int) -> SequencePrefix | None:
        """The i-th mind-change sequence, or None when the extension search
        failed at some earlier stage."""
        while len(self._sigma) <= i and not self._sigma_done:
            self._extend()
        return self._sigma[i] if i < len(self._sigma) else None

    def _extend(self) -> None:
        base_sigma = self._sigma[-1]
        stage = len(self._sigma) - 1
        base = self._hstar(base_sigma)
        if base is not None:
            # Odd candidate first, searched to the bound, then the even one.
            for candidate in (self.probe_element(2 * stage + 1),
                              self.probe_element(2 * stage + 2)):
                for t in range(1, self.budgets.search_bound + 1):
                    extended = base_sigma + (candidate,) * t
                    hyp = self._hstar(extended)
                    if hyp is not None and hyp != base:
                        self._sigma.append(extended)
                        self._steps.append({
                            "stage": stage, "candidate": candidate,
                            "copies": t, "before": base, "after": hyp})
                        return
        self._sigma_done = True

    def _enum_we(self, budget: int) -> frozenset[int]:
        out: set[int] = set()
        cap = min(budget, self.budgets.mind_change_goal + 1)
        for i in range(cap + 1):
            s = self.sigma(i)
            if s is None:
                break
            out.update(content(s))
        return frozenset(out)

    def a(self, d: frozenset[int]) -> Index:
        """Allocate-then-bind realization of W = D union {<a(D), 0>}."""
        d = frozenset(d)
        if d not in self._a:
            x = self.registry.allocate()
            self.registry.bind(x, Finite(d | {pair(x, 0)}))
            self._a[d] = x
        return self._a[d]

    def _diagnose(self, mind_change_goal: int) -> WitnessReport:
        count = 0
        while count < mind_change_goal and self.sigma(count + 1) is not None:
            count += 1
        if count >= mind_change_goal:
            return self.report(INFINITE_MIND_CHANGES, count=count,
                               text_prefix=list(self.sigma(count)),
                               steps=self._steps[:count])
        k = count  # last stage whose sigma is defined
        sigma_k = self.sigma(k)
        x1 = self.probe_element(2 * k + 1)
        x2 = self.probe_element(2 * k + 2)
        t1 = self.singleton_time(x1)
        t2 = self.singleton_time(x2)
        if t1 is None or t2 is None:
            missing = 2 * k + 1 if t1 is None else 2 * k + 2
            return self.report(
                SINGLETON_NOT_LEARNED, probe=missing,
                element=self.probe_element(missing),
                search_bound=self.budgets.search_bound,
                note="the singleton is in the learned class but never "
                     "entered a hypothesis")
        base = self._hstar(sigma_k)
        h1 = self.ask((content(sigma_k) | {x1}, t1 + len(sigma_k)))
        h2 = self.ask((content(sigma_k) | {x2}, t2 + len(sigma_k)))
        j0 = max(t1, t2)
        coincide = []
        for extra, x in ((j0, x1), (j0, x2), (j0 + 3, x1), (j0 + 3, x2)):
            hyp = self.ask((content(sigma_k) | {x}, len(sigma_k) + extra))
            coincide.append({"element": x, "length": len(sigma_k) + extra,
                             "hypothesis": hyp, "equals_base": hyp == base})
        l1 = self.a(content(sigma_k) | {x1})
        l2 = self.a(content(sigma_k) | {x2})
        return self.report(
            MONOTONICITY_TRAP,
            stage=k,
            sigma_k=list(sigma_k),
            base_hypothesis=base,
            kept_elements=[x1, x2],
            singleton_times={str(2 * k + 1): t1, str(2 * k + 2): t2},
            membership_after_singleton_block=[
                {"element": x1, "hypothesis": h1, "member": self.includes(h1, x1)},
                {"element": x2, "hypothesis": h2, "member": self.includes(h2, x2)},
            ],
            state_coincidence=coincide,
            confusable_languages={"L1": l1, "L2": l2})


def gsmon_session(learner: LearnerOrFactory, budgets: Budgets | None = None,
                  registry: Registry | None = None) -> GsmonSession:
    return GsmonSession(learner, budgets, registry)


def gsmon_diagnose(session: GsmonSession, mind_change_goal: int) -> WitnessReport:
    return session.diagnose(mind_change_goal)


# ==========================================================================
# Partial set-driven beats total partially set-driven monotone learners:
# the mind-change predicate P and the paired languages W_e, W_e'

class TotalPsdSession(Session):
    theorem = "totalpsd"
    total = True

    def setup(self) -> None:
        self._e = self.registry.register(
            Lazy("totalpsd-e", self._enum_e, self._decide_e))
        self._e_prime = self.registry.register(
            Lazy("totalpsd-e'", self._enum_e_prime, self._decide_e_prime))
        self._p: dict[int, bool] = {}
        self._computing: list[int] = []
        self._codes: list[int] = []

    @property
    def e(self) -> Index:
        return self._e

    @property
    def e_prime(self) -> Index:
        return self._e_prime

    def _elements(self, n: int) -> list[int]:
        """a(0), a(1), ...: at least n of them, each computed once and its
        payload registered when it is first computed."""
        codes = self._codes
        for i in range(len(codes), n):
            code = self.own(i)
            codes.append(code)
            self.registry.set_payload(
                code,
                lambda i=i: pad(self._e, [1]) if self.predicate(i)
                else pad(self._e_prime, [2]),
                cost=i)
        return codes

    def a(self, i: int) -> int:
        """Strictly monotone element family; each element carries a program
        payload announcing which of the paired languages it belongs to."""
        return self._elements(i + 1)[i]

    def prefix_content(self, i: int) -> frozenset[int]:
        return frozenset(self._elements(i)[:i])

    def predicate(self, i: int) -> bool:
        """P(i): the learner changes its mind when a(i) arrives.

        Raises _Cycle when computing P(i) needs P(i) itself, as when the
        learner answers a(i) with W_e, whose membership is defined by P.
        """
        if i not in self._p:
            if i in self._computing:
                start = self._computing.index(i)
                raise _Cycle(self._computing[start:] + [i])
            self._computing.append(i)
            try:
                ti = self.singleton_time(self.a(i))
                if ti is None:
                    raise _Totality(("singleton never learned", self.a(i)))
                before = self.ask((self.prefix_content(i), ti + i))
                after = self.ask((self.prefix_content(i + 1), ti + i + 1))
                self._p[i] = before != after
            finally:
                self._computing.pop()
        return self._p[i]

    def _enum_e(self, budget: int) -> frozenset[int]:
        out: set[int] = set()
        cap = min(budget, self.budgets.mind_change_goal + 1)
        for i in range(cap + 1):
            # P(0..i-1) held at the earlier steps.
            if not self.predicate(i):
                break
            out.add(self.a(i))
        return frozenset(out)

    def _decide_e(self, x: int) -> Decision:
        i = self.owned(x)
        if i is None:
            return NO
        return YES if all(self.predicate(j) for j in range(i + 1)) else NO

    def _enum_e_prime(self, budget: int) -> frozenset[int]:
        out: set[int] = set()
        cap = min(budget, self.budgets.mind_change_goal + 1)
        for i in range(cap + 1):
            # P(0..i-2) held at the earlier steps.
            if i and not self.predicate(i - 1):
                break
            out.add(self.a(i))
        return frozenset(out)

    def _decide_e_prime(self, x: int) -> Decision:
        i = self.owned(x)
        if i is None:
            return NO
        return YES if all(self.predicate(j) for j in range(i)) else NO

    def _diagnose(self, goal: int) -> WitnessReport:
        try:
            k = next((i for i in range(goal) if not self.predicate(i)), None)
            if k is None:
                prefix: list[int] = []
                for i in range(goal):
                    t = self.singleton_time(self.a(i))
                    prefix.extend([self.a(i)] * ((t or 1) + i))
                return self.report(INFINITE_MIND_CHANGES, count=goal,
                                   text_prefix=prefix, predicate_run=goal)
            # The learner repeats itself at stage k: it keeps a(k) although
            # a(k) is outside W_e, confusing the paired languages.
            ak = self.a(k)
            tk = self.singleton_time(ak)
            samples = []
            for extra in (0, 1, 5):
                t_probe = (tk or 1) + k + extra
                hyp = self.ask((self.prefix_content(k), t_probe))
                samples.append({"count": t_probe, "hypothesis": hyp,
                                "member": self.includes(hyp, ak)})
            repeat = {
                "before": self.ask((self.prefix_content(k), (tk or 1) + k)),
                "after": self.ask((self.prefix_content(k + 1), (tk or 1) + k + 1)),
            }
            return self.report(
                CONFUSED_PAIR,
                stage=k,
                element=ak,
                L=self.e,
                L_prime=self.e_prime,
                element_outside_L=self.registry.decide(self.e, ak) is NO,
                shared_hypothesis=repeat,
                kept_membership_samples=samples)
        except _Cycle as exc:
            i = exc.cycle[-1]
            return self.report(BUDGET_EXHAUSTED, stage="mind-change predicate",
                               predicate_cycle=exc.cycle, element=self.a(i),
                               reason=f"computing P({i}) needs P({i}) itself")


def totalpsd_session(learner: LearnerOrFactory, budgets: Budgets | None = None,
                     registry: Registry | None = None) -> TotalPsdSession:
    return TotalPsdSession(learner, budgets, registry)


def totalpsd_diagnose(session: TotalPsdSession, goal: int) -> WitnessReport:
    return session.diagnose(goal)


# ==========================================================================
# Globally strongly monotone partially set-driven beats set-driven: nested
# probe sets and the halting diagonal

class SdSession(Session):
    theorem = "sd"
    kind = SD
    total = True

    def setup(self) -> None:
        self._e = self.registry.register(Lazy("sd-e", self._enum_e, self._decide_e))
        self._probe = self.own(0)
        self.registry.set_halting(self._probe, self._halt_step)
        self._codes: list[int] = []
        self._answers: dict[int, Index] = {}
        self._repeat: int | None | bool = False  # False = not yet computed

    @property
    def e(self) -> Index:
        return self._e

    @property
    def halting_probe(self) -> int:
        return self._probe

    def _elements(self, n: int) -> list[int]:
        """<e, probe, 0>, <e, probe, 1>, ...: at least n of them, each
        computed once."""
        codes = self._codes
        for i in range(len(codes), n):
            codes.append(triple(self._e, self._probe, i))
        return codes

    def element(self, i: int) -> int:
        return self._elements(i + 1)[i]

    def probe_set(self, j: int) -> frozenset[int]:
        return frozenset(self._elements(j + 1)[:j + 1])

    def answer(self, j: int) -> Index:
        if j not in self._answers:
            self._answers[j] = self.ask(self.probe_set(j))
        return self._answers[j]

    def repeat_at(self) -> int | None:
        """First j with equal answers on the nested sets j and j+1, or None
        within the search bound."""
        if self._repeat is False:
            found = None
            for j in range(self.budgets.search_bound + 1):
                if self.answer(j) == self.answer(j + 1):
                    found = j
                    break
            self._repeat = found
        return self._repeat

    def _halt_step(self) -> int | None:
        r = self.repeat_at()
        return None if r is None else r + 1

    def _enum_e(self, budget: int) -> frozenset[int]:
        out: set[int] = set()
        cap = min(budget, self.budgets.search_bound)
        for i in range(cap + 1):
            # Answers 0..i differed pairwise at the earlier steps.
            if self.answer(i) == self.answer(i + 1):
                break
            out.add(self.element(i))
        return frozenset(out)

    def _decide_e(self, x: int) -> Decision:
        e, p, i = components(x)
        if e != self._e or p != self._probe:
            return NO
        r = self.repeat_at()
        if r is None:
            return YES if i <= self.budgets.search_bound else NOT_DECIDABLE
        return YES if i < r else NO

    def _diagnose(self, goal: int) -> WitnessReport:
        changes = []
        for j in range(goal):
            before, after = self.answer(j), self.answer(j + 1)
            if before == after:
                return self.report(
                    CONFUSED_PAIR,
                    stage=j,
                    L=ind(self.probe_set(j)),
                    L_prime=ind(self.probe_set(j + 1)),
                    separating_element=self.element(j + 1),
                    shared_hypothesis=before,
                    reinvoked_equal=self.ask(self.probe_set(j))
                    == self.ask(self.probe_set(j + 1)))
            changes.append({"stage": j, "before": before, "after": after})
        return self.report(INFINITE_MIND_CHANGES, count=goal, changes=changes,
                           text_prefix=[self.element(i) for i in range(goal)])


def sd_session(learner: LearnerOrFactory, budgets: Budgets | None = None,
               registry: Registry | None = None) -> SdSession:
    return SdSession(learner, budgets, registry)


def sd_diagnose(session: SdSession, goal: int) -> WitnessReport:
    return session.diagnose(goal)


SESSIONS: dict[str, tuple[Callable[..., WitnessReport], str]] = {
    cls.theorem: (cls.run, cls.kind)
    for cls in (CoolsepSession, GsmonSession, TotalPsdSession, SdSession)
}
