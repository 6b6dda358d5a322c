"""The workbench's hypothesis space: descriptors behind indices, budgeted
enumeration, padding, finite-set codes, join, and two-phase (allocate then
bind) registration for self-referential constructions.

An index is a tagged int (see :mod:`limitlab.coding`).  FIN and PAD codes
resolve structurally; REG and PROG codes resolve through a :class:`Registry`.
Anything else denotes the empty language.  Each registry memoizes the
descriptors it decodes from FIN and PAD codes, so a code is decoded once per
registry however often it is enumerated or decided.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .coding import (
    Tag,
    decode,
    decode_list,
    decode_set,
    encode,
    encode_list,
    encode_set,
    pair,
    unpair,
)

Index = int


class HypospaceError(Exception):
    pass


class NotPaddedError(HypospaceError):
    pass


class DoubleBindError(HypospaceError):
    pass


class UnknownIndexError(HypospaceError):
    pass


class Decision(enum.Enum):
    YES = "yes"
    NO = "no"
    NOT_DECIDABLE = "not-decidable"


YES = Decision.YES
NO = Decision.NO
NOT_DECIDABLE = Decision.NOT_DECIDABLE


# --------------------------------------------------------------------------
# Descriptors

@dataclass(frozen=True)
class Finite:
    elements: frozenset[int]


@dataclass(frozen=True)
class Decidable:
    """Exactly decidable language with a declared element bound used by
    bounded equality checks.  ``enumerate`` scans the predicate up to the
    budget, so enumeration is monotone by construction."""

    name: str
    pred: Callable[[int], bool]
    bound: int


@dataclass(frozen=True)
class PadOf:
    base: Index
    extras: tuple[int, ...]


@dataclass(frozen=True)
class JoinOf:
    base: Index
    extras: frozenset[int]


@dataclass(frozen=True)
class Lazy:
    """Session-backed language.  ``generate`` must be deterministic and
    monotone in the budget; ``decide`` may be omitted (semi-decidable), and
    when given it answers YES for every element ``generate`` yields."""

    name: str
    generate: Callable[[int], frozenset[int]]
    decide: Callable[[int], Decision] | None = None


Descriptor = Finite | Decidable | PadOf | JoinOf | Lazy


# --------------------------------------------------------------------------
# Structural index constructors (registry-free)

def ind(elements: Iterable[int]) -> Index:
    """Canonical FIN index of a finite set; injective."""
    return encode(Tag.FIN, encode_set(elements))


def pad(e: Index, extras: Iterable[int]) -> Index:
    """Injective padding; the padded index denotes the same language as
    ``e``.  Extras must be non-empty."""
    extras = tuple(extras)
    if not extras:
        raise ValueError("pad requires at least one extra coordinate")
    return encode(Tag.PAD, pair(e, encode_list(extras)))


def unpad(x: Index, i: int) -> int:
    """unpad(x, 1) recovers the padded base; unpad(x, i+1) the i-th extra."""
    try:
        tag, payload = decode(x)
    except ValueError:
        raise NotPaddedError(f"index {x} is not a PAD code") from None
    if tag is not Tag.PAD:
        raise NotPaddedError(f"index {x} is not a PAD code")
    base, extras_code = unpair(payload)
    if i == 1:
        return base
    extras = decode_list(extras_code)
    if not 2 <= i <= len(extras) + 1:
        raise NotPaddedError(f"index {x} has no coordinate {i}")
    return extras[i - 2]


# --------------------------------------------------------------------------
# Registry

@dataclass
class _PayloadRecord:
    compute: Callable[[], int | None]
    cost: int


@dataclass
class LangEqual:
    """Result of a bounded language-equality check."""

    kind: str  # "confirmed" | "refuted-extra" | "refuted-missing" | "inconclusive"
    element: int | None = None
    reason: str | None = None

    @property
    def confirmed(self) -> bool:
        return self.kind == "confirmed"

    @property
    def refuted(self) -> bool:
        return self.kind in ("refuted-extra", "refuted-missing")

    def to_json(self) -> dict:
        return {"kind": self.kind, "element": self.element, "reason": self.reason}


class Registry:
    """Append-only store resolving REG/PROG payloads.

    Bindings are write-once; an allocated but unbound index enumerates
    nothing.  PROG codes may additionally carry a "program output" payload
    and a halting probe, both budget-gated, which the payload-consulting
    learners query.
    """

    def __init__(self) -> None:
        self._bindings: dict[int, Descriptor] = {}
        self._next_reg = 0
        self._next_session = 1
        self._payloads: dict[Index, _PayloadRecord] = {}
        self._payload_cache: dict[Index, int | None] = {}
        self._halting: dict[Index, Callable[[], int | None]] = {}
        self._halting_cache: dict[Index, int | None] = {}
        self._join_cache: dict[tuple[Index, frozenset[int]], Index] = {}
        self._structural: dict[Index, Finite | PadOf] = {}

    # -- allocation ------------------------------------------------------

    def allocate(self) -> Index:
        code = encode(Tag.REG, self._next_reg)
        self._next_reg += 1
        return code

    def bind(self, x: Index, descriptor: Descriptor) -> None:
        tag, payload = decode(x)
        if tag is not Tag.REG:
            raise UnknownIndexError(f"index {x} is not an allocated REG code")
        if payload >= self._next_reg:
            raise UnknownIndexError(f"index {x} was never allocated")
        if payload in self._bindings:
            raise DoubleBindError(f"index {x} is already bound")
        self._bindings[payload] = descriptor

    def register(self, descriptor: Descriptor) -> Index:
        x = self.allocate()
        self.bind(x, descriptor)
        return x

    def new_session_id(self) -> int:
        sid = self._next_session
        self._next_session += 1
        return sid

    def join(self, e: Index, elements: Iterable[int]) -> Index:
        """Index for W_e union a finite set; memoized for determinism."""
        extras = frozenset(elements)
        key = (e, extras)
        if key not in self._join_cache:
            self._join_cache[key] = self.register(JoinOf(e, extras))
        return self._join_cache[key]

    # -- PROG payloads and halting probes --------------------------------

    def set_payload(self, code: Index, compute: Callable[[], int | None] | int,
                    cost: int = 0) -> None:
        if code in self._payloads:
            raise DoubleBindError(f"payload for {code} already set")
        fn = (lambda v=compute: v) if isinstance(compute, int) else compute
        self._payloads[code] = _PayloadRecord(fn, cost)

    def payload(self, code: Index, budget: int) -> int | None:
        """Program output for a PROG element, or None if there is none or
        it does not resolve within the budget."""
        rec = self._payloads.get(code)
        if rec is None or rec.cost > budget:
            return None
        if code not in self._payload_cache:
            self._payload_cache[code] = rec.compute()
        return self._payload_cache[code]

    def set_halting(self, code: Index, step: Callable[[], int | None] | int) -> None:
        if code in self._halting:
            raise DoubleBindError(f"halting probe for {code} already set")
        fn = (lambda v=step: v) if isinstance(step, int) else step
        self._halting[code] = fn

    def halts_within(self, code: Index, t: int) -> bool:
        fn = self._halting.get(code)
        if fn is None:
            return False
        if code not in self._halting_cache:
            self._halting_cache[code] = fn()
        step = self._halting_cache[code]
        return step is not None and step <= t

    # -- resolution ------------------------------------------------------

    def descriptor(self, e: Index) -> Descriptor | None:
        d = self._structural.get(e)
        if d is not None:
            return d
        try:
            tag, payload = decode(e)
        except ValueError:
            return None
        if tag is Tag.REG:
            return self._bindings.get(payload)
        if tag is Tag.FIN:
            d = Finite(decode_set(payload))
        elif tag is Tag.PAD:
            base, extras_code = unpair(payload)
            d = PadOf(base, decode_list(extras_code))
        else:
            return None
        self._structural[e] = d
        return d

    def enumerate(self, e: Index, budget: int) -> frozenset[int]:
        """Deterministic, budget-monotone enumeration of W_e."""
        d = self.descriptor(e)
        if d is None:
            return frozenset()
        if isinstance(d, Finite):
            return d.elements
        if isinstance(d, Decidable):
            return frozenset(x for x in range(budget + 1) if d.pred(x))
        if isinstance(d, PadOf):
            return self.enumerate(d.base, budget)
        if isinstance(d, JoinOf):
            return self.enumerate(d.base, budget) | d.extras
        return d.generate(budget)

    def member(self, e: Index, x: int, budget: int) -> bool:
        """True iff x shows up within the budget (a Yes); False is Unknown,
        not a No."""
        return x in self.enumerate(e, budget)

    def decide(self, e: Index, x: int) -> Decision:
        d = self.descriptor(e)
        if d is None:
            # Unstructured or unbound-PROG codes denote the empty language.
            try:
                tag, payload = decode(e)
            except ValueError:
                return NO
            if tag is Tag.REG and payload < self._next_reg:
                return NOT_DECIDABLE  # allocated, may still be bound
            return NO
        if isinstance(d, Finite):
            return YES if x in d.elements else NO
        if isinstance(d, Decidable):
            return YES if d.pred(x) else NO
        if isinstance(d, PadOf):
            return self.decide(d.base, x)
        if isinstance(d, JoinOf):
            return YES if x in d.extras else self.decide(d.base, x)
        if d.decide is not None:
            return d.decide(x)
        return NOT_DECIDABLE

    def is_exact(self, e: Index) -> bool:
        """True when ``decide`` answers YES/NO for every element."""
        d = self.descriptor(e)
        if d is None:
            try:
                tag, payload = decode(e)
            except ValueError:
                return True
            return not (tag is Tag.REG and payload < self._next_reg)
        if isinstance(d, (Finite, Decidable)):
            return True
        if isinstance(d, PadOf):
            return self.is_exact(d.base)
        if isinstance(d, JoinOf):
            return self.is_exact(d.base)
        return d.decide is not None

    # -- bounded equality ------------------------------------------------

    def lang_equal(self, e: Index, target: Descriptor, budget: int,
                   bound: int) -> LangEqual:
        """Compare W_e against a decidable target up to the element bound.

        A refutation is exact evidence; Confirmed means no discrepancy was
        found and the comparison was exhaustive for elements <= bound.
        """
        if isinstance(target, Finite):
            t_decide = lambda x: x in target.elements
            t_elems = sorted(target.elements)
        elif isinstance(target, Decidable):
            t_decide = target.pred
            t_elems = [x for x in range(min(bound, target.bound) + 1)
                       if target.pred(x)]
        else:
            raise ValueError("lang_equal target must be Finite or Decidable")

        enumerated = self.enumerate(e, budget)
        for x in sorted(enumerated):
            if not t_decide(x):
                return LangEqual("refuted-extra", x)
        for x in t_elems:
            if x in enumerated:
                continue
            d = self.decide(e, x)
            if d is NO:
                return LangEqual("refuted-missing", x)
            if d is NOT_DECIDABLE:
                return LangEqual("inconclusive", x,
                                 reason="membership undecided within budget")
        if not self.is_exact(e):
            return LangEqual("inconclusive",
                             reason="hypothesis only semi-decidable")
        if budget < bound:
            return LangEqual("inconclusive", reason="budget below bound")
        return LangEqual("confirmed")


def descriptor_elements(d: Descriptor, limit: int) -> list[int]:
    """Ascending elements of a Finite/Decidable descriptor, capped by value
    limit for the decidable case."""
    if isinstance(d, Finite):
        return sorted(d.elements)
    if isinstance(d, Decidable):
        return [x for x in range(limit + 1) if d.pred(x)]
    raise ValueError("need a Finite or Decidable descriptor")


def descriptor_decides(d: Descriptor, x: int) -> bool:
    if isinstance(d, Finite):
        return x in d.elements
    if isinstance(d, Decidable):
        return bool(d.pred(x))
    raise ValueError("need a Finite or Decidable descriptor")
