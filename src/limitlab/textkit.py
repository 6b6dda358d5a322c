"""Texts, finite sequences, contents, canonical presentations and the
reachability order on partially set-driven states.

A sequence prefix is a plain tuple over ints and the pause marker ``PAUSE``.
Texts are total: ``at(n)`` answers for every position.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .hypospace import Decidable, Descriptor, Finite, descriptor_elements

PAUSE = "#"

Item = int | str
SequencePrefix = tuple[Item, ...]


def content(sigma: Iterable[Item]) -> frozenset[int]:
    return frozenset(x for x in sigma if x != PAUSE)


def first(sigma: Iterable[Item]) -> int | None:
    """First non-pause element, or None when the content is empty."""
    for x in sigma:
        if x != PAUSE:
            return x
    return None


def concat(*parts: Iterable[Item]) -> SequencePrefix:
    out: list[Item] = []
    for part in parts:
        out.extend(part)
    return tuple(out)


def repeat(x: Item, t: int) -> SequencePrefix:
    return (x,) * t


def parse_element(raw: str) -> int:
    """An element literal: a non-negative int.  Raises ValueError otherwise."""
    x = int(raw)
    if x < 0:
        raise ValueError(f"elements are non-negative, got {x}")
    return x


def parse_prefix(literal: str) -> SequencePrefix:
    """Parse the CLI literal syntax, e.g. ``0,2,#,5``.  Empty string is the
    empty prefix."""
    literal = literal.strip()
    if not literal:
        return ()
    items: list[Item] = []
    for raw in literal.split(","):
        raw = raw.strip()
        items.append(PAUSE if raw == PAUSE else parse_element(raw))
    return tuple(items)


def format_prefix(sigma: Iterable[Item]) -> str:
    return ",".join(PAUSE if x == PAUSE else str(x) for x in sigma)


class Text:
    """Total presentation with an optional declared content descriptor."""

    def __init__(self, item_at: Callable[[int], Item],
                 content_descriptor: Descriptor | None = None,
                 label: str = "text") -> None:
        self._item_at = item_at
        self.content_descriptor = content_descriptor
        self.label = label

    def at(self, n: int) -> Item:
        return self._item_at(n)

    def prefix(self, n: int) -> SequencePrefix:
        return tuple(self._item_at(i) for i in range(n))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Text({self.label!r})"


def finite_text(prefix: Iterable[Item],
                content_descriptor: Descriptor | None = None) -> Text:
    """The given items followed by pauses forever."""
    items = tuple(prefix)
    if content_descriptor is None:
        content_descriptor = Finite(content(items))

    def at(n: int) -> Item:
        return items[n] if n < len(items) else PAUSE

    return Text(at, content_descriptor, label=f"finite:{format_prefix(items)}")


def canonical_text(descriptor: Descriptor) -> Text:
    """All elements in strictly increasing order; finite languages are
    followed by pauses forever."""
    if isinstance(descriptor, Finite):
        return finite_text(sorted(descriptor.elements), descriptor)
    if not isinstance(descriptor, Decidable):
        raise ValueError("canonical_text needs a Finite or Decidable descriptor")

    cache: list[int] = []
    scan_state = [0]
    # Safety net: a decidable language may be finite, in which case the
    # ascending scan must give way to pauses at some point.
    scan_cap = descriptor.bound + 10_000

    def at(n: int) -> Item:
        while len(cache) <= n and scan_state[0] <= scan_cap:
            x = scan_state[0]
            if descriptor.pred(x):
                cache.append(x)
            scan_state[0] = x + 1
        return cache[n] if n < len(cache) else PAUSE

    return Text(at, descriptor, label=f"canonical:{descriptor.name}")


def stitched_text(blocks: Iterator[SequencePrefix] | Iterable[SequencePrefix],
                  content_descriptor: Descriptor | None = None,
                  label: str = "stitched") -> Text:
    """Concatenation of on-demand blocks; if the block stream ends, pauses
    follow forever."""
    it = iter(blocks)
    items: list[Item] = []
    exhausted = [False]

    def at(n: int) -> Item:
        while len(items) <= n and not exhausted[0]:
            try:
                items.extend(next(it))
            except StopIteration:
                exhausted[0] = True
        return items[n] if n < len(items) else PAUSE

    return Text(at, content_descriptor, label=label)


def insertion_text(base: Text, position: int, x: int,
                   content_descriptor: Descriptor | None = None) -> Text:
    """base[position] followed by x followed by the rest of base."""

    def at(n: int) -> Item:
        if n < position:
            return base.at(n)
        if n == position:
            return x
        return base.at(n - 1)

    return Text(at, content_descriptor,
                label=f"{base.label}+insert({x}@{position})")


def union_with_element(descriptor: Descriptor, x: int) -> Descriptor:
    """Descriptor for the language extended by one element."""
    if isinstance(descriptor, Finite):
        return Finite(descriptor.elements | {x})
    if isinstance(descriptor, Decidable):
        pred = descriptor.pred
        return Decidable(f"{descriptor.name}+{{{x}}}",
                         lambda y: y == x or pred(y),
                         max(descriptor.bound, x))
    raise ValueError("can only extend Finite or Decidable descriptors")


def psd_reachable(state: tuple[frozenset[int], int],
                  state2: tuple[frozenset[int], int]) -> bool:
    """Whether some text reaches the second partially set-driven state from
    the first.  Closed form: t <= t', D subset of D', |D| <= t and the new
    elements fit into the extra positions."""
    d, t = state
    d2, t2 = state2
    return (
        t <= t2
        and d <= d2
        and len(d) <= t
        and len(d2 - d) <= t2 - t
    )
