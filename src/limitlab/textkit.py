"""Texts, finite sequences, contents, canonical presentations and the
reachability order on partially set-driven states.

A sequence prefix is a plain tuple over ints and the pause marker ``PAUSE``.
Texts are total: ``at(n)`` answers for every position.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, count, islice

from .hypospace import Decidable, Descriptor, Finite

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
    """Total presentation with an optional declared content descriptor.

    Items are drawn from the given iterable on demand, each once; past its
    end the text answers ``PAUSE`` forever."""

    def __init__(self, items: Iterable[Item],
                 content_descriptor: Descriptor | None = None,
                 label: str = "text") -> None:
        self._source = iter(items)
        self._items: list[Item] = []
        self.content_descriptor = content_descriptor
        self.label = label

    def at(self, n: int) -> Item:
        items = self._items
        if n >= len(items):
            if self._source is not None:
                items.extend(islice(self._source, n + 1 - len(items)))
            if n >= len(items):
                self._source = None  # drawn out
                return PAUSE
        return items[n]

    def prefix(self, n: int) -> SequencePrefix:
        return tuple(map(self.at, range(n)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Text({self.label!r})"


def finite_text(prefix: Iterable[Item],
                content_descriptor: Descriptor | None = None) -> Text:
    """The given items followed by pauses forever."""
    items = tuple(prefix)
    if content_descriptor is None:
        content_descriptor = Finite(content(items))
    return Text(items, content_descriptor, label=f"finite:{format_prefix(items)}")


def canonical_text(descriptor: Descriptor) -> Text:
    """All elements in strictly increasing order; finite languages are
    followed by pauses forever."""
    if isinstance(descriptor, Finite):
        return finite_text(sorted(descriptor.elements), descriptor)
    if not isinstance(descriptor, Decidable):
        raise ValueError("canonical_text needs a Finite or Decidable descriptor")
    # Safety net: a decidable language may be finite, in which case the
    # ascending scan must give way to pauses at some point.
    return Text(filter(descriptor.pred, range(descriptor.bound + 10_001)),
                descriptor, label=f"canonical:{descriptor.name}")


def stitched_text(blocks: Iterable[SequencePrefix],
                  content_descriptor: Descriptor | None = None,
                  label: str = "stitched") -> Text:
    """Concatenation of on-demand blocks: a block is drawn only when an item
    past the previous ones is read.  If the block stream ends, pauses
    follow forever."""
    return Text(chain.from_iterable(blocks), content_descriptor, label=label)


def insertion_text(base: Text, position: int, x: int,
                   content_descriptor: Descriptor | None = None) -> Text:
    """base[position] followed by x followed by the rest of base."""
    items = chain(map(base.at, range(position)), (x,),
                  map(base.at, count(position)))
    return Text(items, content_descriptor,
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
