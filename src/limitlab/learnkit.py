"""Learner contracts for the three interaction operators, starred adapters,
budgeted runs, and loadable table learners.

A learner answers either an index or ``None`` (no answer within the budget);
callers treat ``None`` as divergence.  Learners must be deterministic and
monotone in the budget.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .hypospace import Index
from .textkit import (
    PAUSE,
    Item,
    SequencePrefix,
    Text,
    content,
    format_prefix,
    parse_element,
    parse_prefix,
)

G = "G"
PSD = "Psd"
SD = "Sd"

DEFAULT_BUDGET = 500

# View types per kind: G gets the raw prefix, Psd (content, length), Sd the
# content only.
GView = SequencePrefix
PsdView = tuple[frozenset[int], int]
SdView = frozenset[int]


class KindMismatchError(Exception):
    """A learner of one kind where another kind is needed."""


class TableError(Exception):
    pass


class ParseError(TableError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateKeyError(TableError):
    def __init__(self, line_no: int, key: str) -> None:
        super().__init__(f"line {line_no}: duplicate key {key!r}")
        self.line_no = line_no
        self.key = key


@dataclass(frozen=True)
class Learner:
    kind: str
    name: str
    apply: Callable[[object, int], Index | None]

    def __call__(self, view: object, budget: int = DEFAULT_BUDGET) -> Index | None:
        return self.apply(view, budget)


def g_learner(fn: Callable[..., Index | None], name: str = "g") -> Learner:
    return Learner(G, name, _with_budget(fn))


def psd_learner(fn: Callable[..., Index | None], name: str = "psd") -> Learner:
    return Learner(PSD, name, _with_budget(fn))


def sd_learner(fn: Callable[..., Index | None], name: str = "sd") -> Learner:
    return Learner(SD, name, _with_budget(fn))


def _with_budget(fn: Callable[..., Index | None]) -> Callable[[object, int], Index | None]:
    params = inspect.signature(fn).parameters
    takes_budget = "budget" in params

    def apply(view: object, budget: int) -> Index | None:
        return fn(view, budget=budget) if takes_budget else fn(view)

    return apply


def view_of(kind: str, prefix: SequencePrefix) -> object:
    if kind == G:
        return prefix
    if kind == PSD:
        return (content(prefix), len(prefix))
    if kind == SD:
        return content(prefix)
    raise ValueError(f"unknown learner kind {kind!r}")


def star(h: Learner) -> Learner:
    """The Gold-style learner simulating h on raw prefixes."""
    if h.kind == G:
        return h

    def apply(prefix: object, budget: int) -> Index | None:
        return h.apply(view_of(h.kind, prefix), budget)

    return Learner(G, f"{h.name}*", apply)


def wrap_learner(h: Learner, kind: str) -> Learner:
    """h as a learner of the given kind: starred into G, or an Sd learner
    as a Psd one that ignores the count."""
    if h.kind == kind:
        return h
    if kind == G:
        return star(h)
    if kind == PSD and h.kind == SD:
        return Learner(PSD, f"{h.name}^Psd",
                       lambda view, budget: h.apply(view[0], budget))
    raise KindMismatchError(
        f"cannot wrap a {h.kind} learner into a {kind} one")


LearningSequence = list[Index | None]


def run(h: Learner, text: Text, horizon: int,
        budget: int = DEFAULT_BUDGET) -> LearningSequence:
    """Entries 0..horizon: the learner applied to the kind-appropriate view
    of each prefix of the text.

    The text is walked once: each step reads one new item, and the learner
    is called at every position, whether or not its view changed.  The
    content frozenset is rebuilt only when a new element arrives, so Sd and
    Psd views share one frozenset while the content stays the same.
    """
    kind, apply = h.kind, h.apply
    if kind not in (G, PSD, SD):
        raise ValueError(f"unknown learner kind {kind!r}")
    items: list[Item] = []
    seen: set[int] = set()
    current: frozenset[int] = frozenset()
    seq: LearningSequence = []
    for n in range(horizon + 1):
        if n:
            x = text.at(n - 1)
            items.append(x)
            if x != PAUSE and x not in seen:
                seen.add(x)
                current = frozenset(seen)
        if kind == G:
            view: object = tuple(items)
        elif kind == PSD:
            view = (current, n)
        else:
            view = current
        seq.append(apply(view, budget))
    return seq


# --------------------------------------------------------------------------
# Table learners

def _normalize_key(kind: str, raw: str, line_no: int) -> str:
    raw = raw.strip()
    if raw in ("∅", "ε"):  # accept the set/sequence symbols
        raw = ""
    try:
        if kind == SD:
            return format_set(parse_set(raw))
        if kind == PSD:
            if ";" not in raw:
                raise ValueError("Psd key needs ';count'")
            set_part, _, count = raw.rpartition(";")
            if set_part in ("∅",):
                set_part = ""
            return f"{format_set(parse_set(set_part))};{int(count)}"
        # G: canonical prefix literal
        return format_prefix(parse_prefix(raw))
    except ValueError as exc:
        raise ParseError(line_no, f"bad key {raw!r}: {exc}") from None


def parse_set(raw: str) -> frozenset[int]:
    raw = raw.strip()
    if not raw or raw == "∅":
        return frozenset()
    return frozenset(parse_element(part) for part in raw.split(","))


def format_set(elements: frozenset[int]) -> str:
    return ",".join(str(x) for x in sorted(elements))


def table_key(kind: str, view: object) -> str:
    if kind == SD:
        return format_set(view)  # type: ignore[arg-type]
    if kind == PSD:
        d, t = view  # type: ignore[misc]
        return f"{format_set(d)};{t}"
    return format_prefix(view)  # type: ignore[arg-type]


def load_table_learner(path: str | Path) -> Learner:
    """Parse the line-oriented table format.

    Directives: ``!kind G|Psd|Sd`` (default Sd) and ``!default Nat|NoAnswer``
    (default NoAnswer).  Mapping lines read ``key -> Nat``; ``#``-only lines
    without an arrow are comments.
    """
    path = Path(path)
    kind = SD
    default: Index | None = None
    raw_entries: list[tuple[int, str, str]] = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("!"):
            parts = stripped[1:].split(None, 1)
            if len(parts) != 2:
                raise ParseError(line_no, "directive needs an argument")
            name, value = parts[0].lower(), parts[1].strip()
            if name == "kind":
                if value not in (G, PSD, SD):
                    raise ParseError(line_no, f"unknown kind {value!r}")
                kind = value
            elif name == "default":
                default = None if value == "NoAnswer" else _parse_index(value, line_no)
            else:
                raise ParseError(line_no, f"unknown directive {name!r}")
            continue
        if "->" not in stripped:
            if stripped.startswith("#"):
                continue  # comment
            raise ParseError(line_no, "expected 'key -> value'")
        key_raw, _, value_raw = stripped.partition("->")
        raw_entries.append((line_no, key_raw, value_raw))

    mapping: dict[str, Index] = {}
    for line_no, key_raw, value_raw in raw_entries:
        key = _normalize_key(kind, key_raw, line_no)
        if key in mapping:
            raise DuplicateKeyError(line_no, key)
        mapping[key] = _parse_index(value_raw.strip(), line_no)
    return Learner(kind, f"@{path.name}",
                   lambda view, budget: mapping.get(table_key(kind, view), default))


def _parse_index(raw: str, line_no: int) -> Index:
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(line_no, f"bad index {raw!r}") from None
    if value < 0:
        raise ParseError(line_no, f"index must be non-negative, got {value}")
    return value
