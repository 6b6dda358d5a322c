"""The concrete learners and language classes used in the separation
arguments, plus the curated criterion-relation maps.

``Workbench`` ties the stateless learner tables to one registry so their
hypotheses are resolvable indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coding import components, proj1, proj2
from .hypospace import (
    Decidable,
    Finite,
    Index,
    Registry,
    ind,
    pad,
    unpad,
)
from .learnkit import SD, Learner, g_learner, psd_learner, sd_learner
from .textkit import PAUSE, SequencePrefix, content, first


def odd_class_language(odd: int) -> frozenset[int]:
    """For odd 2k+1: the evens up to 2k plus the odd element itself."""
    if odd % 2 == 0:
        raise ValueError("language parameter must be odd")
    return frozenset(range(0, odd, 2)) | {odd}


class Workbench:
    """Registry plus the standing indices the canonical learners emit."""

    def __init__(self, registry: Registry | None = None) -> None:
        self.registry = registry if registry is not None else Registry()
        self.evens = Decidable("evens", lambda x: x % 2 == 0, 100)
        self.naturals = Decidable("naturals", lambda x: True, 100)
        self.e2N = self.registry.register(self.evens)
        self.p2 = self.registry.register(self.naturals)
        self.p0 = ind(())  # canonical code of the empty set

    def odd_class_descriptor(self, odd: int) -> Finite:
        return Finite(odd_class_language(odd))

    def p(self, odd: int) -> Index:
        """Index of the odd-capped language; injective in the parameter."""
        return ind(odd_class_language(odd))

    # -- separating-class learners --------------------------------------

    def thm3_learner(self) -> Learner:
        """Set-driven, total: evens while everything is even, otherwise the
        language capped by the smallest odd element seen."""

        def h(d: frozenset[int]) -> Index:
            odds = [x for x in d if x % 2 != 0]
            if not odds:
                return self.e2N
            return self.p(min(odds))

        return sd_learner(h, name="thm3")

    def thm4_learner(self) -> Learner:
        return g_learner(lambda sigma: thm4_table(sigma), name="thm4")

    def thm5_learner(self) -> Learner:
        """Set-driven and genuinely partial: consults the program payload of
        each presented element, and gives no answer while any payload is
        unresolved within the budget or carries an unexpected marker."""
        registry = self.registry

        def h(d: frozenset[int], budget: int = 0) -> Index | None:
            if not d:
                return pad(self.p0, [0])
            if len(d) == 1:
                return pad(ind(d), [0])
            payloads = {}
            for x in d:
                v = registry.payload(x, budget)
                if v is None:
                    return None
                try:
                    marker = unpad(v, 2)
                except Exception:
                    return None
                if marker not in (1, 2):
                    return None
                payloads[x] = (v, marker)
            firsts = {unpad(v, 1) for v, _ in payloads.values()}
            if len(firsts) == 1:
                return next(iter(firsts))
            ones = {v for v, marker in payloads.values() if marker == 1}
            twos = {unpad(v, 1) for v, marker in payloads.values() if marker == 2}
            if len(ones) <= 1 and len(twos) == 1:
                return next(iter(twos))
            return None

        return sd_learner(h, name="thm5")

    def thm6_learner(self) -> Learner:
        """Partially set-driven, total: treats elements as three-component
        codes and consults the halting probe of the shared middle component
        for the sequence length many steps.  The naturals are the answer as
        soon as two elements disagree in their first or middle component."""
        registry = self.registry

        def h(view: tuple[frozenset[int], int]) -> Index:
            d, t = view
            if not d:
                return self.p0
            elements = iter(d)
            e, p, _ = components(next(elements))
            for x in elements:
                e_x, p_x, _ = components(x)
                if e_x != e or p_x != p:
                    return self.p2
            if not registry.halts_within(p, t):
                return e
            return registry.join(e, d)

        return psd_learner(h, name="thm6")


# --------------------------------------------------------------------------
# The flag quadruple and the full-information case table

@dataclass(frozen=True)
class AuxFlags:
    w: int
    x: int
    y: int
    z: int


def aux_flags(sigma: SequencePrefix) -> AuxFlags:
    """Each flag changes its value at most once along prefix extension:
    w flips when the first non-zero element arrives, x when the content
    reaches two elements, y/z record the first element whose second coding
    component is non-zero/zero respectively.

    One pass over the prefix, stopping once y and z are both found: the y
    element is non-zero and differs from the z element, so w and x are
    fixed by then too."""
    w = x = y = z = 0
    y_found = z_found = False
    first_element = None
    for item in sigma:
        if item == PAUSE:
            continue
        if item != 0:
            w = 1
        if first_element is None:
            first_element = item
        elif item != first_element:
            x = 1
        if proj2(item) != 0:
            if not y_found:
                y = item
                y_found = True
        elif not z_found:
            z = item  # the element 0 pins z at 0
            z_found = True
        if y_found and z_found:
            break
    return AuxFlags(w, x, y, z)


def thm4_table(sigma: SequencePrefix) -> Index:
    """Six-case table over the flag quadruple; every hypothesis is padded
    with all four flags so distinct flag states give distinct indices."""
    fl = aux_flags(sigma)
    w, x, y, z = fl.w, fl.x, fl.y, fl.z
    if w == 0:
        return pad(ind(()), [0, 0, 0, 0])
    if x == 0 and y != 0 and z == 0:
        return pad(ind({y}), [w, 0, y, 0])
    if x == 0 and y == 0 and z != 0:
        return pad(ind({z}), [w, 0, 0, z])
    if x != 0 and y != 0 and z == 0:
        return pad(proj1(y), [w, x, y, 0])
    if x != 0 and y != 0 and z != 0:
        return pad(proj1(z), [w, x, y, z])
    return pad(ind(()), [0, 0, 0, 0])


# --------------------------------------------------------------------------
# Sample restricted learners (adversary fodder)

def set_copier() -> Learner:
    """Set-driven learner that parrots the content as its hypothesis."""
    return sd_learner(lambda d: ind(d), name="set-copier")


def min_consistent() -> Learner:
    """Partially set-driven: always the canonical code of the content."""
    return psd_learner(lambda view: ind(view[0]), name="min-consistent")


def always_change() -> Learner:
    """Partially set-driven learner that pads its guess with the count, so
    every prefix extension is a mind change."""
    return psd_learner(lambda view: pad(ind(view[0]), [view[1] + 1]),
                       name="always-change")


def constant_learner(index: Index, kind: str = SD) -> Learner:
    return Learner(kind, "constant", lambda view, budget: index)


def family_overgeneralizer(session) -> Learner:
    """Partially set-driven learner for the self-learning session: content
    inside one element family is answered with that whole family, mixed
    content with the union of every touched family."""

    def h(view: tuple[frozenset[int], int]) -> Index:
        d, _t = view
        if not d:
            return ind(())
        families = set()
        for x in d:
            decoded = session.decode_element(x)
            if decoded is None:
                return ind(d)
            families.add(decoded[0])
        if len(families) == 1:
            return session.family_index(next(iter(families)))
        return session.families_union_index(frozenset(families))

    return psd_learner(h, name="family-overgeneralizer")


def coolsep_learner(session) -> Learner:
    """Full-information learner dispatching on the program of the largest
    element seen, as realized by the self-learning session."""

    def h(sigma: SequencePrefix, budget: int = 0) -> Index | None:
        c = content(sigma)
        if not c:
            return ind(())
        top = session.decode_element(max(c))
        if top is None:
            return None
        fam = {}
        for x in c:
            decoded = session.decode_element(x)
            if decoded is None:
                return None
            fam[x] = decoded
        j_top = top[0]
        if all(j == j_top for j, _ in fam.values()):
            return session.family_index(j_top)
        # Elements a_k(f(k)) already present win; otherwise the first
        # element's family must be the maximal one touched.
        marked = []
        for x, (j, i) in fam.items():
            fj = session.f(j)
            if fj is None:
                return None
            if i == fj:
                marked.append(j)
        if marked:
            return session.capped_index(max(marked))
        f0 = first(sigma)
        k_max = max(j for j, _ in fam.values())
        if f0 is not None:
            decoded0 = session.decode_element(f0)
            if decoded0 is not None and decoded0[0] == k_max:
                return session.capped_index(k_max)
        return session.union_index()

    return g_learner(h, name="coolsep")


# --------------------------------------------------------------------------
# Relation maps (curated from the separation results)

INCLUSION = "inclusion"
STRICT = "strict-inclusion"
SAME_CLASS = "same-class"
UNKNOWN = "unknown"


@dataclass
class RelationMap:
    nodes: dict[str, str]  # node -> figure label
    classes: list[frozenset[str]]
    edges: list[tuple[str, str, str]]  # (lower, upper, kind)
    _class_of: dict[str, frozenset[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for cls in self.classes:
            for node in cls:
                if node in self._class_of:
                    raise ValueError(f"node {node} in two collapse classes")
                self._class_of[node] = cls
        for node in self.nodes:
            self._class_of.setdefault(node, frozenset({node}))
        for lo, hi, kind in self.edges:
            same = self._class_of.get(lo, lo) == self._class_of.get(hi, hi)
            if kind == STRICT and same:
                raise ValueError(f"strict edge {lo} -> {hi} inside one collapse class")

    def class_of(self, node: str) -> frozenset[str]:
        if node not in self.nodes:
            raise KeyError(node)
        return self._class_of[node]

    def quotient_edges(self) -> set[tuple[frozenset[str], frozenset[str], str]]:
        out = set()
        for lo, hi, kind in self.edges:
            a, b = self.class_of(lo), self.class_of(hi)
            if a != b:
                out.add((a, b, kind))
        return out

    def query(self, lower: str, upper: str) -> str:
        """Relation of the lower node's class to the upper's: same-class,
        strict-inclusion, inclusion (reachability), or unknown."""
        a, b = self.class_of(lower), self.class_of(upper)
        if lower == upper:
            return INCLUSION
        if a == b:
            return SAME_CLASS
        reach_kind: dict[frozenset[str], str] = {a: INCLUSION}
        stack = [a]
        adjacency: dict[frozenset[str], list[tuple[frozenset[str], str]]] = {}
        for x, y, kind in self.quotient_edges():
            adjacency.setdefault(x, []).append((y, kind))
        while stack:
            node = stack.pop()
            for nxt, kind in sorted(adjacency.get(node, []),
                                    key=lambda e: sorted(e[0])):
                new_kind = STRICT if (kind == STRICT or reach_kind[node] == STRICT) \
                    else INCLUSION
                old = reach_kind.get(nxt)
                if old is None or (old == INCLUSION and new_kind == STRICT):
                    reach_kind[nxt] = new_kind
                    stack.append(nxt)
        return reach_kind.get(b, UNKNOWN)

    def is_quotient_dag(self) -> bool:
        adjacency: dict[frozenset[str], set[frozenset[str]]] = {}
        for x, y, _ in self.quotient_edges():
            adjacency.setdefault(x, set()).add(y)
        state: dict[frozenset[str], int] = {}

        def visit(node) -> bool:
            state[node] = 1
            for nxt in adjacency.get(node, ()):
                s = state.get(nxt, 0)
                if s == 1 or (s == 0 and not visit(nxt)):
                    return False
            state[node] = 2
            return True

        return all(state.get(n, 0) == 2 or visit(n)
                   for n in list(adjacency))

    def to_json(self) -> dict:
        return {
            "nodes": [{"name": n, "figure": fig}
                      for n, fig in sorted(self.nodes.items())],
            "collapse_classes": [sorted(cls) for cls in self.classes],
            "edges": [{"lower": lo, "upper": hi, "kind": kind}
                      for lo, hi, kind in self.edges],
        }


def relations_map() -> RelationMap:
    """Nodes, collapse classes and inclusion edges of the three relation
    figures.  Curated data; the tests validate it structurally."""
    nodes: dict[str, str] = {}

    def add(fig: str, *names: str) -> None:
        for name in names:
            nodes.setdefault(name, fig)

    # Strongly monotone landscape (explanatory and behaviourally correct).
    add("fig1",
        "Sd-SMon-Ex", "Psd-SMon-Ex", "G-SMon-Ex",
        "R-Sd-SMon-Ex", "R-Psd-SMon-Ex", "R-G-SMon-Ex",
        "tau(SMon)-Sd-Ex", "tau(SMon)-Psd-Ex", "tau(SMon)-G-Ex",
        "Sd-SMon-Bc", "Psd-SMon-Bc", "G-SMon-Bc",
        "tau(SMon)-Sd-Bc", "tau(SMon)-Psd-Bc", "tau(SMon)-G-Bc")
    # Monotone, explanatory.
    add("fig2",
        "Sd-Mon-Ex", "Psd-Mon-Ex", "G-Mon-Ex",
        "R-Sd-Mon-Ex", "R-Psd-Mon-Ex", "R-G-Mon-Ex",
        "tau(Mon)-Sd-Ex", "tau(Mon)-Psd-Ex", "tau(Mon)-G-Ex",
        "tau(SMon)-Sd-Ex", "tau(SMon)-Psd-Ex", "tau(SMon)-G-Ex")
    # Monotone, behaviourally correct.
    add("fig3",
        "Sd-Mon-Bc", "Psd-Mon-Bc", "G-Mon-Bc",
        "R-Sd-Mon-Bc", "R-Psd-Mon-Bc", "R-G-Mon-Bc",
        "tau(Mon)-Sd-Bc", "tau(Mon)-Psd-Bc", "tau(Mon)-G-Bc",
        "tau(SMon)-Sd-Bc", "tau(SMon)-Psd-Bc", "tau(SMon)-G-Bc")

    classes = [
        # Globally monotone equals globally strongly monotone, per operator.
        frozenset({"tau(Mon)-Sd-Ex", "tau(SMon)-Sd-Ex"}),
        frozenset({"tau(Mon)-Psd-Ex", "tau(SMon)-Psd-Ex"}),
        frozenset({"tau(Mon)-G-Ex", "tau(SMon)-G-Ex"}),
        # Full-information learners under a delayable restriction may be
        # assumed total.
        frozenset({"G-Mon-Ex", "R-G-Mon-Ex"}),
        frozenset({"G-SMon-Ex", "R-G-SMon-Ex"}),
        # Behaviourally correct monotone learners may be assumed total, and
        # the global variants collapse across all three operators.
        frozenset({"Sd-Mon-Bc", "R-Sd-Mon-Bc"}),
        frozenset({"Psd-Mon-Bc", "R-Psd-Mon-Bc"}),
        frozenset({"G-Mon-Bc", "R-G-Mon-Bc"}),
        frozenset({"tau(Mon)-Sd-Bc", "tau(SMon)-Sd-Bc",
                   "tau(Mon)-Psd-Bc", "tau(SMon)-Psd-Bc",
                   "tau(Mon)-G-Bc", "tau(SMon)-G-Bc"}),
        # Strongly monotone behaviourally correct learning needs no memory
        # and tolerates the global requirement.
        frozenset({"Sd-SMon-Bc", "Psd-SMon-Bc", "G-SMon-Bc"}),
    ]

    edges: list[tuple[str, str, str]] = []

    def edge(lo: str, hi: str, kind: str = INCLUSION) -> None:
        edges.append((lo, hi, kind))

    # Memory ladders (set-driven below partially set-driven below full
    # information).
    for delta in ("SMon-Ex", "Mon-Ex", "SMon-Bc", "Mon-Bc"):
        edge(f"Sd-{delta}", f"Psd-{delta}")
        edge(f"Psd-{delta}", f"G-{delta}")
    # Totality below partiality.
    for beta in ("Sd", "Psd", "G"):
        edge(f"R-{beta}-Mon-Ex", f"{beta}-Mon-Ex")
        edge(f"R-{beta}-SMon-Ex", f"{beta}-SMon-Ex")
        edge(f"R-{beta}-Mon-Bc", f"{beta}-Mon-Bc")
    # Global restriction below the learned-language-only one.
    for beta in ("Sd", "Psd", "G"):
        edge(f"tau(SMon)-{beta}-Ex", f"{beta}-SMon-Ex")
        edge(f"tau(Mon)-{beta}-Ex", f"{beta}-Mon-Ex")
        edge(f"tau(SMon)-{beta}-Bc", f"{beta}-SMon-Bc")
        edge(f"tau(Mon)-{beta}-Bc", f"{beta}-Mon-Bc")
        edge(f"tau(SMon)-{beta}-Ex", f"tau(SMon)-{beta}-Bc")
    # Strong monotonicity below monotonicity.
    for beta in ("Sd", "Psd", "G"):
        edge(f"{beta}-SMon-Ex", f"{beta}-Mon-Ex", STRICT)
        edge(f"{beta}-SMon-Bc", f"{beta}-Mon-Bc", STRICT)
    # Explanatory below behaviourally correct.
    for beta in ("Sd", "Psd", "G"):
        edge(f"{beta}-SMon-Ex", f"{beta}-SMon-Bc")
        edge(f"{beta}-Mon-Ex", f"{beta}-Mon-Bc")
    # Separation results.
    edge("Psd-Mon-Ex", "G-Mon-Ex", STRICT)          # full information beats Psd
    edge("R-Psd-Mon-Ex", "Psd-Mon-Ex", STRICT)      # partiality buys languages
    edge("Sd-Mon-Ex", "Psd-Mon-Ex", STRICT)         # thinking time matters
    edge("Sd-SMon-Ex", "Psd-SMon-Ex", STRICT)
    edge("Psd-SMon-Ex", "G-SMon-Ex", STRICT)
    edge("R-Psd-SMon-Ex", "Psd-SMon-Ex", STRICT)
    # The headline separation: order of presentation matters for monotone
    # behaviourally correct learners.
    edge("Psd-Mon-Bc", "G-Mon-Bc", STRICT)
    edge("Sd-Mon-Bc", "Psd-Mon-Bc", STRICT)

    return RelationMap(nodes, classes, edges)
