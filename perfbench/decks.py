"""Seeded request decks, one per workload.

A deck is a fixed list of slots.  A slot fixes the kind of request, the
learner, the criterion, the kind of text and the size (horizon, goal or
search bound); the seed picks the literal texts' elements, L<odd>
parameters and constants, and moves sizes by a few percent.  Fixing the
slots keeps a deck's total cost and the shape of its latency distribution
nearly the same for every seed, so runs with different seeds can be
compared.  Requests run in slot order, so that the heap, and with it the
peak memory, grows the same way for every seed.

Every request carries its own check against the reference model.  The
few requests in ``KNOWN_FAULTS`` fail today on every seed; they are kept in
the decks, identical for every seed, and counted as failed.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

PAUSE = ref.PAUSE
CONTENT = ref.CONTENT_LEARNERS


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    verify: Callable[[dict, int], None]
    known_fault: bool = False


@dataclass
class Deck:
    ops: list[Op]
    # Requests run during set-up (they write the traces that --trace
    # requests re-check), each with a check of the file it wrote.
    setup: list[tuple[tuple[str, ...], Callable[[], None]]] = field(default_factory=list)


# Requests that fail today because `cli._emit` cannot print an index of
# more than 4300 decimal digits.  They do not depend on the seed.
KNOWN_FAULTS = {
    "learn": [("learn", "--learner", "min-consistent", "--text", "canonical:N",
               "--horizon", "420")],
    "sessions": [("adversary", "gsmon", "--learner", "always-change", "--goal", "80"),
                 ("adversary", "sd", "--learner", "set-copier", "--goal", "160")],
    "check": [],
}

# One untimed request per subcommand, run during set-up.
WARMUP = {
    "check": ("check", "--criterion", "smon", "--learner", "thm3", "--text", "0,2,5"),
    "learn": ("learn", "--learner", "thm4", "--text", "canonical:N", "--horizon", "300"),
    "sessions": ("adversary", "sd", "--learner", "set-copier", "--goal", "20"),
}


def near(rng: random.Random, value: float, share: float = 0.03) -> float:
    """``value`` moved at random by up to ``share`` of itself."""
    return value * (1 + share * (2 * rng.random() - 1))


def literal(rng: random.Random, elements: list[int], length: int) -> str:
    """A literal text of ``length`` items: every third a pause, the given
    elements arriving at evenly spaced places, repeats of elements already
    seen in between.  Where content grows is fixed by the sizes alone, so
    texts of one size cost about the same to learn and check."""
    slots = [i for i in range(length) if i % 3 != 2]
    if len(slots) < len(elements):
        raise ValueError(f"{len(elements)} elements do not fit {length} items")
    arrivals = {slots[j * len(slots) // len(elements)]: x for j, x in enumerate(elements)}
    items: list = []
    seen: list[int] = []
    for i in range(length):
        if i % 3 == 2:
            items.append(PAUSE)
        elif i in arrivals:
            seen.append(arrivals[i])
            items.append(arrivals[i])
        else:
            items.append(rng.choice(seen))
    return ",".join(str(x) for x in items)


def odd(rng: random.Random, lo: int, hi: int) -> int:
    return 2 * rng.randint(lo // 2, (hi - 1) // 2) + 1


# --------------------------------------------------------------------------
# check


def _mon_op(criterion: str, learner: str, text: str, horizon: int) -> Op:
    def verify(out: dict, rc: int) -> None:
        seq = ref.learning_sequence(learner, text, horizon)
        ref.check_monotonicity(out, rc, seq, criterion, text, ref.ENUM_BUDGET)

    return Op(("check", "--criterion", criterion, "--learner", learner,
               "--text", text, "--horizon", str(horizon)), verify)


def _convergence_op(criterion: str, learner: str, text: str, target: str,
                    horizon: int) -> Op:
    def verify(out: dict, rc: int) -> None:
        seq = ref.learning_sequence(learner, text, horizon)
        ref.check_convergence(out, rc, seq, criterion, target, ref.ENUM_BUDGET,
                              ref.EQUALITY_BOUND)

    return Op(("check", "--criterion", criterion, "--learner", learner, "--text", text,
               "--target", target, "--horizon", str(horizon)), verify)


def _trace_op(k: int, criterion: str, learner: str,
              text: str, horizon: int) -> tuple[tuple, Callable[[], None], Op]:
    path = f"trace-{k}.json"
    learn = ("learn", "--learner", learner, "--text", text, "--horizon", str(horizon),
             "--output", path)

    def check_file() -> None:
        saved = json.loads(Path(path).read_text(encoding="utf-8"))
        ref.check_learn(saved, 0, learner, text, horizon)

    def verify(out: dict, rc: int) -> None:
        seq = ref.learning_sequence(learner, text, horizon)
        ref.check_monotonicity(out, rc, seq, criterion, text, ref.ENUM_BUDGET)

    return learn, check_file, Op(("check", "--criterion", criterion, "--trace", path), verify)


def check_deck(seed: int) -> Deck:
    rng = random.Random(f"check:{seed}")
    ops: list[Op] = []
    # The deck is built in cost tiers, so that p50 and p90 each fall inside
    # a plateau of requests of about the same cost and not on a step
    # between tiers.  The all-pairs scan grows about as horizon^4; each slot
    # fixes its learner, criterion, kind of text and horizon, and the seed
    # picks only what does not move the cost (literal elements and L<odd>
    # parameters).  L<odd> texts hold their odd element back past
    # the horizon.
    def canonical(kind: int, h: int) -> str:
        return ("canonical:N", "canonical:2N",
                f"canonical:L{odd(rng, 2 * h + 1, 2 * h + 41)}")[kind % 3]

    def lit() -> str:
        # Elements of one bit length, so that the seed moves no cost.
        return literal(rng, rng.sample(range(32, 64), 20), 30)

    # Content-driven learners on canonical texts: one below the p50
    # plateau, one between the plateaus, 36-38 in the p90 plateau and the
    # two costliest above it.
    for k, (h, learner) in enumerate([(14, "set-copier"), (30, "always-change"),
                                      (36, "always-change"), (38, "min-consistent"),
                                      (40, "set-copier"), (40, "always-change")]):
        ops.append(_mon_op(("smon", "mon")[k % 2], learner, canonical(k, h), h))
    # Random literal prefixes with pauses at horizon 40: the copiers form
    # the p50 plateau, always-change (a mind change at every step) most of
    # the p90 plateau.
    for k in range(8):
        ops.append(_mon_op("smon", ("set-copier", "min-consistent")[k % 2], lit(), 40))
    for k in range(5):
        ops.append(_mon_op("mon", "always-change", lit(), 40))
    # Re-checks of traces saved during set-up, between the plateaus.
    setup = []
    for k, h in enumerate([24, 25, 26, 27, 28, 30]):
        learn, check_file, op = _trace_op(k, ("smon", "mon")[k % 2], CONTENT[k % 3],
                                          canonical(k % 2, h), h)
        setup.append((learn, check_file))
        ops.append(op)
    # The canonical learners, on canonical texts and on literal prefixes in
    # which odd elements arrive out of order.
    for k, h in enumerate([20, 23, 26, 29, 32, 35, 38, 40]):
        learner = ("thm3", "thm5", "thm6")[k % 3]
        text = (("canonical:N", "canonical:2N", f"canonical:L{odd(rng, 5, 61)}")[k // 2 % 3]
                if k % 2 == 0 else literal(rng, rng.sample(range(40), 10), 16))
        ops.append(_mon_op(("smon", "mon")[(k // 2) % 2], learner, text, h))
    # Convergence to a target, at horizons past the last mind change.
    for criterion, learner, lo in (("ex", "thm3", 181), ("bc", "thm3", 121),
                                   ("ex", rng.choice(["set-copier", "min-consistent"]), 141),
                                   ("bc", "always-change", 61)):
        l_odd = odd(rng, lo, lo + 20)
        ops.append(_convergence_op(criterion, learner, f"canonical:L{l_odd}", f"L{l_odd}",
                                   (l_odd + 1) // 2 + rng.randint(17, 23)))
    ops.append(_convergence_op("ex", "thm3", "canonical:2N", "2N", rng.randint(120, 130)))
    ops.append(_convergence_op("ex", "thm3", "canonical:N", "N", rng.randint(100, 110)))
    elements = rng.sample(range(100), 12)
    ops.append(_convergence_op("bc", "set-copier", literal(rng, elements, 20),
                               ",".join(map(str, sorted(elements))), rng.randint(40, 45)))
    ops.append(_convergence_op("ex", "thm6", "canonical:N", "N", rng.randint(50, 55)))
    return Deck(ops, setup)


# --------------------------------------------------------------------------
# learn


def _learn_op(learner: str, text: str, horizon: int, known_fault: bool = False) -> Op:
    def verify(out: dict, rc: int) -> None:
        ref.check_learn(out, rc, learner, text, horizon)

    return Op(("learn", "--learner", learner, "--text", text, "--horizon", str(horizon)),
              verify, known_fault)


def learn_deck(seed: int) -> Deck:
    rng = random.Random(f"learn:{seed}")

    def lit(n_elements: int, length: int) -> Callable[[], str]:
        # Elements of one bit length, so that the seed moves no cost.
        return lambda: literal(rng, rng.sample(range(256, 512), n_elements), length)

    def big_l(lo: int) -> Callable[[], str]:
        return lambda: f"canonical:L{odd(rng, lo, lo + 20)}"

    def fixed(text: str) -> Callable[[], str]:
        return lambda: text

    # Cost tiers as in check_deck: a request's cost grows as horizon^1.3 to
    # horizon^2 (every prefix is rebuilt, and the entry list is encoded),
    # and each slot's horizon was chosen from measured costs so that the
    # slots of one tier cost about the same.  Horizons do not move with the
    # seed: a few percent on the longest runs moves the peak memory by a
    # tenth.  Content-driven hypotheses
    # code the whole content, so their texts stay finite and small enough
    # that no index passes the digit limit; thm6 decodes its whole content
    # at every step, so it sees infinite texts only at low horizons.
    slots: list[tuple[str, Callable[[], str], int]] = [
        # Cheap: horizon 300.
        ("thm3", fixed("canonical:N"), 300), ("thm3", lit(120, 400), 300),
        ("thm4", big_l(381), 300), ("thm5", fixed("canonical:N"), 300),
        ("thm5", big_l(381), 300), ("thm5", lit(60, 300), 300), ("thm5", lit(120, 400), 300),
        (f"constant:{rng.choice(['N', '2N'])}:G", fixed("canonical:N"), 300),
        (f"constant:{rng.randrange(1000)}:Psd", lit(40, 300), 300),
        (f"constant:{rng.choice(['N', '2N'])}:Sd", fixed("canonical:2N"), 300),
        # The p50 plateau.
        ("thm6", fixed("canonical:N"), 450), ("thm6", fixed("canonical:2N"), 430),
        ("thm3", big_l(381), 570), ("set-copier", big_l(381), 485),
        ("min-consistent", big_l(381), 465), ("always-change", big_l(121), 635),
        ("set-copier", lit(120, 400), 685), ("min-consistent", lit(120, 400), 705),
        # Between the plateaus.
        ("thm6", lit(60, 300), 1525), ("thm6", lit(120, 400), 1305),
        ("thm3", lit(60, 300), 1190), ("thm4", lit(60, 300), 1295),
        # The p90 plateau, then the costliest.
        ("thm4", fixed("canonical:2N"), 1270), ("thm4", lit(120, 400), 1515),
        ("set-copier", lit(60, 300), 1700), ("min-consistent", lit(60, 300), 1665),
        ("always-change", lit(30, 300), 1450),
        ("always-change", lit(50, 400), 2000),
    ]
    ops = [_learn_op(learner, make_text(), h) for learner, make_text, h in slots]
    for argv in KNOWN_FAULTS["learn"]:
        ops.append(_learn_op(argv[2], argv[4], int(argv[6]), known_fault=True))
    return Deck(ops)


# --------------------------------------------------------------------------
# sessions


def _session_op(session: str, learner: str, goal: int, search_bound: int | None,
                known_fault: bool = False) -> Op:
    wrap = learner == "set-copier" and session != "sd"
    argv = ["adversary", session, "--learner", learner]
    if wrap:
        argv.append("--wrap")
    argv += ["--error-goal" if session == "coolsep" else "--goal", str(goal)]
    if search_bound is not None:
        argv += ["--search-bound", str(search_bound)]
    bound = search_bound if search_bound is not None else 200

    def verify(out: dict, rc: int) -> None:
        ref.check_session(out, rc, session, learner, goal, goal, bound)

    return Op(tuple(argv), verify, known_fault)


def sessions_deck(seed: int) -> Deck:
    rng = random.Random(f"sessions:{seed}")
    ops: list[Op] = []

    def add(session: str, learner: str, goal: float, search_bound: float) -> None:
        # Goals stay within 20-150 (error goals within 20-60) and search
        # bounds within 100-300, below the digit-limit thresholds.
        top = {("sd", "set-copier"): 140, ("gsmon", "always-change"): 60,
               ("coolsep", "family-overgeneralizer"): 60}.get((session, learner), 150)
        if session == "coolsep" and learner != "family-overgeneralizer":
            goal = 10  # the copiers fail on family 0, whatever the error goal
        else:
            goal = min(max(round(goal), 20), top)
        ops.append(_session_op(session, learner, goal,
                               min(max(round(search_bound), 100), 300)))

    # Built in cost tiers, so that p50 and p90 each fall inside a plateau
    # of requests of about the same cost (see check_deck).  A constant
    # learner never changes its mind, so gsmon searches it to the search
    # bound.  always-change's padded content code passes the digit limit
    # from gsmon goal 73 on, and sd against the copier from goal 152 on.
    # Cheap: constants, and content-driven learners at low goals.
    for session, learner in (("gsmon", "constant:N:Psd"), ("totalpsd", "constant:N:Psd"),
                             ("sd", "constant:N")):
        add(session, learner, near(rng, 20, 0.1), near(rng, 300))
    add("totalpsd", "constant:N:Psd", near(rng, 150), near(rng, 100))
    add("sd", "constant:N", near(rng, 150), near(rng, 100))
    for session in ("gsmon", "totalpsd"):
        for learner in ("always-change", "min-consistent", "set-copier"):
            add(session, learner, near(rng, 20, 0.1), near(rng, 250, 0.2))
    add("sd", "set-copier", near(rng, 20, 0.1), near(rng, 200, 0.5))
    add("gsmon", "always-change", near(rng, 58), near(rng, 200, 0.5))
    # The p50 plateau: the search sessions at the goals where each costs
    # about the same.
    for session, learner, goal in (("gsmon", "min-consistent", 150),
                                   ("gsmon", "set-copier", 150),
                                   ("sd", "set-copier", 120),
                                   ("sd", "set-copier", 130),
                                   ("totalpsd", "always-change", 100),
                                   ("totalpsd", "min-consistent", 130),
                                   ("totalpsd", "min-consistent", 135),
                                   ("totalpsd", "set-copier", 130)):
        add(session, learner, near(rng, goal), near(rng, 200, 0.5))
    # Between the plateaus.
    add("totalpsd", "always-change", near(rng, 145), near(rng, 200, 0.5))
    add("totalpsd", "set-copier", near(rng, 150), near(rng, 200, 0.5))
    add("coolsep", "set-copier", 10, near(rng, 100))
    add("coolsep", "family-overgeneralizer", near(rng, 20, 0.1), 200)
    # The p90 plateau: coolsep's searches at about half a second each,
    # then the two costliest.
    for learner, goal, search_bound in (("always-change", 10, 135),
                                        ("min-consistent", 10, 215),
                                        ("min-consistent", 10, 225),
                                        ("set-copier", 10, 205),
                                        ("set-copier", 10, 215),
                                        ("family-overgeneralizer", 36, 200),
                                        ("family-overgeneralizer", 40, 200),
                                        ("family-overgeneralizer", 60, 200),
                                        ("set-copier", 10, 300)):
        add("coolsep", learner, near(rng, goal), near(rng, search_bound))
    for argv in KNOWN_FAULTS["sessions"]:
        ops.append(_session_op(argv[1], argv[3], int(argv[5]), None, known_fault=True))
    return Deck(ops)


BY_WORKLOAD = {"check": check_deck, "learn": learn_deck, "sessions": sessions_deck}


def build(workload: str, seed: int) -> Deck:
    return BY_WORKLOAD[workload](seed)
