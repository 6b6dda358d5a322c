"""Spans and per-layer counts for the traced run, recorded from outside the
program.

The tracer replaces named limitlab functions and methods with wrappers, in
every limitlab module that imported them by name, and puts the originals
back on ``uninstall``.  Each wrapped call counts one call and adds its self
time: its duration minus the time its wrapped callees took.  Calls of the
coarse boundaries in ``SPAN_NAMES`` are also kept as spans (name, start,
end, parent, request) in memory for writing out when the run ends; the hot
inner functions keep only their counts, because a span each would cost
more memory than the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable

CHECKS = ("criteria.check_smon", "criteria.check_mon",
          "criteria.check_ex", "criteria.check_bc")
SESSIONS = ("coolsep", "gsmon", "totalpsd", "sd")

SPAN_NAMES = frozenset(("cli.main", "learnkit.run", "hypospace.lang_equal")
                       + CHECKS + tuple(f"adversary.{s}" for s in SESSIONS))


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.items: Counter[str] = Counter()
        self.nested: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.request: object = None
        self._open: list[list[float]] = []  # child time of each open call
        self._active: Counter[str] = Counter()
        self._span_stack: list[int] = []
        self._next_span = 0
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, *, items: Callable[[tuple], int] | None = None,
             under: tuple[tuple[str, tuple[str, ...]], ...] = (),
             outermost: str | None = None) -> Callable:
        """A wrapper of ``fn`` recording calls under ``name``.

        ``items`` counts work units from the arguments; each ``under``
        entry (counter, outer names) counts calls made while one of the
        outer names is open; ``outermost`` counts calls not nested in
        another call of the same name.
        """
        clock, open_calls, active = self.clock, self._open, self._active
        calls, self_s = self.calls, self.self_s
        keep_span = name in SPAN_NAMES

        def traced(*args, **kwargs):
            if items is not None:
                self.items[name] += items(args)
            for counter, outers in under:
                if any(active[o] for o in outers):
                    self.nested[counter] += 1
            if outermost is not None and not active[name]:
                calls[outermost] += 1
            if keep_span:
                span_id = self._next_span
                self._next_span += 1
                parent = self._span_stack[-1] if self._span_stack else None
                self._span_stack.append(span_id)
            child = [0.0]
            open_calls.append(child)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                open_calls.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - child[0]
                if open_calls:
                    open_calls[-1][0] += duration
                if keep_span:
                    self._span_stack.pop()
                    self.spans.append((span_id, parent, name, start, end, self.request))

        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_function(self, module: object, attr: str, name: str, **options) -> None:
        """Wrap a function wherever a limitlab module holds it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "limitlab" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        self._patch(cls, attr, self.wrap(name, vars(cls)[attr], **options))

    def install(self, limitlab_modules: dict[str, object]) -> None:
        m = limitlab_modules
        coding, hypospace, textkit = m["coding"], m["hypospace"], m["textkit"]
        learnkit, criteria, adversary, cli = (m["learnkit"], m["criteria"],
                                              m["adversary"], m["cli"])
        self.patch_function(coding, "decode_list", "coding.decode_list",
                            under=(("hypospace.decodes_under_descriptor",
                                    ("hypospace.descriptor",)),))
        self.patch_function(coding, "unpair", "coding.unpair")
        registry = hypospace.Registry
        for method in ("descriptor", "enumerate", "is_exact", "member",
                       "lang_equal", "allocate", "bind"):
            self.patch_method(registry, method, f"hypospace.{method}")
        self.patch_method(registry, "decide", "hypospace.decide",
                          under=(("criteria.decides_under_check", CHECKS),))
        self.patch_method(textkit.Text, "prefix", "textkit.prefix",
                          items=lambda args: args[1])
        self.patch_function(textkit, "content", "textkit.content",
                            items=lambda args: len(args[0]))
        self.patch_function(learnkit, "run", "learnkit.run")
        for check in CHECKS:
            self.patch_function(criteria, check.split(".")[1], check)
        for session in SESSIONS:
            name = f"adversary.{session}"
            for attr in (f"{session}_session", f"{session}_diagnose"):
                self.patch_function(adversary, attr, name)
            # The CLI's session table holds the factories it dispatches on.
            factory, kind = cli._SESSIONS[session]
            self._patch_item(cli._SESSIONS, session,
                             (self.wrap(name, factory), kind))
        self.patch_function(cli, "main", "cli.main")
        self._patch_learners(learnkit.Learner)

    def _patch_item(self, table: dict, key: object, value: object) -> None:
        original = table[key]
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, original))

    def _patch_learners(self, learner_cls: type) -> None:
        """Every Learner built while tracing applies through a wrapper."""
        original_init = learner_cls.__init__
        wrap = self.wrap

        def init(obj, kind, name, apply):
            original_init(obj, kind, name,
                          wrap("learnkit.learner", apply, outermost="learnkit.learner_calls"))

        self._patch(learner_cls, "__init__", init)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
