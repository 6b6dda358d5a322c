"""Batch front door: run learners on texts, check success criteria, launch
diagonalization sessions, dump relation maps and enumerations.  All output
is deterministic JSON.

Exit codes: 0 confirmed / definitive witness, 1 refuted, 2 configuration
error (including a negative setting), 3 inconclusive or budget exhausted,
4 internal error.  A fault of the program never exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import fields
from functools import cache
from pathlib import Path

from . import adversary as adv
from .canonical import (
    Workbench,
    always_change,
    constant_learner,
    coolsep_learner,
    family_overgeneralizer,
    min_consistent,
    relations_map,
    set_copier,
)
from .coding import Tag, decode
from .criteria import check_bc, check_ex, check_mon, check_smon
from .hypospace import Decidable, Descriptor, Finite, Registry, ind
from .learnkit import (
    G,
    PSD,
    SD,
    Learner,
    TableError,
    load_table_learner,
    run,
    wrap_learner,
)
from .textkit import Text, canonical_text, finite_text, parse_element, parse_prefix

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

DEFAULTS = {**adv.Budgets().to_json(), "bound": 100}

CONFIG_KEYS = frozenset(DEFAULTS)


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# Configuration file

def load_config_file(explicit: str | None = None) -> dict[str, int]:
    """key=value pairs from the config file; flags still win."""
    path = explicit or os.environ.get("LIMITLAB_CONFIG") or "limitlab.cfg"
    p = Path(path)
    if not p.is_file():
        if explicit or os.environ.get("LIMITLAB_CONFIG"):
            raise ConfigError(f"config file not found: {path}")
        return {}
    out: dict[str, int] = {}
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            out[key] = int(value.strip())
        except ValueError:
            raise ConfigError(f"{path}:{line_no}: {key} needs an integer") from None
    return out


def _setting(args: argparse.Namespace, file_cfg: dict[str, int], key: str) -> int:
    """The flag's value, else the config file's, else the default."""
    value = getattr(args, key, None)
    if value is None:
        value = file_cfg.get(key, DEFAULTS[key])
    if value < 0:
        raise ConfigError(f"{key} must be non-negative, got {value}")
    return value


# --------------------------------------------------------------------------
# Spec resolution

def resolve_descriptor(spec: str, workbench: Workbench) -> Descriptor:
    """Named language (2N, N, L<odd>) or a comma-separated finite set."""
    spec = spec.strip()
    if spec in ("2N", "evens"):
        return workbench.evens
    if spec in ("N", "naturals"):
        return workbench.naturals
    if spec.startswith("L") and spec[1:].isdigit():
        odd = int(spec[1:])
        if odd % 2 == 0:
            raise ConfigError(f"language parameter must be odd: {spec}")
        return workbench.odd_class_descriptor(odd)
    try:
        return Finite(frozenset(parse_element(part) for part in spec.split(",")
                                if part.strip()))
    except ValueError:
        raise ConfigError(f"cannot parse target {spec!r}") from None


def resolve_text(spec: str, workbench: Workbench) -> Text:
    spec = spec.strip()
    if spec.startswith("canonical:"):
        return canonical_text(resolve_descriptor(spec[len("canonical:"):],
                                                 workbench))
    try:
        return finite_text(parse_prefix(spec))
    except ValueError:
        raise ConfigError(f"cannot parse text {spec!r}") from None


def resolve_learner(spec: str, workbench: Workbench) -> Learner:
    """Builtin name, ``constant:<index>[:<kind>]``, or ``@table-file``."""
    spec = spec.strip()
    if spec.startswith("@"):
        try:
            return load_table_learner(spec[1:])
        except (OSError, TableError) as exc:
            raise ConfigError(f"table learner {spec}: {exc}") from None
    builtins = {
        "thm3": workbench.thm3_learner,
        "thm4": workbench.thm4_learner,
        "thm5": workbench.thm5_learner,
        "thm6": workbench.thm6_learner,
        "set-copier": set_copier,
        "min-consistent": min_consistent,
        "always-change": always_change,
    }
    if spec in builtins:
        return builtins[spec]()
    if spec.startswith("constant:"):
        parts = spec.split(":")
        kind = parts[2] if len(parts) > 2 else SD
        if kind not in (G, PSD, SD):
            raise ConfigError(f"unknown learner kind {kind!r}")
        raw = parts[1]
        if raw in ("N", "naturals"):
            return constant_learner(workbench.p2, kind)
        if raw in ("2N", "evens"):
            return constant_learner(workbench.e2N, kind)
        try:
            index = int(raw)
        except ValueError:
            raise ConfigError(f"bad constant index {raw!r}") from None
        if index < 0:
            raise ConfigError(f"constant index must be non-negative, got {index}")
        return constant_learner(index, kind)
    raise ConfigError(f"unknown learner {spec!r}")


def resolve_session_learner(spec: str, wrap: bool, needed_kind: str):
    """A factory the adversary session resolves against itself, so learners
    that consult the session registry share its indices."""
    spec = spec.strip()

    def factory(session) -> Learner:
        if spec == "family-overgeneralizer":
            h = family_overgeneralizer(session)
        elif spec == "coolsep":
            h = coolsep_learner(session)
        else:
            h = resolve_learner(spec, Workbench(session.registry))
        return wrap_learner(h, needed_kind) if wrap else h

    return factory


# --------------------------------------------------------------------------
# Commands

def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_learn(args: argparse.Namespace, file_cfg: dict[str, int]) -> int:
    workbench = Workbench()
    learner = resolve_learner(args.learner, workbench)
    text = resolve_text(args.text, workbench)
    horizon = _setting(args, file_cfg, "horizon")
    budget = _setting(args, file_cfg, "enum_budget")
    seq = run(learner, text, horizon, budget)
    _emit({
        "learner": args.learner,
        "text": args.text,
        "horizon": horizon,
        "budget": budget,
        "entries": seq,
    }, args.output)
    return EXIT_OK


def _is_nat(value) -> bool:
    return type(value) is int and value >= 0  # a bool is not an int here


def _read_trace(path: str) -> dict:
    """A saved learn trace: ``text`` and ``learner`` specs, ``entries`` that
    are non-negative indices or nulls, and an optional non-negative
    ``budget``."""
    trace = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(trace, dict):
        raise ValueError("not a JSON object")
    for key in ("text", "learner"):
        if not isinstance(trace[key], str):
            raise ValueError(f"{key} must be a string")
    if not isinstance(trace["entries"], list):
        raise ValueError("entries must be a list")
    for entry in trace["entries"]:
        if entry is not None and not _is_nat(entry):
            raise ValueError(f"entry {entry!r} is not a non-negative index or null")
    if "budget" in trace and not _is_nat(trace["budget"]):
        raise ValueError(f"budget {trace['budget']!r} is not a non-negative int")
    return trace


def cmd_check(args: argparse.Namespace, file_cfg: dict[str, int]) -> int:
    workbench = Workbench()
    horizon = _setting(args, file_cfg, "horizon")
    budget = _setting(args, file_cfg, "enum_budget")
    bound = _setting(args, file_cfg, "bound")
    if args.trace:
        try:
            trace = _read_trace(args.trace)
            text = resolve_text(trace["text"], workbench)
            seq = trace["entries"]
            budget = trace.get("budget", budget)
            # The trace was produced against a fresh workbench; replaying the
            # learner spec rebuilds any registry-backed hypotheses it used.
            resolve_learner(trace["learner"], workbench)
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad trace {args.trace}: {exc}") from None
    else:
        if not args.learner or not args.text:
            raise ConfigError("check needs --trace or both --learner and --text")
        learner = resolve_learner(args.learner, workbench)
        text = resolve_text(args.text, workbench)
        seq = run(learner, text, horizon, budget)
    registry = workbench.registry
    if args.criterion in ("ex", "bc"):
        if not args.target:
            raise ConfigError(f"--target is required for {args.criterion}")
        target = resolve_descriptor(args.target, workbench)
        checker = check_ex if args.criterion == "ex" else check_bc
        verdict = checker(registry, seq, text, target, budget, bound)
    elif args.criterion == "smon":
        verdict = check_smon(registry, seq, budget)
    else:
        verdict = check_mon(registry, seq, text, budget)
    _emit(verdict.to_json(), args.output)
    if verdict.confirmed:
        return EXIT_OK
    if verdict.refuted:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


# Session name -> (run, kind).  perfbench's tracer wraps each run here to
# time its session, so a request runs its whole session through it.
_SESSIONS = adv.SESSIONS


def cmd_adversary(args: argparse.Namespace, file_cfg: dict[str, int]) -> int:
    run_session, needed_kind = _SESSIONS[args.which]
    budgets = adv.Budgets(**{f.name: _setting(args, file_cfg, f.name)
                             for f in fields(adv.Budgets)})
    report = run_session(
        resolve_session_learner(args.learner, args.wrap, needed_kind), budgets)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.definitive else EXIT_INCONCLUSIVE


def cmd_relations(args: argparse.Namespace, file_cfg: dict[str, int]) -> int:
    rel = relations_map()
    if args.query:
        lower, upper = args.query
        try:
            answer = rel.query(lower, upper)
        except KeyError as exc:
            raise ConfigError(f"unknown node {exc.args[0]!r}") from None
        _emit({"lower": lower, "upper": upper, "relation": answer}, args.output)
    else:
        _emit(rel.to_json(), args.output)
    return EXIT_OK


def cmd_enum(args: argparse.Namespace, file_cfg: dict[str, int]) -> int:
    workbench = Workbench()
    spec = args.index.strip()
    if spec.isdigit():
        index = int(spec)
    elif spec.startswith("set:"):
        try:
            index = ind(int(part) for part in spec[4:].split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"bad set literal {spec!r}") from None
    elif spec in ("2N", "evens"):
        index = workbench.e2N
    elif spec in ("N", "naturals"):
        index = workbench.p2
    elif spec.startswith("L") and spec[1:].isdigit():
        index = workbench.p(int(spec[1:]))
    else:
        raise ConfigError(f"cannot parse index {spec!r}")
    budget = _setting(args, file_cfg, "enum_budget")
    try:
        tag, _ = decode(index)
        tag_name = tag.name
    except ValueError:
        tag_name = "PLAIN"
    _emit({
        "index": index,
        "tag": tag_name,
        "enumeration": sorted(workbench.registry.enumerate(index, budget)),
        "budget": budget,
    }, args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and help text is laid out when it is printed, not here."""
    parser = argparse.ArgumentParser(
        prog="limitlab",
        description="Simulation workbench for learning in the limit.")
    parser.add_argument("--config", help="config file (default limitlab.cfg, "
                                         "or $LIMITLAB_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def budget_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--horizon", type=int)
        p.add_argument("--budget", dest="enum_budget", type=int)
        p.add_argument("--output", help="write JSON here instead of stdout")

    learn = sub.add_parser("learn", help="run a learner on a text")
    learn.add_argument("--learner", required=True)
    learn.add_argument("--text", required=True)
    budget_flags(learn)
    learn.set_defaults(fn=cmd_learn)

    check = sub.add_parser("check", help="check a success criterion")
    check.add_argument("--criterion", required=True,
                       choices=["ex", "bc", "mon", "smon"])
    check.add_argument("--learner")
    check.add_argument("--text")
    check.add_argument("--trace", help="re-check a saved learn trace")
    check.add_argument("--target")
    check.add_argument("--bound", type=int)
    budget_flags(check)
    check.set_defaults(fn=cmd_check)

    adversary = sub.add_parser("adversary", help="run a diagonalization session")
    adversary.add_argument("which", choices=sorted(_SESSIONS))
    adversary.add_argument("--learner", required=True)
    adversary.add_argument("--wrap", action="store_true",
                           help="adapt the learner's kind to the session")
    adversary.add_argument("--error-goal", dest="error_goal", type=int)
    adversary.add_argument("--goal", dest="mind_change_goal", type=int)
    adversary.add_argument("--search-bound", dest="search_bound", type=int)
    budget_flags(adversary)
    adversary.set_defaults(fn=cmd_adversary)

    relations = sub.add_parser("relations", help="dump or query the relation map")
    relations.add_argument("--query", nargs=2, metavar=("LOWER", "UPPER"))
    relations.add_argument("--output")
    relations.set_defaults(fn=cmd_relations)

    enum = sub.add_parser("enum", help="budgeted enumeration of an index")
    enum.add_argument("--index", required=True,
                      help="int, set:1,2, 2N, N, or L<odd>")
    enum.add_argument("--budget", dest="enum_budget", type=int)
    enum.add_argument("--output")
    enum.set_defaults(fn=cmd_enum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        file_cfg = load_config_file(args.config)
        return args.fn(args, file_cfg)
    except (ConfigError, adv.KindMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a fault of the program, not a verdict
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
