#!/usr/bin/env python3
"""Run every diagonalization session against the sample restricted learners
and write one JSON report per (session, learner) pair.

Each report holds the bytes that ``limitlab adversary <session> --learner
<spec> --wrap --goal N --error-goal N --output <file>`` writes.

Usage: python scripts/run_adversaries.py [--out-dir reports] [--goal N]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from limitlab.adversary import SESSIONS, Budgets
from limitlab.cli import resolve_session_learner

# (session, report label, learner spec)
PAIRS = [
    ("coolsep", "family-overgeneralizer", "family-overgeneralizer"),
    ("coolsep", "set-copier-psd", "set-copier"),
    ("gsmon", "always-change", "always-change"),
    ("gsmon", "min-consistent", "min-consistent"),
    ("gsmon", "constant-nat", "constant:N:Psd"),
    ("totalpsd", "set-copier-psd", "set-copier"),
    ("totalpsd", "constant-nat", "constant:N:Psd"),
    ("sd", "set-copier", "set-copier"),
    ("sd", "constant-nat", "constant:N"),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--goal", type=int, default=10)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    budgets = Budgets(mind_change_goal=args.goal, error_goal=args.goal)

    for name, label, spec in PAIRS:
        run, kind = SESSIONS[name]
        report = run(resolve_session_learner(spec, True, kind), budgets)
        path = out_dir / f"{name}-{label}.json"
        path.write_text(
            json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        print(f"{name:9s} vs {label:24s} -> {report.variant:22s} {path}")


if __name__ == "__main__":
    main()
