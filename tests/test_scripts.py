import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from limitlab.adversary import (
    SESSIONS,
    coolsep_diagnose,
    coolsep_session,
    gsmon_diagnose,
    gsmon_session,
    sd_diagnose,
    sd_session,
    totalpsd_diagnose,
    totalpsd_session,
)
from limitlab.canonical import (
    Workbench,
    always_change,
    constant_learner,
    family_overgeneralizer,
    min_consistent,
    set_copier,
)
from limitlab.cli import build_parser, main
from limitlab.learnkit import PSD, wrap_learner

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_adversaries.py"
DUMP_RELATIONS = ROOT / "scripts" / "dump_relations.py"

EXPECTED_VARIANTS = {
    "coolsep-family-overgeneralizer": "WrongForever",
    "coolsep-set-copier-psd": "FailsToOvergeneralize",
    "gsmon-always-change": "InfiniteMindChanges",
    "gsmon-min-consistent": "InfiniteMindChanges",
    "gsmon-constant-nat": "MonotonicityTrap",
    "totalpsd-set-copier-psd": "InfiniteMindChanges",
    "totalpsd-constant-nat": "ConfusedPair",
    "sd-set-copier": "InfiniteMindChanges",
    "sd-constant-nat": "ConfusedPair",
}


def load_script():
    spec = importlib.util.spec_from_file_location("run_adversaries", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(script, *args):
    """Run a script in a fresh interpreter against this checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script), *args],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result


@pytest.fixture(scope="module")
def script_reports(tmp_path_factory):
    """The script's stdout and its report files, from one run."""
    out_dir = tmp_path_factory.mktemp("reports")
    result = run_script(SCRIPT, "--out-dir", str(out_dir))
    return result.stdout, {path.stem: path.read_text(encoding="utf-8")
                           for path in out_dir.glob("*.json")}


def test_run_adversaries_writes_every_report(script_reports):
    stdout, texts = script_reports
    assert len(stdout.splitlines()) == len(EXPECTED_VARIANTS)
    reports = {name: json.loads(text) for name, text in texts.items()}
    assert {name: r["variant"] for name, r in reports.items()} == EXPECTED_VARIANTS
    for name, report in reports.items():
        assert report["theorem"] == name.split("-")[0]
        assert report["budgets"]["mind_change_goal"] == 10


def constant_nat(kind):
    return lambda session: constant_learner(Workbench(session.registry).p2, kind)


# The script's learner specs as the library builds them.
LIBRARY_LEARNERS = {
    ("coolsep", "family-overgeneralizer"): family_overgeneralizer,
    ("coolsep", "set-copier"): wrap_learner(set_copier(), PSD),
    ("gsmon", "always-change"): always_change(),
    ("gsmon", "min-consistent"): min_consistent(),
    ("gsmon", "constant:N:Psd"): constant_nat("Psd"),
    ("totalpsd", "set-copier"): wrap_learner(set_copier(), PSD),
    ("totalpsd", "constant:N:Psd"): constant_nat("Psd"),
    ("sd", "set-copier"): set_copier(),
    ("sd", "constant:N"): constant_nat("Sd"),
}

LIBRARY_SESSIONS = {
    "coolsep": (coolsep_session, coolsep_diagnose),
    "gsmon": (gsmon_session, gsmon_diagnose),
    "totalpsd": (totalpsd_session, totalpsd_diagnose),
    "sd": (sd_session, sd_diagnose),
}


@pytest.mark.parametrize("name, label, spec", load_script().PAIRS)
def test_script_cli_and_library_reports_are_byte_identical(
        script_reports, tmp_path, monkeypatch, name, label, spec):
    monkeypatch.chdir(tmp_path)  # no limitlab.cfg
    monkeypatch.delenv("LIMITLAB_CONFIG", raising=False)
    out = tmp_path / "report.json"
    assert main(["adversary", name, "--learner", spec, "--wrap",
                 "--output", str(out)]) == 0
    make_session, diagnose = LIBRARY_SESSIONS[name]
    report = diagnose(make_session(LIBRARY_LEARNERS[name, spec]), 10)
    library = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert out.read_text(encoding="utf-8") == script_reports[1][f"{name}-{label}"] == library


def test_session_names_agree():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    which = next(a for a in sub.choices["adversary"]._actions if a.dest == "which")
    assert set(which.choices) == set(SESSIONS)
    assert {name for name, _, _ in load_script().PAIRS} == set(SESSIONS)
    assert set(LIBRARY_SESSIONS) == set(SESSIONS)


def test_dump_relations_matches_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no limitlab.cfg
    monkeypatch.delenv("LIMITLAB_CONFIG", raising=False)
    dumped, printed = tmp_path / "script.json", tmp_path / "cli.json"
    result = run_script(DUMP_RELATIONS, "--output", str(dumped))
    assert "quotient DAG: True" in result.stdout
    assert main(["relations", "--output", str(printed)]) == 0
    assert dumped.read_bytes() == printed.read_bytes()
