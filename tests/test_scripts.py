import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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


def test_run_adversaries_writes_every_report(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_adversaries.py"),
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == len(EXPECTED_VARIANTS)
    reports = {path.stem: json.loads(path.read_text(encoding="utf-8"))
               for path in tmp_path.glob("*.json")}
    assert {name: r["variant"] for name, r in reports.items()} == EXPECTED_VARIANTS
    for name, report in reports.items():
        assert report["theorem"] == name.split("-")[0]
        assert report["budgets"]["mind_change_goal"] == 10
