import json

import pytest

from limitlab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture(autouse=True)
def isolate_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LIMITLAB_CONFIG", raising=False)
    return tmp_path


def test_learn_canonical_trace(capsys):
    code, trace = run_json(capsys, "learn", "--learner", "thm3",
                           "--text", "canonical:L5", "--horizon", "10")
    assert code == 0
    from limitlab.canonical import Workbench

    assert trace["entries"][-1] == Workbench().p(5)
    assert len(trace["entries"]) == 11


def test_learn_table_learner(capsys, tmp_path):
    tbl = tmp_path / "tbl.txt"
    tbl.write_text("!kind Sd\n!default 9\n0,2 -> 5\n", encoding="utf-8")
    code, trace = run_json(capsys, "learn", "--learner", f"@{tbl}",
                           "--text", "0,2,#", "--horizon", "3")
    assert code == 0
    assert trace["entries"] == [9, 9, 5, 5]


def test_learn_unknown_learner(capsys):
    assert main(["learn", "--learner", "nope", "--text", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["learn", "--learner", "set-copier", "--text=-5", "--horizon", "1"],
    ["learn", "--learner", "set-copier", "--text", "0,#,-5"],
    ["check", "--criterion", "ex", "--learner", "set-copier",
     "--text", "1,2", "--target=1,-2"],
    ["check", "--criterion", "ex", "--learner", "set-copier",
     "--text", "canonical:-2", "--target", "1"],
    ["enum", "--index", "set:1,-2"],
])
def test_negative_elements_are_config_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("kind, key", [("Sd", "-3"), ("Psd", "1,-3;2"),
                                       ("G", "1,#,-3")])
def test_table_learner_rejects_negative_elements(capsys, tmp_path, kind, key):
    tbl = tmp_path / "tbl.txt"
    tbl.write_text(f"!kind {kind}\n{key} -> 5\n", encoding="utf-8")
    assert main(["learn", "--learner", f"@{tbl}", "--text", "1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_constant_learner_rejects_negative_index(capsys):
    assert main(["learn", "--learner", "constant:-5", "--text", "1",
                 "--horizon", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_check_mon_confirmed(capsys):
    code, verdict = run_json(capsys, "check", "--criterion", "mon",
                             "--learner", "thm3", "--text", "canonical:L5",
                             "--horizon", "10")
    assert code == 0 and verdict["verdict"] == "confirmed"


def test_check_smon_refuted_with_witness(capsys):
    code, verdict = run_json(capsys, "check", "--criterion", "smon",
                             "--learner", "thm3", "--text", "0,2,5",
                             "--horizon", "10")
    assert code == 1
    assert verdict["witness"]["x"] == 6
    assert verdict["witness"]["tier"] == "exact"


def test_check_ex_needs_target(capsys):
    assert main(["check", "--criterion", "ex", "--learner", "thm3",
                 "--text", "canonical:L5"]) == 2


def test_check_ex_confirmed(capsys):
    code, verdict = run_json(capsys, "check", "--criterion", "ex",
                             "--learner", "thm3", "--text", "canonical:L5",
                             "--target", "L5", "--horizon", "10")
    assert code == 0 and verdict["verdict"] == "confirmed"


@pytest.mark.parametrize("criterion", ["ex", "bc"])
def test_check_cut_short_horizon_inconclusive(capsys, criterion):
    argv = ("check", "--criterion", criterion, "--learner", "thm3",
            "--text", "canonical:L201", "--target", "L201")
    code, verdict = run_json(capsys, *argv, "--horizon", "50")
    assert code == 3 and verdict["verdict"] == "inconclusive"
    assert verdict["evidence"]["unshown"] == 100
    code, verdict = run_json(capsys, *argv, "--horizon", "150")
    assert code == 0 and verdict["verdict"] == "confirmed"


def test_trace_round_trip(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main(["learn", "--learner", "thm3", "--text", "0,2,5",
                 "--horizon", "10", "--output", str(trace_path)]) == 0
    capsys.readouterr()
    direct_code, direct = run_json(
        capsys, "check", "--criterion", "smon", "--learner", "thm3",
        "--text", "0,2,5", "--horizon", "10")
    replay_code, replay = run_json(
        capsys, "check", "--criterion", "smon", "--trace", str(trace_path))
    assert (direct_code, direct) == (replay_code, replay)


GOOD_TRACE = {"learner": "thm3", "text": "0,2,5", "entries": [0, 1], "budget": 500}


@pytest.mark.parametrize("key, value", [
    ("entries", [0, "x"]), ("entries", [0, 2.5]), ("entries", [0, -3]),
    ("entries", [0, True]), ("entries", "0,1"), ("text", 5), ("learner", None),
    ("budget", "x"), ("budget", -4), ("budget", True)])
def test_check_trace_rejects_bad_fields(capsys, tmp_path, key, value):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps({**GOOD_TRACE, key: value}), encoding="utf-8")
    assert main(["check", "--criterion", "smon", "--trace", str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad trace {trace_path}: ")


def test_check_trace_rejects_non_object(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text("[]", encoding="utf-8")
    assert main(["check", "--criterion", "smon", "--trace", str(trace_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad trace {trace_path}: ")


def test_check_trace_accepts_null_entries(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main(["learn", "--learner", "thm3", "--text", "0,2",
                 "--horizon", "3", "--output", str(trace_path)]) == 0
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    trace["entries"][1] = None
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    code, verdict = run_json(capsys, "check", "--criterion", "smon",
                             "--trace", str(trace_path))
    assert code == 3 and verdict["reason"] == "undefined entries"


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    assert build_parser() is build_parser()
    out_path = tmp_path / "out.json"
    learn = ("learn", "--learner", "thm3", "--text", "0", "--horizon", "1")
    assert main([*learn, "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    code, trace = run_json(capsys, *learn)
    assert code == 0 and trace == json.loads(out_path.read_text(encoding="utf-8"))
    assert main(["check", "--criterion", "nope"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    code, verdict = run_json(capsys, "check", "--criterion", "smon",
                             "--learner", "thm3", "--text", "0,2,5")
    assert code == 1 and verdict["witness"]["x"] == 6


def test_adversary_kind_mismatch(capsys):
    assert main(["adversary", "coolsep", "--learner", "thm3"]) == 2


def test_adversary_wrap(capsys):
    code, report = run_json(capsys, "adversary", "sd", "--learner",
                            "constant:N", "--goal", "5")
    assert code == 0 and report["variant"] == "ConfusedPair"


def test_adversary_budget_flags(capsys):
    code, report = run_json(capsys, "adversary", "gsmon", "--learner",
                            "always-change", "--goal", "4",
                            "--search-bound", "30")
    assert code == 0
    assert report["variant"] == "InfiniteMindChanges"
    assert report["budgets"]["mind_change_goal"] == 4
    assert report["budgets"]["search_bound"] == 30


def test_adversary_totalpsd_predicate_cycle_is_inconclusive(capsys):
    # thm6 answers a(0) with the session's own W_e, whose membership is
    # defined by P(0): computing P(0) would need P(0).
    code, report = run_json(capsys, "adversary", "totalpsd", "--learner",
                            "thm6", "--goal", "50")
    assert code == 3
    assert report["variant"] == "BudgetExhausted"
    assert report["evidence"][0]["predicate_cycle"] == [0, 0]


def test_relations_full_dump(capsys):
    code, dump = run_json(capsys, "relations")
    classes = [set(c) for c in dump["collapse_classes"]]
    assert code == 0
    assert {"tau(Mon)-G-Ex", "tau(SMon)-G-Ex"} in classes
    assert any(e["lower"] == "Psd-Mon-Bc" and e["upper"] == "G-Mon-Bc"
               and e["kind"] == "strict-inclusion" for e in dump["edges"])


def test_relations_query_and_errors(capsys):
    code, answer = run_json(capsys, "relations", "--query",
                            "G-Mon-Ex", "G-Mon-Ex")
    assert code == 0 and answer["relation"] == "inclusion"
    assert main(["relations", "--query", "nope", "G-Mon-Ex"]) == 2


def test_enum_dump_schema(capsys):
    code, dump = run_json(capsys, "enum", "--index", "2N", "--budget", "10")
    assert code == 0
    assert set(dump) == {"index", "tag", "enumeration", "budget"}
    assert dump["tag"] == "REG"
    assert dump["enumeration"] == [0, 2, 4, 6, 8, 10]


def test_config_file_defaults_and_flag_precedence(capsys, tmp_path):
    (tmp_path / "limitlab.cfg").write_text("horizon=5\n# comment\n",
                                           encoding="utf-8")
    _, trace = run_json(capsys, "learn", "--learner", "thm3", "--text", "0")
    assert len(trace["entries"]) == 6
    _, trace = run_json(capsys, "learn", "--learner", "thm3", "--text", "0",
                        "--horizon", "3")
    assert len(trace["entries"]) == 4


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "elsewhere.cfg"
    cfg.write_text("horizon=2\n", encoding="utf-8")
    monkeypatch.setenv("LIMITLAB_CONFIG", str(cfg))
    _, trace = run_json(capsys, "learn", "--learner", "thm3", "--text", "0")
    assert len(trace["entries"]) == 3


def test_config_errors(capsys, tmp_path):
    (tmp_path / "limitlab.cfg").write_text("bogus=1\n", encoding="utf-8")
    assert main(["learn", "--learner", "thm3", "--text", "0"]) == 2
    (tmp_path / "limitlab.cfg").write_text("horizon=abc\n", encoding="utf-8")
    assert main(["learn", "--learner", "thm3", "--text", "0"]) == 2
