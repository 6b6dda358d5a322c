"""Tests of the benchmark's own arithmetic: the reference coding model on
hand-worked codes, the percentile and spread statistics, and the tracer's
self-time accounting.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import reference as ref
import run
import tracer as tracing
from stats import percentile, relative_spread

ROOT = Path(__file__).resolve().parent.parent


# -- reference coding -------------------------------------------------------

def test_pairing_by_hand():
    assert [ref.pair(x, y) for x, y in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]] == [0, 1, 2, 3, 4]
    assert ref.unpair(4) == (1, 1)
    assert ref.unpair(7) == (2, 1)
    assert ref.components(ref.pair(3, ref.pair(11, 5))) == (3, 11, 5)


@pytest.mark.parametrize("items, code", [
    ((), 0),
    ((0,), 0b1_00_01),
    ((5,), 0b1_11_00_11_01),
    ((1, 2), 0b1_11_01_11_00_01),
    ((3, 0), 0b1_11_11_01_00_01),
])
def test_list_code_by_hand(items, code):
    assert ref.encode_list(items) == code
    assert ref.decode_list(code) == items


@pytest.mark.parametrize("code, items", [
    (0b1, ()),               # the leading 1 alone
    (0b1_10, (0,)),          # a terminator with no digits is a 0
    (0b1_11_1, (1,)),        # the dangling low bit is dropped
    (0b1_11_00, (2,)),       # digits without a terminator still count
    (0b1_01_10_11_01, (0, 0, 1)),
])
def test_malformed_list_codes(code, items):
    assert ref.decode_list(code) == items


def test_tagged_codes_by_hand():
    assert ref.reg(0) == 3 and ref.reg(1) == 7
    assert ref.ind(()) == 0
    assert ref.ind({5}) == ref.pair(0, 461) == 106952
    assert ref.language(3) == ref.EVENS
    assert ref.language(7) == ref.NATURALS
    assert ref.language(ref.reg(2)) == ref.EMPTY            # never allocated
    assert ref.language(ref.pad(3, [9, 9])) == ref.EVENS
    assert ref.language(ref.ind({2, 1})) == ("finite", frozenset({1, 2}))
    assert ref.language(ref.pair(7, 0)) == ref.EMPTY        # past the last tag


def test_reference_learners_and_scan():
    seq = ref.learning_sequence("thm3", "0,2,5,3", 4)
    assert seq == [3, 3, 3, ref.ind({0, 2, 4, 5}), ref.ind({0, 2, 3})]
    assert ref.mon_violation(seq, 500, None)                   # 4 is dropped
    assert ref.mon_violation(seq, 500, ref.finite({0, 2, 5, 3}))  # and then 5
    seq = ref.learning_sequence("thm3", "0,2,3", 3)
    assert ref.mon_violation(seq, 500, None)
    assert not ref.mon_violation(seq, 500, ref.finite({0, 2, 3}))
    copier = ref.learning_sequence("set-copier", "canonical:L5", 6)
    assert copier[-1] == ref.ind({0, 2, 4, 5}) and len(set(copier)) == 5
    assert ref.expected_convergence("ex", copier, ref.target_language("L5"), 500, 100) \
        == ("confirmed", 4)
    # Still moving at the final entry: repeated changes refute, a single
    # late change is inconclusive.
    assert ref.expected_convergence("ex", copier[:5], ref.target_language("L5"), 500, 100) \
        == ("refuted", None)
    late = ref.learning_sequence("thm3", "0,3", 2)
    assert ref.expected_convergence("ex", late, ref.target_language("L3"), 500, 100) \
        == ("inconclusive", None)


# -- statistics -------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert percentile([1, 2, 3, 4], 0) == 1 and percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7.0], 90) == 7.0
    values = list(range(1, 101))
    assert percentile(values, 90) == pytest.approx(90.1)


def test_relative_spread():
    # quantiles(n=4) of 1..9 are 2.5, 5 and 7.5.
    assert relative_spread(range(1, 10)) == pytest.approx((7.5 - 2.5) / 5)
    assert relative_spread([2.0] * 10) == 0


# -- tracing ----------------------------------------------------------------

def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer(fake_clock(0.0, 1.0, 4.0, 5.0, 5.5, 10.0))
    inner = tr.wrap("learnkit.run", lambda: None)
    outer = tr.wrap("cli.main", lambda: (inner(), inner()))
    outer()
    assert tr.calls == {"cli.main": 1, "learnkit.run": 2}
    assert tr.self_s["learnkit.run"] == pytest.approx(3.0 + 0.5)
    assert tr.self_s["cli.main"] == pytest.approx(10.0 - 3.5)
    # Spans keep their parent; the outer span closes last.
    assert [(s[0], s[1], s[2]) for s in tr.spans] == [
        (1, 0, "learnkit.run"), (2, 0, "learnkit.run"), (0, None, "cli.main")]


def test_nested_and_outermost_counts():
    tr = tracing.Tracer(fake_clock(*range(100)))
    leaf = tr.wrap("coding.decode_list", lambda: None,
                   under=(("decodes", ("hypospace.descriptor",)),))
    mid = tr.wrap("hypospace.descriptor", leaf)
    learner = tr.wrap("learnkit.learner", lambda f: f(), outermost="learner_calls")
    learner(lambda: learner(mid))
    leaf()
    assert tr.nested["decodes"] == 1
    assert tr.calls["coding.decode_list"] == 2
    assert tr.calls["learnkit.learner"] == 2 and tr.calls["learner_calls"] == 1


def test_install_wraps_every_import_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    modules = run.import_limitlab()
    coding, hypospace, cli = modules["coding"], modules["hypospace"], modules["cli"]
    originals = (coding.decode_list, hypospace.decode_list, hypospace.Registry.decide,
                 cli.main, dict(cli._SESSIONS), modules["learnkit"].Learner.__init__)
    tr = tracing.Tracer()
    tr.install(modules)
    try:
        assert coding.decode_list is hypospace.decode_list is not originals[0]
        registry = hypospace.Registry()
        registry.decide(hypospace.ind({1}), 1)
        assert tr.calls["hypospace.decide"] == 1
        assert tr.calls["coding.decode_list"] == 1
    finally:
        tr.uninstall()
    assert (coding.decode_list, hypospace.decode_list, hypospace.Registry.decide,
            cli.main, dict(cli._SESSIONS), modules["learnkit"].Learner.__init__) == originals


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
