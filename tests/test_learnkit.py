import random

import pytest
from hypothesis import given, settings, strategies as st

from limitlab.canonical import (
    Workbench,
    always_change,
    min_consistent,
    odd_class_language,
    set_copier,
)
from limitlab.hypospace import Decidable, Finite, ind
from limitlab.learnkit import (
    DuplicateKeyError,
    G,
    PSD,
    SD,
    Learner,
    ParseError,
    g_learner,
    load_table_learner,
    psd_learner,
    run,
    sd_learner,
    star,
    view_of,
)
from limitlab.textkit import PAUSE, canonical_text, finite_text, stitched_text
from oracles import run_by_prefixes


def test_view_of():
    prefix = (0, PAUSE, 2)
    assert view_of(G, prefix) == prefix
    assert view_of(PSD, prefix) == (frozenset({0, 2}), 3)
    assert view_of(SD, prefix) == frozenset({0, 2})
    with pytest.raises(ValueError):
        view_of("X", prefix)


def test_star_collapses_content():
    h = sd_learner(lambda d: ind(d))
    assert star(h).apply((0, PAUSE, 0), 10) == ind({0})


def test_star_passes_length():
    seen = []
    h = psd_learner(lambda view: seen.append(view) or 0)
    star(h).apply((PAUSE, PAUSE), 10)
    assert seen == [(frozenset(), 2)]


def test_star_idempotent_on_g():
    h = g_learner(lambda sigma: len(sigma))
    assert star(h) is h
    for prefix in ((), (1,), (1, PAUSE, 2)):
        assert star(star(h)).apply(prefix, 5) == h.apply(prefix, 5)


def test_budget_passing():
    h = sd_learner(lambda d, budget: budget)
    assert h.apply(frozenset(), 17) == 17


def test_run_thm3_case_row():
    wb = Workbench()
    seq = run(star(wb.thm3_learner()), finite_text((0, 2, 5)), horizon=3)
    assert seq == [wb.e2N, wb.e2N, wb.e2N, wb.p(5)]


def test_run_on_empty_text():
    h = sd_learner(lambda d: ind(d))
    seq = run(h, finite_text(()), horizon=4)
    assert seq == [ind(())] * 5


def test_starred_simulation_law():
    rng = random.Random(0)
    for _ in range(100):
        kind = rng.choice((SD, PSD))
        mapping = {}
        if kind == SD:
            h = sd_learner(lambda d, m=mapping: m.setdefault(d, rng.randrange(50)))
        else:
            h = psd_learner(lambda v, m=mapping: m.setdefault(v, rng.randrange(50)))
        text = finite_text(tuple(
            rng.choice((0, 1, 2, PAUSE)) for _ in range(rng.randrange(8))))
        assert run(star(h), text, 8, 100) == run(h, text, 8, 100)


def test_run_shares_content_between_arrivals():
    views = []
    h = sd_learner(lambda d: views.append(d) or 0)
    run(h, finite_text((1, PAUSE, 1, 2, 2)), 6)
    assert len(views) == 7  # one call per position, changed view or not
    assert views[1] is views[2] is views[3]
    assert views[4] is views[5] is views[6]
    assert views[3] == {1} and views[4] == {1, 2}


# -- run against the per-prefix definition ----------------------------------

CANONICAL = {
    "evens": Decidable("evens", lambda x: x % 2 == 0, 100),
    "sevens": Decidable("sevens", lambda x: x % 7 == 0, 100),
    "naturals": Decidable("naturals", lambda x: True, 100),
    "L5": Finite(odd_class_language(5)),
    "empty": Finite(frozenset()),
}

text_items = st.one_of(st.integers(0, 12), st.just(PAUSE))
text_specs = st.one_of(
    st.tuples(st.just("finite"), st.lists(text_items, max_size=40).map(tuple)),
    st.tuples(st.just("canonical"), st.sampled_from(sorted(CANONICAL))),
    st.tuples(st.just("stitched"),
              st.lists(st.lists(text_items, max_size=6).map(tuple), max_size=10)))


def make_text(spec):
    """A fresh text for the spec, so that no run sees another's caches."""
    shape, data = spec
    if shape == "finite":
        return finite_text(data)
    if shape == "canonical":
        return canonical_text(CANONICAL[data])
    return stitched_text(iter(data))


def recorder(kind):
    views = []

    def apply(view, budget):
        views.append(view)
        return len(views)

    return Learner(kind, "recorder", apply), views


@settings(deadline=None)
@given(text_specs, st.integers(0, 60), st.sampled_from((G, PSD, SD)))
def test_run_matches_per_prefix_definition(spec, horizon, kind):
    h, views = recorder(kind)
    h_ref, views_ref = recorder(kind)
    assert run(h, make_text(spec), horizon, 7) == \
        run_by_prefixes(h_ref, make_text(spec), horizon, 7)
    assert views == views_ref


BUILTINS = {
    "thm3": lambda wb: wb.thm3_learner(),
    "thm4": lambda wb: wb.thm4_learner(),
    "thm5": lambda wb: wb.thm5_learner(),
    "thm6": lambda wb: wb.thm6_learner(),
    "set-copier": lambda wb: set_copier(),
    "min-consistent": lambda wb: min_consistent(),
    "always-change": lambda wb: always_change(),
}


@settings(deadline=None)
@given(text_specs, st.integers(0, 60), st.sampled_from(sorted(BUILTINS)))
def test_run_builtins_match_per_prefix_definition(spec, horizon, name):
    # A workbench each: thm6 registers joins as it runs.
    seq = run(BUILTINS[name](Workbench()), make_text(spec), horizon, 100)
    ref = run_by_prefixes(BUILTINS[name](Workbench()), make_text(spec), horizon, 100)
    assert seq == ref


# -- table learners ---------------------------------------------------------

def _load(tmp_path, body):
    p = tmp_path / "tbl.txt"
    p.write_text(body, encoding="utf-8")
    return load_table_learner(p)


def test_table_psd_empty_key(tmp_path):
    h = _load(tmp_path, "!kind Psd\n∅;0 -> 4\n")
    assert h.kind == PSD
    assert h.apply((frozenset(), 0), 10) == 4
    assert h.apply((frozenset({1}), 1), 10) is None


def test_table_default_and_comments(tmp_path):
    h = _load(tmp_path, "# a comment\n!default 7\n1,2 -> 3\n")
    assert h.apply(frozenset({2, 1}), 10) == 3
    assert h.apply(frozenset({9}), 10) == 7


def test_table_g_kind(tmp_path):
    h = _load(tmp_path, "!kind G\n0,#,2 -> 5\n")
    assert h((0, PAUSE, 2)) == 5


def test_table_duplicate_key(tmp_path):
    with pytest.raises(DuplicateKeyError):
        _load(tmp_path, "1 -> 2\n 1 -> 3\n")


def test_table_parse_errors(tmp_path):
    with pytest.raises(ParseError) as err:
        _load(tmp_path, "1 -> 2\nbogus line\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        _load(tmp_path, "!kind Weird\n")
    with pytest.raises(ParseError):
        _load(tmp_path, "1 -> -4\n")
    with pytest.raises(ParseError):
        _load(tmp_path, "!kind Psd\n1,2 -> 0\n")  # Psd key needs ;count
