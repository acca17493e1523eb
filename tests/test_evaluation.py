import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ttest_rel

from gigmix import evaluation
from gigmix.evaluation import (
    activation_map,
    paired_t_test,
    restricted_auc,
    standardize,
    win_matrix,
)
from helpers import brute_force_restricted_auc


def test_standardize_keeps_zeros_at_zero():
    # The nonzero values are z-scored; a fit masks the exact zeros, which
    # stay 0, so there is one value per input.
    out = standardize(np.array([0.0, 1.0, 3.0]))
    assert np.allclose(out, [0.0, -1.0, 1.0])
    assert out[0] == 0.0


def test_standardize_moments_and_idempotence():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.5, 5000)
    z = standardize(x)
    assert abs(z.mean()) < 1e-12
    assert abs(z.var() - 1.0) < 1e-12
    z2 = standardize(z)
    assert np.allclose(z2, z, atol=1e-12)


def test_standardize_errors():
    with pytest.raises(ValueError):
        standardize(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        standardize(np.array([2.0, 2.0, 2.0]))
    with pytest.raises(ValueError):
        standardize(np.array([1.0, np.inf]))


def test_activation_map_examples():
    gamma = np.array(
        [[0.2, 0.7, 0.1], [0.4, 0.35, 0.25], [0.1, 0.1, 0.8]]
    )
    assert list(activation_map(gamma)) == [1, 0, -1]


def test_activation_map_threshold():
    gamma = np.array([[0.35, 0.45, 0.2]])
    assert activation_map(gamma)[0] == 0
    assert activation_map(gamma, threshold=0.4)[0] == 1


@pytest.mark.parametrize("threshold", [-0.1, math.nan, 1.0, math.inf])
def test_activation_map_refuses_a_threshold_outside_zero_to_one(threshold):
    # At -0.1 the second row, a negative-side sample with gamma_2 = 0, was
    # declared positive, breaking the support rule; NaN declared nothing.
    gamma = np.array([[1.0, 0.0, 0.0], [0.2, 0.0, 0.8], [0.3, 0.7, 0.0]])
    with pytest.raises(ValueError, match="threshold"):
        activation_map(gamma, threshold)
    assert list(activation_map(gamma, 0.0)) == [0, -1, 1]


def test_restricted_auc_perfect_and_reversed():
    scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
    active = np.array([True, True, True, False, False])
    assert restricted_auc(scores, active) == 1.0
    assert restricted_auc(1.0 - scores, active) == 0.0


def test_restricted_auc_chance_diagonal():
    scores = np.full(100, 0.5)
    active = np.arange(100) % 2 == 0
    assert restricted_auc(scores, active) == pytest.approx(0.025, rel=1e-12)


def test_restricted_auc_returns_a_python_float():
    rng = np.random.default_rng(4)
    cases = [
        (np.array([0.9, 0.8, 0.7, 0.2, 0.1]), np.array([True, True, True, False, False])),
        (np.full(100, 0.5), np.arange(100) % 2 == 0),  # one segment crosses fpr_max
        (rng.uniform(0, 1, 500), rng.uniform(0, 1, 500) < 0.3),
    ]
    for scores, active in cases:
        for fpr_max in (0.05, 0.5, 1.0):
            assert type(restricted_auc(scores, active, fpr_max=fpr_max)) is float


def test_restricted_auc_monotone_invariance():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, 500)
    active = rng.uniform(0, 1, 500) < 0.3
    a = restricted_auc(scores, active)
    b = restricted_auc(np.exp(5.0 * scores), active)
    assert a == pytest.approx(b, abs=1e-12)


def test_restricted_auc_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = 1000
        active = rng.uniform(0, 1, n) < rng.uniform(0.2, 0.8)
        if active.all() or not active.any():
            continue
        scores = np.round(rng.uniform(0, 1, n) + 0.3 * active, 2)  # force ties
        mine = restricted_auc(scores, active)
        oracle = brute_force_restricted_auc(scores, active)
        assert mine == pytest.approx(oracle, abs=1e-12)


def _stable_roc_vertices(scores, active):
    # The vertices as a stable sort orders the points, tie groups included.
    order = np.argsort(-scores, kind="stable")
    act = active[order]
    tp = np.cumsum(act)
    fp = np.cumsum(~act)
    idx = np.append(np.nonzero(np.diff(scores[order]))[0], scores.size - 1)
    n_pos = int(active.sum())
    tpr = np.concatenate([[0.0], tp[idx] / n_pos])
    fpr = np.concatenate([[0.0], fp[idx] / (active.size - n_pos)])
    return fpr, tpr


@st.composite
def tie_heavy_scores(draw):
    """Scores from a few small integers, with exact zeros of either sign, and
    truth labels; large enough that an unstable sort reorders tie groups."""
    n = draw(st.integers(2, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 6))
    scores = rng.integers(-levels, levels + 1, n).astype(float)
    zeros = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    scores[zeros] = np.where(rng.uniform(size=zeros.sum()) < 0.5, 0.0, -0.0)
    active = rng.uniform(size=n) < draw(st.floats(0.05, 0.95))
    active[0], active[-1] = True, False
    return scores * draw(st.sampled_from([1.0, 0.1, 1e-300])), active


def _assert_auc_matches_a_full_stable_sort(scores, active, fpr_max):
    auc = restricted_auc(scores, active, fpr_max)
    # The reference sorts all n scores; it has no use for fpr_max.
    full_sort = lambda s, a, fpr_max: _stable_roc_vertices(s, a)  # noqa: E731
    with mock.patch.object(evaluation, "_roc_vertices", full_sort):
        reference = restricted_auc(scores, active, fpr_max)
    assert np.float64(auc).tobytes() == np.float64(reference).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tie_heavy_scores(), st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
def test_restricted_auc_is_bit_identical_to_a_stable_sort(case, fpr_max):
    _assert_auc_matches_a_full_stable_sort(*case, fpr_max)


@pytest.mark.parametrize("fpr_max", [1e-3, 0.05, 1.0])
@pytest.mark.parametrize("top", [1, 30, 400, 2999])
def test_restricted_auc_keeps_a_top_tie_group_whole(top, fpr_max):
    # The highest `top` scores are one tie group, so the partial sort's
    # cut-off can fall inside it.
    rng = np.random.default_rng(top)
    scores = rng.uniform(0.0, 1.0, 3000)
    scores[rng.permutation(3000)[:top]] = 2.0
    active = rng.uniform(size=3000) < 0.1
    active[:2] = True, False
    _assert_auc_matches_a_full_stable_sort(scores, active, fpr_max)


def test_restricted_auc_errors():
    with pytest.raises(ValueError):
        restricted_auc(np.array([0.1, 0.2]), np.array([True, True]))
    with pytest.raises(ValueError):
        restricted_auc(np.array([0.1, 0.2]), np.array([True, False]), fpr_max=0.0)
    with pytest.raises(ValueError):
        restricted_auc(np.array([0.1, np.nan]), np.array([True, False]))


def test_paired_t_identical_vectors():
    a = np.array([1.0, 2.0, 3.0])
    t, p = paired_t_test(a, a)
    assert (t, p) == (0.0, 1.0)


def test_paired_t_textbook_case():
    # Ten paired observations, worked by hand: differences d,
    # t = mean(d) / (sd(d)/sqrt(10)).
    a = np.array([12.0, 11.0, 14.0, 15.0, 10.0, 9.0, 13.0, 12.0, 16.0, 11.0])
    b = np.array([10.0, 12.0, 11.0, 14.0, 9.0, 10.0, 12.0, 10.0, 14.0, 10.0])
    d = a - b
    expect_t = d.mean() / (d.std(ddof=1) / math.sqrt(10))
    t, p = paired_t_test(a, b)
    assert t == pytest.approx(expect_t, abs=1e-10)
    ref = ttest_rel(a, b)
    assert t == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)


def test_paired_t_sign_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, 30)
    b = rng.normal(0.2, 1, 30)
    t1, p1 = paired_t_test(a, b)
    t2, p2 = paired_t_test(b, a)
    assert t1 == pytest.approx(-t2, rel=1e-12)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_paired_t_constant_nonzero_differences():
    a = np.array([1.0, 2.0, 3.0])
    with pytest.warns(UserWarning):
        t, p = paired_t_test(a + 0.5, a)
    assert math.isinf(t) and t > 0
    assert p == 0.0


def test_paired_t_rejects_bad_input():
    with pytest.raises(ValueError):
        paired_t_test(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        paired_t_test(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_win_matrix_identical_and_dominant():
    rng = np.random.default_rng(4)
    base = rng.uniform(0.5, 0.9, 100)
    runs = {
        "sc1": {"a": base.copy(), "b": base.copy(), "c": base + 0.1},
        "sc2": {"a": base.copy(), "b": base.copy(), "c": base + 0.1},
    }
    table = win_matrix(runs)
    assert table.win_pct[("a", "b")] == 0.0
    assert table.win_pct[("b", "a")] == 0.0
    assert table.win_pct[("c", "a")] == 100.0
    assert table.win_pct[("a", "c")] == 0.0
    assert table.wins[("sc1", "c", "b")] is True


def test_win_matrix_tests_each_unordered_pair_once(monkeypatch):
    # Swapping a pair negates t and leaves p as it is, so one test per
    # unordered pair decides both directions, as two ordered tests would.
    rng = np.random.default_rng(5)
    models = ("a", "b", "c", "d")
    runs = {}
    for sc in ("sc1", "sc2", "sc3"):
        base = rng.uniform(0.5, 0.9, 6)
        runs[sc] = {m: base + 0.02 * i + rng.normal(0.0, 0.02, 6) for i, m in enumerate(models)}
    original = evaluation.paired_t_test
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(evaluation, "paired_t_test", counted)
    table = win_matrix(runs, alpha=0.2)
    assert len(calls) == 3 * len(models) * (len(models) - 1) // 2
    assert len(table.wins) == 3 * len(models) * (len(models) - 1)
    for (sc, ma, mb), won in table.wins.items():
        va, vb = runs[sc][ma], runs[sc][mb]
        assert won is bool(np.mean(va - vb) > 0 and original(va, vb)[1] < 0.2)
    assert any(table.wins.values()) and not all(table.wins.values())


def test_win_matrix_requires_repeats():
    with pytest.raises(ValueError):
        win_matrix({"sc": {"a": np.array([0.5]), "b": np.array([0.6])}})


@pytest.mark.parametrize(
    "runs",
    [
        {"s1": {"a": [0.1, 0.2], "b": [0.2, 0.3]}, "s2": {"a": [0.1, 0.2]}},
        {"s1": {"a": [0.1, 0.2]}, "s2": {"a": [0.1, 0.2], "b": [0.2, 0.3]}},
    ],
)
def test_win_matrix_requires_the_same_models_in_every_scenario(runs):
    # A model missing from a later scenario, or held only by later ones, is
    # named together with the scenario, not met as a KeyError or dropped.
    with pytest.raises(ValueError, match=r"'s2' has models .* 's1' has"):
        win_matrix(runs)
