"""Tests of the benchmark's reference computations and tracer, on small inputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import math
import sys
import time
import types

import numpy as np
import pytest

import checks
import tracing


def naive_restricted_auc(scores, active, fpr_max=0.05):
    """One pass over the data per distinct threshold, and an explicit cut."""
    pts = [(0.0, 0.0)]
    n_pos = sum(active)
    n_neg = len(active) - n_pos
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, a in zip(scores, active) if a and s >= t)
        fp = sum(1 for s, a in zip(scores, active) if not a and s >= t)
        pts.append((fp / n_neg, tp / n_pos))
    area = 0.0
    for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
        if f0 >= fpr_max:
            break
        if f1 > fpr_max:
            t1 = t0 + (t1 - t0) * (fpr_max - f0) / (f1 - f0)
            f1 = fpr_max
        area += (f1 - f0) * (t0 + t1) / 2
    return area / fpr_max


@pytest.mark.parametrize("seed", range(5))
def test_brute_force_auc_matches_naive_definition_with_ties(seed):
    rng = np.random.default_rng(seed)
    active = rng.random(300) < 0.3
    scores = np.round(rng.normal(active * 1.5, 1.0), 1)  # rounding makes ties
    expected = naive_restricted_auc(scores.tolist(), active.tolist(), fpr_max=0.2)
    assert checks.brute_force_restricted_auc(scores, active, fpr_max=0.2) == pytest.approx(expected, abs=1e-12)


def test_brute_force_auc_extremes():
    active = np.array([True] * 10 + [False] * 90)
    perfect = np.arange(100, 0, -1.0)
    assert checks.brute_force_restricted_auc(perfect, active) == 1.0
    assert checks.brute_force_restricted_auc(-perfect, active) == 0.0
    # All scores tied: the ROC is the diagonal, the chance level.
    assert checks.brute_force_restricted_auc(np.zeros(100), active) == pytest.approx(checks.CHANCE_AUC)


def _lgamma_pdf(z, shape, rate):
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1) * math.log(z) - rate * z


def _linvgamma_pdf(z, shape, scale):
    return shape * math.log(scale) - math.lgamma(shape) - (shape + 1) * math.log(z) - scale / z


def test_ml_responsibilities_match_hand_computation():
    x = np.array([-3.0, -0.5, 0.0, 0.7, 2.5])
    pi, mu, tau = (0.7, 0.2, 0.1), 0.1, 2.0
    pos, neg = ("gamma", 3.0, 1.5), ("invgamma", 4.0, 6.0)
    got = checks.ml_responsibilities(x, pi, mu, tau, pos, neg)
    for i, xi in enumerate(x):
        lg = math.log(pi[0]) + 0.5 * math.log(tau / (2 * math.pi)) - 0.5 * tau * (xi - mu) ** 2
        terms = [lg, -math.inf, -math.inf]
        if xi > 0:
            terms[1] = math.log(pi[1]) + _lgamma_pdf(xi, 3.0, 1.5)
        if xi < 0:
            terms[2] = math.log(pi[2]) + _linvgamma_pdf(-xi, 4.0, 6.0)
        w = np.exp(np.array(terms) - max(terms))
        np.testing.assert_allclose(got[i], w / w.sum(), rtol=1e-13, atol=1e-15)


def test_vb_responsibilities_reduce_to_plug_in_densities_at_point_masses():
    # With point-mass posteriors every expectation is the plug-in value, so the
    # expected log-densities are the ML log-densities.
    x = np.linspace(-4, 4, 41)
    pi, mu, tau = np.array([0.6, 0.25, 0.15]), -0.2, 1.3
    s, r = np.array([2.5, 3.5]), np.array([1.2, 5.0])
    e = {
        "log_pi": np.log(pi), "mu": mu, "mu2": mu * mu, "tau": tau, "log_tau": math.log(tau),
        "r": r, "log_r": np.log(r), "s": s, "log_gamma_s": np.array([math.lgamma(v) for v in s]),
    }
    for kinds in (("gamma", "gamma"), ("invgamma", "invgamma")):
        got = checks.vb_responsibilities(x, kinds, e)
        ref = checks.ml_responsibilities(x, pi, mu, tau, (kinds[0], s[0], r[0]), (kinds[1], s[1], r[1]))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_simplex_and_support_flags_faults():
    x = np.array([-1.0, 0.0, 2.0])
    good = np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.25, 0.75, 0.0]])
    assert checks.simplex_and_support(x, good)[0]
    off_support = good.copy()
    off_support[0] = (0.5, 0.1, 0.4)
    assert not checks.simplex_and_support(x, off_support)[0]
    not_normalized = good.copy()
    not_normalized[2] = (0.3, 0.75, 0.0)
    assert not checks.simplex_and_support(x, not_normalized)[0]


def test_nfe_monotone_slack():
    assert checks.nfe_monotone([-100.0, -50.0, -50.00005])[0]  # drop within 1e-6 * 51
    assert not checks.nfe_monotone([-100.0, -50.0, -50.1])[0]


def test_oracle_scores_formula_and_missing_component():
    x = np.array([-2.0, 0.0, 3.0])
    got = checks.oracle_scores(x, (0.8, 0.1, 0.1), 2.0)
    phi = lambda v: math.exp(-0.5 * v * v)
    for xi, g in zip(x, got):
        act = 0.1 * phi(xi - 2) + 0.1 * phi(xi + 2)
        assert g == pytest.approx(act / (act + 0.8 * phi(xi)), rel=1e-12)
    one_sided = checks.oracle_scores(x, (0.9, 0.1, 0.0), 2.0)
    assert one_sided[2] > one_sided[0]


def test_win_counts_uses_paired_test_and_degenerate_rules():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 100, 10) / 128.0  # dyadic, so base + 0.25 - base is exact
    runs = {
        "s1": {"a": dict(enumerate(base + 0.1 + 0.05 * rng.random(10))), "b": dict(enumerate(base))},
        "s2": {"a": dict(enumerate(base)), "b": dict(enumerate(base))},
        "s3": {"a": dict(enumerate(base + 0.25)), "b": dict(enumerate(base))},
    }
    counts = checks.win_counts(runs)
    # s1: clear paired win; s2: all-zero differences; s3: constant nonzero difference.
    assert counts[("a", "b")] == (2, 3)
    assert counts[("b", "a")] == (0, 3)


def _fake_module():
    mod = types.ModuleType("perfbench_fake_layer")

    def leaf(v):
        time.sleep(0.002)
        return v

    def inner(v):
        return mod.leaf(v) + 1

    def outer(v):
        time.sleep(0.01)
        return mod.inner(v) * 2

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer_self_time_parents_and_restore():
    mod = _fake_module()
    originals = (mod.outer, mod.inner, mod.leaf)
    tr = tracing.Tracer()
    tr.install(
        span_targets=[(mod.__name__, "outer", "t.outer"), (mod.__name__, "inner", "t.inner"),
                      (mod.__name__, "gone", "t.gone")],
        leaf_targets=[(mod.__name__, "leaf", "t.leaf")],
    )
    try:
        assert mod.outer(1) == 4
    finally:
        tr.uninstall()
        del sys.modules[mod.__name__]
    assert (mod.outer, mod.inner, mod.leaf) == originals
    assert tr.not_found == [f"{mod.__name__}.gone"]
    assert tr.names == ["t.outer", "t.inner"] and tr.parent == [-1, 0]
    assert tr.leaf_calls["t.leaf"] == 1
    table = tr.table()
    count, total, self_outer = table["t.outer"]
    _, inner_total, self_inner = table["t.inner"]
    assert count == 1 and self_outer == pytest.approx(total - inner_total)
    # The leaf's sleep is charged to inner, so inner's self time excludes it.
    assert self_inner == pytest.approx(inner_total - tr.leaf_time["t.leaf"])
    assert self_outer >= 0.009 and self_inner < 0.002


def test_layer_metrics_missing_targets_are_not_measured():
    tr = tracing.Tracer()
    tr.install(span_targets=[("perfbench_no_such_module", "f", "vb_em.fit")], leaf_targets=[])
    tr.uninstall()
    values, status = tracing.layer_metrics(tr)
    assert set(values) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)
    assert status["vb_em.estep_ms_per_iter"] == "not measured"
    assert values["vb_em.estep_ms_per_iter"] == 0.0
