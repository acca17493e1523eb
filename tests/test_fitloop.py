"""The shared fit loop: pinned pass counts, the responsibilities a fit
reports, and the functions the benchmark's tracer wraps.

``perfbench/tracing.py`` times the layers of a fit by replacing module
globals (``vb_em._fit_vb``, ``ml_em.m_step``, ...) from outside the program.
That only works while each fit looks those names up at call time, with the
argument positions the tracer reads. A refactor that calls a function by
another name blinds the tracer without failing any fit, so these tests patch
each name and check that a fit goes through the patched version.
"""

import dataclasses
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from gigmix import estep, initialization, ml_em, vb_em
from gigmix.estep import e_step
from gigmix.experiments import SyntheticSpec, _fit_seed, fit, generate
from gigmix.ml_em import MLFitConfig
from gigmix.vb_em import VBFitConfig, update_responsibilities

VB_MODELS = ("bggm", "bgim")
ML_MODELS = ("ggm", "gim")

# (module, name, the models whose fits must call it)
TRACED = (
    (vb_em, "_responsibility_pass", VB_MODELS),
    (vb_em, "expectations", VB_MODELS),
    (vb_em, "_kl_total", VB_MODELS),
    (vb_em, "_update_state", VB_MODELS),
    (ml_em, "_e_step", ML_MODELS),
    (ml_em, "m_step", ML_MODELS),
)


def _mixture(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(rng.choice([-3.0, 0.0, 3.0], n, p=[0.1, 0.8, 0.1]), 1.0)


def test_fit_entry_points_keep_the_signatures_the_tracer_reads():
    assert list(inspect.signature(vb_em._fit_vb).parameters) == ["data", "families", "cfg"]
    assert list(inspect.signature(ml_em._fit_ml).parameters) == [
        "data", "init", "cfg", "kind", "label"
    ]


def _counting(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("model", VB_MODELS + ML_MODELS)
def test_fits_call_the_patched_entry_point_and_kmeans(model, monkeypatch):
    # A variational fit starts from k-means, an ML fit from the noise core,
    # which on this map never falls back to k-means.
    module, name = (vb_em, "_fit_vb") if model in VB_MODELS else (ml_em, "_fit_ml")
    fits, kmeans, core = [], [], []
    monkeypatch.setattr(module, name, _counting(getattr(module, name), fits))
    monkeypatch.setattr(initialization, "kmeans_1d", _counting(initialization.kmeans_1d, kmeans))
    monkeypatch.setattr(initialization, "core_params", _counting(initialization.core_params, core))
    r = fit(model, _mixture(), 0)
    assert len(fits) == 1
    assert (len(kmeans), len(core)) == ((1, 0) if model in VB_MODELS else (0, 1))
    # The positions the tracer reads the model and the cap from.
    args = fits[0]
    kind = args[1][0].kind if model in VB_MODELS else args[3]
    assert kind == ("gamma" if model in ("bggm", "ggm") else "invgamma")
    assert args[2].max_iterations >= r.iterations >= 1
    assert isinstance(r.converged, bool)


@pytest.mark.parametrize("module, name, models", TRACED, ids=[t[1] for t in TRACED])
def test_fits_call_the_patched_layer_inside_the_fit(module, name, models, monkeypatch):
    fit_module, fit_name = (vb_em, "_fit_vb") if module is vb_em else (ml_em, "_fit_ml")
    running, calls = [], []
    original_fit = getattr(fit_module, fit_name)

    def tracked_fit(*args, **kwargs):
        running.append(True)
        try:
            return original_fit(*args, **kwargs)
        finally:
            running.pop()

    def inner(*args, _fn=getattr(module, name), **kwargs):
        # The tracer charges this layer to the fit only if the fit is running.
        calls.append(bool(running))
        return _fn(*args, **kwargs)

    monkeypatch.setattr(fit_module, fit_name, tracked_fit)
    monkeypatch.setattr(module, name, inner)
    for model in models:
        calls.clear()
        fit(model, _mixture(), 1)
        assert calls and all(calls)


@pytest.mark.parametrize("model", VB_MODELS + ML_MODELS)
def test_every_kernel_pass_goes_through_the_traced_name(model, monkeypatch):
    # A variational fit's first point takes two passes, one under the k-means
    # point estimate and one under the state it gives, and counts as one; an
    # ML fit counts each pass.
    module, name = (vb_em, "_responsibility_pass") if model in VB_MODELS else (ml_em, "_e_step")
    calls = []
    monkeypatch.setattr(module, name, _counting(getattr(module, name), calls))
    r = fit(model, _mixture(), 2)
    assert len(calls) == r.iterations + (model in VB_MODELS)


# The tracer's default targets that no longer exist. Each is listed as not
# found in every traced run; a new entry means a layer went dark.
STALE_TRACER_TARGETS = {
    "gigmix.experiments.init_mixture",
    "gigmix.experiments.kmeans_1d",
    "gigmix.vb_em.init_mixture",
    "gigmix.vb_em.kmeans_1d",
    "gigmix.vb_em.tetragamma",
}


def test_the_tracer_finds_every_fit_layer():
    # perfbench/tracing.py as the benchmark loads it, with its default
    # targets, over one fit per model: only the known stale targets are
    # missing, and every fit-loop and special-function metric is measured.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x = generate(SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=2000, seed=0), 0, 0).values
        for model in VB_MODELS + ML_MODELS:
            fit(model, x, 0)
    finally:
        tracer.uninstall()
    assert set(tracer.not_found) == STALE_TRACER_TARGETS
    assert len(tracer.not_found) == len(STALE_TRACER_TARGETS)
    status = tracing.layer_metrics(tracer)[1]
    fit_layers = [m for m in tracing.LAYER_METRICS if m.split(".")[0] in ("vb_em", "ml_em", "special")]
    assert len(fit_layers) == 14
    assert {m: status[m] for m in fit_layers if m in status} == {}


# Pass counts, stop reasons and final objectives on the criterion-10 scenario
# at n = 1e4, first repeat. The variational pins guard the SQUAREM cycle
# (``vb_em._cycle``) as well as the loop: bggm's fit takes one alpha = -1
# cycle, four three-pass and one four-pass cycle, bgim's two, six and three,
# so a change to any of the three shapes moves a pass count or an objective.
# The ML fits start from the noise core, which on this dense map (20 %
# activation at SNR 2) takes more passes than the k-means start.
PINNED = {
    "bggm": (20, "tolerance", -17256.428144246896),
    "bgim": (37, "tolerance", -17297.341206641308),
    "ggm": (121, "tolerance", -17196.57366377796),
    "gim": (129, "tolerance", -17198.501153633322),
}


@pytest.mark.parametrize("model", sorted(PINNED))
def test_pass_counts_are_pinned(model):
    x = generate(SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=10000, seed=0), 0, 0).values
    r = fit(model, x, _fit_seed(0, 0, 0))
    trace = r.nfe_trace if model in VB_MODELS else r.loglik_trace
    assert (r.iterations, r.stop_reason, float(trace[-1])) == PINNED[model]
    assert r.converged
    assert r.degenerate_rows == 0


@pytest.fixture(scope="module")
def criterion10():
    """The criterion-10 map (seed 10) at n = 1e4, where bgim stops with
    "no_ascent", and at n = 1e5, where both support sides hold more than one
    E-step block."""
    spec = SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=100_000, repeats=1, seed=10)
    return {n: generate(dataclasses.replace(spec, n=n), 0, 0).values for n in (10_000, 100_000)}


# (n, model, max_iterations or None for the default, stop reason, extra passes)
# An ML fit records every point, so its last pass is always at the recorded
# one; a VB fit that stops with "no_ascent" always needs the extra pass.
FINAL_GAMMA = (
    (10_000, "bggm", None, "tolerance", 1),
    (10_000, "bgim", None, "no_ascent", 1),
    (10_000, "ggm", None, "tolerance", 0),
    (10_000, "gim", None, "tolerance", 0),
    (10_000, "bggm", 9, "max_iterations", 0),
    (10_000, "bgim", 23, "max_iterations", 1),
    (10_000, "ggm", 9, "max_iterations", 0),
    (10_000, "gim", 23, "max_iterations", 0),
    (100_000, "bggm", None, "tolerance", 1),
    (100_000, "bgim", None, "tolerance", 0),
    (100_000, "ggm", None, "tolerance", 0),
    (100_000, "gim", None, "tolerance", 0),
)


@pytest.mark.parametrize("n, model, cap, stop, extra", FINAL_GAMMA)
def test_fit_responsibilities_are_a_pass_at_the_reported_point(
    criterion10, n, model, cap, stop, extra, monkeypatch
):
    # A fit's responsibilities are those the data cache holds at its end:
    # from the pass at the recorded point, or from one more pass there when
    # a later pass overwrote them. Either way they are, byte for byte, a
    # fresh pass at the point the fit reports.
    monkeypatch.setattr(estep, "_usable_cpus", lambda: 2)
    passes = []
    monkeypatch.setattr(estep, "_responsibility_pass", _counting(estep._responsibility_pass, passes))
    x = criterion10[n]
    assert estep._DataCache(x).parallel == (n == 100_000)
    fitter = getattr(vb_em if model in VB_MODELS else ml_em, "fit_" + model)
    if model in VB_MODELS:
        r = fitter(x, VBFitConfig() if cap is None else VBFitConfig(max_iterations=cap))
        fit_passes = [args[3:] for args in passes]
        want = update_responsibilities(x, r.expectations, r.priors.families)[0]
    else:
        r = fitter(x, None, MLFitConfig() if cap is None else MLFitConfig(max_iterations=cap))
        fit_passes = [args[3:] for args in passes]
        want = e_step(x, r.params)
    assert r.stop_reason == stop
    # estep's own name for the kernel also sees each ML pass (2 rows, with
    # the objective). The extra pass leaves only responsibilities: no sums,
    # no objective.
    ml_passes = [(2,)] * r.iterations if model in ML_MODELS else []
    assert sorted(fit_passes) == sorted(ml_passes + [(0, False)] * extra)
    assert r.responsibilities.tobytes() == want.tobytes()


@pytest.mark.parametrize("config", [MLFitConfig, VBFitConfig])
@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, True, "1e-6", None])
def test_config_rejects_a_tolerance_that_is_not_finite_and_positive(config, tolerance):
    # A NaN tolerance never settles (ML runs to its cap) or settles on any
    # fall (VB); an infinite one stops every fit after one cycle. True was
    # taken as 1.0, and a string failed in the comparison with TypeError.
    with pytest.raises(ValueError, match="rel_tolerance"):
        config(rel_tolerance=tolerance)
    assert config(rel_tolerance=1e-300).rel_tolerance == 1e-300


@pytest.mark.parametrize("config", [MLFitConfig, VBFitConfig])
@pytest.mark.parametrize("tolerance", [np.float64(1e-4), np.float32(1e-4), 1])
def test_config_takes_a_numpy_float_or_an_int_tolerance(config, tolerance):
    assert config(rel_tolerance=tolerance).rel_tolerance == tolerance


@pytest.mark.parametrize("config", [MLFitConfig, VBFitConfig])
@pytest.mark.parametrize("cap", [math.nan, 2.5, True, "5"])
def test_config_rejects_a_pass_cap_that_is_not_a_whole_number(config, cap):
    # A cap of 2.5 let a fit make 3 passes, NaN stopped it after one as
    # capped, and True was taken as 1.
    with pytest.raises(ValueError, match="max_iterations"):
        config(max_iterations=cap)


@pytest.mark.parametrize("model", ["ggm", "bggm"])
def test_a_numpy_integer_pass_cap_binds_like_an_int(model):
    x = generate(SyntheticSpec(1, 3.0, 2, n=2000, seed=1), 0).values
    if model == "ggm":
        fits = [ml_em.fit_ggm(x, None, MLFitConfig(max_iterations=cap)) for cap in (np.int64(5), 5)]
    else:
        fits = [vb_em.fit_bggm(x, VBFitConfig(max_iterations=cap)) for cap in (np.int64(5), 5)]
    assert fits[0].iterations == fits[1].iterations <= 5
    assert fits[0].stop_reason == fits[1].stop_reason
    assert np.array_equal(fits[0].responsibilities, fits[1].responsibilities)
