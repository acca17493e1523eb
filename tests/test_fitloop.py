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

from gigmix import estep, fitloop, initialization, ml_em, vb_em
from gigmix.evaluation import restricted_auc
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
# one; a VB fit that stops with "no_ascent" always needs the extra pass. The
# VB fits at n = 1e5 run on binned data first (``estep._BINNED_MIN``) and
# finish on the full data.
FINAL_GAMMA = (
    (10_000, "bggm", None, "tolerance", 1),
    (10_000, "bgim", None, "no_ascent", 1),
    (10_000, "ggm", None, "tolerance", 0),
    (10_000, "gim", None, "tolerance", 0),
    (10_000, "bggm", 9, "max_iterations", 0),
    (10_000, "bgim", 23, "max_iterations", 1),
    (10_000, "ggm", 9, "max_iterations", 0),
    (10_000, "gim", 23, "max_iterations", 0),
    (100_000, "bggm", None, "tolerance", 0),
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


# The variational fits of a map of at least ``estep._BINNED_MIN`` nonzero
# values run on binned data first and finish on the full data
# (``fitloop.fit``). The direct fit of the same map comes from patching the
# threshold above n.
BINNED_N = 60_000
# (snr, sparsity, data seed): the criterion-10 scenario, then four more.
BINNED_MAPS = ((2.0, 1, 10), (3.0, 2, 3), (5.0, 3, 3), (2.0, 2, 1), (4.0, 1, 2))


@pytest.fixture(scope="module")
def binned_maps():
    """Each map of ``BINNED_MAPS`` at n = 6e4: its values and activation."""
    maps = {}
    for snr, sparsity, seed in BINNED_MAPS:
        ds = generate(SyntheticSpec(dataset=1, snr=snr, sparsity=sparsity, n=BINNED_N, repeats=1, seed=seed), 0, 0)
        maps[snr, sparsity, seed] = (ds.values, ds.truth != 1)
    return maps


def _two_fits(monkeypatch, model, x, cfg):
    """The direct fit of x and the fit that runs a binned level first."""
    fitter = getattr(vb_em, "fit_" + model)
    fits = []
    for threshold in (10**12, 1):
        monkeypatch.setattr(estep, "_BINNED_MIN", threshold)
        fits.append(fitter(x, cfg))
    return fits


def _binned_caches(monkeypatch) -> list:
    """The binned caches ``fitloop.fit`` makes from now on (None for a
    direct fit)."""
    made = []
    binned_cache = estep.binned_cache
    monkeypatch.setattr(fitloop, "binned_cache", lambda cache: made.append(binned_cache(cache)) or made[-1])
    return made


def _auc(r, active):
    g = r.responsibilities
    return restricted_auc(g[:, 1] + g[:, 2], active)


@pytest.mark.parametrize("model", VB_MODELS)
@pytest.mark.parametrize(
    "key, tolerance", [(BINNED_MAPS[0], 1e-8)] + [(key, 1e-10) for key in BINNED_MAPS]
)
def test_a_binned_fit_lands_on_the_direct_fit(binned_maps, key, tolerance, model, monkeypatch):
    # At a tight tolerance both fits end near their limit: pi within 1e-3
    # and the restricted AUC within 1e-4. On the criterion-10 map 1e-8
    # suffices; on d1-snr2-sp2 the direct bggm fit stops 1.8e-3 in pi short
    # of its limit at 1e-8 (the binned one stops nearer), so the other maps
    # are fitted at 1e-10.
    x, active = binned_maps[key]
    direct, binned = _two_fits(monkeypatch, model, x, VBFitConfig(rel_tolerance=tolerance, max_iterations=5000))
    assert binned.converged and direct.converged
    assert np.max(np.abs(binned.expectations.pi - direct.expectations.pi)) <= 1e-3
    assert abs(_auc(binned, active) - _auc(direct, active)) <= 1e-4


@pytest.mark.parametrize("model", VB_MODELS)
@pytest.mark.parametrize("key", BINNED_MAPS)
def test_a_binned_fit_at_the_default_tolerance_is_near_or_above_the_direct_fit(binned_maps, key, model, monkeypatch):
    # The default rule stops a slowly converging fit far from its limit, so
    # the two fits may stop apart; then the binned one has not stopped lower.
    x, _ = binned_maps[key]
    direct, binned = _two_fits(monkeypatch, model, x, VBFitConfig())
    near = np.max(np.abs(binned.expectations.pi - direct.expectations.pi)) <= 1e-3
    assert near or binned.nfe_trace[-1] >= direct.nfe_trace[-1]


def _hostile_maps():
    rng = np.random.default_rng(7)
    base = rng.normal(rng.choice([-3.0, 0.0, 3.0], BINNED_N, p=[0.1, 0.8, 0.1]), 1.0)
    return {
        "cauchy": rng.standard_cauchy(BINNED_N),
        "signed_lognormal": rng.choice([-1.0, 1.0], BINNED_N) * rng.lognormal(0.0, 2.0, BINNED_N),
        "one_sided": np.abs(base),
        "rounded_ties": np.round(base, 1),
        "tiny": base * 1e-150,
        "two_point_side": np.concatenate([np.abs(base[:-2]), [-1.0, -2.0]]),
        "half_zeros": np.where(rng.random(BINNED_N) < 0.5, 0.0, base),
    }


HOSTILE = _hostile_maps()


@pytest.mark.parametrize("model", VB_MODELS)
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_no_hostile_map_the_direct_fit_accepts_is_refused_binned(name, model, monkeypatch):
    # The threshold is patched to 1 for the binned fit, so that the map of
    # 50 % zeros (3e4 nonzero values) takes the binned level too.
    x = HOSTILE[name]
    made = _binned_caches(monkeypatch)
    direct, binned = _two_fits(monkeypatch, model, x, VBFitConfig())
    assert made[0] is None and estep.passes_made(made[1]) > 0
    assert binned.iterations <= VBFitConfig().max_iterations
    g = binned.responsibilities
    assert np.all(np.isfinite(g)) and np.allclose(g.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(g[x <= 0, 1] == 0.0) and np.all(g[x >= 0, 2] == 0.0)
    assert np.all(np.diff(binned.nfe_trace) >= 0.0)


@pytest.mark.parametrize("model", VB_MODELS)
def test_the_two_levels_share_one_pass_budget(binned_maps, model, monkeypatch):
    # The binned level stops one pass short of the cap at the latest, so a
    # capped fit makes at least one full pass and reports "max_iterations";
    # the recorded objectives are the full level's alone.
    x, _ = binned_maps[BINNED_MAPS[0]]
    fitter = getattr(vb_em, "fit_" + model)
    made = _binned_caches(monkeypatch)
    for cap in (2, 5, 12, 23):
        r = fitter(x, VBFitConfig(max_iterations=cap))
        # The first point counts as one pass however many it took.
        binned_passes = estep.passes_made(made[-1]) - 1
        assert 1 <= binned_passes <= cap - 1 and r.iterations <= cap
        assert 1 <= len(r.nfe_trace) <= r.iterations - binned_passes
        assert r.converged == (r.stop_reason != "max_iterations")
        if cap <= 5:
            assert (r.iterations, r.stop_reason) == (cap, "max_iterations")
    r = fitter(x, VBFitConfig())
    nfe = vb_em.negative_free_energy(x, r.responsibilities, r.state, r.priors, r.expectations)
    assert r.nfe_trace[-1] == pytest.approx(nfe, rel=1e-9)
    assert r.converged and np.all(np.diff(r.nfe_trace) >= 0.0)


@pytest.mark.parametrize("model", VB_MODELS)
@pytest.mark.parametrize("level, call", [("binned", 3), ("full", 2)])
def test_a_binned_level_that_fails_leaves_the_direct_fit(binned_maps, model, level, call, monkeypatch):
    # A numeric failure on the binned level, or on the full level after it
    # (here in its first plain step after the hand-over, call 1 being the
    # hand-over), drops the binned level: the fit is the direct fit, bit for
    # bit, and counts only its own passes. The binned level has grown the
    # fit's SQUAREM step cap by then, so the direct fit's cycles start from
    # a cap of 1 again only because its first point resets it.
    x, _ = binned_maps[BINNED_MAPS[0]]
    monkeypatch.setattr(estep, "_BINNED_MIN", 10**12)
    direct = getattr(vb_em, "fit_" + model)(x, VBFitConfig())
    monkeypatch.undo()
    binned = _binned_caches(monkeypatch)
    evaluate, calls = vb_em._evaluate, []

    def failing(cache, state, priors):
        if (cache is binned[-1]) == (level == "binned"):
            calls.append(cache)
            if len(calls) == call:
                raise vb_em.VBNumericError(f"{level} level failed")
        return evaluate(cache, state, priors)

    monkeypatch.setattr(vb_em, "_evaluate", failing)
    r = getattr(vb_em, "fit_" + model)(x, VBFitConfig())
    assert len(binned) == 1 and len(calls) >= call
    assert (r.iterations, r.stop_reason) == (direct.iterations, direct.stop_reason)
    assert r.responsibilities.tobytes() == direct.responsibilities.tobytes()
    assert r.nfe_trace.tobytes() == direct.nfe_trace.tobytes()


@pytest.mark.parametrize("model", VB_MODELS)
def test_the_binned_level_stops_by_its_own_rule_and_hands_over_in_one_pass(binned_maps, model, monkeypatch):
    # The binned level stops when a step moves the binned NFE by at most
    # _BINNED_TOLERANCE_FACTOR times the full level's rule; on this map its
    # last step is recorded. The first full point is one plain step from
    # the binned level's recorded point: one pass on the full cache.
    x, _ = binned_maps[BINNED_MAPS[0]]
    made = _binned_caches(monkeypatch)
    level, levels = fitloop._level, []

    def recording(cache, *args):
        levels.append((cache, estep.passes_made(cache)))
        result = level(cache, *args)
        levels[-1] += (result,)
        return result

    monkeypatch.setattr(fitloop, "_level", recording)
    cfg = VBFitConfig()
    getattr(vb_em, "fit_" + model)(x, cfg)
    (coarse, _, (_, trace, _, _, stop_reason)), (full, full_passes, _) = levels
    assert coarse is made[0] and full is not coarse and stop_reason == "tolerance"
    rule = fitloop._BINNED_TOLERANCE_FACTOR * cfg.rel_tolerance * (1.0 + abs(trace[-1]))
    assert abs(trace[-1] - trace[-2]) <= rule
    assert full_passes == 1


@pytest.mark.parametrize("model", VB_MODELS)
@pytest.mark.parametrize("key", BINNED_MAPS)
def test_each_full_step_after_a_hand_over_is_one_pass(binned_maps, key, model, monkeypatch):
    # The binned level runs near its limit, so the full level after it takes
    # plain steps, one pass each, and no SQUAREM cycles; the fit counts the
    # binned passes, the hand-over and these steps.
    x, _ = binned_maps[key]
    made = _binned_caches(monkeypatch)
    level, steps = fitloop._level, []

    def recording(cache, recorded, passes, degenerate, cap, rel_tolerance, cycle, ascent_only):
        def step(cache, point, room):
            before = estep.passes_made(cache)
            point = cycle(cache, point, room)
            steps.append((cache, estep.passes_made(cache) - before))
            return point

        return level(cache, recorded, passes, degenerate, cap, rel_tolerance, step, ascent_only)

    monkeypatch.setattr(fitloop, "_level", recording)
    r = getattr(vb_em, "fit_" + model)(x, VBFitConfig())
    full = [passes for cache, passes in steps if cache is not made[0]]
    assert made[0] is not None and len(full) >= 1
    assert full == [1] * len(full)
    # The binned passes (the first point's two count as one), the hand-over
    # and the steps.
    assert r.iterations == (estep.passes_made(made[0]) - 1) + 1 + len(full)


@pytest.mark.parametrize("model", VB_MODELS)
@pytest.mark.parametrize("key", BINNED_MAPS)
def test_a_binned_fit_mirrors(binned_maps, key, model, monkeypatch):
    # x and -x bin alike with their sides swapped, so both fits make the same
    # passes on both levels, stop alike and swap the activation columns.
    x, _ = binned_maps[key]
    made = _binned_caches(monkeypatch)
    fitter = getattr(vb_em, "fit_" + model)
    r, m = fitter(x, VBFitConfig()), fitter(-x, VBFitConfig())
    assert all(cache is not None for cache in made)
    assert (m.iterations, m.stop_reason) == (r.iterations, r.stop_reason)
    assert np.max(np.abs(m.responsibilities[:, [0, 2, 1]] - r.responsibilities)) <= 1e-6


def test_the_full_level_after_a_binned_level_has_little_left_to_do(monkeypatch):
    # d1-snr3-sp2 (data seed 3) at n = 1e5: a binned level stopped by the
    # full level's rule left bggm's full level 106 passes to climb to
    # pi_1 ~ 0.92. Run to its own rule, it leaves a few, and the fit ends
    # within 2e-3 in sum |d pi| of the direct fit at tolerance 1e-10.
    x = generate(SyntheticSpec(dataset=1, snr=3.0, sparsity=2, n=100_000, repeats=1, seed=3), 0, 0).values
    fitter = vb_em.fit_bggm
    monkeypatch.setattr(estep, "_BINNED_MIN", 10**12)
    limit = fitter(x, VBFitConfig(rel_tolerance=1e-10, max_iterations=5000))
    monkeypatch.undo()
    made = _binned_caches(monkeypatch)
    r = fitter(x, VBFitConfig())
    binned_passes = estep.passes_made(made[0]) - 1
    assert r.converged and r.iterations - binned_passes <= 10
    assert np.abs(r.expectations.pi - limit.expectations.pi).sum() <= 2e-3


@pytest.mark.parametrize("model", ML_MODELS)
def test_ml_fits_keep_their_full_passes(binned_maps, model, monkeypatch):
    x, _ = binned_maps[BINNED_MAPS[0]]
    made = _binned_caches(monkeypatch)
    fit(model, x, 0)
    assert made == []
