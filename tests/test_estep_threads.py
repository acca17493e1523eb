"""The E-step kernel's two concurrent support sides.

On a map of n = 1e5 both sides hold more than ``estep._BLOCK`` points, so a
worker thread sweeps the negative side while the calling thread sweeps the
positive one. The pass must give the same bits as the two sides swept in
turn in the calling thread, carry the caller's floating-point error handling
into the worker, and give the same bits at every BLAS thread count.
"""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import gigmix
from gigmix import estep
from gigmix.distributions import (
    GAMMA_NEG,
    GAMMA_POS,
    INVGAMMA_NEG,
    INVGAMMA_POS,
    GaussianParams,
    MixtureParams,
    ShapeRateParams,
)
from gigmix.experiments import SyntheticSpec, generate
from gigmix.initialization import init_params, kmeans_1d
from gigmix.ml_em import m_step

N = 100_000


@pytest.fixture(scope="module")
def x():
    spec = SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=N, repeats=1, seed=10)
    return generate(spec, 0, 0).values


@pytest.fixture
def two_cpus(monkeypatch):
    """Caches built under this fixture sweep their sides on two threads, on a
    machine with one usable CPU too."""
    monkeypatch.setattr(estep, "_usable_cpus", lambda: 2)


def _params(pi, families, gaussian=(0.0, 1.0), rates=(1.0, 1.0)):
    pos, neg = families
    return MixtureParams(
        np.array(pi),
        GaussianParams(*gaussian),
        ShapeRateParams(2.0, rates[0], pos),
        ShapeRateParams(2.0, rates[1], neg),
    )


def _start(x, families):
    return init_params(kmeans_1d(x, 3), families)


def _pass_bytes(cache, params):
    """A pass's side responsibilities, statistics, LSE and degenerate count
    as bytes."""
    stats, lse, degenerate = estep._responsibility_pass(
        cache, estep.point_coefficients(params), params.families
    )
    fields = [np.asarray(getattr(stats, f)).tobytes() for f in stats.__dataclass_fields__]
    g = [side.g.tobytes() for side in cache.sides]
    return g, fields, np.float64(lse).tobytes(), degenerate


def _serial(x):
    cache = estep._DataCache(x)
    cache.parallel = False
    return cache


def test_two_sides_engage_the_worker_only_from_a_block_each(x, monkeypatch):
    monkeypatch.setattr(estep, "_usable_cpus", lambda: 2)
    assert all(side.vals.size >= estep._BLOCK for side in estep._DataCache(x).sides)
    assert estep._DataCache(x).parallel
    assert not estep._DataCache(x[:10_000]).parallel
    # One-sided data: the empty side has no blocks and no worker starts.
    one_sided = estep._DataCache(np.abs(x))
    assert not one_sided.parallel and one_sided.sides[1].blocks == []
    params = _start(np.abs(x), (GAMMA_POS, GAMMA_NEG))
    estep.point_pass(one_sided, params)
    assert one_sided.sides[1].g.size == 0 and one_sided.worker is None
    monkeypatch.setattr(estep, "_usable_cpus", lambda: 1)
    assert not estep._DataCache(x).parallel


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("families", [(GAMMA_POS, GAMMA_NEG), (INVGAMMA_POS, INVGAMMA_NEG)])
def test_pass_equals_the_sides_swept_in_turn(x, two_cpus, monkeypatch, families, direct):
    if direct:
        # A narrow Gaussian with a small share: its sums are taken directly.
        params = _params((1e-3, 0.5, 0.499), families, gaussian=(0.0, 1e4))
    else:
        params = _start(x, families)
    want = _pass_bytes(_serial(x), params)

    threads = []
    side_pass = estep._side_pass

    def spy(e, k, fam, side, rows, is_direct):
        threads.append((k, is_direct, threading.current_thread() is threading.main_thread()))
        return side_pass(e, k, fam, side, rows, is_direct)

    monkeypatch.setattr(estep, "_side_pass", spy)
    cache = estep._DataCache(x)
    assert _pass_bytes(cache, params) == want
    # A second pass reuses the worker and the side buffers.
    worker = cache.worker
    assert _pass_bytes(cache, params) == want and cache.worker is worker
    # The positive side ran in this thread and the negative one in the
    # worker, in every sweep of both passes.
    sweeps = [(k, d, k == 0) for d in ([False, True] if direct else [False]) for k in (0, 1)]
    assert sorted(threads) == sorted(2 * sweeps)


@pytest.mark.parametrize("families", [(GAMMA_POS, GAMMA_NEG), (INVGAMMA_POS, INVGAMMA_NEG)])
def test_long_side_sums_match_the_dense_statistics(x, two_cpus, families):
    # Sides longer than _BLAS_DOT_MAX take their sums with einsum per block.
    params = _start(x, families)
    cache = estep._DataCache(x)
    assert min(side.vals.size for side in cache.sides) > estep._BLAS_DOT_MAX
    stats = estep._responsibility_pass(cache, estep.point_coefficients(params), families)[0]
    want = estep.sufficient_stats(x, estep._assemble_gamma(cache))
    for field in stats.__dataclass_fields__:
        np.testing.assert_allclose(getattr(stats, field), getattr(want, field), rtol=1e-12)


@pytest.mark.parametrize("families", [(GAMMA_POS, GAMMA_NEG), (INVGAMMA_POS, INVGAMMA_NEG)])
@pytest.mark.parametrize("n", [10_000, N])
def test_point_pass_takes_the_m_step_sums_of_a_full_pass(x, two_cpus, n, families):
    # A maximum-likelihood pass takes only the sums the M-step reads: BLAS
    # dots on the sides of the n = 1e4 map, einsum rows on two threads on the
    # longer sides of the n = 1e5 one. Those sums, the responsibilities, the
    # log-likelihood and the M-step are the full pass's, bit for bit.
    if n != N:
        y = generate(SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=n, seed=10), 0, 0).values
    else:
        y = x
    params = _start(y, families)
    ml_cache, full_cache = estep._DataCache(y), estep._DataCache(y)
    sizes = [side.vals.size for side in ml_cache.sides]
    assert (max(sizes) <= estep._BLAS_DOT_MAX) == (n == 10_000)
    assert ml_cache.parallel == (n == N)
    stats, lse, degenerate = estep.point_pass(ml_cache, params)
    want, want_lse, want_degenerate = estep._responsibility_pass(
        full_cache, estep.point_coefficients(params), families
    )
    for field in ("n", "xbar", "sxx1", "sq_x"):
        have = np.asarray(getattr(stats, field)).tobytes()
        assert have == np.asarray(getattr(want, field)).tobytes()
    assert np.isnan(stats.log_x).all() and np.isnan(stats.recip_x).all()
    assert not np.isnan(want.log_x).any() and not np.isnan(want.recip_x).any()
    assert (lse, degenerate) == (want_lse, want_degenerate)
    assert [s.g.tobytes() for s in ml_cache.sides] == [s.g.tobytes() for s in full_cache.sides]
    got, expected = m_step(stats, params), m_step(want, params)
    assert got.pi.tobytes() == expected.pi.tobytes()
    assert (got.comp1, got.comp2, got.comp3) == (expected.comp1, expected.comp2, expected.comp3)


def test_concurrent_passes_on_their_own_caches_keep_their_bits(x, two_cpus):
    # Four callers, each with its own cache and so its own worker and
    # buffers, on two CPUs and with a short switch interval.
    params = _start(x, (GAMMA_POS, GAMMA_NEG))
    want = _pass_bytes(_serial(x), params)
    got = []

    def caller():
        cache = estep._DataCache(x)
        got.extend(_pass_bytes(cache, params) == want for _ in range(5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert got == [True] * 20


def _overflowing(x):
    """Data and inverse-Gamma parameters whose pass overflows on the negative
    side only: there 1/|x| reaches 1e300 and its coefficient -1e10."""
    y = x.copy()
    y[np.flatnonzero(y < 0)[:100]] = -1e-300
    return y, _params((0.8, 0.1, 0.1), (INVGAMMA_POS, INVGAMMA_NEG), rates=(1.0, 1e10))


def test_overflow_on_the_workers_side_raises_in_the_caller(x, two_cpus):
    y, params = _overflowing(x)
    cache = estep._DataCache(y)
    assert cache.parallel
    e = estep.point_coefficients(params)
    with np.errstate(over="raise"):
        estep._side_pass(e, 0, params.families[0], cache.sides[0], 4, False)
        with pytest.raises(FloatingPointError):
            estep._side_pass(e, 1, params.families[1], cache.sides[1], 4, False)
        with pytest.raises(FloatingPointError):
            estep._responsibility_pass(cache, e, params.families)
    # The cache's worker and buffers stay usable: the next pass equals a
    # fresh cache's.
    start = _start(y, (INVGAMMA_POS, INVGAMMA_NEG))
    assert _pass_bytes(cache, start) == _pass_bytes(estep._DataCache(y), start)


def test_worker_calls_the_callers_error_callback(x, two_cpus):
    # numpy keeps its error handling, the callback included, in a context
    # variable: the worker runs in a copy of the caller's context.
    y, params = _overflowing(x)
    e = estep.point_coefficients(params)
    calls = {}
    for cache in (_serial(y), estep._DataCache(y)):
        seen = calls.setdefault(cache.parallel, [])
        with np.errstate(over="call", call=lambda kind, flag: seen.append(kind)):
            estep._responsibility_pass(cache, e, params.families)
    assert calls[True] == calls[False] and set(calls[True]) == {"overflow"}


def test_worker_keeps_the_callers_ignored_warnings(x, two_cpus):
    # With no Gaussian and no negative activation, every negative point has
    # zero density: its log-weights are both -inf, and -inf - -inf is NaN.
    params = _params((0.0, 1.0, 0.0), (GAMMA_POS, GAMMA_NEG))
    cache = estep._DataCache(x)
    e = estep.point_coefficients(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            degenerate = estep._responsibility_pass(cache, e, params.families)[2]
    assert degenerate == cache.sides[1].vals.size
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        estep._responsibility_pass(cache, e, params.families)
    with pytest.warns(RuntimeWarning, match="invalid"):
        estep._responsibility_pass(cache, e, params.families)


# Run in a fresh interpreter: fit every model on the n = 1e5 map and print
# each fit's passes, stop reason and SHA-1 of its responsibilities. A pass is
# made on a cache kept alive to the end, so the interpreter exits with a live
# worker thread.
_FIT_RUN = """
import hashlib, json, sys
from gigmix import estep, experiments
from gigmix.distributions import GAMMA_NEG, GAMMA_POS
from gigmix.experiments import SyntheticSpec, generate
from gigmix.initialization import init_params, kmeans_1d

spec = SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=int(sys.argv[1]), repeats=1, seed=10)
x = generate(spec, 0, 0).values
fits = {}
for model in ("bggm", "bgim", "ggm", "gim"):
    res = experiments.fit(model, x, 0)
    gamma = hashlib.sha1(res.responsibilities.tobytes()).hexdigest()
    fits[model] = [res.iterations, res.stop_reason, gamma]
cache = estep._DataCache(x)
params = init_params(kmeans_1d(x, 3), (GAMMA_POS, GAMMA_NEG))
estep.point_pass(cache, params)
print(json.dumps({"parallel": cache.parallel, "worker": cache.worker is not None, "fits": fits}))
"""


def test_fits_do_not_depend_on_the_blas_thread_count():
    src = Path(gigmix.__file__).resolve().parent.parent
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", _FIT_RUN, str(N)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    one, two = runs
    assert one["fits"] == two["fits"]
    assert list(one["fits"]) == ["bggm", "bgim", "ggm", "gim"]
    if estep._usable_cpus() >= 2:
        assert one["parallel"] and one["worker"]
