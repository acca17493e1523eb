import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, polygamma, psi

import gigmix
from gigmix.special import (
    EULER_GAMMA,
    digamma,
    inv_digamma,
    log_gamma,
    tetragamma,
    trigamma,
)


def random_args(n=1000, lo=1e-3, hi=1e3, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    # Oracle value: recurrence from psi(1) plus the asymptotic series,
    # cross-checked against scipy.
    assert digamma(10.0) == pytest.approx(2.2517525890667214, rel=1e-12)
    assert digamma(10.0) == pytest.approx(psi(10.0), rel=1e-13)


def test_trigamma_known_values():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert trigamma(10.0) == pytest.approx(0.1051663356816858, rel=1e-10)
    assert trigamma(10.0) == pytest.approx(polygamma(1, 10.0), rel=1e-13)


def test_tetragamma_known_values():
    # -2 * zeta(3)
    assert tetragamma(1.0) == pytest.approx(-2.4041138063191885, rel=1e-12)
    assert tetragamma(5.0) < 0.0


def test_tetragamma_matches_trigamma_derivative():
    h = 1e-5
    fd = (trigamma(5.0 + h) - trigamma(5.0 - h)) / (2.0 * h)
    assert tetragamma(5.0) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("x", [3.7, 2.5, 4.0])
def test_recurrence_spot_values(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)
    assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / x**2, rel=1e-12)
    assert tetragamma(x + 1.0) == pytest.approx(tetragamma(x) + 2.0 / x**3, rel=1e-12)


def test_recurrences_hold_on_random_grid():
    # Relative to the identity's dominant operand: near the x -> 0 pole the
    # two sides cancel catastrophically, so result-relative 1e-10 is not
    # representable in double precision.
    xs = random_args(1000)
    for x in xs:
        for f, step in (
            (digamma, 1.0 / x),
            (trigamma, -1.0 / x**2),
            (tetragamma, 2.0 / x**3),
        ):
            lhs = f(x + 1.0)
            rhs = f(x) + step
            scale = max(1.0, abs(lhs), abs(step))
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_scipy_cross_check_12_digits():
    xs = random_args(500, seed=3)
    for x in xs:
        assert abs(log_gamma(x) - gammaln(x)) <= 1e-12 * max(1.0, abs(gammaln(x)))
        assert abs(digamma(x) - psi(x)) <= 1e-12 * max(1.0, abs(psi(x)))
        assert abs(trigamma(x) - polygamma(1, x)) <= 1e-12 * max(1.0, polygamma(1, x))
        assert abs(tetragamma(x) - polygamma(2, x)) <= 1e-12 * max(1.0, -polygamma(2, x))


def test_signs_and_monotonicity():
    grid = np.linspace(0.05, 50.0, 400)
    psi_vals = [digamma(x) for x in grid]
    assert all(b > a for a, b in zip(psi_vals, psi_vals[1:]))
    assert all(trigamma(x) > 0 for x in grid)
    assert all(tetragamma(x) < 0 for x in grid)


def test_digamma_is_log_gamma_gradient():
    rng = np.random.default_rng(7)
    for x in np.exp(rng.uniform(np.log(0.05), np.log(100.0), 100)):
        h = 1e-6 * max(x, 1.0)
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert digamma(x) == pytest.approx(fd, rel=1e-6)


def test_inv_digamma_round_trips():
    assert inv_digamma(digamma(10.0)) == pytest.approx(10.0, abs=1e-10)
    assert inv_digamma(digamma(0.1)) == pytest.approx(0.1, abs=1e-10)
    assert inv_digamma(-0.5772156649) == pytest.approx(1.0, abs=1e-8)


def test_inv_digamma_grid_round_trip():
    for y in np.linspace(-20.0, 10.0, 1000):
        assert abs(digamma(inv_digamma(y)) - y) < 1e-10


@pytest.mark.parametrize("f", [log_gamma, digamma, trigamma, tetragamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e-301])
def test_domain_errors(f, bad):
    with pytest.raises(ValueError):
        f(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_inv_digamma_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        inv_digamma(bad)


def test_import_gigmix_leaves_scipy_stats_unloaded():
    # scipy.stats roughly triples the import time of the package, which every
    # CLI run and the benchmark's set-up pay; scipy.special is all it needs.
    src = Path(gigmix.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, gigmix; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
