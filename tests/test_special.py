import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, polygamma, psi

import gigmix
from gigmix.io import write_values_txt
from gigmix.special import (
    EULER_GAMMA,
    digamma,
    inv_digamma,
    log_gamma,
    tetragamma,
    trigamma,
    trigamma_tetragamma,
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


# Each function against its scipy reference over the whole domain, from the
# smallest accepted argument up to near the largest float.
SCIPY_REFERENCES = {
    log_gamma: gammaln,
    digamma: psi,
    trigamma: lambda x: polygamma(1, x),
    tetragamma: lambda x: polygamma(2, x),
}
LOG_UNIFORM_DOMAIN = st.floats(math.log(1e-300), math.log(1.7e308)).map(
    lambda u: min(max(math.exp(u), 1e-300), 1.7e308)
)


@pytest.mark.parametrize("f", list(SCIPY_REFERENCES), ids=lambda f: f.__name__)
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(x=LOG_UNIFORM_DOMAIN)
@example(x=1e-300)
@example(x=1e-200)  # trigamma and tetragamma overflow to +inf and -inf
@example(x=1e-154)
@example(x=1e306)  # log_gamma overflows to +inf
@example(x=1.7e308)
def test_matches_scipy_over_the_whole_domain(f, x):
    with np.errstate(over="ignore"):
        want = float(SCIPY_REFERENCES[f](x))
    got = f(x)
    if math.isinf(want) or math.isinf(got):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_inv_digamma_refuses_a_root_past_the_float_range():
    assert math.isfinite(inv_digamma(709.0))
    with pytest.raises(ValueError, match="float range"):
        inv_digamma(710.0)


def _outcome(f, x):
    """``f(x)`` as the hex of each value it returns, or its ValueError."""
    try:
        value = f(x)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return [v.hex() for v in (value if isinstance(value, tuple) else (value,))]


# The domain [1e-300, 1e300], log-uniform, with dense draws next to the
# integers (where the upward recurrence changes its number of steps) and
# around the shift point 10, where the asymptotic series takes over.
FUSED_DOMAIN = st.one_of(
    st.floats(math.log(1e-300), math.log(1e300)).map(
        lambda u: min(max(math.exp(u), 1e-300), 1e300)
    ),
    st.integers(1, 12).flatmap(lambda k: st.floats(k - 1e-9, k + 1e-9)),
    st.floats(9.0, 11.0),
    st.floats(10.0 - 1e-12, 10.0 + 1e-12),
)


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(x=FUSED_DOMAIN)
@example(x=1e-300)
@example(x=1e-154)  # trigamma overflows to +inf
@example(x=1e-103)  # tetragamma overflows to -inf
@example(x=math.nextafter(10.0, 0.0))
@example(x=10.0)
@example(x=1e300)
def test_fused_trigamma_tetragamma_is_bit_for_bit_the_two_functions(x):
    assert _outcome(trigamma_tetragamma, x) == _outcome(trigamma, x) + _outcome(tetragamma, x)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e-301])
def test_fused_trigamma_tetragamma_refuses_what_trigamma_refuses(bad):
    assert _outcome(trigamma_tetragamma, bad) == _outcome(trigamma, bad)


def _separate_newton_inv_digamma(y):
    """inv_digamma as it was before digamma and trigamma shared one
    recurrence in its Newton step: each function called on its own."""
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    if y >= -2.22:
        try:
            x = math.exp(y) + 0.5
        except OverflowError:
            raise ValueError(f"the root of digamma(x) = {y!r} exceeds the float range") from None
    else:
        x = -1.0 / (y + EULER_GAMMA)
    for _ in range(50):
        f = digamma(x) - y
        if abs(f) < 1e-12:
            return x
        step = f / trigamma(x)
        nxt = x - step
        if nxt <= 0.0:
            nxt = 0.5 * x
        x = nxt
    return x


# Targets across the whole range, the two branches of the start point at
# -2.22, the float-range limit near 709.78, targets whose roots fall below the
# smallest accepted argument, and digamma at points next to the integers.
INV_DOMAIN = st.one_of(
    st.floats(-1e305, 709.8),
    st.floats(-30.0, 30.0),
    st.floats(-2.23, -2.21),
    st.floats(709.7, 709.8),
    st.floats(-1e305, -1e299),
    st.integers(1, 12).flatmap(lambda k: st.floats(k - 1e-9, k + 1e-9)).map(digamma),
)


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(y=INV_DOMAIN)
@example(y=float("nan"))
@example(y=float("inf"))
@example(y=-float("inf"))
@example(y=710.0)
@example(y=-1e301)  # the start point 1e-301 is refused
@example(y=-2.22)
@example(y=math.nextafter(-2.22, -3.0))
def test_inv_digamma_is_bit_for_bit_the_separate_newton_loop(y):
    assert _outcome(inv_digamma, y) == _outcome(_separate_newton_inv_digamma, y)


# Run in a fresh interpreter: import gigmix, then fit every model (with a
# gamma CSV), eval and simulate through the CLI, printing the scipy modules,
# and concurrent.futures, loaded after each step.
_SCIPY_FREE_RUN = """
import json, sys

def lazy_modules():
    lazy = ("scipy", "concurrent.futures")
    return sorted(m for m in sys.modules if m in lazy or m.startswith("scipy."))

values, scores, truth, out = sys.argv[1:]
import gigmix
from gigmix.cli import main

loaded = {"import gigmix": lazy_modules()}
for model in ("bggm", "bgim", "ggm", "gim"):
    argv = ["fit", "--model", model, "--input", values, "--output", out + "/" + model + ".json",
            "--gamma-out", out + "/" + model + ".csv"]
    assert main(argv) == 0, model
    loaded["fit " + model] = lazy_modules()
assert main(["eval", "--scores", scores, "--truth", truth]) == 0
loaded["eval"] = lazy_modules()
argv = ["simulate", "--dataset", "1", "--snr", "3", "--sparsity", "1", "--n", "500",
        "--output", out + "/sim.csv"]
assert main(argv) == 0
loaded["simulate"] = lazy_modules()
print(json.dumps(loaded))
"""


def test_import_fit_eval_and_simulate_load_no_scipy(tmp_path):
    # scipy (its special module alone) took about two thirds of a cold
    # `import gigmix`, which every CLI run and the benchmark's set-up pay.
    # Only `gigmix bench`'s paired t-test may load it, inside the function.
    # Nor is concurrent.futures loaded: the E-step imports it for its worker
    # thread only when both sides of a map hold estep._BLOCK points.
    rng = np.random.default_rng(0)
    labels = rng.choice(3, size=2000, p=[0.8, 0.1, 0.1])
    x = rng.normal(np.array([0.0, 5.0, -5.0])[labels], 1.0)
    paths = [tmp_path / name for name in ("values.txt", "scores.txt", "truth.txt")]
    write_values_txt(paths[0], x)
    write_values_txt(paths[1], np.abs(x))
    paths[2].write_text("".join(f"{int(label != 0)}\n" for label in labels))
    src = Path(gigmix.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, *map(str, paths), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(loaded) == [
        "import gigmix", "fit bggm", "fit bgim", "fit ggm", "fit gim", "eval", "simulate"
    ]
    assert loaded == {step: [] for step in loaded}
