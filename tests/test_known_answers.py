"""Maps with a known answer: pure noise, and each learner's own family.

The benchmark's datasets draw activation from N(+-SNR, 1), so every learner
is misspecified there and only relative behaviour can be tested. Here the
answer is known in advance (``helpers.own_family_map``):

- On pure N(0, 1) noise nothing is active, and a learner should declare
  (gamma2 + gamma3 > 0.5) at most 0.5 % of the map.
- On N(0, 1) noise with 2 % activation drawn from the learner's own family,
  the learner should find the noise share pi1 = 0.98 within 0.01.
- On such a map with 20 % activation, every learner should find each
  proportion within 0.02 and each activation's shape and rate (an
  inverse-Gamma's scale) within 10 %.

The ML learners pass from their noise-core start. bggm starts from k-means,
which cuts a noise map into thirds, and stays in that basin: it declares
about half of pure noise active and ends far below 0.98 on its sparse maps.
Those cases are strict xfails that name the measured value.

A masked map, one with exact zeros outside its mask, has a known answer too:
the fit of its drawn values alone. Every learner should give the drawn
values, byte for byte, the responsibilities of that fit.

So should a map with a few far values, up to a tolerance: with two of its
values set to +c and -c, c = 1e3 or 1e6, a learner should declare within 0.02
of the share of the other values that it declares without them. Only bgim
on d1-snr5-sp1 at c = 1e6 does today; every other case is a strict xfail
that names its measured shares.
"""

import numpy as np
import pytest
from helpers import own_family_map

from gigmix.distributions import ComponentFamily
from gigmix.experiments import SyntheticSpec, fit, generate

N = 100_000
FAMILY = {"bggm": "gamma", "bgim": "invgamma", "ggm": "gamma", "gim": "invgamma"}
MAX_DECLARED = 0.005
PI1_TOLERANCE = 0.01


def _declared_share(r, rows=slice(None)):
    g = r.responsibilities[rows]
    return float(np.mean(g[:, 1] + g[:, 2] > 0.5))


def _pi1(r):
    return float((r.expectations.pi if hasattr(r, "state") else r.params.pi)[0])


_BGGM_NOISE = pytest.mark.xfail(strict=True, reason="bggm declares about 0.50 of pure noise active")


@pytest.mark.parametrize(
    "model", ["bgim", "ggm", "gim", pytest.param("bggm", marks=_BGGM_NOISE)]
)
def test_pure_noise_is_declared_inactive(model):
    for draw in range(3):
        x, _ = own_family_map("gamma", (1.0, 0.0, 0.0), 1.0, 1.0, N, 100 + draw)
        share = _declared_share(fit(model, x, 0))
        assert share <= MAX_DECLARED, f"draw {draw}: {share:.4f} declared"


# Activation mean and variance of the sparse maps.
MOMENTS = [(4.0, 4.0), (3.0, 1.0)]
_BGGM_SPARSE = pytest.mark.xfail(strict=True, reason="bggm ends at pi1 about 0.94 and 0.89")


@pytest.mark.parametrize("mean, var", MOMENTS, ids=["m4v4", "m3v1"])
@pytest.mark.parametrize(
    "model", ["bgim", "ggm", "gim", pytest.param("bggm", marks=_BGGM_SPARSE)]
)
def test_sparse_own_family_noise_share_is_recovered(model, mean, var):
    x, _ = own_family_map(FAMILY[model], (0.98, 0.01, 0.01), mean, var, N, 7)
    assert abs(_pi1(fit(model, x, 0)) - 0.98) <= PI1_TOLERANCE


PI_TOLERANCE = 0.02
SHAPE_RATE_TOLERANCE = 0.10


def _pi_shapes_rates(r):
    """Proportions, and per activation (positive side first) its shape and
    rate: the posterior means for VB, the point values for ML."""
    if hasattr(r, "state"):
        e = r.expectations
        return e.pi.tolist(), e.s.tolist(), e.r.tolist()
    comps = (r.params.comp2, r.params.comp3)
    return r.params.pi.tolist(), [c.shape for c in comps], [c.rate for c in comps]


@pytest.mark.parametrize("mean, var", MOMENTS, ids=["m4v4", "m3v1"])
@pytest.mark.parametrize("model", ["bggm", "bgim", "ggm", "gim"])
def test_dense_own_family_parameters_are_recovered(model, mean, var):
    pi = (0.8, 0.1, 0.1)
    x, _ = own_family_map(FAMILY[model], pi, mean, var, N, 7)
    truth = ComponentFamily(FAMILY[model], 1).moments(mean, var)
    got_pi, shapes, rates = _pi_shapes_rates(fit(model, x, 0))
    assert max(abs(a - b) for a, b in zip(got_pi, pi)) <= PI_TOLERANCE, got_pi
    for shape, rate in zip(shapes, rates):
        assert abs(shape / truth.shape - 1.0) <= SHAPE_RATE_TOLERANCE, (shape, truth.shape)
        assert abs(rate / truth.rate - 1.0) <= SHAPE_RATE_TOLERANCE, (rate, truth.rate)


@pytest.mark.parametrize("zeros", [0.3, 0.6], ids=["30pct", "60pct"])
@pytest.mark.parametrize("model", ["bggm", "bgim", "ggm", "gim"])
def test_masked_zeros_leave_the_fit_of_the_drawn_values_unchanged(model, zeros):
    # d1-snr4-sp2 with exact zeros appended until they make up the share:
    # the nonzero values are the same data in the same order.
    x = generate(SyntheticSpec(dataset=1, snr=4.0, sparsity=2, n=10_000, seed=3), 0).values
    masked = np.concatenate([x, np.zeros(round(x.size * zeros / (1.0 - zeros)))])
    want = fit(model, x, 0).responsibilities
    got = fit(model, masked, 0).responsibilities
    assert got[: x.size].tobytes() == want.tobytes()


FAR_SHARE_TOLERANCE = 0.02
FAR_SCENARIOS = {"d1-snr5-sp1": (5.0, 1), "d1-snr3-sp2": (3.0, 2)}
# Declared share of the other values without the far values -> with them.
_FAR_MEASURED = {
    ("d1-snr5-sp1", "bggm"): ("0.200", "0.000", "1.000"),
    ("d1-snr5-sp1", "bgim"): ("0.199", "0.000", None),
    ("d1-snr5-sp1", "ggm"): ("0.200", "0.001", "0.000"),
    ("d1-snr5-sp1", "gim"): ("0.197", "0.406", "0.000"),
    ("d1-snr3-sp2", "bggm"): ("0.234", "0.000", "1.000"),
    ("d1-snr3-sp2", "bgim"): ("0.068", "0.000", "0.000"),
    ("d1-snr3-sp2", "ggm"): ("0.076", "0.000", "0.495"),
    ("d1-snr3-sp2", "gim"): ("0.067", "0.000", "0.000"),
}


def _far_cases():
    for (scenario, model), (without, *far) in _FAR_MEASURED.items():
        for c, measured in zip((1e3, 1e6), far):
            marks = ()
            if measured is not None:
                reason = f"declares {measured} of the other values, against {without} without"
                marks = pytest.mark.xfail(strict=True, reason=reason)
            yield pytest.param(scenario, model, c, marks=marks, id=f"{scenario}-{model}-{c:g}")


@pytest.mark.parametrize("scenario, model, c", _far_cases())
def test_two_far_values_leave_the_declared_share_of_the_others(scenario, model, c):
    snr, sparsity = FAR_SCENARIOS[scenario]
    spec = SyntheticSpec(dataset=1, snr=snr, sparsity=sparsity, n=10_000, seed=0)
    x = generate(spec, 0).values
    far = x.copy()
    far[:2] = c, -c
    want = _declared_share(fit(model, x, 0), rows=slice(2, None))
    got = _declared_share(fit(model, far, 0), rows=slice(2, None))
    assert abs(got - want) <= FAR_SHARE_TOLERANCE, (got, want)
