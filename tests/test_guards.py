"""Each input guard refuses its bad argument with its own error and message.

One case per guard that no other test reaches; each case fails if its guard
is removed, since the call then returns or fails elsewhere with another
error or message.
"""

import numpy as np
import pytest

from gigmix import distributions, evaluation, experiments, initialization, io, vb_em
from gigmix.distributions import (
    GAMMA_NEG,
    GAMMA_POS,
    GaussianParams,
    MixtureParams,
    ShapeRateParams,
)
from gigmix.initialization import kmeans_1d

_GAUSSIAN = GaussianParams(0.0, 1.0)
_POS = ShapeRateParams(2.0, 1.0, GAMMA_POS)
_NEG = ShapeRateParams(2.0, 1.0, GAMMA_NEG)


def _truncated_header(tmp_path):
    path = tmp_path / "short.f64le"
    path.write_bytes(b"\x03\x00\x00")
    return io.read_values_f64le(path)


def _unknown_format(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("1.0\n")
    return io.read_values(path, "csv")


def _off_support_free_energy(tmp_path):
    # Responsibility on the positive activation at a negative value meets
    # its -inf log-weight, so the bound is -inf.
    x = np.array([-1.0, 0.5, 2.0])
    result = vb_em.fit_bggm(np.linspace(-3.0, 3.0, 40))
    gamma = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    return vb_em.negative_free_energy(x, gamma, result.state, result.priors, result.expectations)


def _swapped_families(tmp_path):
    km = kmeans_1d(np.array([-3.0, -2.5, -0.2, 0.0, 0.3, 2.0, 2.6]), 3)
    return initialization.init_params(km, (GAMMA_NEG, GAMMA_POS))


CASES = {
    "f64le header": (_truncated_header, ValueError, "truncated f64le header"),
    "input format": (_unknown_format, ValueError, "unknown input format 'csv'"),
    "activation map of 4 columns": (
        lambda _: evaluation.activation_map(np.full((2, 4), 0.25)),
        ValueError,
        "N x 3",
    ),
    "activation map of a vector": (
        lambda _: evaluation.activation_map(np.array([0.2, 0.7, 0.1])),
        ValueError,
        "N x 3",
    ),
    "auc lengths": (
        lambda _: evaluation.restricted_auc([0.1, 0.9, 0.5], [True, False]),
        ValueError,
        "equal length",
    ),
    "win matrix without scenarios": (lambda _: evaluation.win_matrix({}), ValueError, "no scenarios"),
    "unknown model": (
        lambda _: experiments.check_models(["ggm", "gmm"]),
        ValueError,
        r"unknown models: \['gmm'\]",
    ),
    "pi of two": (
        lambda _: MixtureParams(np.array([0.5, 0.5]), _GAUSSIAN, _POS, _NEG),
        ValueError,
        "finite 3-vector",
    ),
    "component 3 positive": (
        lambda _: MixtureParams(np.array([0.8, 0.1, 0.1]), _GAUSSIAN, _POS, _POS),
        ValueError,
        "component 3 must have negative support",
    ),
    "log_pdf of a mixture": (
        lambda _: distributions.log_pdf(MixtureParams(np.array([0.8, 0.1, 0.1]), _GAUSSIAN, _POS, _NEG), 1.0),
        TypeError,
        "unsupported parameter type MixtureParams",
    ),
    "sample of a tuple": (
        lambda _: distributions.sample((2.0, 1.0), 3, np.random.default_rng(0)),
        TypeError,
        "unsupported parameter type tuple",
    ),
    "families swapped": (_swapped_families, ValueError, "families must be"),
    "free energy not finite": (_off_support_free_energy, vb_em.VBNumericError, "not finite"),
}


@pytest.mark.parametrize("name", CASES)
def test_guard_refuses_its_bad_argument(name, tmp_path):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call(tmp_path)
