"""The fit-equivalence tool (tools/fit_equivalence.py) runs on this tree."""

import importlib.util
import pathlib

import numpy as np
import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fit_equivalence.py"
_SPEC = importlib.util.spec_from_file_location("fit_equivalence", _PATH)
fit_equivalence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fit_equivalence)


def test_map_set_has_34_maps_and_35_with_the_large_one():
    small = [label for label, _, _ in fit_equivalence.maps(False)]
    assert len(small) == len(set(small)) == 34
    assert sum(label.startswith("hostile/") for label in small) == 6
    large = [label for label, x, _ in fit_equivalence.maps(True) if x.size == 300_000]
    assert large == ["criterion10/n300000"]


@pytest.mark.parametrize("model", fit_equivalence.MODELS)
def test_fit_lines_are_deterministic_and_complete(model):
    rng = np.random.default_rng(3)
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], 600, p=[0.1, 0.8, 0.1]), 1.0)
    line = fit_equivalence.describe_fit(model, x, 1)
    assert line == fit_equivalence.describe_fit(model, x, 1)
    keys = [field.split("=")[0] for field in line.split()[1:]]
    expected = ["passes", "stop", "converged", "degenerate", "gamma", "trace", "final", "json"]
    assert keys == expected + (["nfe"] if model.startswith("b") else [])


def test_a_refused_fit_is_reported_not_raised():
    line = fit_equivalence.describe_fit("ggm", np.array([1.0, np.nan, 2.0]), 0)
    assert line.startswith("ggm error=ValueError")


@pytest.mark.parametrize("threads", ["2", None])
def test_first_output_line_names_the_blas_thread_count(threads, monkeypatch, capsys):
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    monkeypatch.setattr(fit_equivalence, "maps", lambda large: iter(()))
    monkeypatch.setattr(fit_equivalence, "describe_benchmark", lambda: ["row"])
    assert fit_equivalence.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"OPENBLAS_NUM_THREADS={threads or 'unset'}", "row"]


def test_compare_reports_numeric_drift_stop_mismatches_and_missing_fits(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], 300, p=[0.1, 0.8, 0.1]), 1.0)
    dumps = {name: tmp_path / name for name in ("a", "same", "perturbed")}
    for path in dumps.values():
        path.mkdir()
        for model in ("bggm", "ggm"):
            fit_equivalence.describe_fit(model, x, 0, str(path / f"m.{model}.npz"), "m")
    with np.load(dumps["perturbed"] / "m.ggm.npz") as f:
        saved = dict(f)
    saved["gamma"] = saved["gamma"] + 1e-9
    saved["objective"] = saved["objective"] * (1.0 + 1e-10)
    saved["passes"] = saved["passes"] + 1
    np.savez(dumps["perturbed"] / "m.ggm.npz", **saved)

    lines, ok = fit_equivalence.compare(str(dumps["a"]), str(dumps["same"]))
    assert ok
    assert lines == [
        "m bggm max|dgamma|=0 max_dobjective=0",
        "m ggm max|dgamma|=0 max_dobjective=0",
        "summary: 2 fits, 0 mismatched, 0 missing; max|dgamma|=0 max_dobjective=0",
    ]
    assert fit_equivalence.main(["--compare", str(dumps["a"]), str(dumps["same"])]) == 0

    lines, ok = fit_equivalence.compare(str(dumps["a"]), str(dumps["perturbed"]))
    assert not ok
    passes = int(saved["passes"])
    assert lines[0] == "m bggm max|dgamma|=0 max_dobjective=0"
    fields = lines[1].split(" ", 4)
    assert fields[:3] == ["m", "ggm", "max|dgamma|=1e-09"]
    # |dobjective| / (1 + |objective|): just under the relative 1e-10 applied.
    assert 0.9e-10 < float(fields[3].split("=")[1]) <= 1e-10
    assert fields[4] == f"MISMATCH passes {passes - 1} != {passes}"
    assert lines[2].startswith("summary: 2 fits, 1 mismatched, 0 missing; max|dgamma|=1e-09")
    assert fit_equivalence.main(["--compare", str(dumps["a"]), str(dumps["perturbed"])]) == 1

    (dumps["same"] / "m.bggm.npz").unlink()
    lines, ok = fit_equivalence.compare(str(dumps["a"]), str(dumps["same"]))
    assert not ok
    assert lines[0] == f"m.bggm.npz missing from {dumps['same']}"
    assert lines[2].startswith("summary: 2 fits, 0 mismatched, 1 missing")
