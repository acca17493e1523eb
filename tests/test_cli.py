import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gigmix
import gigmix.experiments as experiments
from gigmix.cli import main
from gigmix.io import write_values_f64le, write_values_txt


@pytest.fixture
def value_file(tmp_path):
    rng = np.random.default_rng(0)
    labels = rng.choice(3, size=3000, p=[0.8, 0.1, 0.1])
    x = rng.normal(np.array([0.0, 5.0, -5.0])[labels], 1.0)
    path = tmp_path / "values.txt"
    write_values_txt(path, x)
    return path


def test_fit_writes_versioned_json(tmp_path, value_file):
    out = tmp_path / "result.json"
    gamma_out = tmp_path / "gamma.csv"
    rc = main(
        [
            "fit",
            "--model",
            "bgim",
            "--input",
            str(value_file),
            "--seed",
            "3",
            "--output",
            str(out),
            "--gamma-out",
            str(gamma_out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["model"] == "bgim"
    assert doc["converged"] is True
    assert "state" in doc and "expectations" in doc
    assert "wall_time_seconds" not in doc
    lines = gamma_out.read_text().splitlines()
    assert lines[0] == "gamma1,gamma2,gamma3"
    assert len(lines) == 3001


@pytest.mark.parametrize("model", ["bggm", "bgim", "ggm", "gim"])
def test_fit_deterministic_json(tmp_path, value_file, model):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        args = [
            "fit",
            "--model",
            model,
            "--input",
            str(value_file),
            "--seed",
            "7",
            "--output",
            str(out),
        ]
        assert main(args) == 0
    assert out1.read_bytes() == out2.read_bytes()


_COMMON_KEYS = {
    "schema_version", "kind", "model", "seed", "converged", "stop_reason",
    "iterations", "degenerate_rows", "n", "standardized",
}
_VB_SCALARS = {"m_hat", "tau_hat", "c_hat", "b_hat", "mu", "mu2", "tau", "log_tau"}


@pytest.mark.parametrize("model", ["bggm", "bgim", "ggm", "gim"])
def test_fit_json_layout(tmp_path, value_file, model):
    out = tmp_path / "r.json"
    assert main(["fit", "--model", model, "--input", str(value_file), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    if model.startswith("b"):
        assert set(doc) == _COMMON_KEYS | {"nfe_trace", "state", "expectations"}
        assert doc["kind"] == "vb"
        assert len(doc["state"]) == len(doc["expectations"]) == 10
        for section in (doc["state"], doc["expectations"]):
            for key, value in section.items():
                assert isinstance(value, float if key in _VB_SCALARS else list), key
    else:
        assert set(doc) == _COMMON_KEYS | {"loglik_trace", "params"}
        assert doc["kind"] == "ml"
        assert set(doc["params"]) == {"pi", "gaussian", "positive", "negative"}
        assert doc["params"]["positive"]["family"] == ("gamma" if model == "ggm" else "invgamma")


def test_fit_f64le_and_standardize(tmp_path):
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(1.0, 2.0, 2000), np.zeros(17)])
    path = tmp_path / "values.f64le"
    write_values_f64le(path, x)
    out = tmp_path / "result.json"
    rc = main(
        [
            "fit",
            "--model",
            "gim",
            "--input",
            str(path),
            "--format",
            "f64le",
            "--standardize",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["standardized"] is True
    assert doc["n"] == 2000  # zeros masked before fitting


def test_fit_timing_flag_adds_wall_time(tmp_path, value_file):
    out = tmp_path / "t.json"
    rc = main(
        ["fit", "--model", "gim", "--input", str(value_file), "--output", str(out), "--timing"]
    )
    assert rc == 0
    assert json.loads(out.read_text())["wall_time_seconds"] > 0


def test_simulate_round_trip(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(
        [
            "simulate",
            "--dataset",
            "2",
            "--snr",
            "4",
            "--sparsity",
            "1",
            "--n",
            "500",
            "--seed",
            "11",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value,label"
    assert len(lines) == 501
    labels = {int(line.split(",")[1]) for line in lines[1:]}
    assert labels <= {1, 2}  # dataset 2 has no negative component


def test_eval_perfect_fixture(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    truth = tmp_path / "truth.txt"
    write_values_txt(scores, [0.9, 0.8, 0.2, 0.1])
    truth.write_text("1\n1\n0\n0\n")
    rc = main(["eval", "--scores", str(scores), "--truth", str(truth)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_eval_length_mismatch_is_runtime_error(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    truth = tmp_path / "truth.txt"
    write_values_txt(scores, [0.9, 0.8])
    truth.write_text("1\n")
    assert main(["eval", "--scores", str(scores), "--truth", str(truth)]) == 2


def test_bench_small_grid(tmp_path):
    outdir = tmp_path / "bench"
    rc = main(
        [
            "bench",
            "--grid",
            "1:5:1",
            "--models",
            "bggm,gim",
            "--repeats",
            "2",
            "--n",
            "1500",
            "--seed",
            "5",
            "--outdir",
            str(outdir),
        ]
    )
    assert rc == 0
    runs = (outdir / "runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 2 * 2
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["models"] == ["bggm", "gim"]
    assert len(manifest["rows"]) == 4
    assert (outdir / "wins.csv").exists()


def _bench_argv(outdir, repeats):
    return ["bench", "--grid", "1:5:1", "--models", "bggm,gim", "--repeats", str(repeats),
            "--n", "2000", "--outdir", str(outdir)]


def test_bench_single_repeat_writes_header_only_wins(tmp_path):
    assert main(_bench_argv(tmp_path, 1)) == 0
    assert len((tmp_path / "runs.csv").read_text().splitlines()) == 1 + 2
    wins = (tmp_path / "wins.csv").read_text()
    assert wins == "model_a,model_b,scenarios_won,scenarios_total,win_pct\n"


def test_bench_survives_failed_fits(tmp_path, monkeypatch, capsys):
    real = experiments.fit_model
    calls = []

    def flaky(model, data, seed):
        calls.append(model)
        if model == "gim" and calls.count("gim") == 1:
            raise RuntimeError("synthetic failure")
        return real(model, data, seed)

    monkeypatch.setattr(experiments, "fit_model", flaky)
    assert main(_bench_argv(tmp_path, 3)) == 0
    assert "1 fit(s) failed" in capsys.readouterr().err
    # gim lost repeat 0, so the two models are compared on repeats 1 and 2.
    assert len((tmp_path / "wins.csv").read_text().splitlines()) == 1 + 2


_SPEC_TYPES = {"dataset": int, "snr": float, "sparsity": int, "n": int, "repeats": int,
               "seed": int, "scenario_id": str}
_ROW_TYPES = {"scenario_id": str, "model": str, "repeat": int, "auc": float,
              "pos_frac": float, "neg_frac": float, "wall_seconds": float,
              "iterations": int, "converged": bool}


@pytest.mark.parametrize("timing", ["off", "wall"])
def test_bench_output_layout(tmp_path, timing):
    assert main(_bench_argv(tmp_path, 2) + ["--timing", timing]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {k: type(v) for k, v in manifest.items()} == {
        "schema_version": int, "version": str, "timing": str, "models": list,
        "specs": list, "failures": list, "rows": list,
    }
    assert (manifest["schema_version"], manifest["version"]) == (1, gigmix.__version__)
    assert manifest["timing"] == timing
    assert [{k: type(v) for k, v in s.items()} for s in manifest["specs"]] == [_SPEC_TYPES]
    assert manifest["failures"] == []
    rows = manifest["rows"]
    assert len(rows) == 4
    assert all({k: type(v) for k, v in r.items()} == _ROW_TYPES for r in rows)

    lines = (tmp_path / "runs.csv").read_text().splitlines()
    assert lines[0] == "scenario_id,model,repeat,auc,pos_frac,neg_frac,seconds,iterations,converged"
    assert len(lines) == 1 + len(rows)
    for line, r in zip(lines[1:], rows):
        seconds = r["wall_seconds"] if timing == "wall" else 0.0
        assert line == (
            f"{r['scenario_id']},{r['model']},{r['repeat']},{r['auc']!r},{r['pos_frac']!r},"
            f"{r['neg_frac']!r},{seconds!r},{r['iterations']},{int(r['converged'])}"
        )
        assert float(line.split(",")[6]) == seconds


def test_bench_repeated_model_is_runtime_error(tmp_path, capsys):
    argv = ["bench", "--grid", "1:5:1", "--models", "ggm,ggm", "--repeats", "1", "--n", "500",
            "--outdir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_bad_grid_is_runtime_error(tmp_path):
    assert (
        main(["bench", "--grid", "1:5", "--outdir", str(tmp_path), "--repeats", "1"]) == 2
    )


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--model", "nope", "--input", "x", "--output", "y"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_input_is_runtime_error(tmp_path):
    rc = main(
        ["fit", "--model", "gim", "--input", str(tmp_path / "nope.txt"), "--output", "o"]
    )
    assert rc == 2


def test_fit_overflow_is_runtime_error(tmp_path, capsys):
    # The VB objective overflows on these values; that is a runtime error.
    path = tmp_path / "huge.txt"
    write_values_txt(path, [-1.9582996977034442e149, 2.7729681165263924e149, -1.3457915916959852e150])
    with np.errstate(all="ignore"):
        rc = main(["fit", "--model", "bggm", "--input", str(path), "--output", str(tmp_path / "o.json")])
    assert rc == 2
    assert "gigmix fit: error:" in capsys.readouterr().err


def test_python_m_gigmix_runs_the_cli():
    src = Path(gigmix.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gigmix", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gigmix")
