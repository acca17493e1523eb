import numpy as np
import pytest

import gigmix.experiments as experiments
from gigmix.experiments import (
    RUNS_CSV_COLUMNS,
    RunManifest,
    SyntheticSpec,
    default_grid,
    fit_model,
    generate,
    load_manifest,
    run_benchmark,
    substream,
)
from gigmix.io import read_values_f64le, read_values_txt, write_values_f64le, write_values_txt


def test_spec_validation():
    SyntheticSpec(dataset=1, snr=5.0, sparsity=1)
    with pytest.raises(ValueError):
        SyntheticSpec(dataset=3, snr=5.0, sparsity=1)
    with pytest.raises(ValueError):
        SyntheticSpec(dataset=1, snr=2.5, sparsity=1)
    with pytest.raises(ValueError):
        SyntheticSpec(dataset=1, snr=5.0, sparsity=0)


def test_spec_proportions_and_id():
    s = SyntheticSpec(dataset=2, snr=3.0, sparsity=2)
    assert s.pi == (0.95, 0.05, 0.0)
    assert s.scenario_id == "d2-snr3-sp2"


def test_generate_label_fractions_within_binomial_noise():
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=10000, seed=1)
    ds = generate(spec, 0)
    for k, p in zip((1, 2, 3), spec.pi):
        frac = np.mean(ds.truth == k)
        assert abs(frac - p) <= 3.0 * np.sqrt(p * (1 - p) / spec.n)
    # means sit near 0 / +snr / -snr with unit variance
    assert abs(ds.values[ds.truth == 2].mean() - 5.0) < 0.1


def test_generate_dataset2_has_no_negative_labels():
    spec = SyntheticSpec(dataset=2, snr=4.0, sparsity=1, n=5000, seed=2)
    ds = generate(spec, 3)
    assert not np.any(ds.truth == 3)


def test_generate_deterministic():
    spec = SyntheticSpec(dataset=1, snr=3.0, sparsity=2, n=1000, seed=5)
    a = generate(spec, 7, scenario_index=2)
    b = generate(spec, 7, scenario_index=2)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.truth, b.truth)
    c = generate(spec, 8, scenario_index=2)
    assert not np.array_equal(a.values, c.values)


def test_substream_split_is_stable():
    a = substream(0, 1, 2).integers(1 << 32, size=4)
    b = substream(0, 1, 2).integers(1 << 32, size=4)
    c = substream(0, 2, 1).integers(1 << 32, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fit_model_rejects_unknown():
    with pytest.raises(ValueError):
        fit_model("mystery", np.zeros(10), 0)


def test_run_benchmark_rejects_repeated_models():
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=500, repeats=1, seed=0)
    with pytest.raises(ValueError, match="once"):
        run_benchmark([spec], ["ggm", "gim", "ggm"])


def test_default_grid_shape():
    grid = default_grid(seed=3, n=1234, repeats=7)
    assert len(grid) == 12
    assert {g.scenario_id for g in grid} == {
        f"d1-snr{snr:g}-sp{sp}" for snr in (2, 3, 4, 5) for sp in (1, 2, 3)
    }
    assert all(g.n == 1234 and g.repeats == 7 and g.seed == 3 for g in grid)


def test_run_benchmark_cardinality_and_schema(tmp_path):
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=2000, repeats=2, seed=0)
    manifest = run_benchmark([spec], ["bggm", "bgim", "ggm", "gim"])
    assert len(manifest.rows) == 8
    assert not manifest.failures
    runs = tmp_path / "runs.csv"
    manifest.write_runs_csv(runs)
    lines = runs.read_text().splitlines()
    assert lines[0] == ",".join(RUNS_CSV_COLUMNS)
    assert len(lines) == 9
    # timing off by default: the seconds column is identically 0.0
    assert all(line.split(",")[6] == "0.0" for line in lines[1:])

    manifest.write_wins_csv(tmp_path / "wins.csv")
    wins = (tmp_path / "wins.csv").read_text().splitlines()
    assert wins[0] == "model_a,model_b,scenarios_won,scenarios_total,win_pct"
    assert len(wins) == 1 + 4 * 3

    manifest.write_manifest(tmp_path / "manifest.json")
    assert (tmp_path / "manifest.json").exists()


def test_run_benchmark_auc_table_order():
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=2000, repeats=3, seed=1)
    manifest = run_benchmark([spec], ["gim"])
    table = manifest.auc_table()
    assert list(table) == [spec.scenario_id]
    assert table[spec.scenario_id]["gim"].shape == (3,)


def _manifest_with_rows(runs):
    """A manifest holding one row per (scenario, model, repeat, auc) tuple."""
    rows = [
        {"scenario_id": sc, "model": m, "repeat": rep, "auc": auc, "pos_frac": 0.0,
         "neg_frac": 0.0, "wall_seconds": 0.0, "iterations": 1, "converged": True}
        for sc, m, rep, auc in runs
    ]
    return RunManifest(specs=[], models=["a", "b"], timing="off", rows=rows, failures=[])


def test_auc_table_pairs_by_repeat_index():
    # Model "a" lost repeat 1 and model "b" lost repeat 0.
    manifest = _manifest_with_rows(
        [("s", "a", 0, 0.10), ("s", "a", 2, 0.12), ("s", "a", 3, 0.13),
         ("s", "b", 3, 0.23), ("s", "b", 1, 0.21), ("s", "b", 2, 0.22)]
    )
    table = manifest.auc_table()["s"]
    assert table["a"].tolist() == [0.12, 0.13]
    assert table["b"].tolist() == [0.22, 0.23]


def test_wins_csv_leaves_out_scenarios_without_two_paired_repeats(tmp_path):
    runs = [("s1", m, rep, auc + rep / 100) for m, auc in (("a", 0.9), ("b", 0.1)) for rep in range(3)]
    runs += [("s2", "a", 0, 0.5), ("s2", "a", 1, 0.5), ("s2", "b", 0, 0.5)]
    _manifest_with_rows(runs).write_wins_csv(tmp_path / "wins.csv")
    lines = (tmp_path / "wins.csv").read_text().splitlines()
    assert lines[1:] == ["a,b,1,1,100.0", "b,a,0,1,0.0"]

    _manifest_with_rows(runs[6:]).write_wins_csv(tmp_path / "header_only.csv")
    assert (tmp_path / "header_only.csv").read_text() == (
        "model_a,model_b,scenarios_won,scenarios_total,win_pct\n"
    )


def test_run_benchmark_records_failures(monkeypatch):
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=500, repeats=1, seed=2)
    real = experiments.fit_model

    def flaky(model, data, seed):
        if model == "ggm":
            raise RuntimeError("synthetic failure")
        return real(model, data, seed)

    monkeypatch.setattr(experiments, "fit_model", flaky)
    manifest = run_benchmark([spec], ["ggm", "gim"])
    assert len(manifest.rows) == 1
    assert len(manifest.failures) == 1
    assert manifest.failures[0]["model"] == "ggm"
    assert "synthetic failure" in manifest.failures[0]["error"]


def test_run_benchmark_timing_mode(tmp_path):
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=1000, repeats=1, seed=3)
    manifest = run_benchmark([spec], ["gim"], timing="wall")
    runs = tmp_path / "runs.csv"
    manifest.write_runs_csv(runs)
    line = runs.read_text().splitlines()[1]
    assert float(line.split(",")[6]) > 0.0
    with pytest.raises(ValueError):
        run_benchmark([spec], ["gim"], timing="cpu")


def test_manifest_alone_suffices_to_rerun(tmp_path):
    spec = SyntheticSpec(dataset=2, snr=4.0, sparsity=2, n=1500, repeats=2, seed=9)
    first = run_benchmark([spec], ["bgim", "gim"])
    first.write_manifest(tmp_path / "manifest.json")
    first.write_runs_csv(tmp_path / "runs_a.csv")

    specs, models, timing = load_manifest(tmp_path / "manifest.json")
    replay = run_benchmark(specs, models, timing=timing)
    replay.write_runs_csv(tmp_path / "runs_b.csv")
    assert (tmp_path / "runs_a.csv").read_bytes() == (tmp_path / "runs_b.csv").read_bytes()
    for a, b in zip(first.rows, replay.rows):
        assert a["auc"] == b["auc"]
        assert a["pos_frac"] == b["pos_frac"]
        assert a["neg_frac"] == b["neg_frac"]
        assert a["iterations"] == b["iterations"]


def test_load_manifest_rejects_unknown_schema(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"schema_version": 99}')
    with pytest.raises(ValueError):
        load_manifest(p)


def test_value_file_round_trips(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, 257)
    t = tmp_path / "v.txt"
    f = tmp_path / "v.f64le"
    write_values_txt(t, x)
    write_values_f64le(f, x)
    assert np.array_equal(read_values_txt(t), x)
    assert np.array_equal(read_values_f64le(f), x)


def test_txt_reader_comments_and_errors(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("# header\n1.5\n\n-2.25e-1\n")
    assert np.array_equal(read_values_txt(p), [1.5, -0.225])
    p.write_text("1.0\noops\n")
    with pytest.raises(ValueError, match="oops"):
        read_values_txt(p)


def test_f64le_truncation_detected(tmp_path):
    p = tmp_path / "v.f64le"
    write_values_f64le(p, np.arange(4.0))
    raw = p.read_bytes()
    p.write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        read_values_f64le(p)
