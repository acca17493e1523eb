"""The fit-equivalence tool (tools/fit_equivalence.py), the line tracer
(tools/line_trace.py) and the A/B tool's record keeping and verdict rule
(tools/ab.py) run on this tree, the package metadata (pyproject.toml)
names what the tree needs, only the E-step module reads its data cache, only
the fit loop reads the pass budget, only the io module opens a file, only the
distributions module names the activation families and their prior, the
model names are written once, and the digamma family runs one upward
recurrence."""

import ast
import hashlib
import importlib.util
import json
import pathlib
import re
import sys

import numpy as np
import pytest

from gigmix.estep import _DataCache
from gigmix.experiments import SyntheticSpec, generate

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fit_equivalence = _load_tool("fit_equivalence")
line_trace = _load_tool("line_trace")
ab = _load_tool("ab")
BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_map_set_has_34_maps_and_35_with_the_large_one():
    small = list(fit_equivalence.maps(False))
    labels = [label for label, _, _, _ in small]
    assert len(labels) == len(set(labels)) == 34
    # The generated maps carry their truth; the six hostile inputs do not.
    assert [label for label, _, truth, _ in small if truth is None] == labels[-6:]
    assert all(label.startswith("hostile/") for label in labels[-6:])
    assert all(truth.shape == x.shape for _, x, truth, _ in small[:-6])
    large = [label for label, x, _, _ in fit_equivalence.maps(True) if x.size == 300_000]
    assert large == ["criterion10/n300000"]


@pytest.mark.parametrize("model", fit_equivalence.MODELS)
def test_fit_lines_are_deterministic_and_complete(model):
    rng = np.random.default_rng(3)
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], 600, p=[0.1, 0.8, 0.1]), 1.0)
    truth = np.where(np.abs(x) > 2.0, 2, 1)
    nfe = ["nfe"] if model.startswith("b") else []
    expected = ["passes", "stop", "converged", "degenerate", "gamma", "trace", "final", "json", "csv"]
    for labels, auc in ((None, []), (truth, ["auc"])):
        line = fit_equivalence.describe_fit(model, x, 1, truth=labels)
        assert line == fit_equivalence.describe_fit(model, x, 1, truth=labels)
        keys = [field.split("=")[0] for field in line.split()[1:]]
        assert keys == expected + auc + nfe


@pytest.mark.parametrize("model", fit_equivalence.MODELS)
def test_fit_lines_of_a_map_with_zeros_end_with_the_masking_check(model):
    # A fit masks exact zeros, so its rows at the nonzero values are those of
    # the fit of the nonzero values alone; a map without zeros has no field.
    rng = np.random.default_rng(3)
    x = rng.normal(rng.choice([-3.0, 0.0, 3.0], 600, p=[0.1, 0.8, 0.1]), 1.0)
    x[::5] = 0.0
    line = fit_equivalence.describe_fit(model, x, 1)
    assert line.split()[-1] == "nonzero_same=True"
    nonzero = x[x != 0.0]
    assert "nonzero_same" not in fit_equivalence.describe_fit(model, nonzero, 1)
    gamma = fit_equivalence.fit(model, nonzero, 1).responsibilities
    assert fit_equivalence._nonzero_same(model, nonzero, 1, gamma)
    assert not fit_equivalence._nonzero_same(model, nonzero, 1, gamma[::-1])
    assert not fit_equivalence._nonzero_same(model, np.array([1.0, np.nan]), 1, gamma[:2])


def test_map_lines_fingerprint_the_written_text_files(tmp_path):
    ds = generate(SyntheticSpec(dataset=1, snr=3.0, sparsity=1, n=300, seed=5), 0)
    line = fit_equivalence.describe_map(ds.values, ds.truth)
    assert line == fit_equivalence.describe_map(ds.values, ds.truth)
    keys = [field.split("=")[0] for field in line.split()]
    assert keys == ["map", "txt", "labeled_csv"]
    # A map without truth (a hostile input) has no labeled CSV.
    assert fit_equivalence.describe_map(ds.values) == line.split(" labeled_csv=")[0]
    # The hashes are of the bytes written: one changed value changes both.
    x = ds.values.copy()
    x[0] = np.nextafter(x[0], np.inf)
    changed = fit_equivalence.describe_map(x, ds.truth).split()
    assert all(a != b for a, b in zip(changed[1:], line.split()[1:]))


def test_benchmark_lines_fingerprint_the_written_tables(tmp_path, monkeypatch):
    manifests, run = [], fit_equivalence.run_benchmark
    monkeypatch.setattr(fit_equivalence, "run_benchmark", lambda *a: manifests.append(run(*a)) or manifests[-1])
    lines = fit_equivalence.describe_benchmark(["bggm", "ggm"])
    (manifest,) = manifests
    assert manifest.timing == "off"
    manifest.write_runs_csv(tmp_path / "runs.csv")
    manifest.write_wins_csv(tmp_path / "wins.csv")
    assert lines[-2:] == [
        f"{name}_csv={hashlib.sha1((tmp_path / f'{name}.csv').read_bytes()).hexdigest()}"
        for name in ("runs", "wins")
    ]
    assert len((tmp_path / "runs.csv").read_text().splitlines()) == 1 + len(manifest.rows) == 19
    assert len((tmp_path / "wins.csv").read_text().splitlines()) == 3
    # One changed AUC changes the runs table's line.
    manifest.rows[0]["auc"] = np.nextafter(manifest.rows[0]["auc"], 2.0)
    assert fit_equivalence._written_sha1(manifest.write_runs_csv) != lines[-2].split("=")[1]


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
    monkeypatch.setattr(fit_equivalence, "describe_benchmark", lambda models: ["row"])
    assert fit_equivalence.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"OPENBLAS_NUM_THREADS={threads or 'unset'}", "row"]


def test_models_restrict_the_fits_and_the_benchmark(monkeypatch, capsys):
    # Only the listed models are fitted, in the tool's order, and the small
    # benchmark runs over them alone.
    x = np.array([-2.5, -0.3, 0.0, 0.4, 1.1, 3.2])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(fit_equivalence, "maps", lambda large: iter([("m", x, None, 0)]))
    benched, describe_benchmark = [], fit_equivalence.describe_benchmark
    monkeypatch.setattr(fit_equivalence, "describe_benchmark", lambda models: benched.append(models) or [])
    assert fit_equivalence.main(["--models", "bgim,bggm"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[2:]] == ["bggm", "bgim"]
    assert lines[1] == f"m {fit_equivalence.describe_map(x)}"
    assert lines[2] == f"m {fit_equivalence.describe_fit('bggm', x, 0)}"
    assert benched == [["bggm", "bgim"]]
    rows = describe_benchmark(["bggm", "bgim"])
    assert {row.split()[1] for row in rows if row.startswith("scenario_id=")} == {"model='bggm'", "model='bgim'"}
    assert {row.split()[-2] for row in rows if row.startswith("win_pct")} == {"bggm", "bgim"}
    with pytest.raises(SystemExit):
        fit_equivalence.main(["--models", "bggm,xyz"])


def test_compare_reports_numeric_drift_stop_mismatches_and_missing_fits(tmp_path):
    ds = generate(SyntheticSpec(dataset=1, snr=3.0, sparsity=1, n=300, seed=5), 0)
    dumps = {name: tmp_path / name for name in ("a", "same", "perturbed")}
    for path in dumps.values():
        path.mkdir()
        for model in ("bggm", "ggm"):
            fit_equivalence.describe_fit(model, ds.values, 0, str(path / f"m.{model}.npz"), "m", ds.truth)
        # An input without truth is dumped without an AUC.
        fit_equivalence.describe_fit("gim", ds.values, 0, str(path / "h.gim.npz"), "h")
    with np.load(dumps["perturbed"] / "m.ggm.npz") as f:
        saved = dict(f)
    assert set(saved) >= {"pi", "auc"}
    saved["gamma"] = saved["gamma"] + 1e-9
    saved["objective"] = saved["objective"] * (1.0 + 1e-10)
    saved["pi"] = saved["pi"] + [0.0, 0.25, -0.125]
    saved["auc"] = saved["auc"] + 0.5
    saved["passes"] = 2 * saved["passes"]
    np.savez(dumps["perturbed"] / "m.ggm.npz", **saved)

    unchanged = "max|dgamma|=0 max_dobjective=0 |dpi2|+|dpi3|=0"
    lines, ok = fit_equivalence.compare(str(dumps["a"]), str(dumps["same"]))
    assert ok
    assert lines == [
        f"h gim {unchanged} pass_ratio=1",
        f"m bggm {unchanged} dauc=0 pass_ratio=1",
        f"m ggm {unchanged} dauc=0 pass_ratio=1",
        "summary: 3 fits, 0 mismatched, 0 missing; max|dgamma|=0 max_dobjective=0",
        "median bggm over 1 fits: |dpi2|+|dpi3|=0 dauc=0 (1 with truth) pass_ratio=1",
        "median ggm over 1 fits: |dpi2|+|dpi3|=0 dauc=0 (1 with truth) pass_ratio=1",
        "median gim over 1 fits: |dpi2|+|dpi3|=0 pass_ratio=1",
    ]
    assert fit_equivalence.main(["--compare", str(dumps["a"]), str(dumps["same"])]) == 0

    lines, ok = fit_equivalence.compare(str(dumps["a"]), str(dumps["perturbed"]))
    assert not ok
    passes = int(saved["passes"]) // 2
    assert lines[1] == f"m bggm {unchanged} dauc=0 pass_ratio=1"
    fields = lines[2].split(" ", 4)
    assert fields[:3] == ["m", "ggm", "max|dgamma|=1e-09"]
    # |dobjective| / (1 + |objective|): just under the relative 1e-10 applied.
    assert 0.9e-10 < float(fields[3].split("=")[1]) <= 1e-10
    assert fields[4] == f"|dpi2|+|dpi3|=0.375 dauc=0.5 pass_ratio=2 MISMATCH passes {passes} != {2 * passes}"
    assert lines[3].startswith("summary: 3 fits, 1 mismatched, 0 missing; max|dgamma|=1e-09")
    assert lines[5] == "median ggm over 1 fits: |dpi2|+|dpi3|=0.375 dauc=0.5 (1 with truth) pass_ratio=2"
    assert fit_equivalence.main(["--compare", str(dumps["a"]), str(dumps["perturbed"])]) == 1

    (dumps["same"] / "m.bggm.npz").unlink()
    lines, ok = fit_equivalence.compare(str(dumps["a"]), str(dumps["same"]))
    assert not ok
    assert lines[1] == f"m.bggm.npz missing from {dumps['same']}"
    assert lines[3].startswith("summary: 3 fits, 0 mismatched, 1 missing")


def test_bench_pairs_keep_their_values_and_a_record_keeps_its_topic(tmp_path):
    # Each pair's two values stay beside the quartiles, so a wide quartile
    # can be traced to its runs; a record made for another change keeps the
    # topic it was given.
    runs = [{"parent": {"metrics": {"fit_s.bgim": p}}, "change": {"metrics": {"fit_s.bgim": c}}}
            for p, c in ((0.05, 0.04), (0.06, 0.07), (0.05, 0.05))]
    row = ab._compare(runs, BENCHMARK)["fit_s.bgim"]
    assert row["parent_change_pairs"] == [[0.05, 0.04], [0.06, 0.07], [0.05, 0.05]]
    assert (row["change_better_pairs"], row["pairs"]) == (1, 3)
    out = tmp_path / "BENCH_other.json"
    out.write_text('{"topic": "another change"}', encoding="utf-8")
    assert ab.main(["--parent", str(tmp_path), "--parts", "", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == {"topic": "another change"}
    fresh = tmp_path / "BENCH_new.json"
    ab.main(["--parent", str(tmp_path), "--parts", "", "--out", str(fresh)])
    assert json.loads(fresh.read_text(encoding="utf-8")) == {}


def test_the_ab_tool_needs_an_out_file_and_states_no_fact_of_the_benchmark(tmp_path):
    # Without --out a run would rewrite some committed record in place; the
    # workloads and metrics are BENCHMARK.json's alone.
    with pytest.raises(SystemExit):
        ab.main(["--parent", str(tmp_path), "--parts", ""])
    text = (_ROOT / "tools" / "ab.py").read_text(encoding="utf-8")
    names = [w["name"] for w in BENCHMARK["workloads"]] + [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [name for name in names if name in text] == []


def test_the_ab_tool_needs_a_parent_checkout_unless_it_runs_a_worker(tmp_path, capsys):
    out = tmp_path / "BENCH_new.json"
    with pytest.raises(SystemExit) as exc:
        ab.main(["--parts", "", "--out", str(out)])
    assert exc.value.code == 2
    assert "--parent" in capsys.readouterr().err
    assert not out.exists()


_TIGHT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
_WIDE = [0.60, 0.62, 0.64, 0.66, 0.68, 1.20, 1.30, 1.40, 1.50, 1.60]
_NO_FAILURES = {"parent": 0.0, "change": 0.0}


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        (_TIGHT, [v - 0.2 for v in _TIGHT], "gain"),
        (_TIGHT, [v * 1.5 for v in _TIGHT], "regression"),
        (_WIDE, _WIDE[::-1], "unresolved"),
        (_TIGHT, _TIGHT[::-1], "within bound"),
        # Every change run is better than every parent run, and the median
        # gap is inside the parent's wide quartile distance: not a gain, and
        # not unresolved either.
        (_WIDE, [0.55 + 0.004 * i for i in range(10)], "within bound"),
        # One change run above the parent's lowest: the spread decides.
        (_WIDE, [0.55 + 0.004 * i for i in range(9)] + [0.61], "unresolved"),
        # Ties count for neither side: 8 better pairs of 10 are no gain.
        (_TIGHT, [v - 0.2 for v in _TIGHT[:8]] + _TIGHT[8:], "within bound"),
        # Runs that gave no value: fewer than two on a side cannot be judged.
        ([1.0, None, None], [0.5, 0.5, 0.5], "unresolved"),
    ],
)
def test_each_verdict_of_the_ab_rule(parent, change, expected):
    row = ab._verdict(list(zip(parent, change)), "lower", 0.25, _NO_FAILURES)
    assert row["verdict"] == expected


def test_a_higher_failed_share_voids_a_gain():
    pairs = list(zip(_TIGHT, [v - 0.2 for v in _TIGHT]))
    assert ab._verdict(pairs, "lower", 0.25, _NO_FAILURES)["verdict"] == "gain"
    more_failed = {"parent": 0.0, "change": 0.01}
    assert ab._verdict(pairs, "lower", 0.25, more_failed)["verdict"] == "within bound"


def test_a_metric_where_higher_is_better_is_judged_that_way():
    runs = [{"parent": {"metrics": {"auc_mean": p}, "attempted": 10, "failed": 0},
             "change": {"metrics": {"auc_mean": p + 0.1}, "attempted": 10, "failed": 0}} for p in _TIGHT]
    for better, expected in (("higher", "gain"), ("lower", "regression")):
        benchmark = {"end_to_end": [{"name": "auc_mean", "better": better, "bound": 0.05}]}
        assert ab._compare(runs, benchmark)["auc_mean"]["verdict"] == expected


def test_perfbench_pairs_run_the_benchmark_command_and_keep_a_failed_run(tmp_path, monkeypatch):
    # The command and run length are BENCHMARK.json's; a run that exits
    # non-zero is kept with its exit code, and the pairs around it are not
    # lost.
    benchmark = {"command": ["python3", "perfbench/run.py"], "run_seconds": 7,
                 "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    calls = []

    def fake_run(command, cwd):
        calls.append((cwd.name, command))
        if len(calls) == 2:
            return 3, None, ["Traceback", "MemoryError"]
        result = {"correct": True, "attempted": 4, "failed": int(cwd.name == "change"),
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        return 0, result, []

    monkeypatch.setattr(ab, "_run", fake_run)
    record = ab._perfbench(trees, benchmark, "w", 3, 11)
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert calls[0][1] == ["python3", "perfbench/run.py", "--workload", "w", "--seed", "11",
                           "--seconds", "7", "--trace", "0"]
    assert record["runs"][0]["change"] == {"exit_code": 3, "errors": ["Traceback", "MemoryError"]}
    assert record["runs"][1]["change"]["attempted"] == 4
    assert record["failed_share"] == {"parent": 0.0, "change": 0.25}
    assert record["metrics"]["wall_s"]["parent_change_pairs"] == [[1.0, None], [1.0, 1.0], [1.0, 1.0]]
    assert record["metrics"]["wall_s"]["verdict"] == "within bound"


def test_numpy_floor_has_vecdot():
    # The E-step sums a short side's rows with one np.vecdot call
    # (estep._side_pass), which numpy has had only since 2.0: under numpy
    # 1.x every fit with a side of at most 8192 points raised AttributeError.
    text = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=([0-9.]+)"', text)
    assert floor is not None, "pyproject.toml names no numpy floor"
    assert tuple(map(int, floor.group(1).split("."))) >= (2, 0)
    assert hasattr(np, "vecdot")


def test_only_the_estep_module_reads_the_data_cache():
    # The data cache's rules (its rows, the coefficients of the pass whose
    # responsibilities it holds, its side arrays) are stated in estep alone:
    # the learners and the fit loop hand their cache to estep's functions
    # and read none of its attributes.
    reads = []
    for name in ("fitloop.py", "ml_em.py", "vb_em.py", "initialization.py"):
        path = _ROOT / "src" / "gigmix" / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cache"
                and node.attr in _DataCache.__slots__
            ):
                reads.append(f"{name}:{node.lineno}: cache.{node.attr}")
    assert reads == []


def test_only_the_fit_loop_reads_the_pass_budget_and_the_tolerance():
    # The stop rule is stated in fitloop alone: the kernel counts the passes,
    # fitloop.fit spends them and hands each cycle the passes left, and no
    # learner reads the cap or the tolerance from its configuration.
    reads = []
    for path in sorted((_ROOT / "src" / "gigmix").glob("*.py")):
        if path.name == "fitloop.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in ("max_iterations", "rel_tolerance")
            ):
                reads.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert reads == []


def test_only_the_io_module_opens_a_file():
    # The file formats (the text readers' encoding, the CSV and JSON rules)
    # are stated in io alone: every other module hands io a path and rows.
    opens = []
    for path in sorted((_ROOT / "src" / "gigmix").glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ("open", "read_text", "write_text", "read_bytes", "write_bytes"):
                    opens.append(f"{path.name}:{node.lineno}: {name}()")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
                if any(m.split(".")[0] == "json" for m in modules):
                    opens.append(f"{path.name}:{node.lineno}: import json")
    assert opens == []


def test_only_the_distributions_module_names_the_activation_families():
    # Each learner's two families are stated once, in distributions.FAMILIES:
    # no other module imports the four family constants or builds a family.
    constants = {"GAMMA_POS", "GAMMA_NEG", "INVGAMMA_POS", "INVGAMMA_NEG"}
    named = []
    for path in sorted((_ROOT / "src" / "gigmix").glob("*.py")):
        if path.name in ("distributions.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                named += [f"{path.name}:{node.lineno}: import {a.name}" for a in node.names if a.name in constants]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "ComponentFamily":
                    named.append(f"{path.name}:{node.lineno}: ComponentFamily()")
    assert named == []


def _src_trees():
    for path in sorted((_ROOT / "src" / "gigmix").glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_each_model_name_is_written_once():
    # experiments' model table is the one list of models; MODEL_NAMES and fit
    # read it.
    names = {"bggm", "bgim", "ggm", "gim"}
    written = [
        f"{path.name}:{node.lineno}: {node.value}"
        for path, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert sorted(w.split(": ")[1] for w in written) == sorted(names), written
    assert all(w.startswith("experiments.py:") for w in written), written


def test_only_the_distributions_module_states_the_activation_prior():
    # ComponentFamily.prior is the one statement of the prior's moments:
    # no other module calls ``moments`` with a number.
    stated = [
        f"{path.name}:{node.lineno}"
        for path, tree in _src_trees()
        if path.name != "distributions.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "moments"
        and any(isinstance(a, ast.Constant) for a in node.args)
    ]
    assert stated == []


def test_the_digamma_family_runs_one_upward_recurrence():
    # digamma, trigamma, tetragamma and each Newton step of inv_digamma take
    # their sums from one loop that shifts the argument up to _SHIFT.
    path = _ROOT / "src" / "gigmix" / "special.py"
    loops = [
        f"special.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.While) and "_SHIFT" in ast.unparse(node.test)
    ]
    assert len(loops) == 1, loops


_TOY = """import threading


def taken(x):
    if x > 0:
        return 1
    return -1


def in_a_thread():
    out = []
    worker = threading.Thread(target=lambda: out.append(2))
    worker.start()
    worker.join(10)
    return out[0]


class Toy:
    def never(self):
        return 3
"""


def test_line_trace_prints_the_lines_a_run_did_not_execute(tmp_path, monkeypatch, capsys):
    # The toy's test takes one branch, and runs a thread, but never calls
    # Toy.never: the other branch and never's body are all that is missed.
    package = tmp_path / "line_trace_toy"
    package.mkdir()
    (package / "__init__.py").write_text(_TOY, encoding="utf-8")
    (tmp_path / "test_toy.py").write_text(
        "from line_trace_toy import in_a_thread, taken\n\n\n"
        "def test_toy():\n    assert taken(1) == 1 and in_a_thread() == 2\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "line_trace_toy", raising=False)
    code = line_trace.main(["--package", "line_trace_toy", "--", "-q", "-p", "no:cacheprovider", "test_toy.py"])
    sys.modules.pop("line_trace_toy", None)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[-3:] == [
        "line_trace_toy/__init__.py:7: return -1",
        "line_trace_toy/__init__.py:20: return 3",
        "12 of 14 executable lines ran; 2 did not",
    ]
