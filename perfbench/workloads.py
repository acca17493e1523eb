"""The benchmark's two workloads.

Each workload makes its inputs in ``setup()``, runs whole rounds of the same
program calls in ``run_round()``, and checks the outputs in ``check()``.
Every program call is made in this process, one at a time (a closed loop with
one caller), and timed on its own. A round's wall time is the sum of its
timed calls, so the benchmark's own glue (parsing outputs, writing score
files) is not counted.

Inputs and seeds. Fit times at these sizes swing with the data: on one grid
scenario at n = 1e4, ggm needs 13 to 510 iterations depending on the draw,
and at n = 3e5 its iteration count ranges 31 to 58 across data seeds. No run
of affordable length averages that out, so each workload fits fixed maps, and
``--seed`` sets what does not move the amount of work: the fit seed (k-means++
seeding) of every fit the benchmark starts, and on grid-small the order of
``--models``. The fixed maps come from the program's documented generator
with the data seeds named below.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import struct
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import gigmix
from gigmix import cli, evaluation, experiments, initialization, ml_em

import checks

MODELS = ("bggm", "bgim", "ggm", "gim")
WARMUP_N = 10_000
VB_MODELS = ("bggm", "bgim")
KINDS = {
    "bggm": ("gamma", "gamma"),
    "bgim": ("invgamma", "invgamma"),
    "ggm": ("gamma", "gamma"),
    "gim": ("invgamma", "invgamma"),
}
# The generating mixtures of the scenarios used here, restated from the
# paper's synthetic design so the oracle does not read them from the program:
# (dataset, sparsity) -> proportions of (noise, positive, negative). Component
# means are (0, +SNR, -SNR), all with unit variance.
TRUE_PI = {
    (1, 1): (0.8, 0.1, 0.1),
    (1, 3): (0.99, 0.005, 0.005),
    (2, 2): (0.95, 0.05, 0.0),
}
_VB_STATE_KEYS = (
    "lambda_hat", "m_hat", "tau_hat", "c_hat", "b_hat",
    "d_hat", "e_hat", "log_a_hat", "b_hat_s", "c_hat_s",
)
_VB_EXPECTATION_KEYS = ("pi", "log_pi", "mu", "mu2", "tau", "log_tau", "r", "log_r", "s", "log_gamma_s")


def fit_library(model: str, x: np.ndarray, seed: int):
    """One fit through the public library API, k-means initialization included."""
    if model == "bggm":
        return gigmix.fit_bggm(x, gigmix.VBFitConfig(seed=seed))
    if model == "bgim":
        return gigmix.fit_bgim(x, gigmix.VBFitConfig(seed=seed))
    if model == "ggm":
        families, fitter = (gigmix.GAMMA_POS, gigmix.GAMMA_NEG), ml_em.fit_ggm
    else:
        families, fitter = (gigmix.INVGAMMA_POS, gigmix.INVGAMMA_NEG), ml_em.fit_gim
    km = initialization.kmeans_1d(x, 3, seed)
    init, _ = initialization.init_mixture(x, km, families)
    return fitter(x, init, gigmix.MLFitConfig(seed=seed))


def write_inputs(outdir: str, values: np.ndarray, truth: np.ndarray, f64le_only: bool = False) -> dict:
    """The map as txt (with a comment and a blank line, which readers skip)
    and f64le, plus a -1/0/1 truth file; returns their paths. With
    ``f64le_only`` only the f64le file is written."""
    paths = {"f64le": os.path.join(outdir, "map.f64")}
    with open(paths["f64le"], "wb") as fh:
        fh.write(struct.pack("<Q", values.size))
        fh.write(np.asarray(values, dtype="<f8").tobytes())
    if f64le_only:
        return paths
    paths["txt"] = os.path.join(outdir, "map.txt")
    with open(paths["txt"], "w", encoding="utf-8") as fh:
        fh.write("# synthetic map\n\n")
        fh.write("".join(f"{float(v)!r}\n" for v in values))
    paths["truth"] = os.path.join(outdir, "truth.txt")
    sign = np.select([truth == 2, truth == 3], [1, -1], 0)
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{int(v)}\n" for v in sign))
    return paths


def read_gamma_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["gamma1", "gamma2", "gamma3"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return np.array([[float(v) for v in row] for row in rows[1:]])


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class CheckLog:
    """Aggregates one line per check: how many cases, how many failed, worst value."""

    def __init__(self):
        self.lines = {}

    def add(self, name: str, ok: bool, value: float | None = None, detail: str = "") -> None:
        n, bad, worst, first_bad = self.lines.get(name, (0, 0, None, ""))
        if value is not None:
            worst = value if worst is None else max(worst, value)
        if not ok and not first_bad:
            first_bad = detail
        self.lines[name] = (n + 1, bad + (not ok), worst, first_bad)

    @property
    def ok(self) -> bool:
        return all(bad == 0 for _, bad, _, _ in self.lines.values())

    def report(self) -> list:
        out = []
        for name, (n, bad, worst, first_bad) in self.lines.items():
            w = "" if worst is None else f", worst {worst:.3g}"
            status = "PASS" if bad == 0 else f"FAIL ({bad} of {n}: {first_bad})"
            out.append(f"check {name}: {status} [{n} case(s){w}]")
        return out


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.fit_seed = seed
        self.outdir = outdir
        self.samples = defaultdict(list)
        self.round_walls = []
        self.attempted = 0
        self.failed = 0
        self.auc_values = []
        self.log = CheckLog()
        self._wall = 0.0

    # -- timing ---------------------------------------------------------
    def _timed(self, fn, *args, wall=True):
        t0 = time.perf_counter()
        try:
            result, raised = fn(*args), False
        except Exception:  # a failing operation is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            result, raised = None, True
        dt = time.perf_counter() - t0
        if wall:
            self._wall += dt
        return result, dt, raised

    def lib_op(self, metric: str | None, fn, *args, wall=True):
        """One library call as an operation; returns its result or None."""
        self.attempted += 1
        result, dt, raised = self._timed(fn, *args, wall=wall)
        if raised:
            self.failed += 1
            return None
        if metric:
            self.samples[metric].append(dt)
        return result

    def cli_op(self, metric: str | None, argv: list) -> bool:
        """One in-process ``gigmix`` command as an operation; True on exit code 0."""
        self.attempted += 1
        rc, dt, raised = self._timed(cli.main, argv)
        if raised or rc != 0:
            self.failed += 1
            return False
        if metric:
            self.samples[metric].append(dt)
        return True

    def cli_fit(self, model, fmt, k, standardize=True, gamma_out=True, rep=0):
        """``gigmix fit`` on this workload's map; returns the output stem or None."""
        stem = os.path.join(self.outdir, f"r{k}-{model}-{fmt}" + (f"-{rep}" if rep else ""))
        argv = ["fit", "--model", model, "--input", self.inputs[fmt], "--format", fmt,
                "--seed", str(self.fit_seed), "--output", stem + ".json"]
        if standardize:
            argv.append("--standardize")
        if gamma_out:
            argv += ["--gamma-out", stem + ".gamma.csv"]
        return stem if self.cli_op(f"cli_s.{model}", argv) else None

    def warmup(self) -> None:
        """Untimed ``gigmix fit`` of each VB model and format, ``gigmix eval``
        and a library fit, on an n = 1e4 map, so that first-call costs fall
        before the timed rounds. Its calls count as operations."""
        outdir = os.path.join(self.outdir, "warmup")
        os.makedirs(outdir)
        spec = experiments.SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=WARMUP_N, repeats=1, seed=0)
        ds = experiments.generate(spec, 0, 0)
        paths = write_inputs(outdir, ds.values, ds.truth)
        for m in VB_MODELS:
            for fmt in ("txt", "f64le"):
                stem = os.path.join(outdir, f"{m}-{fmt}")
                self.cli_op(None, ["fit", "--model", m, "--input", paths[fmt], "--format", fmt,
                                   "--seed", str(self.fit_seed), "--output", stem + ".json",
                                   "--standardize", "--gamma-out", stem + ".gamma.csv"])
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli_op(None, ["eval", "--scores", paths["txt"], "--truth", paths["truth"]])
        self.lib_op(None, fit_library, "bggm", ds.values, self.fit_seed, wall=False)

    def rounds_for(self, seconds: float) -> int:
        """Whole rounds in a run of ``seconds``: a fixed count, so that every
        run of a given length makes the same calls whatever the machine's speed."""
        return max(1, int(seconds // self.ROUND_S))

    def round(self, k: int) -> None:
        self._wall = 0.0
        self.run_round(k)
        self.round_walls.append(self._wall)

    # -- metrics --------------------------------------------------------
    def metrics(self) -> dict:
        """Means, not medians: the machine's speed switches between two levels
        for seconds at a time, and a median of samples taken at a few points
        of the run jumps from one level to the other, where a mean moves with
        the share of the run spent at each."""
        out = {"wall_s": statistics.fmean(self.round_walls)}
        for prefix, models in (("fit_s", MODELS), ("cli_s", VB_MODELS)):
            for m in models:
                out[f"{prefix}.{m}"] = statistics.fmean(self.samples[f"{prefix}.{m}"])
        out["auc_mean"] = float(np.mean(self.auc_values))
        return out

    # -- shared checks --------------------------------------------------
    def check_vb(self, label, x, model, e: dict, gamma, nfe_trace):
        ref = checks.vb_responsibilities(x, KINDS[model], e)
        diff = float(np.max(np.abs(ref - gamma)))
        self.log.add("vb responsibilities = closed-form recomputation", diff <= checks.RESP_TOL, diff, label)
        self._check_simplex(label, x, gamma)
        ok, worst = checks.nfe_monotone(nfe_trace)
        self.log.add("vb NFE non-decreasing within criterion-5 slack", ok, None, f"{label}: margin {worst:.3g}")

    def check_ml(self, label, x, model, p, gamma):
        pos, neg = KINDS[model]
        ref = checks.ml_responsibilities(
            x, p.pi, p.comp1.mu, p.comp1.tau,
            (pos, p.comp2.shape, p.comp2.rate), (neg, p.comp3.shape, p.comp3.rate),
        )
        diff = float(np.max(np.abs(ref - gamma)))
        self.log.add("ml responsibilities = scipy.stats recomputation", diff <= checks.RESP_TOL, diff, label)
        self._check_simplex(label, x, gamma)

    def check_result(self, label, x, model, result):
        if model in VB_MODELS:
            e = {k: getattr(result.expectations, k) for k in _VB_EXPECTATION_KEYS}
            self.check_vb(label, x, model, e, result.responsibilities, result.nfe_trace)
        else:
            self.check_ml(label, x, model, result.params, result.responsibilities)

    def _check_simplex(self, label, x, gamma):
        ok, detail = checks.simplex_and_support(x, gamma)
        self.log.add("responsibility rows on simplex, zero off support", ok, None, f"{label}: {detail}")

    def check_auc(self, label, reported, scores, active):
        diff = abs(reported - checks.brute_force_restricted_auc(scores, active))
        self.log.add("restricted AUC = brute-force threshold enumeration", diff <= checks.AUC_TOL, diff, label)

    def check_oracle(self, label, model_aucs, oracle_aucs):
        mean_model, mean_oracle = float(np.mean(model_aucs)), float(np.mean(oracle_aucs))
        self.log.add(
            "mean AUC between chance and oracle + margin",
            checks.auc_within_bounds(mean_model, mean_oracle),
            None,
            f"{label}: model {mean_model:.4f}, oracle {mean_oracle:.4f}",
        )

    def check_cli_equals_library(self, label, stem, model, result, gamma_out=True):
        """The written JSON (and gamma CSV) hold exactly the library result."""
        with open(stem + ".json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        same = doc["iterations"] == result.iterations and doc["converged"] == result.converged
        same &= doc["nfe_trace"] == [float(v) for v in result.nfe_trace]
        for key in _VB_STATE_KEYS:
            same &= np.array_equal(doc["state"][key], getattr(result.state, key))
        for key in _VB_EXPECTATION_KEYS:
            same &= np.array_equal(doc["expectations"][key], getattr(result.expectations, key))
        if gamma_out:
            same &= np.array_equal(read_gamma_csv(stem + ".gamma.csv"), result.responsibilities)
        self.log.add("CLI output = library fit on the same input", bool(same), None, label)

    def check_same_as_first(self, label, same: bool):
        self.log.add("later rounds reproduce the first round", same, None, label)


class GridSmall(Workload):
    """In-process ``gigmix bench --timing wall``: all four models at n = 1e4
    on three scenarios, one bench call per scenario, each after a pass of
    ``gigmix fit`` calls of the VB models on the first scenario's first map
    from txt and f64le, and ``gigmix eval`` of their scores."""

    name = "grid-small"
    # (dataset, SNR, sparsity); scenario i is benched with ``--seed i``.
    GRID = ((1, 2.0, 1), (1, 5.0, 3), (2, 3.0, 2))
    N = 10_000
    REPEATS = 3
    FORMATS = ("txt", "f64le")
    # One round: per scenario, a pass of ``gigmix fit`` and ``gigmix eval``
    # calls, then its bench call (12 fits); about 12 s here. The machine's speed switches between
    # two levels for seconds at a time, so the calls of each kind are spread
    # over the whole run rather than bunched in one part of it.
    ROUND_S = 12.0

    def cli_pass(self, k, rep) -> tuple:
        """``gigmix fit --standardize --gamma-out`` of each VB model from each
        format, then ``gigmix eval`` of gamma2 + gamma3 from each txt gamma CSV."""
        stems = {(m, f): self.cli_fit(m, f, k, rep=rep) for m in VB_MODELS for f in self.FORMATS}
        evals = {}
        for m in VB_MODELS:
            stem = stems[(m, "txt")]
            if stem is None:
                continue
            g = read_gamma_csv(stem + ".gamma.csv")
            scores_path = stem + ".scores.txt"
            with open(scores_path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{float(v)!r}\n" for v in g[:, 1] + g[:, 2]))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                ok = self.cli_op(None, ["eval", "--scores", scores_path, "--truth", self.inputs["truth"]])
            if ok:
                evals[m] = (float(buf.getvalue().strip()), g[:, 1] + g[:, 2])
        return stems, evals

    @staticmethod
    def scenario_id(d, snr, sp) -> str:
        return f"d{d}-snr{snr:g}-sp{sp}"

    def setup(self):
        d, snr, sp = self.GRID[0]
        spec = experiments.SyntheticSpec(dataset=d, snr=snr, sparsity=sp, n=self.N, repeats=1, seed=0)
        ds = experiments.generate(spec, 0, 0)
        self.x, self.truth = ds.values, ds.truth
        self.inputs = write_inputs(self.outdir, ds.values, ds.truth)
        self.models = [str(m) for m in np.random.default_rng(self.seed).permutation(MODELS)]

    def _capture(self):
        """Keep each fit's input and result object, as gigmix.experiments calls the fitters."""
        captured = []
        saved = []
        for name in ("fit_bggm", "fit_bgim", "fit_ggm", "fit_gim"):
            original = getattr(experiments, name, None)
            if original is None:
                continue

            def keep(data, *args, _f=original, _m=name[4:]):
                result = _f(data, *args)
                captured.append((_m, data, result))
                return result

            saved.append((name, original))
            setattr(experiments, name, keep)
        return captured, saved

    def bench(self, outdir, i, capture):
        """One bench call on scenario ``i``; returns its runs.csv rows and captured fits."""
        d, snr, sp = self.GRID[i]
        argv = ["bench", "--grid", f"{d}:{snr:g}:{sp}", "--models", ",".join(self.models),
                "--repeats", str(self.REPEATS), "--n", str(self.N), "--seed", str(i),
                "--outdir", outdir, "--timing", "wall"]
        captured, saved = self._capture() if capture else ([], [])
        try:
            rc, _, raised = self._timed(cli.main, argv)
        finally:
            for name, original in saved:
                setattr(experiments, name, original)
        fits = self.REPEATS * len(self.models)
        self.attempted += fits
        if raised or rc != 0:
            self.failed += fits
            return [], captured
        with open(os.path.join(outdir, "manifest.json"), "r", encoding="utf-8") as fh:
            self.failed += len(json.load(fh)["failures"])
        with open(os.path.join(outdir, "runs.csv"), "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            self.samples[f"fit_s.{row['model']}"].append(float(row["seconds"]))
        return rows, captured

    def run_round(self, k):
        for i in range(len(self.GRID)):
            stems, evals = self.cli_pass(k, rep=i)
            if (k, i) == (0, 0):
                self.stems, self.evals = stems, evals
            else:
                same = all(
                    stems[key] and self.stems[key]
                    and read_bytes(stems[key] + ".json") == read_bytes(self.stems[key] + ".json")
                    and read_bytes(stems[key] + ".gamma.csv") == read_bytes(self.stems[key] + ".gamma.csv")
                    for key in stems
                )
                same &= {m: v for m, (v, _) in evals.items()} == {m: v for m, (v, _) in self.evals.items()}
                self.check_same_as_first(f"gigmix fit and eval, round {k} pass {i}", same)
            outdir = os.path.join(self.outdir, f"bench{k}-{i}")
            rows, captured = self.bench(outdir, i, capture=k == 0)
            if k == 0:
                if i == 0:
                    self.rows, self.captured, self.bench_dirs = [], [], []
                self.rows += rows
                self.captured += captured
                self.bench_dirs.append(outdir)
                self.auc_values += [float(r["auc"]) for r in rows]
            else:
                strip = [{c: v for c, v in r.items() if c != "seconds"} for r in rows]
                sid = self.scenario_id(*self.GRID[i])
                first = [{c: v for c, v in r.items() if c != "seconds"} for r in self.rows
                         if r["scenario_id"] == sid]
                same = strip == first and read_bytes(os.path.join(outdir, "wins.csv")) == read_bytes(
                    os.path.join(self.bench_dirs[i], "wins.csv"))
                self.check_same_as_first(f"bench round {k} {sid}", same)

    def check(self):
        # Align the captured fits with runs.csv rows; regenerate each map's truth.
        self.log.add("every bench fit captured for checking", len(self.captured) == len(self.rows), None,
                     f"{len(self.captured)} captured, {len(self.rows)} rows")
        ids = [self.scenario_id(*sc) for sc in self.GRID]
        aucs = defaultdict(list)
        oracle = defaultdict(list)
        auc_runs = defaultdict(lambda: defaultdict(dict))
        maps = {}
        for row, (model, data, result) in zip(self.rows, self.captured):
            sc_index = ids.index(row["scenario_id"])
            d, snr, sp = self.GRID[sc_index]
            rep = int(row["repeat"])
            key = (sc_index, rep)
            if key not in maps:
                spec = experiments.SyntheticSpec(dataset=d, snr=snr, sparsity=sp, n=self.N,
                                                 repeats=self.REPEATS, seed=sc_index)
                ds = experiments.generate(spec, rep, 0)
                active = ds.truth != 1
                o = checks.brute_force_restricted_auc(checks.oracle_scores(ds.values, TRUE_PI[(d, sp)], snr), active)
                maps[key] = (ds.values, active)
                oracle[row["scenario_id"]].append(o)
            x, active = maps[key]
            label = f"{row['scenario_id']} {model} repeat {rep}"
            self.log.add("captured fit matches its runs.csv row", model == row["model"] and np.array_equal(data, x),
                         None, label)
            g = result.responsibilities
            scores = g[:, 1] + g[:, 2]
            self.check_auc(label, float(row["auc"]), scores, active)
            self.check_result(label, x, model, result)
            aucs[(row["scenario_id"], model)].append(float(row["auc"]))
            auc_runs[row["scenario_id"]][model][rep] = float(row["auc"])
        for (sc, model), values in sorted(aucs.items()):
            self.check_oracle(f"{sc} {model}", values, oracle[sc])
        # Each wins.csv against scipy's paired t-test on the same AUCs.
        for sid, bench_dir in zip(ids, self.bench_dirs):
            with open(os.path.join(bench_dir, "wins.csv"), "r", encoding="utf-8") as fh:
                wins = list(csv.DictReader(fh))
            expected = checks.win_counts({sid: auc_runs[sid]}) if sid in auc_runs else {}
            for w in wins:
                won, total = expected.get((w["model_a"], w["model_b"]), (-1, -1))
                ok = (int(w["scenarios_won"]), int(w["scenarios_total"])) == (won, total)
                ok &= abs(float(w["win_pct"]) - 100.0 * won / max(total, 1)) <= 1e-9
                self.log.add("wins.csv = scipy.stats.ttest_rel recomputation", ok, None,
                             f"{sid}: {w['model_a']} vs {w['model_b']}")
            self.log.add("wins.csv lists every ordered model pair", len(wins) == len(expected), None,
                         f"{sid}: {len(wins)} rows")
        check_cli_file_outputs(self, evaluation.standardize(self.x), self.FORMATS)
        d, snr, sp = self.GRID[0]
        active = self.truth != 1
        oracle = checks.brute_force_restricted_auc(checks.oracle_scores(self.x, TRUE_PI[(d, sp)], snr), active)
        for m, (value, scores) in self.evals.items():
            self.check_auc(f"gigmix eval {m}", value, scores, active)
            self.check_oracle(f"gigmix eval {m}", [value], [oracle])


def check_cli_file_outputs(wl: Workload, z: np.ndarray, formats):
    """The outputs of ``gigmix fit --standardize --gamma-out`` on ``x``, where
    ``z = standardize(x)``, against each other and a library fit of ``z``."""
    for m in VB_MODELS:
        stems = [wl.stems.get((m, f)) for f in formats]
        if None in stems:
            continue
        first = stems[0]
        for other in stems[1:]:
            same = read_bytes(first + ".json") == read_bytes(other + ".json")
            same &= read_bytes(first + ".gamma.csv") == read_bytes(other + ".gamma.csv")
            wl.log.add("txt and f64le inputs give byte-identical outputs", same, None, m)
        with open(first + ".json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        gamma = read_gamma_csv(first + ".gamma.csv")
        wl.check_vb(f"cli {m}", z, m, doc["expectations"], gamma, doc["nfe_trace"])
        wl.check_cli_equals_library(f"cli {m}", first, m, fit_library(m, z, wl.fit_seed))


class FitLarge(Workload):
    """One fit of each model on the criterion-10 map (d1, SNR 2, sparsity 1,
    data seed 10) at n = 3e5, plus ``gigmix fit`` of the VB models on the same
    map read from f64le."""

    name = "fit-large"
    N = 300_000
    DATA_SEED = 10
    SCENARIO = (1, 2.0, 1)
    # One round, about 46 s here: library fits ("lib") and ``gigmix fit``
    # calls ("cli") in this order. bggm is the shortest fit and the one most
    # slowed when the machine's memory is busy, so it is fitted and called
    # between each pair of longer fits, to spread its samples over the round.
    SEQUENCE = (
        ("lib", "bggm"), ("cli", "bggm"), ("lib", "bgim"), ("lib", "bggm"), ("cli", "bggm"),
        ("lib", "ggm"), ("lib", "bggm"), ("cli", "bgim"), ("lib", "bggm"), ("lib", "gim"),
        ("cli", "bggm"), ("lib", "bggm"),
    )
    ROUND_S = 46.0

    def setup(self):
        d, snr, sp = self.SCENARIO
        spec = experiments.SyntheticSpec(dataset=d, snr=snr, sparsity=sp, n=self.N, repeats=1,
                                         seed=self.DATA_SEED)
        ds = experiments.generate(spec, 0, 0)
        self.x, self.active = ds.values, ds.truth != 1
        self.inputs = write_inputs(self.outdir, ds.values, ds.truth, f64le_only=True)

    def run_round(self, k):
        results, stems = {}, {}
        for i, (kind, m) in enumerate(self.SEQUENCE):
            if kind == "cli":
                stem = self.cli_fit(m, "f64le", k, standardize=False, gamma_out=False, rep=i)
                stems.setdefault(m, stem)
                continue
            r = self.lib_op(f"fit_s.{m}", fit_library, m, self.x, self.fit_seed)
            if r is None or m in results:
                continue
            # The restricted AUC of each model's first fit, timed with the round.
            g = r.responsibilities
            auc, _, raised = self._timed(evaluation.restricted_auc, g[:, 1] + g[:, 2], self.active)
            if not raised:
                results[m] = (r, auc)
        if k == 0:
            self.results, self.stems = results, stems
            self.auc_values = [auc for _, auc in results.values()]
        else:
            same = all(np.array_equal(r.responsibilities, self.results[m][0].responsibilities)
                       for m, (r, _) in results.items())
            self.check_same_as_first(f"round {k}", same)

    def check(self):
        d, snr, sp = self.SCENARIO
        oracle = checks.brute_force_restricted_auc(checks.oracle_scores(self.x, TRUE_PI[(d, sp)], snr), self.active)
        for m, (r, auc) in self.results.items():
            g = r.responsibilities
            self.check_auc(m, auc, g[:, 1] + g[:, 2], self.active)
            self.check_result(m, self.x, m, r)
            self.check_oracle(m, [auc], [oracle])
        for m, stem in self.stems.items():
            if stem and m in self.results:
                self.check_cli_equals_library(f"cli {m}", stem, m, self.results[m][0], gamma_out=False)


WORKLOADS = {w.name: w for w in (GridSmall, FitLarge)}
