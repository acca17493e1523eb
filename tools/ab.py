"""A/B measurements of a change against its parent commit, in alternating pairs.

Run it from the root of the changed checkout, with a second checkout of the
parent commit:

    python tools/ab.py --parent /path/to/parent --pairs 10 --out BENCH_<topic>.json

Every part alternates the two trees the same way (the parent first on even
pairs, the change first on odd ones) and keeps every run's values:

- ``perfbench``: ``--pairs`` pairs per workload of ``BENCHMARK.json``, each
  run its ``command`` on the tree's own ``perfbench/`` at its
  ``run_seconds``, ``--trace 0``, seeds ``--seed`` on; per end-to-end metric
  of ``BENCHMARK.json``, each pair's values, each side's quartiles, the pairs
  where the change was better and the verdict of ``_verdict``, the one rule
  by which the metric's ``better`` and ``bound`` judge the change;
- ``criterion10``: ``ROUNDS`` workers per tree, each timing 5 fits of bggm,
  bgim and ggm (k-means start) on the criterion-10 map at n = 1e6 as
  ``tests/test_acceptance.py`` does; per worker bggm's ratios to the other
  two, and the workers in which criterion 10's ordering failed;
- ``limit``: ``ROUNDS`` workers per tree, each fitting bggm and bgim on the
  maps of ``LIMIT_MAPS``; per map and model, the passes of each level, the
  distance to the direct fit at tolerance 1e-10 (sum |d pi| and max
  |d gamma|), each worker's median time and the median of every fit timed.

``--parts`` runs some of these and keeps the other entries of ``--out``, its
``topic`` among them: write a ``{"topic": ...}`` into ``--out`` first to say
what the record measures. The record is written after each part. A run that
exits non-zero is kept with its exit code and the end of its error output.

Library fits run in fresh interpreters on each tree's ``src/`` with
``OPENBLAS_NUM_THREADS=1``; perfbench sets its own thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# The maps of the ``limit`` part: (name, n, snr, sparsity, data seed, fits
# timed per model). The criterion-10 map at 3e5 and 1e6, the map of ROADMAP
# item 23's FOUND at 3e5 and 1e5, and the 6e4 maps of
# ``tests/test_fitloop.py``'s ``BINNED_MAPS`` other than the criterion-10 one.
LIMIT_MAPS = (
    ("criterion-10", 300_000, 2.0, 1, 10, 11),
    ("criterion-10", 1_000_000, 2.0, 1, 10, 5),
    ("d1-snr3-sp2", 300_000, 3.0, 2, 3, 5),
    ("d1-snr3-sp2", 100_000, 3.0, 2, 3, 7),
    ("d1-snr3-sp2", 60_000, 3.0, 2, 3, 11),
    ("d1-snr5-sp3", 60_000, 5.0, 3, 3, 11),
    ("d1-snr2-sp2", 60_000, 2.0, 2, 1, 11),
    ("d1-snr4-sp1", 60_000, 4.0, 1, 2, 11),
)
# Workers per tree for the ``criterion10`` and ``limit`` parts.
ROUNDS = 4


def _worker(kind: str) -> dict:
    """One measurement in this interpreter, on the gigmix of ``sys.path``."""
    import time

    import numpy as np

    from gigmix import estep, fitloop, ml_em, vb_em
    from gigmix.distributions import GAMMA_NEG, GAMMA_POS
    from gigmix.experiments import SyntheticSpec, generate
    from gigmix.initialization import init_mixture, kmeans_1d

    def data(n, snr=2.0, sparsity=1, seed=10):
        return generate(SyntheticSpec(dataset=1, snr=snr, sparsity=sparsity, n=n, repeats=1, seed=seed), 0, 0).values

    vb_cfg = vb_em.VBFitConfig
    if kind == "criterion10":
        x = data(1_000_000)

        def ggm(x, seed):
            init, _ = init_mixture(x, kmeans_1d(x, 3, seed), (GAMMA_POS, GAMMA_NEG))
            return ml_em.fit_ggm(x, init, ml_em.MLFitConfig(seed=seed))

        out = {}
        for model, fitter in (("bggm", vb_em.fit_bggm), ("bgim", vb_em.fit_bgim), ("ggm", None)):
            times = []
            for seed in range(5):
                start = time.perf_counter()
                r = ggm(x, seed) if fitter is None else fitter(x, vb_cfg(seed=seed))
                times.append(time.perf_counter() - start)
            out[model] = {"median_s": round(statistics.median(times), 4), "passes": int(r.iterations)}
        return out
    if kind != "limit":
        raise ValueError(kind)
    # Per map and model: each level's passes, the times of fits that
    # alternate between the models, and the distance to the direct fit at
    # tolerance 1e-10: sum |d pi| and max |d gamma|.
    made, default_min, binned_cache = [], estep._BINNED_MIN, estep.binned_cache
    fitloop.binned_cache = lambda cache: made.append(binned_cache(cache)) or made[-1]
    rows = []
    for name, n, snr, sparsity, seed, repeats in LIMIT_MAPS:
        x = data(n, snr, sparsity, seed)
        estep._BINNED_MIN = 10**12
        limits = {model: getattr(vb_em, "fit_" + model)(x, vb_cfg(rel_tolerance=1e-10, max_iterations=5000))
                  for model in ("bggm", "bgim")}
        estep._BINNED_MIN = default_min
        times, fits = {"bggm": [], "bgim": []}, {}
        for _ in range(repeats):
            for model in times:
                made.clear()
                start = time.perf_counter()
                r = getattr(vb_em, "fit_" + model)(x, vb_cfg())
                times[model].append(time.perf_counter() - start)
                fits[model] = r, estep.passes_made(made[0]) - 1 if made and made[0] is not None else 0
        for model, (r, binned) in fits.items():
            limit = limits[model]
            rows.append({
                "map": name, "n": n, "model": model,
                "passes": int(r.iterations), "binned_passes": binned, "full_passes": int(r.iterations) - binned,
                "times_ms": [round(t * 1e3, 2) for t in times[model]],
                "stop_reason": r.stop_reason,
                "sum_abs_dpi": float(f"{np.abs(r.expectations.pi - limit.expectations.pi).sum():.2e}"),
                "max_abs_dgamma": float(f"{np.abs(r.responsibilities - limit.responsibilities).max():.2e}"),
                "limit_passes": int(limit.iterations),
            })
    return {"rows": rows}


def _run(command: list, **kwargs) -> tuple:
    """Exit code, the JSON object of the last output line (None if there is
    none) and the last lines of the error output of one run in a fresh
    process. A run that fails is returned, not raised."""
    proc = subprocess.run(command, capture_output=True, text=True, **kwargs)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr.strip().splitlines()[-5:]


def _alternate(pairs: int, run) -> list:
    """``run(side, i)`` for both sides of each pair ``i``, the parent first on
    even pairs and the change first on odd ones; each pair's dict keeps that
    order."""
    return [{side: run(side, i) for side in (SIDES if i % 2 == 0 else SIDES[::-1])} for i in range(pairs)]


def _run_worker(tree: Path, kind: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    code, result, errors = _run([sys.executable, __file__, "--worker", kind, "--out", os.devnull], env=env)
    return result if code == 0 and result is not None else {"exit_code": code, "errors": errors}


def _criterion10(trees: dict) -> dict:
    """Per tree, each worker's medians, bggm's ratios to bgim and ggm, and the
    workers in which criterion 10's ordering (bggm no slower than bgim and
    ggm) failed."""
    pairs = _alternate(ROUNDS, lambda side, i: _run_worker(trees[side], "criterion10"))
    out = {}
    for side in SIDES:
        runs = [pair[side] for pair in pairs]
        medians = [{model: r[model]["median_s"] for model in ("bggm", "bgim", "ggm")} for r in runs
                   if "exit_code" not in r]
        out[side] = {"runs": runs,
                     "bggm_over_bgim": [round(m["bggm"] / m["bgim"], 3) for m in medians],
                     "bggm_over_ggm": [round(m["bggm"] / m["ggm"], 3) for m in medians],
                     "runs_where_the_ordering_failed": sum(m["bggm"] > min(m["bgim"], m["ggm"]) for m in medians)}
    return out


def _limit(trees: dict) -> dict:
    """Per tree, the workers that failed and one row per map and model: its
    passes and distances to the limit, each worker's median time and the
    median of every fit timed."""
    pairs = _alternate(ROUNDS, lambda side, i: _run_worker(trees[side], "limit"))
    out = {}
    for side in SIDES:
        workers = [pair[side] for pair in pairs]
        rows = {}
        for row in (row for worker in workers for row in worker.get("rows", ())):
            kept = rows.setdefault((row["map"], row["n"], row["model"]), dict(row, times_ms=[], worker_medians_ms=[]))
            kept["times_ms"] += row["times_ms"]
            kept["worker_medians_ms"].append(round(statistics.median(row["times_ms"]), 1))
        for row in rows.values():
            times = row.pop("times_ms")
            row.update(median_ms=round(statistics.median(times), 1), fits_timed=len(times))
        out[side] = {"failed_workers": [worker for worker in workers if "exit_code" in worker],
                     "rows": list(rows.values())}
    return out


def _perfbench(trees: dict, benchmark: dict, workload: str, pairs: int, seed: int) -> dict:
    """``pairs`` alternating pairs of the benchmark's command on ``workload``,
    each tree running its own perfbench, seeds ``seed`` on."""

    def run(side, i):
        command = [*benchmark["command"], "--workload", workload, "--seed", str(seed + i),
                   "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
        code, result, errors = _run(command, cwd=trees[side])
        print(f"{workload} pair {i + 1}/{pairs} {side}: exit code {code}", file=sys.stderr)
        if result is None:
            return {"exit_code": code, "errors": errors}
        return {"exit_code": code, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}

    runs = _alternate(pairs, run)
    return {"seeds": f"{seed}-{seed + pairs - 1}", "runs": runs,
            "every_check_passed": all(r[side].get("correct") for r in runs for side in SIDES),
            "failed_share": _failed_shares(runs), "metrics": _compare(runs, benchmark)}


def _failed_shares(runs: list) -> dict:
    """Each side's failed operations over those attempted, in the runs that
    gave a result."""
    out = {}
    for side in SIDES:
        attempted = sum(r[side].get("attempted", 0) for r in runs)
        out[side] = sum(r[side].get("failed", 0) for r in runs) / attempted if attempted else 0.0
    return out


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(median, 6), round(q3, 6)]


def _verdict(pairs: list, better: str, bound: float, failed_share: dict) -> dict:
    """The one rule by which a change is judged on one metric of one workload.

    ``pairs`` holds the (parent, change) values of alternating runs, None for
    a run that gave none; ``better`` ("lower" or "higher") and ``bound`` are
    the metric's in BENCHMARK.json; ``failed_share`` is each side's share of
    failed operations. The verdict is

    - "gain" when the change is better in at least 9/10 of the pairs (ties
      and incomplete pairs count for neither), its median is better than the
      parent's by more than the parent's quartile distance, and its failed
      share is no higher than the parent's;
    - "regression" when its median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - "unresolved" when either side's quartile distance exceeds that amount,
      unless every change run is better than every parent run, and when
      either side has fewer than two values;
    - "within bound" otherwise.
    """
    sign = 1 if better == "lower" else -1
    parent = [p for p, _ in pairs if p is not None]
    change = [c for _, c in pairs if c is not None]
    wins = sum(p is not None and c is not None and sign * (c - p) < 0 for p, c in pairs)
    out = {"parent_change_pairs": [list(pair) for pair in pairs], "change_better_pairs": wins, "pairs": len(pairs)}
    if min(len(parent), len(change)) < 2:
        return dict(out, verdict="unresolved")
    pq, cq = _quartiles(parent), _quartiles(change)
    allowed = bound * abs(pq[1])
    if (10 * wins >= 9 * len(pairs) and sign * (pq[1] - cq[1]) > pq[2] - pq[0]
            and failed_share["change"] <= failed_share["parent"]):
        verdict = "gain"
    elif sign * (cq[1] - pq[1]) > allowed:
        verdict = "regression"
    elif (max(pq[2] - pq[0], cq[2] - cq[0]) > allowed
          and not all(sign * (c - p) < 0 for p in parent for c in change)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return dict(out, parent_q1_median_q3=pq, change_q1_median_q3=cq,
                change_over_parent_median=round(cq[1] / pq[1], 4) if pq[1] else None, verdict=verdict)


def _compare(runs: list, benchmark: dict) -> dict:
    """The verdict on each end-to-end metric of ``benchmark`` that the runs
    report."""
    failed_share = _failed_shares(runs)
    out = {}
    for metric in benchmark["end_to_end"]:
        pairs = [[r[side].get("metrics", {}).get(metric["name"]) for side in SIDES] for r in runs]
        if any(value is not None for pair in pairs for value in pair):
            out[metric["name"]] = _verdict(pairs, metric["better"], metric["bound"], failed_share)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3501, help="first perfbench seed")
    ap.add_argument("--out", type=Path, required=True, help="the record; entries of parts not run are kept")
    ap.add_argument("--parts", default="perfbench,criterion10,limit")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker)))
        return 0
    if args.parent is None:
        ap.error("the following arguments are required: --parent")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    parts = args.parts.split(",")
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}

    def write():
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for workload in benchmark["workloads"] if "perfbench" in parts else ():
        name = workload["name"]
        record.setdefault("perfbench", {})[name] = _perfbench(trees, benchmark, name, args.pairs, args.seed)
        write()
    if "criterion10" in parts:
        record["criterion_10_n_1e6"] = _criterion10(trees)
        write()
    if "limit" in parts:
        record["limit"] = _limit(trees)
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
