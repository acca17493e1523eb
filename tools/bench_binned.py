"""Measurements behind the binned variational fits (``estep.binned_cache``,
``fitloop.fit``), written to ``BENCH_binned.json``.

Run it from the root of the changed checkout, with a second checkout of the
parent commit:

    python tools/bench_binned.py --parent /path/to/parent --pairs 10 --out BENCH_binned.json

It records:

- ``perfbench_<workload>``: ``--pairs`` alternating pairs of
  ``perfbench/run.py --seconds 36 --trace 0`` per workload, parent first on
  even pairs, seeds ``--seed`` on; per metric the quartiles on each side, the
  pairs where the change was better and whether the median gap exceeds the
  parent's quartile distance;
- ``criterion_10_n_1e6``: per tree, the median of 5 fits of bggm, bgim and
  ggm (k-means start) on the criterion-10 map at n = 1e6, as
  ``tests/test_acceptance.py`` times them;
- ``levels``: the passes of each level of the bggm and bgim fits of that map
  at n = 3e5 (fit-large) and 1e6, against the direct fit's;
- ``thresholds``: direct against binned fits (medians of 3) at
  n = 2e4, 5e4, 1e5 and 3e5 on three scenarios (data seed 3), which fix
  ``_BINNED_MIN``, and the bin counts 512 to 4096 on the fit-large map
  (the bias of one pass near the limit, the time to bin, whole fits), which
  fix ``_BINS``.

``--parts`` runs some of these and updates the other entries of ``--out``
in place.

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
WORKLOADS = ("fit-large", "grid-small")
LOWER_IS_BETTER = {"auc_mean": False}


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

    made = []
    if hasattr(estep, "binned_cache"):
        binned_cache = estep.binned_cache
        fitloop.binned_cache = lambda cache: made.append(binned_cache(cache)) or made[-1]

    def timed(fitter, x, cfg, repeats):
        times = []
        for _ in range(repeats):
            made.clear()
            start = time.perf_counter()
            r = fitter(x, cfg)
            times.append(time.perf_counter() - start)
        binned = estep.passes_made(made[0]) - 1 if made and made[0] is not None else 0
        levels = {"passes": int(r.iterations), "binned_passes": binned, "full_passes": int(r.iterations) - binned}
        return r, statistics.median(times), levels

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
    if kind == "levels":
        out = {}
        for n in (300_000, 1_000_000):
            x = data(n)
            for model in ("bggm", "bgim"):
                r, seconds, levels = timed(getattr(vb_em, "fit_" + model), x, vb_cfg(), 3)
                out[f"n{n}/{model}"] = {**levels, "median_s": round(seconds, 4), "pi": r.expectations.pi.round(6).tolist(),
                                        "nfe": round(float(r.nfe_trace[-1]), 3)}
        return out
    if kind == "thresholds":
        rows = []
        for n in (20_000, 50_000, 100_000, 300_000):
            for snr, sparsity in ((2.0, 1), (3.0, 2), (5.0, 3)):
                x = data(n, snr, sparsity, seed=3)
                for model in ("bggm", "bgim"):
                    fitter = getattr(vb_em, "fit_" + model)
                    estep._BINNED_MIN = 10**12
                    direct, direct_s, _ = timed(fitter, x, vb_cfg(), 3)
                    estep._BINNED_MIN = 1
                    binned, binned_s, levels = timed(fitter, x, vb_cfg(), 3)
                    rows.append({
                        "n": n, "scenario": f"d1-snr{snr:g}-sp{sparsity}", "model": model,
                        "direct_passes": int(direct.iterations), "direct_ms": round(direct_s * 1e3, 1),
                        **levels, "binned_ms": round(binned_s * 1e3, 1),
                        "max_abs_dpi": float(f"{np.abs(binned.expectations.pi - direct.expectations.pi).max():.2e}"),
                        "nfe_binned_minus_direct": round(float(binned.nfe_trace[-1] - direct.nfe_trace[-1]), 3),
                    })
        # The bin count: on the fit-large map, one pass at the direct fit's
        # end point (tolerance 1e-10) on the bins against one on every point
        # (the bias of its log-sum-exp, and the pi of the update each pass
        # gives), the time to bin, and whole fits at the default tolerance.
        bins, default_bins = [], estep._BINS
        x = data(300_000)
        for model in ("bggm", "bgim"):
            fitter = getattr(vb_em, "fit_" + model)
            estep._BINNED_MIN = 10**12
            direct, direct_s, _ = timed(fitter, x, vb_cfg(), 3)
            limit = fitter(x, vb_cfg(rel_tolerance=1e-10, max_iterations=5000))
            e, families, priors = limit.expectations, limit.priors.families, limit.priors
            cache = estep._DataCache(x, families)
            full, full_lse, _ = estep._responsibility_pass(cache, e, families)
            full_pi = vb_em.expectations(vb_em._update_state(full, priors, e.tau, e.s), priors).pi
            estep._BINNED_MIN = 1
            for count in (512, 1024, 2048, 4096):
                estep._BINS = count
                times = []
                for _ in range(5):
                    start = time.perf_counter()
                    coarse = estep.binned_cache(cache)
                    times.append(time.perf_counter() - start)
                stats, lse, _ = estep._responsibility_pass(coarse, e, families)
                pi = vb_em.expectations(vb_em._update_state(stats, priors, e.tau, e.s), priors).pi
                r, seconds, levels = timed(fitter, x, vb_cfg(), 3)
                bins.append({
                    "model": model, "bins": count, "nonempty_bins": [int(side.counts.size) for side in coarse.sides],
                    "binning_ms": round(statistics.median(times) * 1e3, 2),
                    "pass_lse_bias_nats": round(float(lse - full_lse), 4),
                    "update_max_abs_dpi": float(f"{np.abs(pi - full_pi).max():.2e}"),
                    "fit_ms": round(seconds * 1e3, 1), **levels,
                    "fit_max_abs_dpi_vs_direct": float(f"{np.abs(r.expectations.pi - direct.expectations.pi).max():.2e}"),
                    "direct_passes": int(direct.iterations), "direct_ms": round(direct_s * 1e3, 1),
                })
            estep._BINS = default_bins
        return {"rows": rows, "bins_at_n300000_criterion10_map": bins}
    raise ValueError(kind)


def _run_worker(tree: Path, kind: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--worker", kind], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _perfbench(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", "36", "--trace", "0"], cwd=tree, check=True, capture_output=True,
                         text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return {"environment": env, "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(median, 6), round(q3, 6)]


def _compare(runs: list) -> dict:
    """Per metric: quartiles per side, better pairs, median gap against the
    parent's quartile distance."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        lower = LOWER_IS_BETTER.get(name, True)
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = _quartiles(parent), _quartiles(change)
        out[name] = {"parent_q1_median_q3": pq, "change_q1_median_q3": cq,
                     "change_over_parent_median": round(cq[1] / pq[1], 4) if pq[1] else None,
                     "change_better_pairs": better, "pairs": len(runs),
                     "median_gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3501, help="first perfbench seed")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_binned.json")
    ap.add_argument("--parts", default="perfbench,criterion10,levels,thresholds")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker)))
        return 0
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    parts = args.parts.split(",")
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record["topic"] = ("Variational fits of maps of at least 5e4 nonzero values run on 2048 uniform bins per "
                       "side first, then finish on the full data (estep.binned_cache, fitloop.fit)")
    for workload in WORKLOADS if "perfbench" in parts else ():
        runs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs.append({side: _perfbench(trees[side], workload, args.seed + i) for side in order})
            print(f"{workload} pair {i + 1}/{args.pairs}", file=sys.stderr)
        record["environment"] = runs[0]["change"]["environment"]
        record[f"perfbench_{workload.replace('-', '_')}"] = {
            "seeds": f"{args.seed}-{args.seed + args.pairs - 1}",
            "order": "alternating, parent first on even pair index",
            "every_check_passed": all(r[s]["correct"] for r in runs for s in r),
            "failed_operations": sum(r[s]["failed"] for r in runs for s in r),
            "metrics": _compare(runs),
        }
    if "criterion10" in parts:
        record["criterion_10_n_1e6"] = {side: _run_worker(tree, "criterion10") for side, tree in trees.items()}
    if "levels" in parts:
        record["levels"] = {side: _run_worker(tree, "levels") for side, tree in trees.items()}
    if "thresholds" in parts:
        record["thresholds"] = _run_worker(ROOT, "thresholds")
    if "perfbench_fit_large" in record:
        claim = record["perfbench_fit_large"]["metrics"]["fit_s.bgim"]
        record["claim"] = {"metric": "fit_s.bgim", "workload": "fit-large",
                           "met": claim["change_better_pairs"] >= 0.9 * claim["pairs"]
                           and claim["median_gap_exceeds_parent_iqr"], **claim}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
