"""Fingerprints of a fixed set of fits, for checking that a change keeps every
fit output byte-identical.

Every model is fitted on each map of a fixed set: the 12 dataset-1 scenarios
at n = 4000 (2 repeats each), three dataset-2 scenarios, the criterion-10 map
at n = 1e4 and, with ``--large``, at n = 3e5 (the fit-large map), and six
hostile inputs. One line per fit gives its passes, stop reason, converged
flag and degenerate rows, SHA-1s of its responsibilities, its objective trace,
its final parameters (ML) or state and expectations (VB), its result
document (``gigmix fit``'s JSON) and the bytes ``io.write_gamma_csv`` writes
for its responsibilities, the ``repr`` of its restricted AUC against the
truth of a generated map, and, for VB fits, ``negative_free_energy`` at the
result. Before its fits, each map gets a line with the SHA-1s of the bytes
``io.write_values_txt`` writes for its values and, for a generated map,
``io.write_labeled_csv`` for its values and truth (what ``gigmix simulate``
writes). The fit line of a map with exact zeros ends with ``nonzero_same``:
whether the fit's responsibilities on the nonzero values are byte-identical
to those of a fit of the nonzero values alone, which holds when the fit
masks its zeros. A small ``run_benchmark`` then prints its rows (without
wall times), its win table and the SHA-1s of the bytes
``RunManifest.write_runs_csv`` and ``write_wins_csv`` write for it.

Usage: run it on two source trees and compare the outputs byte for byte,

    PYTHONPATH=src python tools/fit_equivalence.py --large > new.txt
    PYTHONPATH=/path/to/other/src python tools/fit_equivalence.py --large > old.txt
    cmp old.txt new.txt

with the same ``OPENBLAS_NUM_THREADS`` for both. The first line of the output
names that setting, so outputs made under different settings differ in that
line. The fit lines do not depend on it: the E-step adds its weighted sums
in an order that no BLAS thread count changes (before that, fits of the
n = 3e5 map differed between thread counts).
The gigmix imported is named on stderr.

``--models`` restricts the fits, and the benchmark's rows and win table, to
the listed models. A change that moves only the ML fits keeps every
variational fit byte-identical when

    PYTHONPATH=src python tools/fit_equivalence.py --large --models bggm,bgim > new.txt

and the same command on the other tree give outputs that ``cmp`` finds equal.

Hashes only say that a fit differs. To see by how much, dump each fit's
responsibilities, objective trace, stop state, mixing weights pi (ML's
``params.pi``, VB's ``expectations.pi``) and, on the generated maps, its
restricted AUC against their truth as ``.npz`` files, one per fit, and
compare two dumps numerically:

    PYTHONPATH=src python tools/fit_equivalence.py --large --dump new/ > new.txt
    PYTHONPATH=/path/to/other/src python tools/fit_equivalence.py --large --dump old/ > old.txt
    PYTHONPATH=src python tools/fit_equivalence.py --compare old/ new/

``--compare`` prints per fit the max |dgamma|, the max objective drift
|dobjective| / (1 + |objective|), |dpi2| + |dpi3|, the AUC change (second
dump minus first), the pass ratio (second over first) and any mismatch in
passes, stop reason, converged flag or degenerate rows, then a summary line
and, per model, the medians of the last three; it exits 1 if any fit
mismatches or is missing from either dump (a refused fit is not dumped).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import warnings

import numpy as np

import gigmix
from gigmix.experiments import SyntheticSpec, _fit_seed, default_grid, fit, generate, run_benchmark
from gigmix.evaluation import restricted_auc, win_matrix
from gigmix.io import result_to_dict, write_gamma_csv, write_labeled_csv, write_values_txt
from gigmix.vb_em import negative_free_energy

MODELS = ("bggm", "bgim", "ggm", "gim")


def _sha1(values) -> str:
    flat = np.concatenate([np.ravel(np.asarray(v, dtype="<f8")) for v in values])
    return hashlib.sha1(flat.tobytes()).hexdigest()


def _final(res) -> list:
    """The fit's final parameters as arrays: ML's point estimate, or VB's
    state followed by its expectations."""
    if hasattr(res, "state"):
        parts = (res.state, res.expectations)
        return [getattr(obj, f.name) for obj in parts for f in dataclasses.fields(obj)]
    p = res.params
    return [p.pi, p.comp1.mu, p.comp1.tau, p.comp2.shape, p.comp2.rate, p.comp3.shape, p.comp3.rate]


def _json_sha1(res, model: str, seed: int) -> str:
    """SHA-1 of the fit's result document as ``io.write_json`` lays it out."""
    text = json.dumps(result_to_dict(res, model, seed), indent=2, sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _written_sha1(write, *args) -> str:
    """SHA-1 of the bytes ``write(path, *args)`` writes, e.g. with
    ``io.write_gamma_csv``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        write(path, *args)
        with open(path, "rb") as fh:
            return hashlib.sha1(fh.read()).hexdigest()


def describe_map(x: np.ndarray, truth=None) -> str:
    """One line fingerprinting the text files written for a map: its values,
    and its values with their component labels ``truth`` when given."""
    line = f"map txt={_written_sha1(write_values_txt, x)}"
    if truth is not None:
        line += f" labeled_csv={_written_sha1(write_labeled_csv, x, truth)}"
    return line


def describe_fit(
    model: str, x: np.ndarray, seed: int, dump: str | None = None, label: str = "", truth=None
) -> str:
    """One line fingerprinting the fit of ``model`` on ``x`` from ``seed``,
    with its restricted AUC when the component labels ``truth`` are given;
    with ``dump``, a fit that is not refused is also saved to that ``.npz``
    path, the AUC included."""
    try:
        with warnings.catch_warnings():
            # Maps with fewer than three distinct values make k-means warn.
            warnings.simplefilter("ignore")
            res = fit(model, x, seed)
    except Exception as exc:  # noqa: BLE001 - a refusal is an output too
        return f"{model} error={type(exc).__name__}: {exc}"
    vb = hasattr(res, "state")
    trace = res.nfe_trace if vb else res.loglik_trace
    gamma = res.responsibilities
    extra = {} if truth is None else {"auc": restricted_auc(gamma[:, 1] + gamma[:, 2], truth != 1)}
    if dump:
        np.savez(
            dump,
            label=label,
            model=model,
            gamma=gamma,
            objective=trace,
            pi=res.expectations.pi if vb else res.params.pi,
            passes=res.iterations,
            stop=res.stop_reason,
            converged=res.converged,
            degenerate=res.degenerate_rows,
            **extra,
        )
    fields = [
        model,
        f"passes={res.iterations}",
        f"stop={res.stop_reason}",
        f"converged={res.converged}",
        f"degenerate={res.degenerate_rows}",
        f"gamma={_sha1([res.responsibilities])}",
        f"trace={_sha1([trace])}",
        f"final={_sha1(_final(res))}",
        f"json={_json_sha1(res, model, seed)}",
        f"csv={_written_sha1(write_gamma_csv, gamma)}",
    ]
    if extra:
        fields.append(f"auc={extra['auc']!r}")
    if vb:
        try:
            gamma, state, priors, e = res.responsibilities, res.state, res.priors, res.expectations
            nfe = negative_free_energy(x, gamma, state, priors, e)
            nfe = repr(float(nfe))
        except Exception as exc:  # noqa: BLE001
            nfe = f"{type(exc).__name__}: {exc}"
        fields.append(f"nfe={nfe}")
    nonzero = x != 0.0
    if not nonzero.all():
        fields.append(f"nonzero_same={_nonzero_same(model, x[nonzero], seed, gamma[nonzero])}")
    return " ".join(fields)


def _nonzero_same(model: str, values: np.ndarray, seed: int, gamma: np.ndarray) -> bool:
    """Whether ``gamma``, a fit's responsibilities on the nonzero ``values``
    of a map with exact zeros, are byte-identical to those of the fit of
    ``values`` alone; False if that fit is refused."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alone = fit(model, values, seed).responsibilities
    except Exception:  # noqa: BLE001 - a refused fit is not the same fit
        return False
    return alone.tobytes() == gamma.tobytes()


def maps(large: bool):
    """(label, values, truth, fit seed) for every map of the set; ``truth``
    holds the component labels of a generated map and is None for the hostile
    inputs."""
    for index, spec in enumerate(default_grid(seed=0, n=4000, repeats=2)):
        for rep in range(spec.repeats):
            ds = generate(spec, rep, index)
            yield f"{spec.scenario_id}/r{rep}", ds.values, ds.truth, _fit_seed(0, index, rep)
    for index, (snr, sparsity) in enumerate(((5.0, 1), (3.0, 2), (2.0, 3))):
        spec = SyntheticSpec(dataset=2, snr=snr, sparsity=sparsity, n=4000, repeats=1, seed=11)
        ds = generate(spec, 0, index)
        yield spec.scenario_id, ds.values, ds.truth, _fit_seed(11, index, 0)
    for n in (10_000, 300_000) if large else (10_000,):
        spec = SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=n, repeats=1, seed=10)
        ds = generate(spec, 0, 0)
        yield f"criterion10/n{n}", ds.values, ds.truth, 0
    rng = np.random.default_rng(2024)
    mixture = rng.normal(rng.choice([-3.0, 0.0, 3.0], 500, p=[0.1, 0.8, 0.1]), 1.0)
    zeros = mixture.copy()
    zeros[:100] = 0.0
    yield "hostile/n3", np.array([-1.0, 0.5, 2.0]), None, 0
    yield "hostile/ties", np.round(rng.normal(0.0, 2.0, 400)), None, 0
    yield "hostile/lognormal", rng.lognormal(0.0, 1.5, 500), None, 0
    yield "hostile/cauchy", rng.standard_cauchy(500), None, 0
    yield "hostile/scale1e-150", mixture * 1e-150, None, 0
    yield "hostile/zeros", zeros, None, 0


def describe_benchmark(models=MODELS) -> list:
    """A small ``run_benchmark`` of ``models``: its rows without wall times,
    its failures, its win table and the SHA-1s of the ``runs.csv`` (timing
    off) and ``wins.csv`` bytes its manifest writes."""
    specs = [
        SyntheticSpec(dataset=1, snr=snr, sparsity=sparsity, n=1500, repeats=3, seed=4)
        for snr, sparsity in ((5.0, 1), (3.0, 2), (2.0, 3))
    ]
    manifest = run_benchmark(specs, models)
    lines = [
        " ".join(f"{k}={v!r}" for k, v in row.items() if k != "wall_seconds")
        for row in manifest.rows
    ]
    lines += [f"failure {f}" for f in manifest.failures]
    table = win_matrix(manifest.auc_table())
    lines += [f"win {sc} {a} {b} {won}" for (sc, a, b), won in sorted(table.wins.items())]
    lines += [f"win_pct {a} {b} {float(pct)!r}" for (a, b), pct in sorted(table.win_pct.items())]
    lines.append(f"runs_csv={_written_sha1(manifest.write_runs_csv)}")
    lines.append(f"wins_csv={_written_sha1(manifest.write_wins_csv)}")
    return lines


_STATE = ("passes", "stop", "converged", "degenerate")


def compare(dir_a: str, dir_b: str) -> tuple:
    """(lines, ok): one line per fit in either dump, a summary line and one
    line of medians per model; ok is False if any fit mismatches in its stop
    state or is missing."""
    names = sorted({n for d in (dir_a, dir_b) for n in os.listdir(d) if n.endswith(".npz")})
    lines, bad, missing = [], 0, 0
    worst_gamma = worst_objective = 0.0
    shifts = {}
    for name in names:
        paths = [os.path.join(d, name) for d in (dir_a, dir_b)]
        absent = [p for p in paths if not os.path.exists(p)]
        if absent:
            missing += 1
            lines.append(f"{name} missing from {os.path.dirname(absent[0])}")
            continue
        with np.load(paths[0]) as fa, np.load(paths[1]) as fb:
            a = {k: fa[k] for k in fa.files}
            b = {k: fb[k] for k in fb.files}
        diffs = [f"{k} {a[k].item()!r} != {b[k].item()!r}" for k in _STATE if a[k].item() != b[k].item()]
        d_gamma = float(np.max(np.abs(a["gamma"] - b["gamma"]), initial=0.0))
        m = min(a["objective"].size, b["objective"].size)
        oa, ob = a["objective"][:m], b["objective"][:m]
        d_objective = float(np.max(np.abs(oa - ob) / (1.0 + np.abs(oa)), initial=0.0))
        worst_gamma = max(worst_gamma, d_gamma)
        worst_objective = max(worst_objective, d_objective)
        bad += bool(diffs)
        d_pi = float(np.sum(np.abs(a["pi"][1:] - b["pi"][1:])))
        d_auc = float(b["auc"] - a["auc"]) if "auc" in a and "auc" in b else None
        ratio = int(b["passes"]) / int(a["passes"])
        model = a["model"].item()
        shifts.setdefault(model, []).append((d_pi, d_auc, ratio))
        line = (
            f"{a['label'].item()} {model} max|dgamma|={d_gamma:.3g} max_dobjective={d_objective:.3g}"
            f" |dpi2|+|dpi3|={d_pi:.3g}" + ("" if d_auc is None else f" dauc={d_auc:.3g}")
            + f" pass_ratio={ratio:.3g}"
        )
        lines.append(line + "".join(f" MISMATCH {d}" for d in diffs))
    lines.append(
        f"summary: {len(names)} fits, {bad} mismatched, {missing} missing; "
        f"max|dgamma|={worst_gamma:.3g} max_dobjective={worst_objective:.3g}"
    )
    for model, rows in sorted(shifts.items()):
        d_pi, d_auc, ratio = zip(*rows)
        aucs = [d for d in d_auc if d is not None]
        lines.append(
            f"median {model} over {len(rows)} fits: |dpi2|+|dpi3|={np.median(d_pi):.3g}"
            + (f" dauc={np.median(aucs):.3g} ({len(aucs)} with truth)" if aucs else "")
            + f" pass_ratio={np.median(ratio):.3g}"
        )
    return lines, bad == missing == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--large", action="store_true", help="also fit the n = 3e5 map")
    parser.add_argument("--dump", metavar="DIR", help="also save each fit to DIR as .npz")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps and exit")
    parser.add_argument(
        "--models", default=",".join(MODELS), help="comma-separated models to fit (default: all four)"
    )
    args = parser.parse_args(argv)
    chosen = args.models.split(",")
    if set(chosen) - set(MODELS):
        parser.error(f"--models takes a comma-separated subset of {','.join(MODELS)}")
    models = [m for m in MODELS if m in chosen]
    if args.compare:
        lines, ok = compare(*args.compare)
        print("\n".join(lines))
        return 0 if ok else 1
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    print(f"gigmix from {gigmix.__file__}", file=sys.stderr)
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for label, x, truth, seed in maps(args.large):
        print(f"{label} {describe_map(x, truth)}")
        for model in models:
            dump = args.dump and os.path.join(args.dump, f"{label.replace('/', '_')}.{model}.npz")
            print(f"{label} {describe_fit(model, x, seed, dump, label, truth)}", flush=True)
    for line in describe_benchmark(models):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
