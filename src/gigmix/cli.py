"""Command-line interface.

Subcommands:

* ``fit``      — fit one model to a value vector, write a JSON result.
* ``simulate`` — write one labeled synthetic dataset as CSV.
* ``bench``    — run a benchmark grid; writes manifest.json, runs.csv, wins.csv.
* ``eval``     — print the restricted AUC of a score/truth file pair.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .evaluation import restricted_auc, standardize
from .experiments import (
    MODEL_NAMES,
    SyntheticSpec,
    default_grid,
    fit,
    generate,
    run_benchmark,
)
from .io import (
    read_labels_txt,
    read_values,
    read_values_txt,
    result_to_dict,
    write_gamma_csv,
    write_json,
    write_labeled_csv,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gigmix", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gigmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit one model to a value vector")
    p_fit.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--format", default="txt", choices=("txt", "f64le"))
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument("--gamma-out", default=None)
    p_fit.add_argument(
        "--standardize",
        action="store_true",
        help="mask zeros and standardize before fitting",
    )
    p_fit.add_argument(
        "--timing",
        action="store_true",
        help="include measured wall time in the JSON (breaks byte reproducibility)",
    )

    p_sim = sub.add_parser("simulate", help="write one synthetic labeled dataset")
    p_sim.add_argument("--dataset", type=int, required=True, choices=(1, 2))
    p_sim.add_argument("--snr", type=float, required=True)
    p_sim.add_argument("--sparsity", type=int, required=True, choices=(1, 2, 3))
    p_sim.add_argument("--n", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--repeat", type=int, default=0)
    p_sim.add_argument("--output", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    p_bench.add_argument(
        "--grid",
        default="default",
        help="'default' (dataset 1, all SNR x sparsity) or a comma list of "
        "DATASET:SNR:SPARSITY triples, e.g. '1:5:1,2:3:2'",
    )
    p_bench.add_argument("--models", default=",".join(MODEL_NAMES))
    p_bench.add_argument("--repeats", type=int, default=100)
    p_bench.add_argument("--n", type=int, default=10000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--outdir", required=True)
    p_bench.add_argument("--timing", default="off", choices=("off", "wall"))

    p_eval = sub.add_parser("eval", help="print restricted AUC for scores vs truth")
    p_eval.add_argument("--scores", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--fpr-max", type=float, default=0.05)
    return parser


def _cmd_fit(args) -> int:
    data = read_values(args.input, args.format)
    if args.standardize:
        data = standardize(data)
    result = fit(args.model, data, args.seed)
    doc = result_to_dict(result, args.model, args.seed, include_timing=args.timing)
    doc["n"] = int(data.size)
    doc["standardized"] = bool(args.standardize)
    write_json(args.output, doc)
    if args.gamma_out:
        write_gamma_csv(args.gamma_out, result.responsibilities)
    return 0


def _cmd_simulate(args) -> int:
    spec = SyntheticSpec(
        dataset=args.dataset, snr=args.snr, sparsity=args.sparsity, n=args.n, seed=args.seed
    )
    ds = generate(spec, args.repeat)
    write_labeled_csv(args.output, ds.values, ds.truth)
    return 0


def _parse_grid(grid: str, seed: int, n: int, repeats: int) -> list:
    if grid == "default":
        return default_grid(seed=seed, n=n, repeats=repeats)
    specs = []
    for part in grid.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise ValueError(f"bad grid entry {part!r}; expected DATASET:SNR:SPARSITY")
        specs.append(
            SyntheticSpec(
                dataset=int(fields[0]),
                snr=float(fields[1]),
                sparsity=int(fields[2]),
                n=n,
                repeats=repeats,
                seed=seed,
            )
        )
    return specs


def _cmd_bench(args) -> int:
    specs = _parse_grid(args.grid, args.seed, args.n, args.repeats)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    manifest = run_benchmark(specs, models, timing=args.timing)
    os.makedirs(args.outdir, exist_ok=True)
    manifest.write_manifest(os.path.join(args.outdir, "manifest.json"))
    manifest.write_runs_csv(os.path.join(args.outdir, "runs.csv"))
    manifest.write_wins_csv(os.path.join(args.outdir, "wins.csv"))
    if manifest.failures:
        print(f"{len(manifest.failures)} fit(s) failed; see manifest.json", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    scores = read_values_txt(args.scores)
    labels = read_labels_txt(args.truth)
    if scores.size != labels.size:
        raise ValueError(
            f"scores ({scores.size}) and truth ({labels.size}) lengths differ"
        )
    auc = restricted_auc(scores, labels != 0, fpr_max=args.fpr_max)
    print(repr(auc))
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"gigmix {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
