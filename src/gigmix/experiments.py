"""Synthetic benchmark: scenario grids, generators, and the run harness.

Scenarios draw from a three-component Gaussian mixture with unit component
variances and means (0, +SNR, -SNR); dataset 1 uses symmetric activation
proportions and dataset 2 positive-only ones. Randomness is split with the
documented rule

    substream(seed, scenario_index, repeat_index)
        = PCG64(SeedSequence(seed, spawn_key=(scenario_index, repeat_index)))

so a manifest (seed + grid + models) reproduces every statistical output
bit-exactly on re-run. Measured wall times are recorded in the manifest but
mirrored into ``runs.csv`` only when timing is switched on, keeping the
default CSV output byte-reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .evaluation import activation_map, restricted_auc, win_matrix
from .fitloop import as_integer
from .io import read_json, write_json, write_table
from .ml_em import MLFitConfig, fit_ggm, fit_gim
from .vb_em import VBFitConfig, fit_bggm, fit_bgim

MANIFEST_SCHEMA_VERSION = 1

SNR_LEVELS = (2.0, 3.0, 4.0, 5.0)

DATASET_PROPORTIONS = {
    1: {
        1: (0.8, 0.1, 0.1),
        2: (0.9, 0.05, 0.05),
        3: (0.99, 0.005, 0.005),
    },
    2: {
        1: (0.9, 0.1, 0.0),
        2: (0.95, 0.05, 0.0),
        3: (0.99, 0.01, 0.0),
    },
}

MODEL_NAMES = ("bggm", "bgim", "ggm", "gim")

RUNS_CSV_COLUMNS = (
    "scenario_id",
    "model",
    "repeat",
    "auc",
    "pos_frac",
    "neg_frac",
    "seconds",
    "iterations",
    "converged",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """One benchmark scenario. ``dataset``, ``sparsity``, ``n``, ``repeats``
    and ``seed`` are integers (``fitloop.as_integer``: a numpy integer too,
    not a bool)."""

    dataset: int
    snr: float
    sparsity: int
    n: int = 10000
    repeats: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("dataset", "sparsity", "n", "repeats", "seed"):
            if as_integer(getattr(self, name)) is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.dataset not in DATASET_PROPORTIONS:
            raise ValueError(f"dataset must be 1 or 2, got {self.dataset}")
        if self.sparsity not in (1, 2, 3):
            raise ValueError(f"sparsity must be 1, 2 or 3, got {self.sparsity}")
        if float(self.snr) not in SNR_LEVELS:
            raise ValueError(f"snr must be one of {SNR_LEVELS}, got {self.snr}")
        if self.n < 1 or self.repeats < 1:
            raise ValueError("n and repeats must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def pi(self) -> tuple:
        return DATASET_PROPORTIONS[self.dataset][self.sparsity]

    @property
    def scenario_id(self) -> str:
        return f"d{self.dataset}-snr{self.snr:g}-sp{self.sparsity}"


@dataclass
class LabeledDataset:
    values: np.ndarray
    truth: np.ndarray  # component labels in {1, 2, 3}


def substream(seed: int, scenario_index: int, repeat_index: int) -> np.random.Generator:
    """The documented stream-split rule; see the module docstring."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(scenario_index, repeat_index))
    )


def _fit_seed(seed: int, scenario_index: int, repeat_index: int) -> int:
    """Fit seed of one repeat, split off the data stream. It is accepted for
    compatibility and recorded; fits do not depend on it."""
    ss = np.random.SeedSequence(seed, spawn_key=(scenario_index, repeat_index, 1))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def generate(spec: SyntheticSpec, repeat_index: int, scenario_index: int = 0) -> LabeledDataset:
    """Draw one labeled dataset; deterministic given (seed, indices), which
    must be non-negative."""
    for name, index in (("repeat_index", repeat_index), ("scenario_index", scenario_index)):
        if index < 0:
            raise ValueError(f"{name} must be >= 0, got {index}")
    rng = substream(spec.seed, scenario_index, repeat_index)
    labels = rng.choice(np.array([1, 2, 3]), size=spec.n, p=np.asarray(spec.pi))
    means = np.array([0.0, float(spec.snr), -float(spec.snr)])[labels - 1]
    values = rng.normal(means, 1.0)
    return LabeledDataset(values=values, truth=labels)


def fit(model: str, data, seed: int):
    """Fit one model by name from its default start (the noise core for ggm
    and gim, k-means for bggm and bgim); returns the fit result. ``seed`` is
    accepted for compatibility; fits do not depend on it."""
    if model == "bggm":
        return fit_bggm(data, VBFitConfig(seed=seed))
    if model == "bgim":
        return fit_bgim(data, VBFitConfig(seed=seed))
    if model == "ggm":
        return fit_ggm(data, None, MLFitConfig(seed=seed))
    if model == "gim":
        return fit_gim(data, None, MLFitConfig(seed=seed))
    raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


# ``run_benchmark`` looks this name up at call time, so a test or a tracer can
# replace it to inject a failure or time each fit.
fit_model = fit


@dataclass
class RunManifest:
    """Complete provenance of one benchmark invocation. ``rows`` holds one
    dict per fit, with the keys that ``run_benchmark`` gives it."""

    specs: list
    models: list
    timing: str
    rows: list
    failures: list

    def to_dict(self) -> dict:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "version": __version__,
            "timing": self.timing,
            "models": list(self.models),
            "specs": [
                {**asdict(s), "snr": float(s.snr), "scenario_id": s.scenario_id}
                for s in self.specs
            ],
            "failures": list(self.failures),
            "rows": self.rows,
        }

    def write_manifest(self, path) -> None:
        write_json(path, self.to_dict())

    def write_runs_csv(self, path) -> None:
        """One line per row; ``seconds`` is the row's wall time when timing
        is on and 0.0 otherwise."""
        record_timing = self.timing == "wall"
        lines = ({**r, "seconds": r["wall_seconds"] if record_timing else 0.0} for r in self.rows)
        write_table(path, RUNS_CSV_COLUMNS, ([line[c] for c in RUNS_CSV_COLUMNS] for line in lines))

    def auc_table(self) -> dict:
        """scenario -> model -> AUC vector over the repeats that every model
        has in that scenario, ordered by repeat index."""
        by_repeat = {}
        for r in self.rows:
            by_repeat.setdefault(r["scenario_id"], {}).setdefault(r["model"], {})[
                r["repeat"]
            ] = r["auc"]
        table = {}
        for sc, by_model in by_repeat.items():
            runs = [by_model.get(m, {}) for m in self.models]
            shared = sorted(set.intersection(*(set(v) for v in runs)))
            table[sc] = {
                m: np.asarray([v[rep] for rep in shared]) for m, v in zip(self.models, runs)
            }
        return table

    def write_wins_csv(self, path) -> None:
        """Pairwise wins at win_matrix's default alpha over the scenarios
        with >= 2 repeats shared by every model; only the header when no
        scenario has them."""
        paired = {
            sc: by_model
            for sc, by_model in self.auc_table().items()
            if all(v.size >= 2 for v in by_model.values())
        }
        rows = []
        if paired:
            table = win_matrix(paired)
            for (ma, mb), pct in table.win_pct.items():
                won = sum(table.wins[(sc, ma, mb)] for sc in table.scenarios)
                rows.append((ma, mb, won, len(table.scenarios), float(pct)))
        write_table(path, ("model_a", "model_b", "scenarios_won", "scenarios_total", "win_pct"), rows)


def load_manifest(path):
    """Recover (specs, models, timing) from a written manifest.

    Together with ``run_benchmark`` this replays a benchmark: every
    statistical field of the rows reproduces bit-exactly (wall times do not,
    which is why they live outside the replayable CSV by default).
    """
    doc = read_json(path)
    if doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest schema: {doc.get('schema_version')!r}")
    specs = [
        SyntheticSpec(**{f.name: s[f.name] for f in fields(SyntheticSpec)})
        for s in doc["specs"]
    ]
    return specs, list(doc["models"]), doc["timing"]


def check_models(models) -> list:
    """``models`` as a list; ValueError if it is empty, unknown or repeated."""
    models = list(models)
    if not models:
        raise ValueError("no models given")
    unknown = set(models) - set(MODEL_NAMES)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    if len(set(models)) < len(models):
        raise ValueError(f"each model may be named once, got {models}")
    return models


def check_specs(specs) -> list:
    """``specs`` as a list; ValueError if two share a scenario id, since the
    outputs key every fit by that id."""
    specs, seen = list(specs), set()
    for spec in specs:
        if spec.scenario_id in seen:
            raise ValueError(f"each scenario may be given once, got {spec.scenario_id} twice")
        seen.add(spec.scenario_id)
    return specs


def run_benchmark(specs, models, timing: str = "off") -> RunManifest:
    """Fit every model on every (scenario, repeat) and evaluate each fit.

    All models of one repeat see identical data (required for the paired
    comparisons). Individual fit failures are recorded and skipped; the
    harness keeps going.
    """
    if timing not in ("off", "wall"):
        raise ValueError("timing must be 'off' or 'wall'")
    specs, models = check_specs(specs), check_models(models)
    rows = []
    failures = []
    for scenario_index, spec in enumerate(specs):
        for repeat in range(spec.repeats):
            ds = generate(spec, repeat, scenario_index)
            active = ds.truth != 1
            fit_seed = _fit_seed(spec.seed, scenario_index, repeat)
            for model in models:
                try:
                    result = fit_model(model, ds.values, fit_seed)
                    gamma = result.responsibilities
                    labels = activation_map(gamma)
                    rows.append(
                        {
                            "scenario_id": spec.scenario_id,
                            "model": model,
                            "repeat": repeat,
                            "auc": restricted_auc(gamma[:, 1] + gamma[:, 2], active),
                            "pos_frac": float(np.mean(labels == 1)),
                            "neg_frac": float(np.mean(labels == -1)),
                            "wall_seconds": result.wall_time_seconds,
                            "iterations": result.iterations,
                            "converged": result.converged,
                        }
                    )
                except Exception as exc:  # noqa: BLE001 - harness must keep going
                    failures.append(
                        {
                            "scenario_id": spec.scenario_id,
                            "model": model,
                            "repeat": repeat,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
    return RunManifest(
        specs=specs, models=models, timing=timing, rows=rows, failures=failures
    )


def default_grid(seed: int = 0, n: int = 10000, repeats: int = 100) -> list:
    """The full dataset-1 grid: 4 SNR levels x 3 sparsity levels."""
    return [
        SyntheticSpec(dataset=1, snr=snr, sparsity=sp, n=n, repeats=repeats, seed=seed)
        for snr in SNR_LEVELS
        for sp in (1, 2, 3)
    ]
