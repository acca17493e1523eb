import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gigmix
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
from gigmix.io import (
    read_labels_txt,
    read_values_f64le,
    read_values_txt,
    write_gamma_csv,
    write_labeled_csv,
    write_values_f64le,
    write_values_txt,
)


def test_spec_validation():
    SyntheticSpec(dataset=1, snr=5.0, sparsity=1)
    with pytest.raises(ValueError):
        SyntheticSpec(dataset=3, snr=5.0, sparsity=1)
    with pytest.raises(ValueError):
        SyntheticSpec(dataset=1, snr=2.5, sparsity=1)
    with pytest.raises(ValueError):
        SyntheticSpec(dataset=1, snr=5.0, sparsity=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dataset", True),
        ("dataset", 1.0),
        ("sparsity", True),
        ("sparsity", "1"),
        ("n", 2.5),
        ("n", True),
        ("repeats", 2.5),
        ("seed", 1.5),
        ("seed", False),
    ],
)
def test_spec_refuses_an_integer_field_that_is_not_an_integer(field, value):
    # SyntheticSpec(True, 5.0, 1) had the id 'dTrue-snr5-sp1', and a repeats,
    # n or seed of 2.5 failed later, inside run_benchmark, with TypeError; a
    # manifest read by load_manifest built its specs the same way.
    fields = dict(dataset=1, snr=5.0, sparsity=1, n=10, repeats=2, seed=0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SyntheticSpec(**fields)


@pytest.mark.parametrize("snr", ["5", "5.0", True, None, b"5", [5.0], 5 + 0j])
def test_spec_refuses_an_snr_that_is_not_a_real_number(snr):
    # "5" was accepted (float("5") is a level), and scenario_id then raised
    # "Unknown format code 'g'"; None raised TypeError from float().
    with pytest.raises(ValueError, match="snr must be a real number"):
        SyntheticSpec(1, snr, 1)


@pytest.mark.parametrize("snr", [5, np.float64(5.0), np.float32(5.0), np.int64(5)])
def test_spec_takes_an_int_or_numpy_snr(snr):
    assert SyntheticSpec(1, snr, 1).scenario_id == "d1-snr5-sp1"


def test_spec_takes_numpy_integers():
    spec = SyntheticSpec(np.int64(2), 3.0, np.int32(2), n=np.int64(10), repeats=np.uint8(1), seed=np.int16(4))
    assert spec.scenario_id == "d2-snr3-sp2"
    assert spec.pi == (0.95, 0.05, 0.0)
    assert generate(spec, 0).values.size == 10


@pytest.mark.parametrize("field", ["n", "repeats"])
@pytest.mark.parametrize("value", [0, -3])
def test_spec_refuses_n_or_repeats_below_one(field, value):
    with pytest.raises(ValueError, match="n and repeats must be >= 1"):
        SyntheticSpec(dataset=1, snr=5.0, sparsity=1, **{field: value})


def test_negative_seed_and_indices_are_refused_by_name():
    # numpy's own refusal ("expected non-negative integer") names no field.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SyntheticSpec(dataset=1, snr=5.0, sparsity=1, seed=-1)
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=10)
    with pytest.raises(ValueError, match="repeat_index must be >= 0, got -1"):
        generate(spec, -1)
    with pytest.raises(ValueError, match="scenario_index must be >= 0, got -2"):
        generate(spec, 0, -2)


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


def test_run_benchmark_rejects_a_repeated_scenario_before_any_fit(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "fit_model", lambda *args: calls.append(args))
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=500, repeats=1, seed=0)
    other = SyntheticSpec(dataset=1, snr=2.0, sparsity=1, n=500, repeats=1, seed=0)
    again = SyntheticSpec(dataset=1, snr=5, sparsity=1, n=700, repeats=2, seed=0)
    with pytest.raises(ValueError, match="d1-snr5-sp1"):
        run_benchmark(iter([spec, other, again]), ["ggm"])
    assert calls == []
    assert experiments.check_specs(iter([spec, other])) == [spec, other]


def test_run_benchmark_rejects_an_empty_model_list():
    spec = SyntheticSpec(dataset=1, snr=5.0, sparsity=1, n=500, repeats=1, seed=0)
    with pytest.raises(ValueError, match="no models"):
        run_benchmark([spec], [])


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


def test_load_manifest_refuses_a_spec_with_a_fractional_repeat_count(tmp_path):
    spec = dict(dataset=1, snr=5.0, sparsity=1, n=10, repeats=2.5, seed=0)
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"schema_version": 1, "specs": [spec], "models": ["ggm"], "timing": "off"}))
    with pytest.raises(ValueError, match="repeats must be an integer"):
        load_manifest(p)


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
    # Line numbers count the skipped blank and comment lines.
    p.write_text("# header\n\n1.0\noops\n")
    with pytest.raises(ValueError) as exc:
        read_values_txt(p)
    assert str(exc.value) == f"{p}:4: not a decimal value: 'oops'"


def test_label_reader_comments_and_errors(tmp_path):
    p = tmp_path / "truth.txt"
    p.write_text("# header\n1\n\n-1\n0\n")
    labels = read_labels_txt(p)
    assert labels.dtype == np.int8 and labels.tolist() == [1, -1, 0]
    for text, message in (("x", "not an integer label: 'x'"), ("2", "label must be -1, 0 or 1, got 2")):
        p.write_text(f"# header\n1\n\n{text}\n")
        with pytest.raises(ValueError) as exc:
            read_labels_txt(p)
        assert str(exc.value) == f"{p}:4: {message}"


# Text files that stress line breaking and stripping: (file bytes, what
# read_values_txt gives, what read_labels_txt gives). A result is the list of
# values or the (line number, line) of the first bad line.
_HOSTILE_TEXT = [
    (b"# h\r\n1\r\n\r\n-1\r\n0\r\n", [1, -1, 0], [1, -1, 0]),
    (b"# h\r1\r\r-1\r0\r", [1, -1, 0], [1, -1, 0]),
    (b"1\n-1\n0", [1, -1, 0], [1, -1, 0]),
    (b"  \n\t\n   # indented\n\t# tab\n 1 \n\t-1\t\n", [1, -1], [1, -1]),
    (b"1\x0c\n0\x0c\n", [1, 0], [1, 0]),
    (b"", [], []),
    (b"1\n2\n", [1, 2], (2, "2")),
    (b"1\r\n1e0\r\n", [1, 1], (2, "1e0")),
] + [
    # Two numbers on line 2: the readers break lines at \n, \r\n and \r
    # only, so each of these separators leaves one bad line.
    (f"0\n1{sep}0\n-1\n".encode("utf-8"), (2, f"1{sep}0"), (2, f"1{sep}0"))
    for sep in (" ", "\t", "\x1c", "\x85", "\u2028")
] + [
    # A value line is ASCII without "_": float and int would read digit
    # separators and non-ASCII digits. A comment may hold any text.
    (b"1\n1_5\n", (2, "1_5"), (2, "1_5")),
    (b"0\n0_1\n", (2, "0_1"), (2, "0_1")),
    ("\u0661\u0662\n".encode("utf-8"), (1, "\u0661\u0662"), (1, "\u0661\u0662")),
    ("0\n\uff11\n".encode("utf-8"), (2, "\uff11"), (2, "\uff11")),
    ("# caf\u00e9 snake_case \u0661\n1\n-1\n".encode("utf-8"), [1, -1], [1, -1]),
    ("# caf\u00e9\n0\n1_0\n".encode("utf-8"), (3, "1_0"), (3, "1_0")),
] + [
    # A file saved as "UTF-8 with BOM": one leading byte-order mark is
    # dropped, also before a comment; one anywhere else is a bad line.
    (b"\xef\xbb\xbf1\n-1\n0\n", [1, -1, 0], [1, -1, 0]),
    (b"\xef\xbb\xbf# h\n1\n-1\n", [1, -1], [1, -1]),
    (b"1\n\xef\xbb\xbf0\n", (2, "\ufeff0"), (2, "\ufeff0")),
    (b"\xef\xbb\xbf\xef\xbb\xbf1\n", (1, "\ufeff1"), (1, "\ufeff1")),
]


@pytest.mark.parametrize("reader", ["values", "labels"])
@pytest.mark.parametrize("content, values, labels", _HOSTILE_TEXT)
def test_text_readers_on_hostile_files(tmp_path, reader, content, values, labels):
    p = tmp_path / "hostile.txt"
    p.write_bytes(content)
    read, expected = (read_values_txt, values) if reader == "values" else (read_labels_txt, labels)
    if isinstance(expected, list):
        out = read(p)
        assert out.dtype == (float if reader == "values" else np.int8)
        assert out.tolist() == expected
        return
    lineno, line = expected
    if reader == "values":
        message = f"not a decimal value: {line!r}"
    elif line.isascii() and line.lstrip("-").isdigit():
        message = f"label must be -1, 0 or 1, got {int(line)}"
    else:
        message = f"not an integer label: {line!r}"
    with pytest.raises(ValueError) as exc:
        read(p)
    assert str(exc.value) == f"{p}:{lineno}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [("1\n2\nx\n", "label must be -1, 0 or 1, got 2"), ("1\nx\n2\n", "not an integer label: 'x'")],
    ids=["range-first", "integer-first"],
)
def test_label_reader_names_the_first_of_two_bad_lines(tmp_path, text, message):
    p = tmp_path / "truth.txt"
    p.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_labels_txt(p)
    assert str(exc.value) == f"{p}:2: {message}"


@pytest.mark.parametrize("read", [read_values_txt, read_labels_txt])
def test_text_readers_report_the_file_offset_of_bad_utf8(tmp_path, read):
    # The whole file is decoded at once, so the offset is the byte's own,
    # not one within a decoder chunk.
    p = tmp_path / "bad.txt"
    p.write_bytes(b"1\n" * 10_000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError, match="in position 20000: invalid start byte"):
        read(p)


def _read_pipe(read, content: bytes):
    """``read`` of a pipe holding ``content``, through its /dev/fd path."""
    r, w = os.pipe()
    try:
        os.write(w, content)
        os.close(w)
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)


_needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")


@_needs_dev_fd
@pytest.mark.parametrize(
    "read, content, message",
    [
        (read_values_txt, b"1.0\n-2.0\noops\n3.0\n", "not a decimal value: 'oops'"),
        (read_labels_txt, b"1\n0\n2\n-1\n", "label must be -1, 0 or 1, got 2"),
        (read_labels_txt, b"1\n0\nx\n-1\n", "not an integer label: 'x'"),
    ],
    ids=["values", "label-out-of-range", "label-not-an-integer"],
)
def test_text_readers_name_a_bad_line_of_a_pipe(read, content, message):
    # A pipe can be read only once: the bad line must be found in the text
    # already read, not by opening the file again.
    with pytest.raises(ValueError) as exc:
        _read_pipe(read, content)
    assert str(exc.value).endswith(f":3: {message}")
    assert str(exc.value).startswith("/dev/fd/")


@_needs_dev_fd
def test_text_readers_read_a_good_pipe():
    assert _read_pipe(read_values_txt, b"# h\n1.5\n\n-2\n").tolist() == [1.5, -2.0]
    labels = _read_pipe(read_labels_txt, b"1\n0\n-1\n")
    assert labels.dtype == np.int8 and labels.tolist() == [1, 0, -1]


_FIFO_READER = """
import sys, threading
from gigmix.io import read_labels_txt

def feed():
    with open(sys.argv[1], "w") as fh:
        fh.write("1\\n0\\nx\\n")

threading.Thread(target=feed, daemon=True).start()
try:
    read_labels_txt(sys.argv[1])
except ValueError as exc:
    print(exc)
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_label_reader_names_a_bad_line_of_a_fifo(tmp_path):
    # Run in a child with a timeout: a reader that opens the FIFO a second
    # time blocks there for good, as no writer is left.
    fifo = tmp_path / "labels.fifo"
    os.mkfifo(fifo)
    src = pathlib.Path(gigmix.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _FIFO_READER, str(fifo)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout == f"{fifo}:3: not an integer label: 'x'\n", done.stderr


def _values_txt_reference(path, values):
    """The former per-element ``write_values_txt``."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(values, dtype=float).ravel():
            fh.write(f"{float(v)!r}\n")


def _labeled_csv_reference(path, values, labels):
    """The former per-element ``write_labeled_csv``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,label\n")
        for vi, li in zip(np.asarray(values, dtype=float).ravel(), np.asarray(labels).ravel()):
            fh.write(f"{float(vi)!r},{int(li)}\n")


def _hostile_values(n):
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 3.0, n) * 10.0 ** rng.integers(-300, 300, n)
    special = [5e-324, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e-300, 0.0, 1 / 3]
    # At the start, across the first block boundary and at the end.
    for at in (0, 8192 - 4, n - len(special)):
        x[at : at + len(special)] = special
    return x


@pytest.mark.parametrize("dtype, levels", [(np.int8, [-1, 0, 1]), (np.int64, [1, 2, 3])])
def test_writers_match_the_per_element_formatters(tmp_path, dtype, levels):
    n = 2 * 8192 + 5
    x = _hostile_values(n)
    labels = np.random.default_rng(10).choice(levels, n).astype(dtype)
    for write, reference, args in (
        (write_values_txt, _values_txt_reference, (x,)),
        (write_labeled_csv, _labeled_csv_reference, (x, labels)),
    ):
        new, old = tmp_path / "new", tmp_path / "old"
        write(new, *args)
        reference(old, *args)
        assert new.read_bytes() == old.read_bytes()
    write_values_txt(new, x)
    assert np.array_equal(read_values_txt(new), x, equal_nan=True)


@pytest.mark.parametrize("n_labels", [1, 4])
def test_labeled_csv_refuses_unequal_lengths(tmp_path, n_labels):
    p = tmp_path / "labeled.csv"
    with pytest.raises(ValueError, match=f"3 values but {n_labels} labels"):
        write_labeled_csv(p, [1.0, 2.0, 3.0], [1] * n_labels)
    assert not p.exists()


def test_gamma_csv_round_trips_every_value(tmp_path):
    rng = np.random.default_rng(8)
    gamma = rng.dirichlet([1.0, 1.0, 1.0], 8192 * 2 + 5)
    gamma[:3] = [[1.0, 0.0, 0.0], [0.0, 5e-324, 1.0], [1 / 3, 0.1, 0.2]]
    p = tmp_path / "gamma.csv"
    write_gamma_csv(p, gamma)
    lines = p.read_text().splitlines()
    assert lines[0] == "gamma1,gamma2,gamma3"
    assert lines[1:4] == ["1.0,0.0,0.0", "0.0,5e-324,1.0", "0.3333333333333333,0.1,0.2"]
    assert np.array_equal(np.array([[float(v) for v in l.split(",")] for l in lines[1:]]), gamma)


@pytest.mark.parametrize("shape", [(5, 4), (5, 2), (5,), (2, 3, 1)])
def test_gamma_csv_refuses_a_matrix_that_is_not_n_by_3(tmp_path, shape):
    p = tmp_path / "gamma.csv"
    with pytest.raises(ValueError, match="N x 3"):
        write_gamma_csv(p, np.full(shape, 0.25))
    assert not p.exists()


def test_f64le_truncation_detected(tmp_path):
    p = tmp_path / "v.f64le"
    write_values_f64le(p, np.arange(4.0))
    raw = p.read_bytes()
    p.write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        read_values_f64le(p)
