"""File formats: value vectors, label vectors, responsibilities, fit results.

Two value-vector formats are supported:

* ``txt`` — one decimal value per line, UTF-8, '.' decimal separator,
  ``#``-prefixed comment lines and blank lines ignored.
* ``f64le`` — an 8-byte unsigned little-endian count header followed by that
  many little-endian 64-bit floats.

Floats written to text (CSV/JSON) use the shortest round-trip representation,
so identical numbers always serialize to identical bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

RESULT_SCHEMA_VERSION = 1


def _text_lines(path):
    """(line number, stripped line) for each line of a UTF-8 text file that is
    neither blank nor a ``#`` comment."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            # line[0], not startswith: it offsets the generator's per-line cost.
            if line and line[0] != "#":
                yield lineno, line


def _parse_text(path, parse) -> list:
    """``parse`` mapped over the lines that ``_text_lines`` yields, from one
    read of the whole file.

    The text is split on ``"\n"`` alone: after the text layer's newline
    translation (``\r\n`` and ``\r`` become ``\n``) that is where
    iterating the file breaks lines. ``str.split()`` and ``splitlines()``
    would also break at ``\x1c``-``\x1e``, ``\x85`` and ``\u2028``, and so
    accept ``1.0\x1c2.0`` as two values. Raises ``ValueError`` on any line
    that ``parse`` refuses, without saying which; callers then rerun the line
    loop for the message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return list(map(parse, [s for s in map(str.strip, lines) if s and s[0] != "#"]))


def read_values_txt(path) -> np.ndarray:
    """Decimal values, one per line; blank and ``#`` lines are skipped.

    The file is read and parsed at once (``_parse_text``). If that fails, the
    line loop reads it again to name the first bad line and its number.
    """
    try:
        values = _parse_text(path, float)
    except ValueError:
        values = []
        for lineno, line in _text_lines(path):
            try:
                values.append(float(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a decimal value: {line!r}") from exc
    return np.asarray(values, dtype=float)


def write_values_txt(path, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(values, dtype=float).ravel():
            fh.write(f"{float(v)!r}\n")


def read_values_f64le(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated f64le header")
        (count,) = struct.unpack("<Q", header)
        payload = fh.read()
    if len(payload) != 8 * count:
        raise ValueError(
            f"{path}: expected {8 * count} payload bytes for {count} values, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").astype(float)


def write_values_f64le(path, values) -> None:
    x = np.asarray(values, dtype="<f8").ravel()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", x.size))
        fh.write(x.tobytes())


def read_values(path, fmt: str) -> np.ndarray:
    if fmt == "txt":
        return read_values_txt(path)
    if fmt == "f64le":
        return read_values_f64le(path)
    raise ValueError(f"unknown input format {fmt!r}")


def read_labels_txt(path) -> np.ndarray:
    """Activation labels, one integer in {-1, 0, 1} per line; blank and ``#``
    lines are skipped.

    As in ``read_values_txt``, the file is parsed at once, and the line loop
    runs only to report the first bad line: one that is not an integer or a
    label outside {-1, 0, 1}.
    """
    try:
        labels = _parse_text(path, int)
        if not set(labels) <= {-1, 0, 1}:
            raise ValueError("label out of range")
    except ValueError:
        labels = []
        for lineno, line in _text_lines(path):
            try:
                v = int(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not an integer label: {line!r}") from exc
            if v not in (-1, 0, 1):
                raise ValueError(f"{path}:{lineno}: label must be -1, 0 or 1, got {v}")
            labels.append(v)
    return np.asarray(labels, dtype=np.int8)


# Rows formatted and written per block: one write and one list of Python
# floats per 8192 rows.
_CSV_BLOCK = 8192


def write_gamma_csv(path, gamma) -> None:
    """Responsibilities as CSV: a ``gamma1,gamma2,gamma3`` header, then one
    row per sample, each value in its shortest round-trip ``repr``.

    ``gamma`` must be an N x 3 matrix; anything else raises ``ValueError``
    before the file is opened. Each block of rows becomes Python floats with
    one ``tolist()`` and one string with one ``%`` format, so the cost is
    close to that of the ``repr`` calls alone.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[1] != 3:
        raise ValueError(f"gamma must be an N x 3 matrix, got shape {g.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gamma1,gamma2,gamma3\n")
        for lo in range(0, len(g), _CSV_BLOCK):
            block = g[lo : lo + _CSV_BLOCK]
            fh.write(("%r,%r,%r\n" * len(block)) % tuple(block.ravel().tolist()))


def write_labeled_csv(path, values, labels) -> None:
    v = np.asarray(values, dtype=float).ravel()
    l = np.asarray(labels).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,label\n")
        for vi, li in zip(v, l):
            fh.write(f"{float(vi)!r},{int(li)}\n")


def _floats(seq):
    return [float(v) for v in np.asarray(seq, dtype=float).ravel()]


def _plain(obj) -> dict:
    """A dataclass of floats and float arrays as a dict of floats and lists."""
    return {k: float(v) if np.ndim(v) == 0 else _floats(v) for k, v in vars(obj).items()}


def result_to_dict(result, model: str, seed: int, include_timing: bool = False) -> dict:
    """JSON document of an ML (``params``) or VB (``state``) fit result."""
    doc = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "model": model,
        "seed": int(seed),
        "converged": bool(result.converged),
        "stop_reason": result.stop_reason,
        "iterations": int(result.iterations),
        "degenerate_rows": int(result.degenerate_rows),
    }
    if hasattr(result, "state"):
        doc["kind"] = "vb"
        doc["nfe_trace"] = _floats(result.nfe_trace)
        doc["state"] = _plain(result.state)
        doc["expectations"] = _plain(result.expectations)
    else:
        p = result.params
        doc["kind"] = "ml"
        doc["loglik_trace"] = _floats(result.loglik_trace)
        doc["params"] = {
            "pi": _floats(p.pi),
            "gaussian": {"mu": float(p.comp1.mu), "tau": float(p.comp1.tau)},
        }
        for side, comp in (("positive", p.comp2), ("negative", p.comp3)):
            doc["params"][side] = {
                "family": comp.family.kind,
                "shape": float(comp.shape),
                "rate": float(comp.rate),
            }
    if include_timing:
        doc["wall_time_seconds"] = float(result.wall_time_seconds)
    return doc


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
