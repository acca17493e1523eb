"""File formats: value vectors, label vectors, responsibilities, fit results,
the benchmark's tables and manifest. This is the one module that opens a file.

Two value-vector formats are supported:

* ``txt`` — one decimal value per line, UTF-8 (one leading byte-order mark is
  dropped), '.' decimal separator,
  ``#``-prefixed comment lines and blank lines ignored. A value line is
  ASCII without ``_``: Python's ``float`` and ``int`` would also read digit
  separators and non-ASCII digits. The file is read once, so a pipe or FIFO
  can be the input.
* ``f64le`` — an 8-byte unsigned little-endian count header followed by that
  many little-endian 64-bit floats.

Floats written to text (CSV/JSON) use the shortest round-trip representation,
so identical numbers always serialize to identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

RESULT_SCHEMA_VERSION = 1


def _read_text(path, parse, check) -> list:
    """``parse`` of the stripped lines of a UTF-8 text file that are neither
    blank nor a ``#`` comment, from one read of the file.

    Lines break at ``"\n"`` alone, after the text layer's newline translation
    (``\r\n`` and ``\r`` become ``\n``); ``str.split()`` and ``splitlines()``
    would also break at ``\x1c``-``\x1e``, ``\x85`` and ``\u2028``. If
    ``parse`` fails, or a kept line is not ``_plain_text``, the lines already
    read are walked for the first one that ``check`` refuses, raised as
    ``path:lineno: message``. The file is opened once, so a pipe or FIFO
    reads like any other file. Comments may hold any text, so the kept lines
    are looked at only when the whole text is not plain.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = text.split("\n")
    try:
        kept = [s for s in map(str.strip, lines) if s and s[0] != "#"]
        if not (_plain_text(text) or _plain_text("".join(kept))):
            raise ValueError("a value line is not plain ASCII")
        return parse(kept)
    except ValueError:
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            if line and line[0] != "#":
                try:
                    check(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
        raise


def _plain_text(text) -> bool:
    """Whether ``text`` is ASCII without ``_``: ``str.isascii`` reads a flag
    of the string, and ``in`` is one C-level scan."""
    return text.isascii() and "_" not in text


def _decimal(line) -> float:
    try:
        if not _plain_text(line):
            raise ValueError(line)
        return float(line)
    except ValueError as exc:
        raise ValueError(f"not a decimal value: {line!r}") from exc


def read_values_txt(path) -> np.ndarray:
    """Decimal values, one per line; blank and ``#`` lines are skipped."""
    return np.asarray(_read_text(path, lambda kept: list(map(float, kept)), _decimal), dtype=float)


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


def _labels(kept) -> list:
    labels = list(map(int, kept))
    if not set(labels) <= {-1, 0, 1}:
        raise ValueError("label out of range")
    return labels


def _label(line) -> int:
    try:
        if not _plain_text(line):
            raise ValueError(line)
        v = int(line)
    except ValueError as exc:
        raise ValueError(f"not an integer label: {line!r}") from exc
    if v not in (-1, 0, 1):
        raise ValueError(f"label must be -1, 0 or 1, got {v}")
    return v


def read_labels_txt(path) -> np.ndarray:
    """Activation labels, one integer in {-1, 0, 1} per line; blank and ``#``
    lines are skipped."""
    return np.asarray(_read_text(path, _labels, _label), dtype=np.int8)


# Rows formatted and written per block: one write and one list of Python
# floats per 8192 rows.
_CSV_BLOCK = 8192


def _write_table(path, header: str, row: str, table: np.ndarray) -> None:
    """``header``, then ``row % tuple(r)`` for each row ``r`` of the matrix
    ``table``: one ``tolist()``, one ``%`` format and one write per
    block of rows, so the cost is close to that of the ``repr`` calls alone."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for lo in range(0, len(table), _CSV_BLOCK):
            block = table[lo : lo + _CSV_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_table(path, columns, rows) -> None:
    """A CSV with a ``columns`` header and one line per row of values: a
    ``bool`` as 0/1, anything else as ``str()``, which is ``repr()`` for a
    float."""
    fields = np.array([[int(v) if isinstance(v, bool) else v for v in row] for row in rows], dtype=object)
    _write_table(path, ",".join(columns) + "\n", ",".join(["%s"] * len(columns)) + "\n", fields)


def write_values_txt(path, values) -> None:
    _write_table(path, "", "%r\n", np.asarray(values, dtype=float).reshape(-1, 1))


def write_gamma_csv(path, gamma) -> None:
    """Responsibilities as CSV: a ``gamma1,gamma2,gamma3`` header, then one
    row per sample, each value in its shortest round-trip ``repr``.

    ``gamma`` must be an N x 3 matrix; anything else raises ``ValueError``
    before the file is opened.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[1] != 3:
        raise ValueError(f"gamma must be an N x 3 matrix, got shape {g.shape}")
    _write_table(path, "gamma1,gamma2,gamma3\n", "%r,%r,%r\n", g)


def write_labeled_csv(path, values, labels) -> None:
    """A ``value,label`` CSV. Labels are written as integers (exact below
    2**53); unequal sizes raise ``ValueError`` before the file is opened."""
    v = np.asarray(values, dtype=float).ravel()
    l = np.asarray(labels).ravel()
    if v.size != l.size:
        raise ValueError(f"got {v.size} values but {l.size} labels")
    _write_table(path, "value,label\n", "%r,%d\n", np.column_stack((v, l)))


def _floats(seq):
    return np.asarray(seq, dtype=float).ravel().tolist()


def _plain(obj) -> dict:
    """A dataclass of floats and float arrays as a dict of floats and lists."""
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {k: float(v) if np.ndim(v) == 0 else _floats(v) for k, v in values}


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


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
