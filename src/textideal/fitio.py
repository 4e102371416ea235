"""On-disk layout for fitted models.

A fit directory, written only by `save_fit_dir`, holds `manifest.json` (the
config with the model and its seed, the array name -> shape table, and name
lists such as `author_names`), one `<name>.bin` of row-major float64 per
array, and `elbo.csv` with the recorded (step, value) trace, header-only when
none was recorded. Name-keyed scores (author weights, ideal points) are
two-column CSVs of a name and a float. These and the doc_index-keyed corpus
tables are read by `read_keyed_rows`, whose errors start `path:line:`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from pathlib import Path

import numpy as np

MANIFEST_FILE = "manifest.json"
ELBO_FILE = "elbo.csv"
FORMAT_TAG = "textideal-fit-v1"


@contextlib.contextmanager
def open_text(path, newline=None):
    """Open `path` for reading as UTF-8 text.

    Bytes that are not UTF-8, wherever the reader meets them, raise
    ValueError naming the file.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def save_fit_dir(outdir, arrays, config, elbo_trace=(), **names):
    """Write `arrays`, the manifest and the trace; `config` holds the model and
    its seed, `names` the name lists, such as author_names."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, arr in arrays.items():
        np.ascontiguousarray(arr, dtype=np.float64).tofile(outdir / f"{name}.bin")
    manifest = {**names, "format": FORMAT_TAG, "config": config,
                "arrays": {name: list(arr.shape) for name, arr in arrays.items()}}
    with open(outdir / MANIFEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(outdir / ELBO_FILE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "elbo"])
        for step, value in elbo_trace:
            writer.writerow([step, repr(float(value))])


def load_fit_dir(indir):
    """Return (arrays, manifest, elbo_trace) from a fit directory.

    Raises ValueError naming the file on a manifest that is not a JSON
    object, or whose `config` is not an object, `arrays` not an object of
    shapes (lists of non-negative ints), or `author_names` or `debate_ids`
    not a list of strings (or null); on a `.bin` that does not hold its
    shape, author_names that do not name each row of x, or an `elbo.csv`
    row that is not a step and a number. Manifest keys it does not read,
    such as older fits' `dims` and `seed`, are kept.
    """
    indir = Path(indir)
    manifest_path = indir / MANIFEST_FILE
    with open_text(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: expected a JSON object")

    def require(key, ok, kind):
        if not ok:
            raise ValueError(f"{manifest_path}: {key!r} must be {kind}")

    shapes = manifest.get("arrays", {})
    require("config", isinstance(manifest.get("config", {}), dict), "an object")
    require("arrays", isinstance(shapes, dict) and all(
        isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
        for shape in shapes.values()), "an object of lists of non-negative ints")
    for key in ("author_names", "debate_ids"):
        names = manifest.get(key)
        require(key, names is None or isinstance(names, list)
                and all(isinstance(n, str) for n in names), "a list of strings")
    arrays = {}
    for name, shape in shapes.items():
        path = indir / f"{name}.bin"
        data = np.fromfile(path, dtype=np.float64)
        if data.size != math.prod(shape):
            raise ValueError(f"{path}: {data.size} values for shape {shape}")
        arrays[name] = data.reshape(shape)
    names = manifest.get("author_names")
    if names is not None and "x" in arrays and arrays["x"].shape[:1] != (len(names),):
        raise ValueError(f"{manifest_path}: {len(names)} author_names for x of "
                         f"shape {list(arrays['x'].shape)}")
    elbo_path = indir / ELBO_FILE
    trace = []
    with open_text(elbo_path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0] == "step":
                continue
            try:
                trace.append((int(row[0]), float(row[1])))
            except (IndexError, ValueError):
                raise ValueError(
                    f"{elbo_path}:{reader.line_num}: expected a step and a number, got {row!r}"
                ) from None
    return arrays, manifest, trace


def save_named_values(path, header, names, values):
    """Write a two-field `header` row, then one (name, repr(float)) row each."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, value in zip(names, values):
            writer.writerow([name, repr(float(value))])


def read_keyed_rows(path, header, parse, expected):
    """{key: parse(row)'s value} over the rows of a keyed CSV, in file order.

    Blank rows are skipped, and only a first row whose first field is
    `header` is the header, so that key is kept on every later row. A row
    of fewer than two fields or that `parse` rejects (the message says
    `expected`), or that repeats a key, raises ValueError `path:line: ...`.
    """
    rows = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row or (i == 0 and row[0] == header):
                continue
            try:
                if len(row) < 2:
                    raise ValueError
                key, value = parse(row)
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {expected}, got {row!r}"
                ) from None
            if key in rows:
                raise ValueError(f"{path}:{reader.line_num}: repeats {header} {key!r}")
            rows[key] = value
    return rows


def load_named_values(path, header):
    """(names, values as an array) from (name, float) rows under `header`."""
    rows = read_keyed_rows(path, header[0], lambda row: (row[0], float(row[1])),
                           "a name and a number")
    return list(rows), np.asarray(list(rows.values()))
