"""On-disk layout for fitted models.

A fit directory holds `manifest.json` (dims, config, seed and the array
name -> shape table), one `<name>.bin` of row-major float64 per array, and
`elbo.csv` with the recorded (step, value) trace. Name-keyed scores (author
weights, ideal points) are two-column CSVs of a name and a float.
"""

from __future__ import annotations

import contextlib
import csv
import json
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


def save_fit_dir(outdir, arrays, manifest=None, elbo_trace=None):
    """Write arrays plus manifest/trace; `manifest` supplies extra fields."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = dict(manifest or {})
    doc["format"] = FORMAT_TAG
    doc["arrays"] = {name: list(arr.shape) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        np.ascontiguousarray(arr, dtype=np.float64).tofile(outdir / f"{name}.bin")
    with open(outdir / MANIFEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if elbo_trace is not None:
        with open(outdir / ELBO_FILE, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "elbo"])
            for step, value in elbo_trace:
                writer.writerow([step, repr(float(value))])


def load_fit_dir(indir):
    """Return (arrays, manifest, elbo_trace) from a fit directory."""
    indir = Path(indir)
    with open_text(indir / MANIFEST_FILE) as fh:
        manifest = json.load(fh)
    arrays = {}
    for name, shape in manifest.get("arrays", {}).items():
        data = np.fromfile(indir / f"{name}.bin", dtype=np.float64)
        arrays[name] = data.reshape(shape)
    trace = []
    elbo_path = indir / ELBO_FILE
    if elbo_path.exists():
        with open_text(elbo_path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0] == "step":
                    continue
                trace.append((int(row[0]), float(row[1])))
    return arrays, manifest, trace


def save_named_values(path, header, names, values):
    """Write a two-field `header` row, then one (name, repr(float)) row each."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, value in zip(names, values):
            writer.writerow([name, repr(float(value))])


def load_named_values(path, header):
    """Read (name, float) rows; returns (names, values as an array).

    Only a first row whose first field is header[0] is taken as the header,
    so that name is kept on every later row. A row without a name and a
    number, or one that repeats a name, raises ValueError naming the file
    and the line.
    """
    names, values, seen = [], [], set()
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row or (i == 0 and row[0] == header[0]):
                continue
            try:
                values.append(float(row[1]))
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected a name and a number, got {row!r}"
                ) from None
            if row[0] in seen:
                raise ValueError(f"{path}:{reader.line_num}: repeats name {row[0]!r}")
            seen.add(row[0])
            names.append(row[0])
    return names, np.asarray(values)
