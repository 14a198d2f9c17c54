"""Deterministic CSV/JSON writers with a config-hash header.

Every file starts with (or embeds, for JSON) the SHA-256 of the canonical
JSON encoding of the producing configuration, so identical configs yield
byte-identical artifacts.
"""

import hashlib
import json
import os

import numpy as np

from .signals import ValidationError


def config_hash(cfg):
    """SHA-256 over the canonical JSON encoding of a config mapping."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# rows formatted and written per step: the strings of one block are held at once
BLOCK_ROWS = 4096


def _text(values):
    """One block of a column as text: bools as 0/1, floats as their shortest round-trip repr.

    Each distinct value is formatted once and spread over the rows it fills;
    distinct float64 values are distinct bits, so -0.0 and 0.0 stay apart.
    Values go through tolist(), because repr of a numpy float64 reads
    'np.float64(...)' under numpy 2; str of a Python float is its repr.
    Other dtypes (strings, objects) are formatted value by value.
    """
    if values.dtype == bool:
        values = values.astype(int)
    if values.dtype.kind not in "iu" and values.dtype != np.float64:
        return list(map(str, values.tolist()))
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, index = np.unique(keys, return_inverse=True)
    text = np.array(list(map(str, distinct.view(values.dtype).tolist())), dtype=object)
    return text[index]


def write_csv(path, cfg, table):
    """CSV of a {name: column} table with a '#' config-hash line, LF endings, UTF-8.

    The rows are written BLOCK_ROWS at a time, each block with one '%' format.
    Columns of unequal length are rejected before the file is opened.
    """
    columns = [np.asarray(values) for values in table.values()]
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValidationError(f"columns of unequal length {sorted(lengths)}: {list(table)}")
    n_rows = lengths.pop() if lengths else 0
    row = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        fh.write(",".join(table) + "\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_rows)
            cells = np.empty((stop - start, len(columns)), dtype=object)
            for j, col in enumerate(columns):
                cells[:, j] = _text(col[start:stop])
            fh.write(row * (stop - start) % tuple(cells.ravel().tolist()))


def write_json(path, cfg, payload):
    """JSON document whose first key is the config hash, then the config echo."""
    doc = {"config_hash": config_hash(cfg), "config": cfg}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")


def write_artifacts(out_dir, cfg, files):
    """Write each {file name: content} entry into out_dir, made if missing, under one config.

    A '.csv' name takes a {column: values} table (write_csv), any other name a
    JSON payload (write_json).  Returns the paths in the order given.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    for path, content in zip(paths, files.values()):
        (write_csv if path.endswith(".csv") else write_json)(path, cfg, content)
    return paths
