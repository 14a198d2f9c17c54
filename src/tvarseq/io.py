"""Deterministic CSV/JSON writers with a config-hash header.

Every file starts with (or embeds, for JSON) the SHA-256 of the canonical
JSON encoding of the producing configuration, so identical configs yield
byte-identical artifacts.
"""

import hashlib
import json

import numpy as np


def config_hash(cfg):
    """SHA-256 over the canonical JSON encoding of a config mapping."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _column(values):
    """One column as text: bools as 0/1, floats as their shortest round-trip repr.

    The values go through tolist(), because repr of a numpy float64 reads
    'np.float64(...)' under numpy 2; str of a Python float is its repr.  The
    strings are made row by row as the file is written, not held all at once.
    """
    values = np.asarray(values)
    if values.dtype == bool:
        values = values.astype(int)
    return map(str, values.tolist())


def write_csv(path, cfg, table):
    """CSV of a {name: column} table with a '#' config-hash line, LF endings, UTF-8."""
    columns = [_column(values) for values in table.values()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        fh.write(",".join(table) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns, strict=True))


def write_json(path, cfg, payload):
    """JSON document whose first key is the config hash, then the config echo."""
    doc = {"config_hash": config_hash(cfg), "config": cfg}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")
