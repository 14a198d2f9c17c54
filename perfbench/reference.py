"""Reference values recorded from a known-good commit, and the tolerances a
later commit's outputs must meet.

Files live in `reference/`: one per workload, mapping seed -> call key ->
{field: value}, plus `anchor.json` for the fixed-seed anchor calls.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# field -> (relative tolerance, field whose magnitude sets the scale, if any).
# A tolerance of 0 demands identical values.
TOLERANCES = {
    "rbar": (1e-12, None),
    "rbar_star": (1e-12, None),
    "gamma_frequency": (1e-12, None),
    "mean_k": (1e-12, None),
    "mean_t": (1e-12, None),
    "alpha_k": (0.0, None),
    "alpha_t": (0.0, None),
    "S_star_sum": (1e-12, "S_star_abs_sum"),
    "S_star_sumsq": (1e-12, None),
    "S_star_abs_sum": (1e-12, None),
    "beta_hat_sum": (1e-12, "beta_hat_abs_sum"),
    "beta_hat_sumsq": (1e-12, None),
    "beta_hat_abs_sum": (1e-12, None),
    "pinsker_constant": (1e-12, None),
    # quad's own tolerance; the Parseval value differs by about 9e-11
    "sigma_star": (1e-8, None),
    "upsilon": (1e-8, None),
}


def compare(key, values, expected):
    """Problems with `values` against the recorded `expected` for one call."""
    if expected is None:
        return [f"{key}: no recorded reference"]
    problems = []
    for field, ref in expected.items():
        if field not in values:
            problems.append(f"{key}: {field} missing")
            continue
        if isinstance(ref, dict):  # a call that returns several cells
            problems += compare(f"{key}: {field}", values[field], ref)
            continue
        rel, scale_field = TOLERANCES[field]
        scale = max(abs(ref), abs(expected[scale_field]) if scale_field else 0.0)
        got = values[field]
        if not abs(got - ref) <= rel * scale:  # also catches NaN
            problems.append(f"{key}: {field} = {got!r}, reference {ref!r}")
    return problems


def path(name):
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load(name):
    """Recorded values for a workload (or "anchor"); empty when none exist."""
    try:
        with open(path(name), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save(name, doc):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path(name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
