"""Deterministic CSV/JSON serialization for experiment results.

Identical inputs must produce byte-identical files on the same numpy build
at the same CPU dispatch level: floats are written with repr (shortest
round-trip form), JSON keys are sorted, line endings are '\\n', and nothing
time- or host-dependent is ever emitted.  The values themselves may differ
in the last bits across dispatch levels (numpy's AVX-512 and baseline
kernels for power, exp, log, expm1 and log1p round some values
differently), and then so do the bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json

import numpy as np

from . import __version__


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_text(rows, columns=None) -> str:
    """Render rows (dicts, at least one) as CSV with a header, '.' decimals,
    '\\n' ends; the columns are the first row's keys unless given."""
    rows = list(rows)
    if columns is None:
        columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    return buf.getvalue()


def jsonable(obj):
    """Recursively convert results (dataclasses, numpy) to JSON-safe data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, enum.Enum):
        return obj.value  # enum members serialize by their label
    return obj


def json_payload(config: dict, tables: dict, fits: dict) -> dict:
    return {
        "version": f"neckflow {__version__}",
        "config": jsonable(config),
        "tables": jsonable(tables),
        "fits": jsonable(fits),
    }


def json_text(payload: dict) -> str:
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


#: zeta's CSV order; every other table's columns are its rows' keys
ZETA_COLUMNS = [
    "n",
    "side",
    "psi_mid",
    "c",
    "zeta",
    "upsilon0",
    "zeta_prime",
    "zeta_second",
    "err_est",
]
