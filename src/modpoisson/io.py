"""Serialization: weight files, mass-function CSV/JSON, report tables."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import fields

import numpy as np

from .metrics import CSV_HEADER

CSV_MASS_HEADER = "k,mass"


def fmt17(x) -> str:
    """Floats with 17 significant digits (round-trip exact)."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def read_weights_csv(path) -> list:
    """One probability per line; '#' starts a comment; blanks ignored.

    numpy parses the file.  A file it cannot read, or one with a line of
    several values, is read again line by line, which names the first line
    that is not a number (or raises open()'s own error).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file has no weights
            table = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8")
        if table.shape[1] == 1:
            return table[:, 0].tolist()
    except (OSError, ValueError):
        pass
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                weights.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a probability: {line!r}")
    return weights


def mass_csv_lines(measure) -> list:
    masses = measure.masses.astype(float, copy=False).tolist()  # f"{m:.17g}" is fmt17(m)
    return [CSV_MASS_HEADER] + [f"{k},{m:.17g}" for k, m in zip(measure.support(), masses)]


def mass_json_obj(measure) -> dict:
    return {"offset": measure.offset, "masses": measure.masses.astype(float, copy=False).tolist()}


def report_csv_lines(reports) -> list:
    return [CSV_HEADER] + [",".join(fmt17(getattr(rep, f.name)) for f in fields(rep))
                           for rep in reports]


def report_json_obj(rep) -> dict:
    """The row keyed by the CSV header's columns; an infinite slack is "inf"."""
    obj = {col: getattr(rep, f.name)
           for col, f in zip(CSV_HEADER.split(","), fields(rep))}
    if obj["slack"] is not None and not math.isfinite(obj["slack"]):
        obj["slack"] = "inf"
    return obj


def report_jsonl_lines(reports) -> list:
    return [json.dumps(report_json_obj(rep), sort_keys=True) for rep in reports]
