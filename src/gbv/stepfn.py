"""Functions on [0, 1] sampled on a uniform grid.

The grid convention: a :class:`StepFunction` with resolution ``m`` stores
``m + 1`` values, value ``i`` living at ``t_i = i/m``. All interval
endpoints used by the variation machinery are grid points, which makes
every variation computation exact combinatorics.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError


@dataclass(frozen=True)
class StepFunction:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 2:
            raise ValidationError("need at least 2 samples")
        if not np.all(np.isfinite(values)):
            raise ValidationError("samples must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m(self):
        return len(self.values) - 1

    def scaled(self, c):
        return StepFunction(self.values * c)

    def to_json_dict(self):
        return {"m": self.m, "values": [float(v) for v in self.values]}

    def write(self, path):
        """Write the samples as JSON, in the form :func:`ingest` reads."""
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)


def ingest(path, fmt="csv"):
    """Load a StepFunction from a file.

    CSV: one value per line. JSON: ``{"m": int, "values": [...]}`` with
    ``m`` optional but checked when present. :class:`StepFunction` checks
    the samples.
    """
    if fmt == "csv":
        values = []
        with open(path) as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    values.append(float(row[0]))
                except ValueError as exc:
                    raise ValidationError(f"bad value {row[0]!r} in {path}") from exc
    elif fmt == "json":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"cannot parse {path}: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("values", []), list):
            raise ValidationError(f"JSON input {path} must be an object whose 'values' is a list")
        values = doc.get("values")
        if values is None:
            raise ValidationError("JSON input needs a 'values' field")
        for i, v in enumerate(values):
            if type(v) not in (int, float):  # a bool, string, object, list or null
                raise ValidationError(f"JSON input {path}: values[{i}] is {v!r}, not a number")
        if "m" in doc and doc["m"] != len(values) - 1:
            raise ValidationError("declared m inconsistent with values length")
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    return StepFunction(values)


def plateau_edges(n, t_n, delta_n, m):
    """The ``2 t_n`` grid indices ``m (2^-n + i/delta_n)``, ``i = 0..2 t_n - 1``,
    of level n's plateau train: plateau j (1-based) opens at edge ``2j - 2``
    and closes at edge ``2j - 1``. A :class:`ResolutionError` when the grid
    ``m`` is not divisible by ``2^n`` and by ``delta_n``, or the train runs
    past 1."""
    if m % (1 << n) != 0 or m % delta_n != 0:
        raise ResolutionError(
            f"grid m={m} cannot represent level n={n} plateaus with delta={delta_n}")
    edges = (m >> n) + (m // delta_n) * np.arange(2 * t_n)
    if edges.max(initial=0) > m:
        raise ResolutionError(
            f"plateaus exceed [0, 1] at level n={n} (t_n={t_n}, delta={delta_n})")
    return edges


def generate_block(n, height, t_n, delta_n, m):
    """A train of ``t_n`` plateaus of the given height at level ``n``.

    Plateau j (1-based) covers the half-open interval
    ``[2^-n + (2j-2)/delta_n, 2^-n + (2j-1)/delta_n)`` between two of
    :func:`plateau_edges`; the value at the closing grid point is 0, so the
    increment across the closing edge is exact.
    """
    if t_n < 0 or n < 1 or m < 1:
        raise ValidationError("need n >= 1, t_n >= 0, m >= 1")
    delta_n = int(delta_n)
    if delta_n < 2:
        raise ValidationError("delta_n must be >= 2")
    values = np.zeros(m + 1)
    if t_n == 0 or height == 0:
        return StepFunction(values)
    edges = plateau_edges(n, t_n, delta_n, m)
    for start, end in zip(edges[::2], edges[1::2]):
        values[start:end] = height
    return StepFunction(values)


@dataclass(frozen=True)
class IntervalCollection:
    """An ordered list of nonoverlapping grid intervals with increments.

    Endpoint sharing counts as nonoverlapping: consecutive pairs must
    satisfy ``b_j <= a_{j+1}``.
    """

    pairs: tuple
    increments: tuple

    @classmethod
    def from_pairs(cls, f: StepFunction, pairs):
        pairs = tuple((int(a), int(b)) for a, b in pairs)
        prev_end = None
        for a, b in pairs:
            if not 0 <= a < b <= f.m:
                raise ValidationError(f"bad interval ({a}, {b}) for m={f.m}")
            if prev_end is not None and a < prev_end:
                raise ValidationError("intervals overlap")
            prev_end = b
        values = f.values
        incs = tuple(abs(float(values[b]) - float(values[a])) for a, b in pairs)
        return cls(pairs, incs)

    def __len__(self):
        return len(self.pairs)

    def to_json_dict(self):
        return {"pairs": [list(p) for p in self.pairs],
                "increments": list(self.increments)}
