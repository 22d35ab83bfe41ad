"""Spatial fields sampled at snapshot times, written out as CSV."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import ValidationError

_FMT = "{:.12g}"


def _snapshot_times(snapshots, T):
    """The snapshot times in increasing order ([T] for None), each in
    (0, T]; NaN lies in no interval."""
    times = [T] if snapshots is None else sorted(float(s) for s in snapshots)
    if not times or not all(0 < s <= T + 1e-12 for s in times):
        raise ValidationError("snapshots must lie in (0, T]")
    return times


@dataclass
class Field:
    x: np.ndarray
    t: float
    values: np.ndarray

    def sample(self, xq):
        """Linear interpolation at query points."""
        return np.interp(np.asarray(xq, dtype=float), self.x, self.values)


@dataclass
class FieldHistory:
    fields: List[Field] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def at_time(self, t, atol=1e-9):
        for f in self.fields:
            if abs(f.t - t) <= atol * max(1.0, abs(t)):
                return f
        raise ValidationError(f"no snapshot at t={t}")

    @property
    def times(self):
        return [f.t for f in self.fields]

    def to_csv(self, path_or_buf):
        close = False
        if isinstance(path_or_buf, (str, bytes)):
            fh = open(path_or_buf, "w", newline="")
            close = True
        else:
            fh = path_or_buf
        try:
            w = csv.writer(fh)
            for key in sorted(self.meta):
                fh.write(f"# {key}={self.meta[key]}\n")
            w.writerow(["x", "t", "value"])
            for f in self.fields:
                for xi, vi in zip(f.x, f.values):
                    w.writerow([_FMT.format(xi), _FMT.format(f.t),
                                _FMT.format(vi)])
        finally:
            if close:
                fh.close()
