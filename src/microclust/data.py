"""Dataset container, CSV ingestion, normalization, and synthetic generators."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised for unreadable, ragged, non-numeric, or empty input data."""


@dataclass(frozen=True)
class Dataset:
    """An n x d matrix of feature rows with optional ground-truth labels.

    Immutable after construction (arrays are marked read-only), so instances
    can be shared across threads freely.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError(f"points must be a non-empty 2-D matrix, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise DataError("points contain NaN or Inf")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64).copy()
            if lab.shape != (pts.shape[0],):
                raise DataError(
                    f"labels length {lab.shape} does not match n={pts.shape[0]}"
                )
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _parse_cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _resolve_label_column(label_column, header: list[str] | None, width: int) -> int | None:
    """Map a column selector (index, 'last', or header name) to a 0-based index."""
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if label_column == "last":
            return width - 1
        if header is not None and label_column in header:
            return header.index(label_column)
        stripped = label_column.strip()
        if stripped.lstrip("-").isdigit():
            label_column = int(stripped)
        else:
            raise DataError(f"label column {label_column!r} not found in header")
    idx = int(label_column)
    if idx < 0:
        idx += width
    if not 0 <= idx < width:
        raise DataError(f"label column index {label_column} out of range for {width} columns")
    return idx


def load_csv(path, label_column=None) -> Dataset:
    """Read a comma-delimited numeric file into a Dataset.

    The first row is treated as a header when any of its cells is not
    numeric.  ``label_column`` may be None, a 0-based index (negatives count
    from the end), the string "last", or a header name; the selected column
    is stripped from the features and returned as labels.  Errors name the
    offending 1-based row and column.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")

    header = None
    first_line = 1
    if any(_parse_cell(c) is None for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        first_line = 2
        if not rows:
            raise DataError(f"{path}: no data rows after header")

    width = len(rows[0])
    label_idx = _resolve_label_column(label_column, header, width)

    feats = []
    raw_labels = []
    for r, row in enumerate(rows):
        line_no = first_line + r
        if len(row) != width:
            raise DataError(
                f"{path}: row {line_no} has {len(row)} fields, expected {width}"
            )
        vals = []
        for c, cell in enumerate(row):
            if c == label_idx:
                raw_labels.append(cell.strip())
                continue
            v = _parse_cell(cell)
            if v is None:
                raise DataError(
                    f"{path}: row {line_no}, column {c + 1}: "
                    f"could not parse {cell.strip()!r} as a number"
                )
            vals.append(v)
        feats.append(vals)

    if not feats or not feats[0]:
        raise DataError(f"{path}: no feature columns")
    points = np.array(feats, dtype=np.float64)

    labels = None
    if label_idx is not None:
        # Class identifiers may be strings; factorize by first appearance.
        numeric = [_parse_cell(s) for s in raw_labels]
        if all(v is not None for v in numeric):
            labels = np.array([int(v) for v in numeric], dtype=np.int64)
        else:
            seen: dict[str, int] = {}
            labels = np.array([seen.setdefault(s, len(seen)) for s in raw_labels], dtype=np.int64)

    import os

    return Dataset(points, labels, name=os.path.splitext(os.path.basename(str(path)))[0])


def save_csv(ds: Dataset, path, include_labels: bool = True) -> None:
    """Write a Dataset back out as CSV (floats via repr, so values round-trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.points[i]]
            if include_labels and ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)


def normalize_minmax(ds: Dataset) -> Dataset:
    """Rescale each feature linearly to [0, 1]; zero-range features map to 0."""
    lo = ds.points.min(axis=0)
    hi = ds.points.max(axis=0)
    span = hi - lo
    out = np.zeros_like(ds.points)
    nz = span > 0
    out[:, nz] = (ds.points[:, nz] - lo[nz]) / span[nz]
    return Dataset(out, ds.labels, ds.name)


def normalize_zscore(ds: Dataset) -> Dataset:
    """Standardize each feature to zero mean, unit variance (constant columns map to 0)."""
    mu = ds.points.mean(axis=0)
    sd = ds.points.std(axis=0)
    out = np.zeros_like(ds.points)
    nz = sd > 0
    out[:, nz] = (ds.points[:, nz] - mu[nz]) / sd[nz]
    return Dataset(out, ds.labels, ds.name)


NORMALIZATIONS = ("minmax", "zscore", "none")


def normalize(ds: Dataset, method: str = "minmax") -> Dataset:
    if method == "minmax":
        return normalize_minmax(ds)
    if method == "zscore":
        return normalize_zscore(ds)
    if method == "none":
        return ds
    raise DataError(f"unknown normalization {method!r}")


def _spiral_arm(t: np.ndarray, arm: int) -> np.ndarray:
    # Archimedean arm r = t/T_MAX rotated by arm*pi; see generate_synthetic.
    r = t / _SPIRAL_T1
    a = t + arm * math.pi
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


# Spiral parameter range: tuned so the radial gap between windings is a few
# times the arc spacing at n=300 (arms separable by small-k neighborhoods
# while a round ball of ~8 points can straddle them).
_SPIRAL_T0 = 2.0
_SPIRAL_T1 = 16.0


def generate_synthetic(kind: str, size: int, noise: float, seed: int, components: int = 3) -> Dataset:
    """Deterministic synthetic datasets: "two-spirals", "blobs", or "moons".

    Labels record the generating component.  ``noise`` is the standard
    deviation of isotropic Gaussian jitter; with noise 0 the points lie
    exactly on the generating curves/centers.  ``components`` applies to
    blobs only (grid of well-separated Gaussian centers).
    """
    if size < 4:
        raise DataError("size must be at least 4")
    if noise < 0:
        raise DataError("noise must be nonnegative")
    rng = np.random.default_rng(seed)

    if kind == "two-spirals":
        m0 = size - size // 2
        parts, labs = [], []
        for arm, m in enumerate((m0, size // 2)):
            # Equal arc-length spacing along r = t/T1 (s ~ t^2), so point
            # spacing does not grow toward the outer windings.
            u = np.linspace(0.0, 1.0, m)
            t = np.sqrt(_SPIRAL_T0**2 + (_SPIRAL_T1**2 - _SPIRAL_T0**2) * u)
            parts.append(_spiral_arm(t, arm))
            labs.append(np.full(m, arm))
        pts = np.vstack(parts)
        labels = np.concatenate(labs)
    elif kind == "blobs":
        if components < 1:
            raise DataError("components must be positive")
        side = math.ceil(math.sqrt(components))
        centers = np.array(
            [(4.0 * (i % side), 4.0 * (i // side)) for i in range(components)]
        )
        counts = [size // components + (1 if i < size % components else 0) for i in range(components)]
        pts = np.repeat(centers, counts, axis=0)
        labels = np.repeat(np.arange(components), counts)
    elif kind == "moons":
        m0 = size - size // 2
        t0 = np.linspace(0.0, math.pi, m0)
        t1 = np.linspace(0.0, math.pi, size // 2)
        upper = np.column_stack([np.cos(t0), np.sin(t0)])
        lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        pts = np.vstack([upper, lower])
        labels = np.concatenate([np.zeros(m0, dtype=int), np.ones(size // 2, dtype=int)])
    else:
        raise DataError(f"unknown synthetic kind {kind!r}")

    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
    return Dataset(pts, labels, name=f"{kind}-{size}")
