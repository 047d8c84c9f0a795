"""External clustering metrics: ARI, NMI, and Hungarian-matched accuracy.

All three are label-permutation invariant and computed from one contingency
table.  NMI uses natural-log entropies with geometric-mean normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class ContingencyTable:
    """Co-occurrence counts between predicted (rows) and true (columns) labels."""

    counts: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int


def contingency_table(pred, truth) -> ContingencyTable:
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ValueError("empty labelings")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    r, c = pi.max() + 1, ti.max() + 1
    counts = np.zeros((r, c), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    return ContingencyTable(counts, counts.sum(axis=1), counts.sum(axis=0), pred.shape[0])


def _comb2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) / 2.0


def ari(pred, truth) -> float:
    """Adjusted Rand index (pair-counting, chance-corrected), in [-1, 1]."""
    return _ari(contingency_table(pred, truth))


def _ari(table: ContingencyTable) -> float:
    if table.n < 2:
        raise ValueError("need at least 2 points")
    sum_ij = _comb2(table.counts.astype(np.float64)).sum()
    sum_a = _comb2(table.row_marginals.astype(np.float64)).sum()
    sum_b = _comb2(table.col_marginals.astype(np.float64)).sum()
    total = _comb2(np.float64(table.n))
    # Both trivial partitions (all-one-cluster or all-singletons) agree fully.
    if sum_a == sum_b == 0 or sum_a == sum_b == total:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    return float((sum_ij - expected) / (max_index - expected))


def _entropy(marginals: np.ndarray, n: int) -> float:
    p = marginals[marginals > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(pred, truth) -> float:
    """Normalized mutual information in [0, 1]; 0 when either labeling is constant."""
    return _nmi(contingency_table(pred, truth))


def _nmi(table: ContingencyTable) -> float:
    n = table.n
    nz = table.counts > 0
    pij = table.counts[nz] / n
    outer = np.outer(table.row_marginals, table.col_marginals)[nz] / (n * n)
    mi = float((pij * np.log(pij / outer)).sum())
    if mi <= 0:
        return 0.0
    h_pred = _entropy(table.row_marginals, n)
    h_true = _entropy(table.col_marginals, n)
    denom = np.sqrt(h_pred * h_true)
    if denom == 0:
        return 0.0
    return float(min(1.0, mi / denom))


def acc(pred, truth) -> float:
    """Clustering accuracy under the best injective label matching.

    Solved as a linear assignment on the negated contingency table (scipy
    handles rectangular tables directly, equivalent to zero padding).
    """
    return _acc(contingency_table(pred, truth))


def _acc(table: ContingencyTable) -> float:
    rows, cols = linear_sum_assignment(-table.counts)
    return float(table.counts[rows, cols].sum() / table.n)


def metrics_report(pred, truth, runtime_ms: float | None = None) -> dict:
    """JSON-ready summary: raw fractions plus label counts, from one contingency table."""
    table = contingency_table(pred, truth)
    return {
        "ari": _ari(table),
        "nmi": _nmi(table),
        "acc": _acc(table),
        "n": int(table.n),
        "C_pred": int(table.counts.shape[0]),
        "C_true": int(table.counts.shape[1]),
        "runtime_ms": float(runtime_ms) if runtime_ms is not None else None,
    }
