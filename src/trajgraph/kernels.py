"""Segment kernels: the three scatter primitives under message passing.

One numpy implementation, no compiled variant. Every kernel visits rows in
ascending row order, so equal inputs give bitwise-equal outputs:
``segment_sum`` equals ``np.zeros`` followed by ``np.add.at`` byte for byte.
"""

import numpy as np


def segment_sum(rows, idx, n):
    """Sum rows into n groups, adding from zero in ascending row order;
    groups with no rows are zero."""
    f = rows.shape[1]
    flat = (idx[:, None] * f + np.arange(f)).ravel()
    out = np.bincount(flat, weights=rows.ravel(), minlength=n * f)
    # bincount of an empty index returns int64, so cast
    return out.astype(np.float64, copy=False).reshape(n, f)


def segment_max(rows, idx, n):
    """Per-group row-wise maximum; groups with no rows stay at -inf."""
    out = np.full((n, rows.shape[1]), -np.inf)
    np.maximum.at(out, idx, rows)
    return out


def add_rows_at(out, idx, rows):
    """In place: out[idx[e]] += rows[e] in ascending e, onto existing values."""
    np.add.at(out, idx, rows)
