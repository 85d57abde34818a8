"""Segment kernels: the three scatter primitives under message passing.

One numpy implementation and one scatter-add: ``segment_sum`` and
``add_rows_at`` both sum rows per group by ``np.bincount`` in ascending row
order, so equal inputs give bitwise-equal outputs. ``add_rows_at`` adds the
group sums onto the values in place: g, then r1 and r2, ends at g + (r1 + r2).
"""

import numpy as np


def _group_sums(rows, idx, n):
    f = rows.shape[1]
    flat = (idx[:, None] * f + np.arange(f)).ravel()
    out = np.bincount(flat, weights=rows.ravel(), minlength=n * f)
    # bincount of an empty index returns int64, so cast
    return out.astype(np.float64, copy=False).reshape(n, f)


def segment_sum(rows, idx, n):
    """Sum rows into n groups, adding from zero in ascending row order;
    groups with no rows are zero."""
    return _group_sums(rows, idx, n)


def segment_max(rows, idx, n):
    """Per-group row-wise maximum; groups with no rows stay at -inf."""
    out = np.full((n, rows.shape[1]), -np.inf)
    np.maximum.at(out, idx, rows)
    return out


def add_rows_at(out, idx, rows):
    """In place: out[i] += the sum of rows[e] with idx[e] == i, summed in
    ascending e before it is added onto the existing value."""
    out += _group_sums(rows, idx, out.shape[0])
