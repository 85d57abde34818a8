"""Segment kernels: the three scatter primitives under message passing.

One numpy implementation, and every kernel works on the flat 1-D index
``idx * f + column`` of the rows' elements. ``segment_sum`` and
``add_rows_at`` both sum rows per group by ``np.bincount`` in ascending row
order, so equal inputs give bitwise-equal outputs. ``add_rows_at`` adds the
group sums onto the values in place: g, then r1 and r2, ends at g + (r1 + r2).
``segment_max`` runs ``np.maximum.at`` over the same flat index: numpy's
``ufunc.at`` has a fast path only for 1-D operands, and a maximum is exact,
so it gives the bits of the 2-D form.
"""

import numpy as np


def _flat_index(idx, f):
    return (idx[:, None] * f + np.arange(f)).ravel()


def _group_sums(rows, idx, n):
    f = rows.shape[1]
    out = np.bincount(_flat_index(idx, f), weights=rows.ravel(), minlength=n * f)
    # bincount of an empty index returns int64, so cast
    return out.astype(np.float64, copy=False).reshape(n, f)


def segment_sum(rows, idx, n):
    """Sum rows into n groups, adding from zero in ascending row order;
    groups with no rows are zero."""
    return _group_sums(rows, idx, n)


def segment_max(rows, idx, n):
    """Per-group row-wise maximum, taken in ascending row order by a 1-D
    ``np.maximum.at`` over the flat element index; groups with no rows stay
    at -inf."""
    f = rows.shape[1]
    out = np.full(n * f, -np.inf)
    np.maximum.at(out, _flat_index(idx, f), rows.ravel())
    return out.reshape(n, f)


def add_rows_at(out, idx, rows):
    """In place: out[i] += the sum of rows[e] with idx[e] == i, summed in
    ascending e before it is added onto the existing value."""
    out += _group_sums(rows, idx, out.shape[0])
