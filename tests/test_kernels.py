import numpy as np
import pytest

from trajgraph import kernels


def _oracle_sum(rows, idx, n):
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def _oracle_max(rows, idx, n):
    out = np.full((n, rows.shape[1]), -np.inf)
    np.maximum.at(out, idx, rows)
    return out


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_case(rng, wide=False):
    """Rows of mixed magnitude (1e-8 to 1e8, signed zeros) routed to n
    groups, some of them empty; 0 rows and n = 0 are drawn too.

    wide adds f = 64, the attention width, and rows holding +0.0, +-inf
    and NaN beside the -0.0; a third of the wide cases make every row
    non-positive, so many groups have their maximum at a tie of -0.0 and
    +0.0."""
    n = int(rng.integers(0, 12))
    e = int(rng.integers(0, 60)) if n else 0
    f = int(rng.choice([1, 1, 3, 8, 64] if wide else [1, 1, 3, 8]))
    rows = rng.normal(size=(e, f)) * 10.0 ** rng.uniform(-8, 8, size=(e, f))
    if wide and rng.random() < 1 / 3:
        rows = -np.abs(rows)
    rows[rng.random(size=(e, f)) < 0.05] = -0.0
    if wide:
        special = rng.choice([0.0, 0.0, np.inf, -np.inf, np.nan], size=(e, f))
        pick = rng.random(size=(e, f)) < 0.1
        rows[pick] = special[pick]
    # leave about a third of the groups without rows
    used = rng.permutation(n)[:max(1, 2 * n // 3)] if n else np.zeros(0, np.int64)
    idx = rng.choice(used, size=e).astype(np.int64) if e else np.zeros(0, np.int64)
    return rows, idx, n


def _has_zero_tie(rows, idx, maxima):
    """Whether, in some group and column, the maximum is a zero that both a
    -0.0 row and a +0.0 row reach."""
    for g in range(maxima.shape[0]):
        mine = rows[idx == g]
        zero = (mine == 0.0) & (maxima[g] == 0.0)
        if ((zero & np.signbit(mine)).any(axis=0) & (zero & ~np.signbit(mine)).any(axis=0)).any():
            return True
    return False


def _same_up_to_nan_sign(a, b):
    """Bitwise equal, except that a NaN may differ in sign: bincount and
    np.add.at add their operands in swapped order, so a NaN from inf + -inf
    meeting a NaN row keeps a different one of the two."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bytes(
        np.where(nan, 0.0, a), np.where(nan, 0.0, b))


def test_kernels_match_ufunc_at_oracle():
    out = kernels.segment_sum(np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]), 2)
    assert out.tolist() == [[3.0], [3.0]]

    rng = np.random.default_rng(17)
    seen_empty_group = seen_no_rows = seen_n0 = False
    for _ in range(400):
        rows, idx, n = _random_case(rng)
        seen_no_rows |= rows.shape[0] == 0
        seen_n0 |= n == 0
        seen_empty_group |= len(set(idx.tolist())) < n
        assert _same_bytes(kernels.segment_sum(rows, idx, n), _oracle_sum(rows, idx, n))
        assert _same_bytes(kernels.segment_max(rows, idx, n), _oracle_max(rows, idx, n))
        # add_rows_at sums the rows per group first, then adds onto the values
        # already in place: g + (r1 + r2)
        start = rng.normal(size=(n, rows.shape[1])) * 10.0 ** rng.uniform(-8, 8)
        got = start.copy()
        kernels.add_rows_at(got, idx, rows)
        assert _same_bytes(got, start + _oracle_sum(rows, idx, n))
    assert seen_empty_group and seen_no_rows and seen_n0


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_kernels_match_ufunc_at_oracle_on_wide_and_special_rows():
    """The flat 1-D segment_max equals the 2-D np.maximum.at bitwise at the
    attention width and on rows with +-inf, NaN and ties of -0.0 and +0.0."""
    rng = np.random.default_rng(18)
    seen_wide = seen_nan = seen_inf = seen_zero_tie = False
    for _ in range(400):
        rows, idx, n = _random_case(rng, wide=True)
        seen_wide |= rows.shape[1] == 64
        seen_nan |= bool(np.isnan(rows).any())
        seen_inf |= bool(np.isinf(rows).any())
        maxima = _oracle_max(rows, idx, n)
        assert _same_bytes(kernels.segment_max(rows, idx, n), maxima)
        seen_zero_tie |= _has_zero_tie(rows, idx, maxima)
        assert _same_up_to_nan_sign(kernels.segment_sum(rows, idx, n), _oracle_sum(rows, idx, n))
        start = rng.normal(size=(n, rows.shape[1])) * 10.0 ** rng.uniform(-8, 8)
        got = start.copy()
        kernels.add_rows_at(got, idx, rows)
        assert _same_up_to_nan_sign(got, start + _oracle_sum(rows, idx, n))
    assert seen_wide and seen_nan and seen_inf and seen_zero_tie
