import numpy as np

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


def _random_case(rng):
    """Rows of mixed magnitude (1e-8 to 1e8, signed zeros) routed to n
    groups, some of them empty; 0 rows and n = 0 are drawn too."""
    n = int(rng.integers(0, 12))
    e = int(rng.integers(0, 60)) if n else 0
    f = int(rng.choice([1, 1, 3, 8]))
    rows = rng.normal(size=(e, f)) * 10.0 ** rng.uniform(-8, 8, size=(e, f))
    rows[rng.random(size=(e, f)) < 0.05] = -0.0
    # leave about a third of the groups without rows
    used = rng.permutation(n)[:max(1, 2 * n // 3)] if n else np.zeros(0, np.int64)
    idx = rng.choice(used, size=e).astype(np.int64) if e else np.zeros(0, np.int64)
    return rows, idx, n


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
