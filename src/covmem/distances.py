"""Distribution distances between batches.

The workhorse is the Jensen-Shannon distance computed in bits, which is
symmetric, bounded by ``[0, 1]``, and a metric, so kernel densities over
it behave.  All pairwise paths use the entropy identity

    jsd(p, q)^2 = H((p+q)/2) - (H(p) + H(q)) / 2

which matches the defining KL form exactly and needs a single
plogp pass per pair.  The square path computes each row block only
against the columns from its own start onward and mirrors that block
into the lower triangle, so every pair is evaluated once; the identity
is symmetric in its arguments bit for bit, so the mirror changes no
value.

Every matrix kernel, JSD and euclidean, square and rectangular, runs
one row-block loop.  A block holds as many rows as fit ``_SCRATCH``
(65,536) float64 elements at ``n_cols * k`` elements per row, at least
one row, and is computed with ``out=`` ufuncs into scratch arrays
allocated once per call and reused by every block.  Each scratch array
is 512 KB, so a block's mixture, logarithms and products stay in a
2 MB L2 cache instead of streaming ``block * n * k`` temporaries through
memory.  Each pair sees the same elementwise operations and the same
length-``k`` reduction whatever the block size, so the results do not
depend on it bit for bit.

Point masses need no entropy pass at all: two point masses are at
distance exactly 0 in the same bin and exactly 1 in different bins.
When every input row is a point mass (one nonzero entry, equal to 1.0),
as the one-hot predictions of an oracle are, both matrix paths return
that bin comparison directly.  The result equals the entropy path's bit
for bit.  A batch never spans output bins, so its output distribution is
always a point mass: the ``"out"`` space of :func:`distance_matrix`
compares the batches' ``out_bin`` column the same way, with no rows to
build.

Batch summaries repeat, so callers need not compare every pair of
batches: :func:`distinct_rows` returns the bitwise-distinct rows of a
space and each batch's index into them.  A matrix over the distinct
rows, gathered by those indices, is the full matrix bit for bit,
because every pair's value depends only on the two rows.
"""
import numpy as np

from .errors import EmptyInput, LengthMismatch, UndefinedDivergence

__all__ = [
    "kl_divergence",
    "jsd",
    "jsd_pairwise",
    "jsd_cross",
    "distance_matrix",
    "cross_distance_matrix",
    "distinct_rows",
]

_LOG2 = np.log(2.0)
# float64 elements per scratch array of a block kernel: 512 KB, so a
# block's working set stays in a 2 MB L2 cache
_SCRATCH = 1 << 16


def _check_pair(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size == 0 or q.size == 0:
        raise EmptyInput("distributions must be nonempty")
    if p.shape != q.shape:
        raise LengthMismatch(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return p, q


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence ``KL(p || q)`` in bits.

    Terms with ``p == 0`` contribute nothing.  A bin where ``p`` has
    mass but ``q`` does not makes the divergence undefined and raises
    :class:`~covmem.errors.UndefinedDivergence`; the Jensen-Shannon
    construction never hits that case because its reference mixture
    dominates both arguments.
    """
    p, q = _check_pair(p, q)
    support = p > 0
    if np.any(q[support] == 0):
        raise UndefinedDivergence("p has mass on a bin where q is zero; KL(p||q) diverges")
    terms = p[support] * np.log2(p[support] / q[support])
    return float(terms.sum())


def jsd(p, q) -> float:
    """Jensen-Shannon distance between two categorical distributions.

    Square root of the Jensen-Shannon divergence with base-2 logarithms:

        jsd(p, q) = sqrt((KL(p||m) + KL(q||m)) / 2),  m = (p + q) / 2

    Parameters
    ----------
    p, q : array_like
        Probability vectors of equal length.

    Returns
    -------
    float
        Distance in ``[0, 1]``; 0 iff ``p == q``, 1 for disjoint support.
    """
    p, q = _check_pair(p, q)
    m = 0.5 * (p + q)
    divergence = 0.5 * (kl_divergence(p, m) + kl_divergence(q, m))
    # roundoff can push identical inputs a hair below zero
    return float(np.sqrt(max(divergence, 0.0)))


def _plogp_entropy(rows: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, with 0 log 0 = 0.

    ``logs`` is scratch of the same shape as ``rows`` and must hold zeros
    on entry: the logarithm leaves it untouched where ``rows`` is zero.
    """
    np.log(rows, out=logs, where=rows > 0)
    logs *= rows
    return -logs.sum(axis=-1) / _LOG2


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    return _plogp_entropy(rows, np.zeros_like(rows))


def _point_mass_bins(rows: np.ndarray):
    """Bin of each row if every row is a point mass, else ``None``."""
    n = rows.shape[0]
    bins = rows.argmax(axis=1)
    # n nonzeros in n rows, each row's largest equal to 1: one 1.0 per row
    if np.count_nonzero(rows) == n and np.all(rows[np.arange(n), bins] == 1.0):
        return bins
    return None


def _bin_mismatch(bins_a: np.ndarray, bins_b: np.ndarray) -> np.ndarray:
    """JSD between point masses on ``bins_a`` and ``bins_b``: 0 in the same bin, else 1."""
    return (bins_a[:, None] != bins_b[None, :]).astype(float)


def _blocked(kernel, n_rows: int, n_cols: int, k: int, block, n_scratch: int,
             upper: bool) -> np.ndarray:
    """Fill an ``(n_rows, n_cols)`` matrix one row block at a time.

    ``kernel(rows, cols, *scratch)`` returns the block of rows ``rows``
    (a slice) against columns ``cols``, using ``n_scratch`` float arrays
    of shape ``(block rows, block columns, k)`` as its working space.
    The scratch is allocated once and reused by every block.  With
    ``upper`` the matrix is square and symmetric: each block is computed
    from its own first row onward and mirrored into the lower triangle,
    and the diagonal is set to zero.
    """
    step = block or max(1, _SCRATCH // max(1, n_cols * k))
    flat = [np.empty(min(step, n_rows) * n_cols * k) for _ in range(n_scratch)]
    out = np.empty((n_rows, n_cols))
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        lo = start if upper else 0
        shape = (stop - start, n_cols - lo, k)
        size = shape[0] * shape[1] * k
        scratch = [buf[:size].reshape(shape) for buf in flat]
        out[start:stop, lo:] = kernel(slice(start, stop), slice(lo, n_cols), *scratch)
        if upper:
            out[stop:, start:stop] = out[start:stop, stop:].T
    if upper:
        np.fill_diagonal(out, 0.0)
    return out


def _jsd_kernel(rows_a, rows_b, ent_a, ent_b):
    """Block kernel of square-root JSD through the entropy identity."""
    def kernel(rows, cols, mix, logs):
        np.add(rows_a[rows, None, :], rows_b[None, cols, :], out=mix)
        mix *= 0.5
        logs.fill(0.0)
        div = _plogp_entropy(mix, logs) - 0.5 * (ent_a[rows, None] + ent_b[None, cols])
        return np.sqrt(np.maximum(div, 0.0))
    return kernel


def _euclidean_kernel(rows_a, rows_b):
    """Block kernel of the euclidean distance."""
    def kernel(rows, cols, diff):
        np.subtract(rows_a[rows, None, :], rows_b[None, cols, :], out=diff)
        diff *= diff
        return np.sqrt(diff.sum(axis=-1))
    return kernel


def jsd_pairwise(rows: np.ndarray, block: int | None = None) -> np.ndarray:
    """All-pairs Jensen-Shannon distances for stacked distributions.

    Parameters
    ----------
    rows : ndarray
        Shape ``(n, k)``, one distribution per row.
    block : int or None
        Rows per block.  ``None`` derives it from the scratch budget,
        ``max(1, 65536 // (n * k))``, so the two ``block * n * k`` float
        scratch arrays stay in cache; the results do not depend on it.

    Returns
    -------
    ndarray
        Symmetric ``(n, n)`` matrix with a zero diagonal.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise EmptyInput(f"expected a nonempty (n, k) array, got shape {rows.shape}")
    bins = _point_mass_bins(rows)
    if bins is not None:
        return _bin_mismatch(bins, bins)
    n, k = rows.shape
    ent = _entropy_rows(rows)
    return _blocked(_jsd_kernel(rows, rows, ent, ent), n, n, k, block, 2, upper=True)


def jsd_cross(rows_a: np.ndarray, rows_b: np.ndarray, block: int | None = None) -> np.ndarray:
    """Jensen-Shannon distances between two stacks of distributions.

    Returns the ``(len(rows_a), len(rows_b))`` rectangular matrix.
    ``block`` is the number of ``rows_a`` rows per block, derived from
    the scratch budget as in :func:`jsd_pairwise` when ``None``.
    """
    rows_a = np.asarray(rows_a, dtype=float)
    rows_b = np.asarray(rows_b, dtype=float)
    if rows_a.ndim != 2 or rows_b.ndim != 2 or rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        raise EmptyInput("expected two nonempty (n, k) arrays")
    if rows_a.shape[1] != rows_b.shape[1]:
        raise LengthMismatch(
            f"bin counts differ: {rows_a.shape[1]} vs {rows_b.shape[1]}"
        )
    bins_a, bins_b = _point_mass_bins(rows_a), _point_mass_bins(rows_b)
    if bins_a is not None and bins_b is not None:
        return _bin_mismatch(bins_a, bins_b)
    kernel = _jsd_kernel(rows_a, rows_b, _entropy_rows(rows_a), _entropy_rows(rows_b))
    return _blocked(kernel, rows_a.shape[0], rows_b.shape[0], rows_a.shape[1], block, 2,
                    upper=False)


def _euclidean_pairwise(rows: np.ndarray, block: int | None = None) -> np.ndarray:
    n, d = rows.shape
    return _blocked(_euclidean_kernel(rows, rows), n, n, d, block, 1, upper=True)


def _euclidean_cross(rows_a: np.ndarray, rows_b: np.ndarray, block: int | None = None) -> np.ndarray:
    return _blocked(_euclidean_kernel(rows_a, rows_b), rows_a.shape[0], rows_b.shape[0],
                    rows_a.shape[1], block, 1, upper=False)


# the BatchTable column each comparison space reads
_SPACE_COLUMNS = {"pred": "pred_dist", "out": "out_bin", "features": "mean_features"}


def _batch_rows(batches, space: str, metric: str) -> np.ndarray:
    if not batches:
        raise EmptyInput("no batches to compare")
    if space not in _SPACE_COLUMNS:
        raise ValueError(f"unknown space {space!r}, expected 'pred', 'out', or 'features'")
    if metric not in ("jsd", "euclidean") or (space == "out" and metric != "jsd"):
        raise ValueError(f"unknown metric {metric!r} for space {space!r}")
    return getattr(batches, _SPACE_COLUMNS[space])


def distinct_rows(batches, space: str = "pred",
                  metric: str = "jsd") -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of one comparison space, and each batch's index into them.

    ``out_bin`` values compare as values; 2-D rows compare their bytes,
    so only bitwise-equal rows merge.  Batches with equal rows are at
    distance exactly 0 and have equal distances to every other batch,
    so a matrix over the distinct rows, gathered by the returned types,
    equals the full matrix bit for bit.

    Returns
    -------
    first : ndarray
        Position of each distinct row's first occurrence, increasing.
    types : ndarray
        For every batch, the index into ``first`` of its row.
    """
    rows = _batch_rows(batches, space, metric)
    if rows.ndim == 2:
        rows = np.ascontiguousarray(rows)
        rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, types = np.unique(rows, return_index=True, return_inverse=True)
    # np.unique numbers the rows in sort order; renumber by first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[types]


def distance_matrix(batches, space: str = "pred", metric: str = "jsd") -> np.ndarray:
    """Pairwise distances between the batches of one table in one comparison space.

    Parameters
    ----------
    batches : BatchTable
    space : {"pred", "out", "features"}
        Which batch summary to compare: the ``pred_dist``, ``out_bin``
        or ``mean_features`` column.
    metric : {"jsd", "euclidean"}
        ``jsd`` applies to the distribution spaces, ``euclidean`` to
        batch-average features.  The ``out`` space takes ``jsd`` only:
        each batch's output distribution is a point mass on its
        ``out_bin``, so distances are 0 within a bin and 1 across bins.

    Returns
    -------
    ndarray
        Symmetric ``(n, n)`` matrix, zero diagonal.
    """
    rows = _batch_rows(batches, space, metric)
    if space == "out":
        return _bin_mismatch(rows, rows)
    if metric == "jsd":
        return jsd_pairwise(rows)
    return _euclidean_pairwise(rows)


def cross_distance_matrix(batches_a, batches_b, space: str = "pred",
                          metric: str = "jsd") -> np.ndarray:
    """Rectangular distances between the batches of two tables, as in :func:`distance_matrix`."""
    rows_a = _batch_rows(batches_a, space, metric)
    rows_b = _batch_rows(batches_b, space, metric)
    if space == "out":
        return _bin_mismatch(rows_a, rows_b)
    if metric == "jsd":
        return jsd_cross(rows_a, rows_b)
    return _euclidean_cross(rows_a, rows_b)
