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

Each comparison space has one metric, ``_jsd``, ``_euclidean`` or
``_bin_mismatch``: rows against rows, or square when the second are
``None``.  The JSD and euclidean ones run one row-block loop, ``_blocked``.
A block holds as many rows as fit ``_SCRATCH`` (65,536) float64 elements
at ``cols * k`` elements per row, at least one row, where ``cols`` is the
block's column count: all columns in a rectangle, and in a square the
columns from the block's first row on, so square blocks take more rows
as they go down.  Each block is computed with ``out=`` ufuncs into
scratch arrays allocated once per call and reused by every block.  Each
scratch array is 512 KB, so a block's mixture, logarithms and products
stay in a 2 MB L2 cache instead of streaming ``block * n * k``
temporaries through memory.  Each pair sees the same elementwise operations and the same
length-``k`` reduction whatever the block size, so the results do not
depend on it bit for bit.

The JSD block scratch is bin-major, shape ``(k, rows, cols)``: both
inputs are transposed once per call to ``(k, n)``, and every step runs
over contiguous per-bin planes: the mixture add, the logarithm, the
``m log m`` product and the entropy sum.  The sum is then ``k - 1``
in-place adds of whole planes instead of one short length-``k``
reduction per pair, as a row-major ``(rows, cols, k)`` block needs.
The mixture is the row planes copied across the columns, then the
column planes added in place: that add runs one contiguous loop of
``cols`` elements per (bin, row) pair on both operands, and costs about
two thirds of ``np.add`` with the row operand broadcast (43 against
64 µs for a 21 × 6 × 509 block on one CPU).  IEEE addition commutes, so
the mixture's bits are the same either way.
Each call checks its inputs once to skip work no pair needs:

- when every entry is positive, every mixture is too, so the logarithm
  runs unmasked, with no zero fill and no ``where=`` mask;
- when every nonzero entry has magnitude in ``[2 tiny, max / 2]``
  (``tiny`` the smallest normal float), the transposed rows are halved
  once up front and a block's mixture is their plain sum.  Halving is
  exact above the subnormal range and the sum cannot overflow, so
  ``a / 2 + b / 2`` equals ``(a + b) / 2`` bit for bit.

The entropy sum over the ``k`` planes is :func:`_plane_sum`: in-place
plane adds in the order numpy's pairwise ``sum(axis=-1)`` adds a
length-``k`` row, so the bin-major kernel returns the row-major one's
bits.  That order is 8 accumulators, their fixed tree and then the tail
in order for ``8 <= k <= 128``, a sequential sum below 8, and numpy's
recursive split above 128; the result is added to ``0.0``, numpy's
initial value of the reduction.  A test holds the helper to
``np.add.reduce`` byte for byte for every ``k`` up to 300, so a change
of numpy's order shows there first.

A batch never spans output bins, so its output distribution is always
a point mass, and two point masses are at distance exactly 0 in the
same bin and exactly 1 in different bins: the ``"out"`` space of
:func:`distance_matrix` compares the batches' ``out_bin`` column that
way, with no rows to build and no entropy pass.  The entropy path gives
one-hot rows the same 0s and 1s bit for bit.

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
_TINY = np.finfo(float).tiny
_HALF_MAX = np.finfo(float).max / 2
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


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row, with 0 log 0 = 0."""
    logs = np.zeros_like(rows)
    np.log(rows, out=logs, where=rows > 0)
    logs *= rows
    return -logs.sum(axis=-1) / _LOG2


def _pairwise_planes(planes: np.ndarray) -> None:
    """Sum ``planes`` along its first axis into ``planes[0]``, in numpy's pairwise order."""
    k = planes.shape[0]
    if k < 8:
        for i in range(1, k):
            planes[0] += planes[i]
    elif k <= 128:
        # 8 accumulators, then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail
        stop = k - k % 8
        acc = planes[:8]
        for i in range(8, stop, 8):
            acc += planes[i:i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
        for i in range(stop, k):
            acc[0] += planes[i]
    else:
        half = k // 2
        half -= half % 8
        _pairwise_planes(planes[:half])
        _pairwise_planes(planes[half:])
        planes[0] += planes[half]


def _plane_sum(planes: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` over the first axis of ``planes``, bit for bit, in place.

    ``planes`` holds ``k`` bins along its first axis; the returned view
    ``planes[0]`` equals ``np.add.reduce(x, axis=-1)`` for the same
    values with the bins on the last axis.  The other planes are
    overwritten.
    """
    _pairwise_planes(planes)
    # the reduction starts from +0.0, which turns a -0.0 sum into 0.0
    planes[0] += 0.0
    return planes[0]


def _blocked(kernel, rows_a: np.ndarray, rows_b: np.ndarray | None,
             n_scratch: int) -> np.ndarray:
    """The matrix of ``(n, k)`` rows ``rows_a`` against ``rows_b``, one row block at a time.

    ``kernel(rows, cols, *scratch)`` returns the block of rows ``rows``
    (a slice) against columns ``cols``, using ``n_scratch`` flat float
    arrays of ``block rows * block columns * k`` elements as its working
    space, which it shapes as it needs.  The scratch is allocated once
    and reused by every block.  A block has as many rows as fit the
    ``_SCRATCH`` budget at its column count, and at least one.  With
    ``rows_b=None`` the matrix is square over ``rows_a`` and symmetric:
    each block is computed from its own first row onward and mirrored
    into the lower triangle, and the diagonal is set to zero.
    """
    upper = rows_b is None
    n_rows, k = rows_a.shape
    n_cols = n_rows if upper else rows_b.shape[0]
    size = min(n_rows * n_cols * k, max(_SCRATCH, n_cols * k))
    flat = [np.empty(size) for _ in range(n_scratch)]
    out = np.empty((n_rows, n_cols))
    start = 0
    while start < n_rows:
        lo = start if upper else 0
        stop = min(start + max(1, _SCRATCH // max(1, (n_cols - lo) * k)), n_rows)
        size = (stop - start) * (n_cols - lo) * k
        scratch = [buf[:size] for buf in flat]
        out[start:stop, lo:] = kernel(slice(start, stop), slice(lo, n_cols), *scratch)
        if upper:
            out[stop:, start:stop] = out[start:stop, stop:].T
        start = stop
    if upper:
        np.fill_diagonal(out, 0.0)
    return out


def _halves_exactly(rows: np.ndarray) -> bool:
    """Whether ``a / 2 + b / 2 == (a + b) / 2`` bit for bit for any two entries.

    True when every nonzero magnitude lies in ``[2 tiny, max / 2]``:
    halving is then exact and the sum cannot overflow.
    """
    mag = np.abs(rows)
    nonzero = mag[mag != 0]  # NaN stays and fails both bounds
    return nonzero.size == 0 or bool(nonzero.min() >= 2 * _TINY and nonzero.max() <= _HALF_MAX)


def _jsd_kernel(rows_a, rows_b, ent_a, ent_b):
    """Bin-major block kernel of square-root JSD through the entropy identity.

    The rows are transposed to ``(k, n)`` once, and halved once when
    that is exact for both inputs; see the module docstring.
    """
    inputs = (rows_a,) if rows_b is rows_a else (rows_a, rows_b)
    positive = all((rows > 0).all() for rows in inputs)
    halved = all(_halves_exactly(rows) for rows in inputs)

    def bin_major(rows):
        planes = rows.T.copy()
        if halved:
            planes *= 0.5
        return planes

    planes_a = bin_major(rows_a)
    planes_b = planes_a if rows_b is rows_a else bin_major(rows_b)

    def kernel(rows, cols, mix, logs):
        a, b = planes_a[:, rows, None], planes_b[:, None, cols]
        shape = (a.shape[0], a.shape[1], b.shape[2])
        mix, logs = mix.reshape(shape), logs.reshape(shape)
        # rows copied, columns added in place: np.add(a, b) bit for bit
        np.copyto(mix, a)
        mix += b
        if not halved:
            mix *= 0.5
        if positive:
            np.log(mix, out=logs)
        else:
            logs.fill(0.0)
            np.log(mix, out=logs, where=mix > 0)
        logs *= mix
        # the mixture's entropy in bits, -sum / log 2, minus the mean row entropy
        div = np.negative(_plane_sum(logs), out=logs[0])
        div /= _LOG2
        # the mean row entropy, built in the mixture's now free first plane
        mean_ent = np.add(ent_a[rows, None], ent_b[None, cols], out=mix[0])
        mean_ent *= 0.5
        div -= mean_ent
        np.maximum(div, 0.0, out=div)
        return np.sqrt(div, out=div)
    return kernel


def _euclidean_kernel(rows_a, rows_b):
    """Block kernel of the euclidean distance."""
    def kernel(rows, cols, diff):
        a, b = rows_a[rows, None, :], rows_b[None, cols, :]
        diff = diff.reshape(a.shape[0], b.shape[1], a.shape[2])
        np.subtract(a, b, out=diff)
        diff *= diff
        return np.sqrt(diff.sum(axis=-1))
    return kernel


def _jsd(rows_a: np.ndarray, rows_b: np.ndarray | None = None) -> np.ndarray:
    """Square-root JSD between distribution rows, unchecked."""
    ent_a = _entropy_rows(rows_a)
    ent_b = ent_a if rows_b is None else _entropy_rows(rows_b)
    kernel = _jsd_kernel(rows_a, rows_a if rows_b is None else rows_b, ent_a, ent_b)
    return _blocked(kernel, rows_a, rows_b, 2)


def _euclidean(rows_a: np.ndarray, rows_b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distance between feature rows."""
    return _blocked(_euclidean_kernel(rows_a, rows_a if rows_b is None else rows_b),
                    rows_a, rows_b, 1)


def _bin_mismatch(bins_a: np.ndarray, bins_b: np.ndarray | None = None) -> np.ndarray:
    """JSD between point masses on ``bins_a`` and ``bins_b``: 0 in the same bin, else 1."""
    bins_b = bins_a if bins_b is None else bins_b
    return (bins_a[:, None] != bins_b[None, :]).astype(float)


def jsd_pairwise(rows: np.ndarray) -> np.ndarray:
    """All-pairs Jensen-Shannon distances for stacked distributions.

    Parameters
    ----------
    rows : ndarray
        Shape ``(n, k)``, one distribution per row.

    Returns
    -------
    ndarray
        Symmetric ``(n, n)`` matrix with a zero diagonal.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise EmptyInput(f"expected a nonempty (n, k) array, got shape {rows.shape}")
    return _jsd(rows)


def jsd_cross(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Jensen-Shannon distances between two stacks of distributions.

    Returns the ``(len(rows_a), len(rows_b))`` rectangular matrix.
    """
    rows_a = np.asarray(rows_a, dtype=float)
    rows_b = np.asarray(rows_b, dtype=float)
    if rows_a.ndim != 2 or rows_b.ndim != 2 or rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        raise EmptyInput("expected two nonempty (n, k) arrays")
    if rows_a.shape[1] != rows_b.shape[1]:
        raise LengthMismatch(f"bin counts differ: {rows_a.shape[1]} vs {rows_b.shape[1]}")
    return _jsd(rows_a, rows_b)


# Each comparison space: the BatchTable column it reads, and its metric.
_SPACES = {
    "pred": ("pred_dist", _jsd),
    "features": ("mean_features", _euclidean),
    "out": ("out_bin", _bin_mismatch),
}


def _space(batches, space: str):
    """The column ``batches`` hold for ``space``, and the space's metric."""
    if not batches:
        raise EmptyInput("no batches to compare")
    if space not in _SPACES:
        raise ValueError(f"unknown space {space!r}, expected 'pred', 'out', or 'features'")
    column, metric = _SPACES[space]
    return getattr(batches, column), metric


def distinct_rows(batches, space: str = "pred") -> tuple[np.ndarray, np.ndarray]:
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
    rows, _ = _space(batches, space)
    if rows.ndim == 2:
        rows = np.ascontiguousarray(rows)
        rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, types = np.unique(rows, return_index=True, return_inverse=True)
    # np.unique numbers the rows in sort order; renumber by first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[types]


def distance_matrix(batches, space: str = "pred") -> np.ndarray:
    """Pairwise distances between the batches of one table in one comparison space.

    Parameters
    ----------
    batches : BatchTable
    space : {"pred", "out", "features"}
        Which batch summary to compare, which also fixes the metric:
        JSD between ``pred_dist`` rows, euclidean between
        ``mean_features`` rows, and for ``out`` the JSD between point
        masses on each batch's ``out_bin``, which is 0 within a bin and
        1 across bins.

    Returns
    -------
    ndarray
        Symmetric ``(n, n)`` matrix, zero diagonal.
    """
    rows, metric = _space(batches, space)
    return metric(rows)


def cross_distance_matrix(batches_a, batches_b, space: str = "pred") -> np.ndarray:
    """Rectangular distances between the batches of two tables, as in :func:`distance_matrix`.

    Rows of unequal widths raise :class:`~covmem.errors.LengthMismatch`."""
    rows_a, metric = _space(batches_a, space)
    rows_b, _ = _space(batches_b, space)
    if rows_a.shape[1:] != rows_b.shape[1:]:
        raise LengthMismatch(f"{space} rows differ in width: "
                             f"{rows_a.shape[1]} vs {rows_b.shape[1]}")
    return metric(rows_a, rows_b)
