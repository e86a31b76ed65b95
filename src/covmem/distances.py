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

Point masses need no entropy pass at all: two point masses are at
distance exactly 0 in the same bin and exactly 1 in different bins.
When every input row is a point mass (one nonzero entry, equal to 1.0),
as every batch's ``out_dist`` is, both matrix paths return that bin
comparison directly.  The result equals the entropy path's bit for bit.
"""
import numpy as np

from .errors import EmptyInput, LengthMismatch, UndefinedDivergence

__all__ = [
    "kl_divergence",
    "jsd",
    "jsd_pairwise",
    "jsd_cross",
    "euclidean_mean_distance",
    "distance_matrix",
    "cross_distance_matrix",
    "validate_distance_matrix",
]

_LOG2 = np.log(2.0)


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
    """Shannon entropy in bits along the last axis, with 0 log 0 = 0."""
    safe = np.where(rows > 0, rows, 1.0)
    return -(safe * np.log(safe)).sum(axis=-1) / _LOG2


def _point_mass_bins(rows: np.ndarray):
    """Bin of each row if every row is a point mass, else ``None``."""
    n = rows.shape[0]
    bins = rows.argmax(axis=1)
    # n nonzeros in n rows, each row's largest equal to 1: one 1.0 per row
    if np.count_nonzero(rows) == n and np.all(rows[np.arange(n), bins] == 1.0):
        return bins
    return None


def jsd_pairwise(rows: np.ndarray, block: int = 256) -> np.ndarray:
    """All-pairs Jensen-Shannon distances for stacked distributions.

    Parameters
    ----------
    rows : ndarray
        Shape ``(n, k)``, one distribution per row.
    block : int
        Row-block size bounding the ``block * n * k`` scratch space.

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
        return (bins[:, None] != bins[None, :]).astype(float)
    n = rows.shape[0]
    ent = _entropy_rows(rows)
    out = np.empty((n, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        mix = 0.5 * (rows[start:stop, None, :] + rows[None, start:, :])
        div = _entropy_rows(mix) - 0.5 * (ent[start:stop, None] + ent[None, start:])
        out[start:stop, start:] = np.sqrt(np.maximum(div, 0.0))
        out[stop:, start:stop] = out[start:stop, stop:].T
    np.fill_diagonal(out, 0.0)
    return out


def jsd_cross(rows_a: np.ndarray, rows_b: np.ndarray, block: int = 256) -> np.ndarray:
    """Jensen-Shannon distances between two stacks of distributions.

    Returns the ``(len(rows_a), len(rows_b))`` rectangular matrix.
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
        return (bins_a[:, None] != bins_b[None, :]).astype(float)
    ent_a = _entropy_rows(rows_a)
    ent_b = _entropy_rows(rows_b)
    out = np.empty((rows_a.shape[0], rows_b.shape[0]))
    for start in range(0, rows_a.shape[0], block):
        stop = min(start + block, rows_a.shape[0])
        mix = 0.5 * (rows_a[start:stop, None, :] + rows_b[None, :, :])
        div = _entropy_rows(mix) - 0.5 * (ent_a[start:stop, None] + ent_b[None, :])
        out[start:stop] = np.sqrt(np.maximum(div, 0.0))
    return out


def euclidean_mean_distance(a, b) -> float:
    """Euclidean distance between two batch-average feature vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"feature shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _batch_rows(batches, space: str) -> np.ndarray:
    if not batches:
        raise EmptyInput("no batches to compare")
    if space == "pred":
        return np.stack([b.pred_dist for b in batches])
    if space == "out":
        return np.stack([b.out_dist for b in batches])
    if space == "features":
        return np.stack([b.mean_features for b in batches])
    raise ValueError(f"unknown space {space!r}, expected 'pred', 'out', or 'features'")


def distance_matrix(batches, space: str = "pred", metric: str = "jsd") -> np.ndarray:
    """Pairwise distances between batches in one comparison space.

    Parameters
    ----------
    batches : sequence of Batch
    space : {"pred", "out", "features"}
        Which batch summary to compare.
    metric : {"jsd", "euclidean"}
        ``jsd`` applies to the distribution spaces, ``euclidean`` to
        batch-average features.

    Returns
    -------
    ndarray
        Symmetric ``(n, n)`` matrix, zero diagonal.
    """
    rows = _batch_rows(batches, space)
    if metric == "jsd":
        return jsd_pairwise(rows)
    if metric == "euclidean":
        diff = rows[:, None, :] - rows[None, :, :]
        out = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(out, 0.0)
        return out
    raise ValueError(f"unknown metric {metric!r}")


def cross_distance_matrix(batches_a, batches_b, space: str = "pred",
                          metric: str = "jsd") -> np.ndarray:
    """Rectangular distances between two batch lists."""
    rows_a = _batch_rows(batches_a, space)
    rows_b = _batch_rows(batches_b, space)
    if metric == "jsd":
        return jsd_cross(rows_a, rows_b)
    if metric == "euclidean":
        diff = rows_a[:, None, :] - rows_b[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    raise ValueError(f"unknown metric {metric!r}")


def validate_distance_matrix(values: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Assert symmetry, zero diagonal, and nonnegativity; returns input."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise LengthMismatch(f"expected a square matrix, got shape {values.shape}")
    if np.any(values < 0):
        raise ValueError("distance matrix has negative entries")
    if not np.allclose(values, values.T, atol=atol):
        raise ValueError("distance matrix is not symmetric")
    if not np.allclose(np.diagonal(values), 0.0, atol=atol):
        raise ValueError("distance matrix diagonal is not zero")
    return values
