"""Kernel density estimates over batch distances, with exact removal.

Densities use a Gaussian kernel over a precomputed distance matrix:

    rho(b) = 1 / (sqrt(2 pi) n) * sum_j exp(-d(b, j)^2 / (2 h^2))

including the self term, so every density lies in ``(0, 1/sqrt(2 pi)]``.
The per-batch value aggregated across comparison spaces is the minimum,
which flags a batch as rare if it is rare in either space.

:class:`DensityState` keeps both spaces' densities current while whole
batches are discarded, using the algebraic identity

    rho'(b) = (n rho(b) - k(b, j)) / (n - 1)

where ``k`` is the normalized kernel value against the removed batch
``j``.  This is exact, not an approximation, and the test suite holds it
to the from-scratch recomputation at 1e-9.
"""
import numpy as np

from .errors import EmptyInput, LastBatch, NonPositiveBandwidth

__all__ = ["kde", "DensityState"]

_NORM = 1.0 / np.sqrt(2.0 * np.pi)


def kde(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density of each row point over the columns.

    Parameters
    ----------
    distances : ndarray
        ``(n, m)`` distance matrix.  Square self-distance matrices give
        the usual in-set density; a rectangular matrix evaluates the
        density of ``n`` query points against a reference set of ``m``.
    bandwidth : float
        Kernel width ``h``; must be positive.

    Returns
    -------
    ndarray
        Length-``n`` density vector.
    """
    if bandwidth <= 0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {bandwidth}")
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.size == 0:
        raise EmptyInput(f"expected a nonempty 2-D distance matrix, got shape {distances.shape}")
    scaled = distances / bandwidth
    return _NORM * np.exp(-0.5 * scaled * scaled).mean(axis=1)


class DensityState:
    """Per-space densities of a batch set under whole-batch removal.

    Owns the two distance matrices and an index of still-active batches.
    Removal is O(active) per call: the matrices are never copied, and
    densities are updated with the exact renormalization identity.

    Parameters
    ----------
    distances_pred, distances_out : ndarray
        Square distance matrices over the same batch set.
    bandwidth : float
        Shared kernel width.
    """

    def __init__(self, distances_pred: np.ndarray, distances_out: np.ndarray, bandwidth: float):
        if bandwidth <= 0:
            raise NonPositiveBandwidth(f"bandwidth must be positive, got {bandwidth}")
        distances_pred = np.asarray(distances_pred, dtype=float)
        distances_out = np.asarray(distances_out, dtype=float)
        if distances_pred.shape != distances_out.shape:
            raise ValueError(
                f"matrix shapes differ: {distances_pred.shape} vs {distances_out.shape}"
            )
        n = distances_pred.shape[0]
        if distances_pred.ndim != 2 or distances_pred.shape != (n, n) or n == 0:
            raise EmptyInput(f"expected nonempty square matrices, got {distances_pred.shape}")
        self._d_pred = distances_pred
        self._d_out = distances_out
        self.bandwidth = float(bandwidth)
        self._active = np.arange(n)
        self.rho_pred = kde(distances_pred, bandwidth)
        self.rho_out = kde(distances_out, bandwidth)

    @property
    def count(self) -> int:
        return self._active.shape[0]

    @property
    def active_indices(self) -> np.ndarray:
        """Original positions of the still-active batches, in order."""
        return self._active.copy()

    @property
    def rho_min(self) -> np.ndarray:
        return np.minimum(self.rho_pred, self.rho_out)

    def _kernel_column(self, matrix: np.ndarray, j: int) -> np.ndarray:
        col = matrix[self._active, self._active[j]] / self.bandwidth
        return _NORM * np.exp(-0.5 * col * col)

    def remove_batch(self, j: int) -> None:
        """Drop active batch ``j`` and renormalize both density vectors.

        ``j`` indexes the current active list.  Removing the last
        remaining batch is refused because a density over an empty set
        is undefined.
        """
        n = self.count
        if not 0 <= j < n:
            raise IndexError(f"batch index {j} out of range for {n} active batches")
        if n == 1:
            raise LastBatch("cannot remove the only remaining batch")
        k_pred = self._kernel_column(self._d_pred, j)
        k_out = self._kernel_column(self._d_out, j)
        keep = np.arange(n) != j
        self.rho_pred = (n * self.rho_pred[keep] - k_pred[keep]) / (n - 1)
        self.rho_out = (n * self.rho_out[keep] - k_out[keep]) / (n - 1)
        self._active = self._active[keep]

    def recompute(self) -> tuple[np.ndarray, np.ndarray]:
        """From-scratch densities of the active set over the held matrices.

        Row means over the active rows and columns, in active order, so
        they equal :func:`kde` of a distance matrix built afresh over the
        surviving batches bit for bit.  The tests hold the incremental
        densities to them; :func:`~covmem.selection.select` takes the
        retrain trigger's self-densities from them.
        """
        idx = np.ix_(self._active, self._active)
        return kde(self._d_pred[idx], self.bandwidth), kde(self._d_out[idx], self.bandwidth)
