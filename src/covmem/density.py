"""Kernel density estimates over batch distances, with exact removal.

Densities use a Gaussian kernel over a precomputed distance matrix:

    rho(b) = 1 / (sqrt(2 pi) n) * sum_j exp(-d(b, j)^2 / (2 h^2))

including the self term, so every density lies in ``(0, 1/sqrt(2 pi)]``.
The per-batch value aggregated across comparison spaces is the minimum,
which flags a batch as rare if it is rare in either space.

Batch summaries repeat: the output space has at most ``k_out`` distinct
rows, and one-hot predictions give few distinct prediction rows.
:class:`DensityState` therefore works on a kernel table over the
*distinct* rows of each space, ``E = exp(-0.5 (D / h)^2)`` for the
``u x u`` distance table ``D``, plus each batch's row of it, its type.
:func:`kernel_table` builds ``E``, in ``D``'s own buffer when the
caller has no further use for the distances, so a space needs one
``u x u`` array, not two; the state takes ``E`` and owns it.  Batches
of one type share every distance, so they share one density, and the
state keeps one density per type:

    rho(t) = 1 / (sqrt(2 pi) n) * sum_j E[t, type(j)]

A square distance matrix over all batches is the table whose types are
the identity, so both inputs take the same path.  While whole batches
are discarded, the exact identity

    rho'(t) = (n rho(t) - k(t, type(j))) / (n - 1),   k = E / sqrt(2 pi)

updates every type at once, with no exponential: ``k`` is the
normalized kernel value against the removed batch ``j``, one row of
``E`` scaled when the removal needs it, so the state keeps ``E`` alone:
no distance table and no normalized copy of it.  This is exact, not an
approximation; the tests hold it to the from-scratch recomputation at
1e-9.

Which batch goes is drawn from the softmax of the per-batch minimum
density: :meth:`DensityState.draw` gathers that minimum, the softmax
and its cumulative sums into rows the state allocates once.  The
softmax and the inverse-CDF draw exist once, as ``_softmax`` and
``_inverse_cdf`` here, which write into the arrays they are given;
:func:`~covmem.selection.discard_probabilities` and
:func:`~covmem.selection.draw_index` call the same two with fresh
arrays, so a draw gives the same index, probability and rng state
either way.

The table is built with :func:`kde`'s operations in :func:`kde`'s order
and every row mean runs over a C-contiguous row in batch order, so the
densities equal :func:`kde` of the full ``n x n`` matrix bit for bit.
"""
import numpy as np

from .errors import EmptyInput, LastBatch, LengthMismatch, NegativeTemperature
from .samples import _check_bandwidth

__all__ = ["kde", "kernel_table", "DensityState"]

_NORM = 1.0 / np.sqrt(2.0 * np.pi)


def kernel_table(distances: np.ndarray, bandwidth: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Gaussian kernel of every entry, ``exp(-0.5 (d / h)^2)``.

    Computed in one array as ``exp(-0.5 * (s * s))`` for ``s = d / h``.
    That equals ``exp((-0.5 * s) * s)`` bit for bit: scaling by a power
    of two commutes with rounding wherever the product is a normal
    float, and where it is not, both exponentials are exactly 1.

    Parameters
    ----------
    distances : ndarray
        Distances of any shape.
    bandwidth : float
        Kernel width ``h``; must be positive and finite.
    out : ndarray, optional
        Float array of ``distances``' shape to build the table in and
        return.  ``out=distances`` overwrites the distances with their
        kernel values, the same bits as a fresh table, with no second
        array of their size.
    """
    _check_bandwidth(bandwidth)
    table = np.divide(distances, bandwidth, out=out)
    table *= table
    table *= -0.5
    return np.exp(table, out=table)


def _mean_kernel(kernel: np.ndarray) -> np.ndarray:
    """Density of each row point from its kernel values over the columns."""
    return _NORM * kernel.mean(axis=1)


def kde(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density of each row point over the columns.

    Parameters
    ----------
    distances : ndarray
        ``(n, m)`` distance matrix.  Square self-distance matrices give
        the usual in-set density; a rectangular matrix evaluates the
        density of ``n`` query points against a reference set of ``m``.
    bandwidth : float
        Kernel width ``h``; must be positive and finite.

    Returns
    -------
    ndarray
        Length-``n`` density vector.
    """
    _check_bandwidth(bandwidth)
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.size == 0:
        raise EmptyInput(f"expected a nonempty 2-D distance matrix, got shape {distances.shape}")
    return _mean_kernel(kernel_table(distances, bandwidth))


def _softmax(values: np.ndarray, temperature: float, out: np.ndarray) -> np.ndarray:
    """Softmax of ``values`` at ``temperature``, written into ``out`` and returned.

    Subtracts the maximum, divides by ``T``, exponentiates and
    normalizes.  ``T = 0`` is the greedy limit: a one-hot on the first
    maximum.  ``values`` must be nonempty.
    """
    if not temperature >= 0:
        raise NegativeTemperature(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0.0:
        first = values.argmax()
        out.fill(0.0)
        out[first] = 1.0
        return out
    np.subtract(values, values.max(), out=out)
    out /= temperature
    np.exp(out, out=out)
    out /= out.sum()
    return out


def _inverse_cdf(probabilities: np.ndarray, rng: np.random.Generator,
                 edges: np.ndarray) -> int:
    """Index drawn from ``probabilities`` by one ``rng.random()``.

    The cumulative sums go into ``edges``; the draw is the first edge
    above the uniform, clipped to the last index because roundoff can
    leave the last edge a hair under 1.0.
    """
    np.add.accumulate(probabilities, out=edges)  # np.cumsum, with less overhead
    idx = int(edges.searchsorted(rng.random(), side="right"))
    return min(idx, probabilities.size - 1)


def _table_and_types(kernel, types) -> tuple[np.ndarray, np.ndarray]:
    kernel = np.asarray(kernel, dtype=float)
    u = kernel.shape[0]
    if kernel.ndim != 2 or kernel.shape != (u, u) or u == 0:
        raise EmptyInput(f"expected a nonempty square kernel table, got {kernel.shape}")
    if types is None:
        return kernel, np.arange(u)
    types = np.asarray(types, dtype=np.intp)
    if types.ndim != 1 or types.size == 0 or types.min() < 0 or types.max() >= u:
        raise ValueError(f"types must be a nonempty vector of rows of the {u}-row table")
    return kernel, types


class DensityState:
    """Per-space densities of a batch set under whole-batch removal.

    Holds one kernel table ``E`` per space over its distinct rows, and
    the types of the still-active batches.  The state owns the tables it
    is given: it keeps them as they are, neither copies nor writes into
    them, and the caller should not write into them either.  A removal
    scales the removed batch's row of ``E`` by ``1 / sqrt(2 pi)`` into a
    buffer the state allocates once, updates one density per type with
    it and shifts the active batches' tail one place.  :meth:`draw`
    picks the batch to remove in three more rows allocated once, so a
    discard step allocates no array.

    Parameters
    ----------
    kernel_pred, kernel_out : ndarray
        Square kernel tables, one per space, as :func:`kernel_table`
        builds them from distance tables at one shared bandwidth.  Both
        must be exactly symmetric, as the kernel of every matrix
        :func:`~covmem.distances.distance_matrix` builds is: a removal
        reads the removed batch's row where the update needs its column.
    types_pred, types_out : ndarray or None
        Each batch's row of the table, one entry per batch and the same
        length in both spaces (see
        :func:`~covmem.distances.distinct_rows`).  ``None`` means the
        identity: the table is the full matrix over the batches.
    """

    def __init__(self, kernel_pred: np.ndarray, kernel_out: np.ndarray,
                 types_pred=None, types_out=None):
        self._kernel_pred, types_pred = _table_and_types(kernel_pred, types_pred)
        self._kernel_out, types_out = _table_and_types(kernel_out, types_out)
        n = types_pred.shape[0]
        if types_out.shape[0] != n:
            raise LengthMismatch(f"batch counts differ: {n} vs {types_out.shape[0]}")
        # rows: original position, prediction type, output type of each
        # active batch, in order; the first ``_count`` columns are live
        self._rows = np.stack([np.arange(n), types_pred, types_out])
        self._count = n
        # :attr:`active_indices` slices this read-only view of the positions
        self._positions = self._rows[0].view()
        self._positions.flags.writeable = False
        # both spaces' type densities in one vector, so a removal scales
        # them with one multiply and one divide
        u_pred = self._kernel_pred.shape[0]
        self._rho = np.concatenate([self._type_densities(self._kernel_pred, types_pred),
                                    self._type_densities(self._kernel_out, types_out)])
        self._rho_pred, self._rho_out = self._rho[:u_pred], self._rho[u_pred:]
        # a removal's scaled kernel rows, laid out as ``_rho``; a draw's
        # rho_min, softmax and cumulative sums, one row each
        self._scaled = np.empty_like(self._rho)
        self._scaled_pred, self._scaled_out = self._scaled[:u_pred], self._scaled[u_pred:]
        self._draw_min, self._draw_probs, self._draw_edges = np.empty((3, n))

    @staticmethod
    def _type_densities(kernel: np.ndarray, types: np.ndarray) -> np.ndarray:
        """Density of every type over the batches of ``types``.

        ``np.take`` along the columns returns a C-contiguous block, so
        each row mean sums in batch order, as :func:`kde` does.  When
        ``types`` is the identity that block is the table itself, which
        is C-contiguous, and no copy is made.
        """
        # n increasing types among the table's n columns are the identity
        identity = types.shape[0] == kernel.shape[1] and bool(np.all(types[1:] > types[:-1]))
        if identity and kernel.flags.c_contiguous:
            return _mean_kernel(kernel)
        return _mean_kernel(np.take(kernel, types, axis=1))

    @property
    def count(self) -> int:
        return self._count

    @property
    def active_indices(self) -> np.ndarray:
        """Original positions of the still-active batches, in order.

        A read-only view, valid until the next removal.
        """
        return self._positions[:self._count]

    @property
    def rho_pred(self) -> np.ndarray:
        return self._rho_pred[self._rows[1, :self._count]]

    @property
    def rho_out(self) -> np.ndarray:
        return self._rho_out[self._rows[2, :self._count]]

    @property
    def rho_min(self) -> np.ndarray:
        return np.minimum(self.rho_pred, self.rho_out)

    def draw(self, temperature: float, rng: np.random.Generator) -> tuple[int, float]:
        """Draw the active batch to discard next; the state is not changed.

        The softmax of :attr:`rho_min` at ``temperature``, sampled by
        one ``rng.random()``: returns the drawn position ``j`` in the
        active list and the probability it held.  This is
        :func:`~covmem.selection.draw_index` of
        :func:`~covmem.selection.discard_probabilities` bit for bit,
        rng state included, computed in the state's own rows with no
        new array data.  ``T = 0`` draws the first densest batch at
        probability 1.0, still consuming one ``rng.random()``.
        """
        n = self._count
        rho, probs, edges = self._draw_min[:n], self._draw_probs[:n], self._draw_edges[:n]
        # the types index the density vectors, so no bounds check is needed
        self._rho_pred.take(self._rows[1, :n], out=rho, mode="clip")
        self._rho_out.take(self._rows[2, :n], out=probs, mode="clip")
        np.minimum(rho, probs, out=rho)
        _softmax(rho, temperature, probs)
        j = _inverse_cdf(probs, rng, edges)
        return j, float(probs[j])

    def remove_batch(self, j: int) -> None:
        """Drop active batch ``j`` and renormalize both density vectors.

        ``j`` indexes the current active list.  Removing the last
        remaining batch is refused because a density over an empty set
        is undefined.
        """
        n = self._count
        if not 0 <= j < n:
            raise IndexError(f"batch index {j} out of range for {n} active batches")
        if n == 1:
            raise LastBatch("cannot remove the only remaining batch")
        rows = self._rows
        # (n rho - K[type of j]) / (n - 1) with K = E / sqrt(2 pi), in place;
        # the properties hand out copies
        np.multiply(self._kernel_pred[rows[1, j]], _NORM, out=self._scaled_pred)
        np.multiply(self._kernel_out[rows[2, j]], _NORM, out=self._scaled_out)
        self._rho *= n
        self._rho -= self._scaled
        self._rho /= n - 1
        rows[:, j:n - 1] = rows[:, j + 1:n]
        self._count = n - 1

    def recompute(self) -> tuple[np.ndarray, np.ndarray]:
        """From-scratch densities of the active set, from the kernel tables.

        Row means over the active batches, in active order, so they equal
        :func:`kde` of a distance matrix built afresh over the surviving
        batches bit for bit.  The tests hold the incremental densities to
        them; :func:`~covmem.selection.select` takes the retrain
        trigger's self-densities from them.
        """
        n = self._count
        return (self._batch_densities(self._kernel_pred, self._rows[1, :n]),
                self._batch_densities(self._kernel_out, self._rows[2, :n]))

    @classmethod
    def _batch_densities(cls, kernel: np.ndarray, types: np.ndarray) -> np.ndarray:
        """Density of every batch of ``types`` over the batches of ``types``.

        With fewer batches than table rows, as for distinct prediction
        rows after discards, the batches' rows are gathered first and
        ``m x m`` entries averaged; otherwise each type's density is
        averaged over ``u x m`` and gathered.  A batch's row mean is
        the same sum in the same order either way.
        """
        if types.size < kernel.shape[0]:
            return _mean_kernel(np.take(kernel[types], types, axis=1))
        return cls._type_densities(kernel, types)[types]
