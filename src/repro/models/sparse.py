"""Sparse propagation operator of the GCN-based models.

GCN-Align and Dual-AMN propagate entity features through an ``n × n``
matrix with a handful of nonzeros per row (the edges of both KGs, the seed
links and one self-loop per entity).  :class:`SparseOperator` stores only
those nonzeros as COO triplets and implements the two products the encoder
needs, ``A @ X`` and ``A.T @ X``, so training memory and time grow with the
number of edges instead of the square of the number of entities.

The kernel is one ``np.bincount`` per column chunk over a precomputed flat
``row * width + column`` index, with weights ``values[:, None] * X[cols]``.
Columns are processed :data:`PROPAGATION_CHUNK` at a time, so the scratch
memory is ``nnz × PROPAGATION_CHUNK`` however wide ``X`` is (GCN-Align's
seed channel propagates an ``n × seeds`` matrix).
"""

from __future__ import annotations

import numpy as np

#: Number of columns of ``X`` propagated per ``np.bincount`` call.
PROPAGATION_CHUNK = 32


class SparseOperator:
    """A sparse matrix stored as COO triplets ``(rows, cols, values)``.

    Duplicate ``(row, column)`` entries are allowed and sum, as in the
    dense matrix they stand for.  ``.T`` returns the transposed operator,
    sharing the triplet arrays.
    """

    def __init__(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
    ) -> None:
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.values = np.asarray(values, dtype=float)
        self.shape = shape
        self._flat_index: dict[int, np.ndarray] = {}
        self._transpose: SparseOperator | None = None

    @classmethod
    def identity(cls, n: int) -> "SparseOperator":
        """The ``n × n`` identity as an ``n``-entry operator."""
        diagonal = np.arange(n)
        return cls(diagonal, diagonal, np.ones(n), (n, n))

    @property
    def nbytes(self) -> int:
        """Bytes held by the triplets and the cached flat indexes."""
        arrays = [self.rows, self.cols, self.values, *self._flat_index.values()]
        return sum(array.nbytes for array in arrays)

    @property
    def T(self) -> "SparseOperator":
        """The transposed operator (built once, sharing the triplet arrays)."""
        if self._transpose is None:
            self._transpose = SparseOperator(
                self.cols, self.rows, self.values, (self.shape[1], self.shape[0])
            )
        return self._transpose

    def _flat(self, width: int) -> np.ndarray:
        """Flat ``row * width + column`` bincount index, built once per width."""
        flat = self._flat_index.get(width)
        if flat is None:
            flat = (self.rows[:, None] * width + np.arange(width)).ravel()
            self._flat_index[width] = flat
        return flat

    def _propagate(self, block: np.ndarray) -> np.ndarray:
        """``A @ block`` for a block of at most :data:`PROPAGATION_CHUNK` columns."""
        num_rows, width = self.shape[0], block.shape[1]
        weights = block[self.cols]
        weights *= self.values[:, None]
        sums = np.bincount(self._flat(width), weights.ravel(), minlength=num_rows * width)
        return sums.reshape(num_rows, width)

    def __matmul__(self, matrix: np.ndarray) -> np.ndarray:
        width = matrix.shape[1]
        if width <= PROPAGATION_CHUNK:
            return self._propagate(matrix)
        output = np.empty((self.shape[0], width))
        for start in range(0, width, PROPAGATION_CHUNK):
            stop = start + PROPAGATION_CHUNK
            output[:, start:stop] = self._propagate(matrix[:, start:stop])
        return output


def coalesce(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicate ``(row, column)`` entries by summing their values.

    Returns the distinct cells in row-major order.  Each cell's values are
    added in input order starting from zero, exactly as ``np.add.at`` into
    a zero dense matrix accumulates them.
    """
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    merged = np.bincount(inverse, weights=values, minlength=len(keys))
    return keys // n, keys % n, merged
