"""Dense complex tensor algebra.

Tensors are immutable wrappers around C-ordered complex128 numpy arrays with
one opaque label per axis.  Callers use the labels to track physical vs
auxiliary axes; this module never interprets them beyond uniqueness.

All operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Hashable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "TensorError",
    "contract_pair",
    "svd_factorize",
    "contraction_cost",
]

DEFAULT_SVD_TOLERANCE = 1e-12


class TensorError(ValueError):
    """Raised on malformed tensors or invalid axis specifications."""


@dataclass(frozen=True)
class Tensor:
    """Dense complex tensor with labelled axes.

    data is stored row-major (C order) over ``dims``; labels must be unique
    within one tensor.
    """

    data: np.ndarray
    labels: tuple[Hashable, ...] = field(default=())

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.complex128)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would promote 0-d
            arr = np.ascontiguousarray(arr)
        object.__setattr__(self, "data", arr)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(arr.ndim)))
        if len(self.labels) != arr.ndim:
            raise TensorError(
                f"{len(self.labels)} labels for {arr.ndim} axes"
            )
        if len(set(self.labels)) != len(self.labels):
            raise TensorError(f"duplicate axis labels: {self.labels}")
        if any(d < 1 for d in arr.shape):
            raise TensorError(f"axis extent < 1 in shape {arr.shape}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def rank(self) -> int:
        return self.data.ndim

    def axis(self, label: Hashable) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise TensorError(f"no axis labelled {label!r}") from None

    def scalar(self) -> complex:
        if self.data.ndim != 0:
            raise TensorError(f"tensor of rank {self.data.ndim} is not a scalar")
        return complex(self.data)


def _check_pairs(a: Tensor, b: Tensor, pairs: Sequence[tuple[int, int]]) -> None:
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    for ia, ib in pairs:
        if not (0 <= ia < a.rank and 0 <= ib < b.rank):
            raise TensorError(f"axis pair ({ia}, {ib}) out of range")
        if ia in seen_a or ib in seen_b:
            raise TensorError(f"axis repeated in pairs: ({ia}, {ib})")
        seen_a.add(ia)
        seen_b.add(ib)
        if a.dims[ia] != b.dims[ib]:
            raise TensorError(
                f"extent mismatch on pair ({ia}, {ib}): "
                f"{a.dims[ia]} != {b.dims[ib]}"
            )


def contract_pair(
    a: Tensor, b: Tensor, pairs: Sequence[tuple[int, int]]
) -> Tensor:
    """Contract the paired axes of ``a`` and ``b``.

    The result carries the unpaired axes of ``a`` followed by the unpaired
    axes of ``b``, labels carried over from the inputs.
    """
    _check_pairs(a, b, pairs)
    axes_a = [ia for ia, _ in pairs]
    axes_b = [ib for _, ib in pairs]
    out = np.tensordot(a.data, b.data, axes=(axes_a, axes_b))
    labels = tuple(l for i, l in enumerate(a.labels) if i not in set(axes_a))
    labels += tuple(l for i, l in enumerate(b.labels) if i not in set(axes_b))
    return Tensor(out, labels)


def svd_factorize(
    t: Tensor,
    row_axes: Sequence[int],
    tolerance: float = DEFAULT_SVD_TOLERANCE,
    new_label: Hashable = "_svd",
) -> tuple[Tensor, np.ndarray, Tensor, int]:
    """Factor ``t`` as u . diag(s) . v after reshaping to a matrix.

    Rows are the axes in ``row_axes`` (in their order within ``t``), columns
    the remaining axes.  Singular values come back non-increasing; the kept
    rank counts values s_i > tolerance * s_max, clamped to at least 1 so a
    fully-degenerate tensor still yields a valid network bond.
    """
    if tolerance < 0:
        raise TensorError("tolerance must be non-negative")
    rows = sorted(set(row_axes))
    if len(rows) != len(list(row_axes)):
        raise TensorError("row_axes contains duplicates")
    if any(not 0 <= r < t.rank for r in rows):
        raise TensorError("row axis out of range")
    if not rows or len(rows) == t.rank:
        raise TensorError("row_axes must be a proper nonempty axis subset")
    if not np.all(np.isfinite(t.data)):
        raise TensorError("non-finite values in tensor")

    cols = [i for i in range(t.rank) if i not in rows]
    perm = rows + cols
    row_dim = prod(t.dims[i] for i in rows)
    col_dim = prod(t.dims[i] for i in cols)
    mat = t.data.transpose(perm).reshape(row_dim, col_dim)
    u_m, s, v_m = np.linalg.svd(mat, full_matrices=False)

    s_max = s[0] if s.size else 0.0
    kept = int(np.sum(s > tolerance * s_max)) if s_max > 0 else 0
    kept = max(kept, 1)

    u = Tensor(
        u_m[:, :kept].reshape(tuple(t.dims[i] for i in rows) + (kept,)),
        tuple(t.labels[i] for i in rows) + (new_label,),
    )
    v = Tensor(
        v_m[:kept].reshape((kept,) + tuple(t.dims[i] for i in cols)),
        (new_label,) + tuple(t.labels[i] for i in cols),
    )
    return u, s[:kept].copy(), v, kept


def contraction_cost(
    dims_a: Sequence[int],
    dims_b: Sequence[int],
    shared: Sequence[tuple[int, int]],
) -> int:
    """Multiply count of contracting two tensors over the ``shared`` pairs.

    Equals prod(unpaired a) * prod(unpaired b) * prod(shared extents); this is
    the Cost(A, B) used by the contraction-path search.
    """
    shared_a = {ia for ia, _ in shared}
    shared_b = {ib for _, ib in shared}
    for ia, ib in shared:
        if dims_a[ia] != dims_b[ib]:
            raise TensorError(
                f"shared extent mismatch: {dims_a[ia]} != {dims_b[ib]}"
            )
    free_a = prod(d for i, d in enumerate(dims_a) if i not in shared_a)
    free_b = prod(d for i, d in enumerate(dims_b) if i not in shared_b)
    shared_prod = prod(int(dims_a[ia]) for ia, _ in shared)
    return int(free_a) * int(free_b) * shared_prod
