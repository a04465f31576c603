"""Dense complex tensor algebra.

Tensors are immutable wrappers around C-ordered complex128 numpy arrays with
one opaque label per axis.  Callers use the labels to track physical vs
auxiliary axes; this module never interprets them beyond uniqueness.

All operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Hashable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "TensorError",
    "Gemm",
    "contract_pair",
    "plan_gemm",
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


class Gemm(NamedTuple):
    """How ``contract_pair`` multiplies by BLAS.

    The block operand (``a`` when ``block_is_a``) is read in place as a
    (P, K, S) array: K is its paired axes, one contiguous run, and P and S
    its axes before and after the run.  The other operand is read as a
    (K, N) matrix: ``matrix_axes`` lists its ``paired`` paired axes first,
    in the block's order, then its N free axes.
    """

    block_is_a: bool
    p: int
    k: int
    s: int
    n: int
    matrix_axes: tuple[int, ...]
    paired: int

    @property
    def copies_matrix(self) -> bool:
        """Whether the matrix operand is copied: it is read in place as a
        (K, N) or (N, K) matrix only when its paired axes lead or trail."""
        identity = tuple(range(len(self.matrix_axes)))
        rotated = self.matrix_axes[self.paired:] + self.matrix_axes[:self.paired]
        return identity not in (self.matrix_axes, rotated)

    @property
    def batches(self) -> int:
        """The GEMMs ``_matmul`` runs: P when both P and S exceed 1, else 1."""
        return self.p if self.s > 1 else 1

    @property
    def inner(self) -> tuple[int, int, int]:
        """(M, K, N) of the one GEMM, or of each GEMM of the batch over P:
        M is S, or P when S is 1."""
        return (self.s if self.s > 1 else self.p, self.k, self.n)


def _as_block(
    dims_blk: Sequence[int],
    dims_mat: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    block_is_a: bool,
) -> Gemm | None:
    """The plan with the operand of ``dims_blk`` as the block, or None when
    its paired axes (first of each pair) are not one contiguous run."""
    run = sorted(pairs)
    start = run[0][0] if run else len(dims_blk)
    stop = start + len(run)
    if [i for i, _ in run] != list(range(start, stop)):
        return None
    paired = tuple(j for _, j in run)
    free = tuple(j for j in range(len(dims_mat)) if j not in paired)
    return Gemm(
        block_is_a,
        prod(dims_blk[:start]),
        prod(dims_blk[start:stop]),
        prod(dims_blk[stop:]),
        prod(dims_mat[j] for j in free),
        paired + free,
        len(paired),
    )


def plan_gemm(
    dims_a: Sequence[int],
    dims_b: Sequence[int],
    pairs: Sequence[tuple[int, int]],
) -> Gemm | None:
    """The multiplication ``contract_pair`` makes for these shapes, or None
    when the larger operand (``a`` on a tie) has its paired axes in more
    than one run.  The larger operand is the block, unless that copies the
    smaller one and the smaller one as the block copies nothing."""
    return _plan_gemm(tuple(dims_a), tuple(dims_b), tuple(map(tuple, pairs)))


# a program's calls repeat a few shapes; the compiler's DP tries thousands,
# which a larger cache would hold for the life of the process
@lru_cache(maxsize=256)
def _plan_gemm(dims_a, dims_b, pairs) -> Gemm | None:
    swapped = [(ib, ia) for ia, ib in pairs]
    with_a = _as_block(dims_a, dims_b, pairs, True)
    with_b = _as_block(dims_b, dims_a, swapped, False)
    if prod(dims_a) >= prod(dims_b):
        large, small = with_a, with_b
    else:
        large, small = with_b, with_a
    if large and large.copies_matrix and small and not small.copies_matrix:
        return small
    return large


def _matmul(a: np.ndarray, b: np.ndarray, g: Gemm) -> np.ndarray:
    """``a`` contracted with ``b`` as ``g`` plans it, flat in result order:
    [P, S, N] when ``a`` is the block, [N, P, S] when ``b`` is."""
    block, other = (a, b) if g.block_is_a else (b, a)
    # a view unless the paired axes neither lead nor trail
    m = other.transpose(g.matrix_axes).reshape(g.k, g.n)
    if g.block_is_a:
        if g.s == 1:
            return block.reshape(g.p, g.k) @ m
        if g.p == 1:
            return block.reshape(g.k, g.s).T @ m
        return np.matmul(block.reshape(g.p, g.k, g.s).transpose(0, 2, 1), m)
    if g.s == 1:
        return m.T @ block.reshape(g.p, g.k).T
    if g.p == 1:
        return m.T @ block.reshape(g.k, g.s)
    out = np.empty((g.n, g.p, g.s), dtype=np.result_type(a, b))
    np.matmul(m.T, block.reshape(g.p, g.k, g.s), out=out.transpose(1, 0, 2))
    return out


def contract_pair(
    a: Tensor, b: Tensor, pairs: Sequence[tuple[int, int]]
) -> Tensor:
    """Contract the paired axes of ``a`` and ``b``.

    The result carries the unpaired axes of ``a`` followed by the unpaired
    axes of ``b``, labels carried over from the inputs.

    Copy-free rule: when the paired axes of the larger operand form one
    contiguous run, so that it reads as a (P, K, S) block, that operand is
    used as a view and only the smaller one is transposed, to K's order
    (not even that when its paired axes already lead or trail in that
    order).  The roles swap when only the swap avoids that transposition.
    The step is one GEMM when P or S is 1, else one GEMM per index of P.
    Any other layout falls back to ``np.tensordot``, which copies both
    operands into matrices.
    """
    _check_pairs(a, b, pairs)
    axes_a = [ia for ia, _ in pairs]
    axes_b = [ib for _, ib in pairs]
    free_a = [i for i in range(a.rank) if i not in axes_a]
    free_b = [i for i in range(b.rank) if i not in axes_b]
    g = plan_gemm(a.dims, b.dims, pairs)
    if g is None:
        out = np.tensordot(a.data, b.data, axes=(axes_a, axes_b))
    else:
        dims = [a.dims[i] for i in free_a] + [b.dims[i] for i in free_b]
        out = _matmul(a.data, b.data, g).reshape(dims)
    labels = tuple(a.labels[i] for i in free_a) + tuple(b.labels[i] for i in free_b)
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
