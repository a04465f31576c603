"""Dense complex tensor algebra.

Tensors are immutable wrappers around C-ordered complex128 numpy arrays with
one opaque label per axis.  Callers use the labels to track physical vs
auxiliary axes; this module never interprets them beyond uniqueness.

All operations are pure functions and safe to call concurrently.  The one
exception is ``Workers``, the threads of one amplitude: while any is
entered, BLAS runs single-threaded in this process, and ``contract_pair``
cuts each large call into one fixed piece per worker and runs the pieces
concurrently, with the same result bit for bit.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import prod
from typing import Hashable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "TensorError",
    "Gemm",
    "Workers",
    "contract_pair",
    "gemm_time",
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

    The block operand (``a`` when ``block_is_a``) has K elements on its
    paired axes.  The other operand is read as a (K, N) matrix:
    ``matrix_axes`` lists its ``paired`` paired axes first, in the block's
    order, then its N free axes.  When the block's paired axes are one
    contiguous run, it is read in place as a (P, K, S) array, P and S its
    axes before and after the run.  A *staged* plan (``stage`` > 0) instead
    copies the block, ``stage`` rows at a time, into a buffer with its
    paired axes last, and runs one GEMM per chunk, ``chunks`` in all; its P
    counts every row, the product of the block's free axes, and S is 1.
    """

    block_is_a: bool
    p: int
    k: int
    s: int
    n: int
    matrix_axes: tuple[int, ...]
    paired: int
    stage: int = 0
    chunks: int = 0

    @property
    def copies_matrix(self) -> bool:
        """Whether the matrix operand is copied: it is read in place as a
        (K, N) or (N, K) matrix only when its paired axes lead or trail."""
        identity = tuple(range(len(self.matrix_axes)))
        rotated = self.matrix_axes[self.paired:] + self.matrix_axes[:self.paired]
        return identity not in (self.matrix_axes, rotated)

    @property
    def batches(self) -> int:
        """The GEMMs the plan runs: one per chunk when staged, else P when
        both P and S exceed 1, else 1."""
        return self.chunks or (self.p if self.s > 1 else 1)


# A plan costs its multiplies plus GEMM_ELEMENT multiplies per element its
# GEMMs read and write: each GEMM reads its rows of the block and writes its
# output, and reads the matrix operand again, unless the matrix fits in
# L1_ELEMENTS (a 48 KiB L1 data cache), when the plan reads it once.
# Measured with OpenBLAS on 2 cores, against one GEMM of the same
# multiplies: batches of (S x 256)(256 x 256) ran 1.35, 1.7 and 1.7 times
# slower at S = 64, 32 and 16 (priced 1.17, 1.34 and, with THIN_ROWS below,
# 2.68); batches of (S x 512)(512 x 2048) ran as fast at S = 256 as at
# S = 512 and 8% slower at S = 128 (priced +2.2% and +6.7%).  On square 4x4 d11's
# path, windows of 2/4, 4/4, 2/8, 4/8, 8/8 and 16/8 blocks ran 3.74, 3.73,
# 3.61, 3.66, 3.63 and 4.00 s, where the price adds 0, 1.2, 0.5, 1.7, 4.1
# and 8.9% to the first.
GEMM_ELEMENT = 12
L1_ELEMENTS = 3072

# A GEMM of fewer than THIN_ROWS rows takes as long as one of THIN_ROWS
# rows, and a staged plan adds STAGE_ELEMENT multiplies per element it
# copies.  Fitted with OpenBLAS on 2 cores to batches of 26 shapes and their
# staged plans, block as a and as b (medians of up to 21 calls): the price
# picks the faster of the two in 43 of 52 cases and loses 3.2 ms in all
# where it does not.  1024 x (16 x 32)(32 x 128) took 33.0 and 24.5 ms
# batched (block as a, as b) and 19.0 and 23.6 ms staged; 4096 x (4 x 32)
# (32 x 32) took 11.3 and 9.2 ms batched and 5.1 ms staged; 8 x (256 x 512)
# (512 x 2048) took 237 and 245 ms batched and 260 and 280 ms staged, so it
# stays batched.  Neither role was the slower one throughout: b's batch took
# 0.54 to 1.79 times a's (median 1.02), so both roles share one price.
THIN_ROWS = 32
STAGE_ELEMENT = 96

# A staged plan copies at most STAGE elements of its block at a time, 1 MiB.
# Measured with OpenBLAS on 2 cores (medians of 15 calls) with chunks of at
# most 16Ki, 64Ki and 256Ki elements and with the whole block in one chunk:
# the 1024 x (16 x 32)(32 x 128) batch took 21.4, 22.5, 18.6 and 18.3 ms,
# the 4096 x (4 x 32)(32 x 32) one 6.4, 5.6, 5.7 and 6.2 ms, and two split
# runs of 2^21 elements, with K = 1024 and K = 64, 40.4, 31.6, 28.5 and
# 37.4 ms and 27.6, 24.2, 24.2 and 32.0 ms, where copying the whole operand
# into one matrix first took 34.6 and 51.0 ms.
STAGE = 65_536


def gemm_time(g: Gemm) -> int:
    """Estimated time of the multiplication ``g`` plans, in multiplies: for
    a staged plan, its GEMMs and its copy into the buffer."""
    k, n = g.k, g.n
    m = g.stage or (g.s if g.s > 1 else g.p)  # the rows of each GEMM
    rows = g.p * g.s + g.batches * max(0, THIN_ROWS - m)
    reads = g.batches if k * n > L1_ELEMENTS else 1
    copy = STAGE_ELEMENT * g.p * k if g.stage else 0
    return rows * (k * n + GEMM_ELEMENT * (k + n)) + GEMM_ELEMENT * reads * k * n + copy


def _chunking(free: Sequence[int], k: int) -> tuple[int, int]:
    """How a staged block whose free axes have extents ``free`` and whose
    paired axes hold ``k`` elements is cut into chunks of at most
    ``STAGE // k`` rows, or of one row: (axis i, step t).  A chunk takes one
    index of each free axis before axis i, t indices of axis i and every
    index of the axes after it."""
    most = max(1, STAGE // k)
    inner = 1
    for i in reversed(range(len(free))):
        if inner * free[i] > most:
            return i, most // inner
        inner *= free[i]
    return 0, free[0]


def _as_block(
    dims_blk: Sequence[int],
    dims_mat: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    block_is_a: bool,
    staged: bool = False,
) -> Gemm:
    """The plan with the operand of ``dims_blk`` as the block: in place
    when its paired axes (first of each pair) are one contiguous run and
    not ``staged``, else staged."""
    run = sorted(pairs)
    axes = [i for i, _ in run]
    paired = tuple(j for _, j in run)
    matrix_axes = paired + tuple(j for j in range(len(dims_mat)) if j not in paired)
    k = prod(dims_blk[i] for i in axes)
    n = prod(dims_mat) // k
    start = axes[0] if run else len(dims_blk)
    if not staged and axes == list(range(start, start + len(axes))):
        p = prod(dims_blk[:start])
        return Gemm(
            block_is_a, p, k, prod(dims_blk) // (p * k), n, matrix_axes, len(paired)
        )
    free = [d for i, d in enumerate(dims_blk) if i not in axes]
    i, t = _chunking(free, k)
    return Gemm(
        block_is_a, prod(free), k, 1, n, matrix_axes, len(paired),
        t * prod(free[i + 1:]), prod(free[:i]) * -(-free[i] // t),
    )


def plan_gemm(
    dims_a: Sequence[int],
    dims_b: Sequence[int],
    pairs: Sequence[tuple[int, int]],
) -> Gemm:
    """The multiplication ``contract_pair`` makes for these shapes.

    The larger operand (``a`` on a tie) is the block, unless that copies the
    smaller one and the smaller one is an in-place block that copies
    nothing.  The block is staged when its paired axes are in more than one
    run, or when it would run a batch of GEMMs priced above the staged
    plan (``gemm_time``).
    """
    return _plan_gemm(tuple(dims_a), tuple(dims_b), tuple(map(tuple, pairs)))


# a program's calls repeat a few shapes; the compiler's DP tries thousands,
# which a larger cache would hold for the life of the process
@lru_cache(maxsize=256)
def _plan_gemm(dims_a, dims_b, pairs) -> Gemm:
    swapped = [(ib, ia) for ia, ib in pairs]
    roles = [(dims_a, dims_b, pairs, True), (dims_b, dims_a, swapped, False)]
    if prod(dims_a) < prod(dims_b):
        roles.reverse()
    g = _as_block(*roles[0])
    if g.copies_matrix:
        other = _as_block(*roles[1])
        if not other.stage and not other.copies_matrix:
            g = other
            roles.reverse()
    if g.batches > 1 and not g.stage:
        staged = _as_block(*roles[0], staged=True)
        if gemm_time(staged) < gemm_time(g):
            return staged
    return g


@lru_cache(maxsize=1)
def _openblas():
    """numpy's bundled OpenBLAS thread count, (get, set) through ``ctypes``;
    None where numpy bundles no such library."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        (name,) = (f for f in os.listdir(libs) if f.startswith("libscipy_openblas64_"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, ValueError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# BLAS's thread count is one per process, so the amplitudes in it share
# one record: how many have entered Workers, and the count BLAS had before
# the first of them set it to 1.
_blas_lock = threading.Lock()
_blas_users = 0
_blas_threads = 1


class Workers:
    """The workers of one amplitude: they split its large ``contract_pair``
    calls, or in a cut run take whole slices (``compute_amplitude``), with
    the same result at any count.

    Entered, ``count`` is the thread count BLAS was given, and BLAS runs
    single-threaded: the calling thread is worker 0, and ``count - 1``
    helper threads, started here, are the others.  On exit the helpers are
    joined, and BLAS gets its count back once no other amplitude in the
    process is inside its own.  Without numpy's bundled OpenBLAS, ``count``
    is 1 and nothing starts.
    """

    def __init__(self) -> None:
        self.count = 1
        self._job = None
        self._errors: list[Exception] = []
        self._helpers: list[threading.Thread] = []

    def __enter__(self) -> Workers:
        global _blas_users, _blas_threads
        blas = _openblas()
        if blas is None:
            return self
        get, set_ = blas
        with _blas_lock:
            if not _blas_users:
                _blas_threads = get()
                set_(1)
            _blas_users += 1
            self.count = _blas_threads
        self._barrier = threading.Barrier(self.count)
        self._helpers = [
            threading.Thread(target=self._serve, args=(j,), daemon=True)
            for j in range(1, self.count)
        ]
        for helper in self._helpers:
            helper.start()
        return self

    def __exit__(self, *exc) -> None:
        global _blas_users
        blas = _openblas()
        if blas is None:
            return
        self._barrier.wait()  # with no job: the helpers return
        for helper in self._helpers:
            helper.join()
        with _blas_lock:
            _blas_users -= 1
            if not _blas_users:
                blas[1](_blas_threads)

    def _serve(self, j: int) -> None:
        while True:
            self._barrier.wait()
            job = self._job
            if job is None:
                return
            try:
                job(j)
            except Exception as exc:  # raised again on the calling thread
                self._errors.append(exc)
            self._barrier.wait()

    def run(self, job) -> None:
        """``job(j)`` for every worker j, concurrently; j = 0 on the calling
        thread.  Returns when all have returned, raising the first error."""
        self._job = job
        self._barrier.wait()
        try:
            job(0)
        finally:
            self._barrier.wait()
            self._job = None
        if self._errors:
            errors, self._errors = self._errors, []
            raise errors[0]


# A call of at least SPLIT multiplies is split across the workers; a
# smaller one runs whole on the calling thread.  Measured on
# sliced-sq16-d10 with OpenBLAS on 2 cores (medians of 20 warm amplitudes
# in one process, three alternating rounds): thresholds of 262,144, 2M and
# 8M multiplies took 0.77, 0.77 and 0.75 s, 0.73, 0.76 and 0.72 s, and
# 0.88, 0.89 and 0.88 s, against 0.90, 0.72 and 0.86 s unsplit with BLAS's
# two threads.
SPLIT = 2_000_000

# Each piece of a split but the last is a multiple of ALIGN rows of the
# block (or of a staged chunk), and the last ends where the whole does and
# has two rows or more.  OpenBLAS computes C = A B in groups of C's columns
# as wide as its kernel (4 for complex128 on SkylakeX), counted from the
# first, and the tail past the last group another way; numpy multiplies a
# C of one row or column as a vector.  Such pieces keep every element of C
# in the same kind of group as in the whole, so the split result is the
# whole one bit for bit: so it was for all 18,288 row and column pieces of
# 2 to 130 rows, K of 1 to 256 and N of 2 to 33 that start at a multiple
# of 4 and are a multiple of 4 long or end the whole.
ALIGN = 16


def _share(n: int, workers: int, align: int = 1) -> list[int]:
    """Bounds that cut ``range(n)`` into one contiguous piece per worker,
    each but the last a multiple of ``align``: the last is at least
    ``align`` long or all of ``n``, and pieces past ``n // align`` are
    empty."""
    parts = max(1, min(workers, n // align))
    return [n * j // parts // align * align for j in range(parts)] + [n] * (workers - parts + 1)


def _cut(dims: Sequence[int], index: tuple, lo: int, hi: int, most: int) -> list[tuple]:
    """The rows of ``index`` (indices of the leading free axes) and of
    indices ``lo`` to ``hi`` of the next, in row order, as pieces of at
    most ``most`` rows, or of one row each of the last axis: each an index
    into the free axes that ends in a slice.  From ``()``, ``0``,
    ``dims[0]`` and ``STAGE // k`` rows, these are the chunks of
    ``_chunking``."""
    inner = prod(dims[len(index) + 1:])
    if inner <= most:
        step = most // inner
        return [index + (slice(s, min(s + step, hi)),) for s in range(lo, hi, step)]
    return [p for j in range(lo, hi) for p in _cut(dims, index + (j,), 0, dims[len(index) + 1], most)]


def _run_staged(
    block: np.ndarray,
    axes: list[int],
    m: np.ndarray,
    g: Gemm,
    out: np.ndarray,
    scratch: np.ndarray | None,
    workers: Workers | None,
) -> None:
    """The staged plan ``g`` of ``block``, whose paired axes are ``axes``
    (ascending), times the (K, N) matrix ``m``, written into ``out``: (P, N)
    when the block is ``a``, (N, P) when it is ``b``.  Each chunk of rows is
    copied into one buffer with the paired axes last, then multiplied
    straight into its rows of the result.  The buffer is the start of
    ``scratch`` when that holds it, else allocated for this call.

    With ``workers``, each chunk is cut into pieces of at most 1/``count``
    of its rows, each worker takes its share of the pieces and stages them
    through its own 1/``count`` of the buffer.  Where a chunk's pieces
    would not each be a multiple of ``ALIGN`` rows but its last, of two
    rows or more, the plan runs on one worker instead."""
    free = [i for i in range(block.ndim) if i not in axes]
    dims = [block.shape[i] for i in free]
    need = g.stage * g.k
    if scratch is not None and len(scratch) >= need:
        buf = scratch[:need]
    else:
        buf = np.empty(need, dtype=block.dtype)
    # the paired axes that end the block are contiguous in it and in the
    # buffer, so each run of them is copied as one item
    tail = 0
    while tail < len(axes) and axes[-1 - tail] == block.ndim - 1 - tail:
        tail += 1
    run = prod(block.shape[block.ndim - tail:])
    item = np.dtype((np.void, run * block.itemsize))
    items = block.reshape(block.shape[:block.ndim - tail] + (run,)).view(item)[..., 0]
    view = items.transpose(free + axes[:len(axes) - tail])

    def rows(piece: tuple) -> int:
        return (piece[-1].stop - piece[-1].start) * prod(dims[len(piece):])

    pieces = _cut(dims, (), 0, dims[0], max(1, STAGE // g.k))
    count = workers.count if workers and g.stage >= workers.count else 1
    if count > 1:
        cuts = [_cut(dims, c[:-1], c[-1].start, c[-1].stop, g.stage // count) for c in pieces]
        if all(len(c) == 1 or rows(c[-1]) > 1 and all(rows(p) % ALIGN == 0 for p in c[:-1])
               for c in cuts):
            pieces = [p for c in cuts for p in c]
        else:
            count = 1
    firsts = [0, *accumulate(map(rows, pieces))]
    share = _share(len(pieces), count)

    def stage(j: int) -> None:
        room = buf[j * (need // count):(j + 1) * (need // count)]
        for index, row in zip(pieces[share[j]:share[j + 1]], firsts[share[j]:]):
            part = view[index]
            staged = room[:part.size * run]
            staged.view(item).reshape(part.shape)[...] = part
            chunk = staged.reshape(-1, g.k)
            if g.block_is_a:
                np.matmul(chunk, m, out=out[row:row + len(chunk)])
            else:
                np.matmul(m.T, chunk.T, out=out[:, row:row + len(chunk)])

    if count == 1:
        stage(0)
    else:
        workers.run(stage)


def _matmul(
    a: np.ndarray,
    b: np.ndarray,
    g: Gemm,
    axes: list[int],
    out: np.ndarray,
    scratch: np.ndarray | None,
    workers: Workers | None = None,
) -> None:
    """``a`` contracted with ``b`` as ``g`` plans it, written into the flat
    ``out`` in result order: [P, S, N] when ``a`` is the block, [N, P, S]
    when ``b`` is.  ``axes`` are the block's paired axes, ascending; a
    staged plan may copy through ``scratch``.

    With ``workers``, each multiplies one fixed, contiguous piece of the
    block's rows, or of its batches when it runs one GEMM per index of P,
    into the matching piece of ``out``; a staged plan shares its chunks
    (``_run_staged``)."""
    block, other = (a, b) if g.block_is_a else (b, a)
    # a view unless the paired axes neither lead nor trail
    m = other.transpose(g.matrix_axes).reshape(g.k, g.n)
    if g.stage:
        shape = (g.p, g.n) if g.block_is_a else (g.n, g.p)
        _run_staged(block, axes, m, g, out.reshape(shape), scratch, workers)
        return
    if g.block_is_a:
        if g.s == 1:
            x, y, o = block.reshape(g.p, g.k), m, out.reshape(g.p, g.n)
        elif g.p == 1:
            x, y, o = block.reshape(g.k, g.s).T, m, out.reshape(g.s, g.n)
        else:
            x, y, o = (block.reshape(g.p, g.k, g.s).transpose(0, 2, 1), m,
                       out.reshape(g.p, g.s, g.n))
    elif g.s == 1:
        x, y, o = m.T, block.reshape(g.p, g.k).T, out.reshape(g.n, g.p)
    elif g.p == 1:
        x, y, o = m.T, block.reshape(g.k, g.s), out.reshape(g.n, g.s)
    else:
        x, y, o = (m.T, block.reshape(g.p, g.k, g.s),
                   out.reshape(g.n, g.p, g.s).transpose(1, 0, 2))
    if workers is None:
        np.matmul(x, y, out=o)
        return
    # the block's rows lead o when the block is a, else they end it; its
    # batches lead o either way
    batched = g.p > 1 and g.s > 1
    axis = 0 if batched or g.block_is_a else 1
    share = _share(o.shape[axis], workers.count, 1 if batched else ALIGN)
    if share[1] == share[-1]:
        np.matmul(x, y, out=o)
        return

    def multiply(j: int) -> None:
        cut = (slice(None),) * axis + (slice(share[j], share[j + 1]),)
        if g.block_is_a:
            np.matmul(x[cut], y, out=o[cut])
        else:
            np.matmul(x, y[cut], out=o[cut])

    workers.run(multiply)


def _check_flat(name: str, arr, *others: np.ndarray) -> None:
    """Raise unless ``arr`` is a 1-D C-contiguous complex128 array that
    shares no memory with any of ``others``."""
    if not (
        isinstance(arr, np.ndarray) and arr.ndim == 1
        and arr.dtype == np.complex128 and arr.flags["C_CONTIGUOUS"]
    ):
        raise TensorError(f"{name} must be a 1-D C-contiguous complex128 array")
    if any(np.may_share_memory(arr, other) for other in others):
        raise TensorError(f"{name} shares memory with an operand or out")


def contract_pair(
    a: Tensor,
    b: Tensor,
    pairs: Sequence[tuple[int, int]],
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    workers: Workers | None = None,
) -> Tensor:
    """Contract the paired axes of ``a`` and ``b``.

    The result carries the unpaired axes of ``a`` followed by the unpaired
    axes of ``b``, labels carried over from the inputs.  Given ``out``, a
    flat C-contiguous complex128 array that shares no memory with ``a`` or
    ``b``, the result is written into its first elements and is a view of
    them; else it is allocated.  A staged step copies through the start of
    ``scratch``, an array of the same kind that shares no memory with
    ``out`` either, when that holds its buffer; else through one it
    allocates.

    Copy-free rule: when the paired axes of the larger operand form one
    contiguous run, so that it reads as a (P, K, S) block, that operand is
    used as a view and only the smaller one is transposed, to K's order
    (not even that when its paired axes already lead or trail in that
    order).  The roles swap when only the swap avoids that transposition.
    The step is one GEMM when P or S is 1, else one GEMM per index of P.
    When the larger operand's paired axes are in more than one run, or a
    batch over P is priced above it, the step is staged instead: the block
    is copied a few rows at a time into a buffer of at most ``STAGE``
    elements, paired axes last, and each chunk is one GEMM written into its
    rows of the result.

    Splitting: given entered ``workers`` of more than one, a call of at
    least ``SPLIT`` multiplies whose matrix has more than one column (N > 1)
    is cut into one fixed, contiguous piece per worker, and the pieces run
    concurrently, each GEMM single-threaded in BLAS.  The pieces are of the
    block's rows, or of its batches over P; a staged step cuts its chunks
    into pieces that the workers share, each staging through its own part
    of the one buffer.  Each element of the result is still one GEMM over
    the same K, and the pieces keep to ``ALIGN``, so the result is the
    one-worker result bit for bit; a staged step whose pieces could not
    keep to it runs on one worker.
    """
    _check_pairs(a, b, pairs)
    axes_a = [ia for ia, _ in pairs]
    axes_b = [ib for _, ib in pairs]
    free_a = [i for i in range(a.rank) if i not in axes_a]
    free_b = [i for i in range(b.rank) if i not in axes_b]
    g = plan_gemm(a.dims, b.dims, pairs)
    dims = [a.dims[i] for i in free_a] + [b.dims[i] for i in free_b]
    size = prod(dims)
    if out is None:
        out = np.empty(size, dtype=np.complex128)
    else:
        _check_flat("out", out, a.data, b.data)
        if len(out) < size:
            raise TensorError(f"out holds {len(out)} elements, the result {size}")
    if scratch is not None:
        _check_flat("scratch", scratch, a.data, b.data, out)
    axes = sorted(axes_a if g.block_is_a else axes_b)
    if workers is not None and (workers.count == 1 or g.n == 1 or g.p * g.s * g.k * g.n < SPLIT):
        workers = None
    _matmul(a.data, b.data, g, axes, out[:size], scratch, workers)
    labels = tuple(a.labels[i] for i in free_a) + tuple(b.labels[i] for i in free_b)
    return Tensor(out[:size].reshape(dims), labels)


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
