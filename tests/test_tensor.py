import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnsim import tensor
from tnsim.tensor import (
    Tensor,
    TensorError,
    contract_pair,
    contraction_cost,
    plan_gemm,
    svd_factorize,
)


def loop_contract(a: Tensor, b: Tensor, pairs):
    """Independent nested-loop contraction oracle."""
    axes_a = {ia for ia, _ in pairs}
    axes_b = {ib for _, ib in pairs}
    free_a = [i for i in range(a.rank) if i not in axes_a]
    free_b = [i for i in range(b.rank) if i not in axes_b]
    out_shape = [a.dims[i] for i in free_a] + [b.dims[i] for i in free_b]
    out = np.zeros(out_shape, dtype=complex)
    for idx in np.ndindex(*out_shape):
        ia_free = idx[: len(free_a)]
        ib_free = idx[len(free_a):]
        total = 0.0 + 0.0j
        for shared in itertools.product(*(range(a.dims[ia]) for ia, _ in pairs)):
            ia = [0] * a.rank
            ib = [0] * b.rank
            for pos, v in zip(free_a, ia_free):
                ia[pos] = v
            for pos, v in zip(free_b, ib_free):
                ib[pos] = v
            for (pa, pb), v in zip(pairs, shared):
                ia[pa] = v
                ib[pb] = v
            total += a.data[tuple(ia)] * b.data[tuple(ib)]
        out[idx] = total
    return out


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestContractPair:
    def test_identity_contraction(self):
        a = Tensor(np.eye(2), ("r", "c"))
        b = Tensor(np.array([3.0, 4.0]), ("v",))
        out = contract_pair(a, b, [(1, 0)])
        np.testing.assert_allclose(out.data, [3, 4])
        assert out.labels == ("r",)

    def test_dot_product(self):
        a = Tensor(np.array([1.0, 2.0]), ("x",))
        b = Tensor(np.array([3.0, 4.0]), ("y",))
        out = contract_pair(a, b, [(0, 0)])
        assert out.rank == 0
        assert out.scalar() == pytest.approx(11)

    def test_against_loop_oracle(self, rng):
        a = Tensor(crandn(rng, 2, 4, 2), ("a", "b", "c"))
        b = Tensor(crandn(rng, 2, 2, 3), ("d", "e", "f"))
        out = contract_pair(a, b, [(0, 1)])
        assert out.dims == (4, 2, 2, 3)
        np.testing.assert_allclose(out.data, loop_contract(a, b, [(0, 1)]), atol=1e-12)

    def test_loop_oracle_random_shapes(self, rng, rnd):
        for _ in range(15):
            ra = rnd.randint(1, 3)
            rb = rnd.randint(1, 3)
            da = [rnd.randint(1, 4) for _ in range(ra)]
            db = [rnd.randint(1, 4) for _ in range(rb)]
            npairs = rnd.randint(0, min(ra, rb))
            pairs = list(zip(rnd.sample(range(ra), npairs), rnd.sample(range(rb), npairs)))
            for pa, pb in pairs:
                db[pb] = da[pa]
            a = Tensor(crandn(rng, *da), tuple(f"a{i}" for i in range(ra)))
            b = Tensor(crandn(rng, *db), tuple(f"b{i}" for i in range(rb)))
            out = contract_pair(a, b, pairs)
            np.testing.assert_allclose(out.data, loop_contract(a, b, pairs), atol=1e-12)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_bilinear_in_first_argument(self, re, im):
        rng = np.random.default_rng(7)
        alpha = complex(re, im)
        a = Tensor(crandn(rng, 3, 2), ("a", "b"))
        b = Tensor(crandn(rng, 2, 3), ("c", "d"))
        lhs = contract_pair(Tensor(alpha * a.data, a.labels), b, [(1, 0)])
        rhs = contract_pair(a, b, [(1, 0)])
        np.testing.assert_allclose(lhs.data, alpha * rhs.data, atol=1e-12)

    def test_extent_mismatch(self):
        a = Tensor(np.zeros((2, 3)), ("a", "b"))
        b = Tensor(np.zeros(4), ("c",))
        with pytest.raises(TensorError, match="mismatch"):
            contract_pair(a, b, [(1, 0)])

    def test_axis_out_of_range(self):
        a = Tensor(np.zeros(2), ("a",))
        b = Tensor(np.zeros(2), ("b",))
        with pytest.raises(TensorError, match="out of range"):
            contract_pair(a, b, [(3, 0)])

    def test_repeated_axis_rejected(self):
        a = Tensor(np.zeros((2, 2)), ("a", "b"))
        b = Tensor(np.zeros((2, 2)), ("c", "d"))
        with pytest.raises(TensorError, match="repeated"):
            contract_pair(a, b, [(0, 0), (0, 1)])


def large_and_small(rng, run_start):
    """A rank-4 operand whose axes run_start, run_start + 1 pair, in
    reverse order, with the first two axes of a rank-3 operand."""
    large = Tensor(crandn(rng, 2, 3, 4, 3), tuple(f"l{i}" for i in range(4)))
    k0, k1 = large.dims[run_start], large.dims[run_start + 1]
    small = Tensor(crandn(rng, k1, k0, 2), ("s0", "s1", "s2"))
    return large, small, [(run_start + 1, 0), (run_start, 1)]


class TestContractPairLayouts:
    """The copy-free multiplication against the loop oracle, for each place
    of the larger operand's paired run and both operand orders."""

    @pytest.mark.parametrize("run_start", [0, 1, 2], ids=["prefix", "middle", "suffix"])
    def test_large_first(self, rng, run_start):
        large, small, pairs = large_and_small(rng, run_start)
        assert plan_gemm(large.dims, small.dims, pairs).block_is_a
        out = contract_pair(large, small, pairs)
        expected = loop_contract(large, small, pairs)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("run_start", [0, 1, 2], ids=["prefix", "middle", "suffix"])
    def test_large_second(self, rng, run_start):
        large, small, pairs = large_and_small(rng, run_start)
        swapped = [(ib, ia) for ia, ib in pairs]
        assert not plan_gemm(small.dims, large.dims, swapped).block_is_a
        out = contract_pair(small, large, swapped)
        np.testing.assert_allclose(
            out.data, loop_contract(small, large, swapped), atol=1e-12
        )

    def test_small_operand_in_any_axis_order(self, rng):
        large, _, _ = large_and_small(rng, 1)
        small = Tensor(crandn(rng, 3, 2, 4), ("s0", "s1", "s2"))  # run in the middle
        pairs = [(1, 0), (2, 2)]
        out = contract_pair(large, small, pairs)
        expected = loop_contract(large, small, pairs)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_non_contiguous_run_is_staged(self, rng):
        large = Tensor(crandn(rng, 2, 3, 4, 3), tuple(f"l{i}" for i in range(4)))
        small = Tensor(crandn(rng, 2, 4, 2), ("s0", "s1", "s2"))
        pairs = [(0, 0), (2, 1)]
        assert plan_gemm(large.dims, small.dims, pairs).stage
        out = contract_pair(large, small, pairs)
        expected = loop_contract(large, small, pairs)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_large_operand_is_not_copied(self, rng):
        # 2^20 elements, 16 MiB, paired on its two middle axes
        large = Tensor(crandn(rng, 64, 16, 16, 64), tuple(f"l{i}" for i in range(4)))
        small = Tensor(crandn(rng, 16, 16, 4), ("s0", "s1", "s2"))
        pairs = [(1, 0), (2, 1)]
        swapped = [(j, i) for i, j in pairs]
        for a, b, ab in ((large, small, pairs), (small, large, swapped)):
            tracemalloc.start()
            try:
                contract_pair(a, b, ab)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < large.data.nbytes / 4

    def test_split_run_allocates_one_buffer(self, rng, split):
        # 2^20 elements, 16 MiB, paired on its second and last axes; whole,
        # and split, each of two workers staging through its half of the
        # one buffer
        split(1)
        large = Tensor(crandn(rng, 64, 16, 16, 64), tuple(f"l{i}" for i in range(4)))
        small = Tensor(crandn(rng, 16, 64, 4), ("s0", "s1", "s2"))
        pairs = [(1, 0), (3, 1)]
        swapped = [(j, i) for i, j in pairs]
        for workers in (None, Threads(2)):
            for a, b, ab in ((large, small, pairs), (small, large, swapped)):
                assert plan_gemm(a.dims, b.dims, ab).stage
                tracemalloc.start()
                try:
                    out = contract_pair(a, b, ab, workers=workers)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= out.data.nbytes + small.data.nbytes + 2**20
        assert workers.runs == 2


@pytest.fixture
def stage(monkeypatch):
    """Sets ``tensor.STAGE`` for one test; plans are cached, so the cache
    is cleared on the way in and out."""

    def set_stage(elements):
        monkeypatch.setattr(tensor, "STAGE", elements)
        tensor._plan_gemm.cache_clear()

    yield set_stage
    tensor._plan_gemm.cache_clear()


class Threads:
    """Workers of any count for ``contract_pair``: each piece of a split
    call runs on its own thread, and ``runs`` counts the split calls."""

    def __init__(self, count):
        self.count = count
        self.runs = 0

    def run(self, job):
        self.runs += 1
        errors = []

        def piece(j):
            try:
                job(j)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=piece, args=(j,)) for j in range(self.count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]


@pytest.fixture
def split(monkeypatch):
    """Sets ``tensor.SPLIT`` for one test: a call of that many multiplies
    or more is split across the workers it is given."""

    def set_split(multiplies):
        monkeypatch.setattr(tensor, "SPLIT", multiplies)

    return set_split


def labelled(data, prefix):
    return Tensor(data, tuple(f"{prefix}{i}" for i in range(data.ndim)))


class TestStagedKernel:
    """Staged plans against the loop oracle: the block is copied a chunk of
    rows at a time into one buffer and each chunk is one GEMM."""

    @pytest.mark.parametrize("block_first", [True, False], ids=["block-a", "block-b"])
    def test_thin_batch(self, rng, block_first):
        # 64 GEMMs of (2 x 8)(8 x 8): thinner than THIN_ROWS, so staged
        block = labelled(crandn(rng, 64, 8, 2), "p")
        matrix = labelled(crandn(rng, 8, 8), "m")
        if block_first:
            a, b, pairs = block, matrix, [(1, 0)]
        else:
            a, b, pairs = matrix, block, [(0, 1)]
        g = plan_gemm(a.dims, b.dims, pairs)
        assert g.stage and g.block_is_a == block_first and g.batches == 1
        np.testing.assert_allclose(
            contract_pair(a, b, pairs).data, loop_contract(a, b, pairs), atol=1e-12
        )

    @pytest.mark.parametrize("large_first", [True, False], ids=["large-a", "large-b"])
    def test_split_run(self, rng, large_first):
        large = labelled(crandn(rng, 3, 2, 5, 4, 2), "l")
        small = labelled(crandn(rng, 4, 3, 2), "s")
        pairs = [(3, 0), (0, 1)]  # paired axes 0 and 3 of the large operand
        if not large_first:
            large, small, pairs = small, large, [(j, i) for i, j in pairs]
        g = plan_gemm(large.dims, small.dims, pairs)
        assert g.stage and g.block_is_a == large_first
        np.testing.assert_allclose(
            contract_pair(large, small, pairs).data,
            loop_contract(large, small, pairs),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "elements, stage_rows, chunks",
        [(36, 6, 3), (4096, 15, 1), (4, 1, 15)],
        ids=["rows-not-a-multiple-of-the-chunk", "chunk-larger-than-the-rows",
             "k-larger-than-stage"],
    )
    def test_chunks(self, rng, stage, elements, stage_rows, chunks):
        # free axes 5 and 3 (15 rows) around paired axes of 2 and 3 (K = 6)
        stage(elements)
        large = labelled(crandn(rng, 2, 5, 3, 3), "l")
        small = labelled(crandn(rng, 3, 4, 2), "s")
        pairs = [(0, 2), (3, 0)]
        g = plan_gemm(large.dims, small.dims, pairs)
        assert (g.k, g.stage, g.chunks) == (6, stage_rows, chunks)
        assert g.stage * g.k <= max(elements, g.k)
        np.testing.assert_allclose(
            contract_pair(large, small, pairs).data,
            loop_contract(large, small, pairs),
            atol=1e-12,
        )


class TestSvdFactorize:
    def test_identity_singular_values(self):
        t = Tensor(np.eye(2), ("a", "b"))
        u, s, v, kept = svd_factorize(t, [0], tolerance=0.0)
        np.testing.assert_allclose(s, [1, 1])
        assert kept == 2

    def test_rank_one_outer_product(self):
        t = Tensor(np.outer([1, 0], [0, 1]), ("a", "b"))
        _, _, _, kept = svd_factorize(t, [0], tolerance=1e-12)
        assert kept == 1

    def test_fsim_gate_grouped_rank(self):
        from tnsim.circuit import fsim_matrix

        m = fsim_matrix(np.pi / 6, np.pi / 3)
        grouped = Tensor(
            m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3), ("kp", "k", "lp", "l")
        )
        _, _, _, kept = svd_factorize(grouped, [0, 1])
        assert kept == 4

    def test_reconstruction(self, rng):
        for shape, rows in [((2, 3, 4), [0]), ((4, 2, 2, 3), [0, 2]), ((5, 5), [1])]:
            t = Tensor(crandn(rng, *shape))
            u, s, v, kept = svd_factorize(t, rows)
            rebuilt = np.tensordot(u.data * s, v.data, axes=([u.rank - 1], [0]))
            norm = np.linalg.norm(t.data)
            perm = list(rows) + [i for i in range(t.rank) if i not in rows]
            np.testing.assert_allclose(
                rebuilt, t.data.transpose(perm), atol=1e-12 * norm
            )

    def test_orthonormal_factors(self, rng):
        t = Tensor(crandn(rng, 3, 4, 2))
        u, s, v, kept = svd_factorize(t, [0, 2])
        um = u.data.reshape(-1, kept)
        np.testing.assert_allclose(um.conj().T @ um, np.eye(kept), atol=1e-12)
        vm = v.data.reshape(kept, -1)
        np.testing.assert_allclose(vm @ vm.conj().T, np.eye(kept), atol=1e-12)

    def test_kept_rank_floor_is_one(self):
        t = Tensor(np.zeros((2, 2)))
        _, _, _, kept = svd_factorize(t, [0])
        assert kept == 1

    @pytest.mark.parametrize("rows", [[], [0, 1]])
    def test_row_axes_must_be_proper_subset(self, rows):
        t = Tensor(np.eye(2))
        with pytest.raises(TensorError):
            svd_factorize(t, rows)

    def test_non_finite_rejected(self):
        t = Tensor(np.array([[np.inf, 0], [0, 1]]))
        with pytest.raises(TensorError, match="finite"):
            svd_factorize(t, [0])


class TestContractionCost:
    def test_two_matrices(self):
        assert contraction_cost((2, 2), (2, 2), [(1, 0)]) == 8

    def test_formula_application(self):
        assert contraction_cost((4, 4, 2), (2, 4), [(2, 0)]) == 128

    def test_outer_product(self):
        assert contraction_cost((2, 2), (3,), []) == 12

    def test_symmetry(self, rnd):
        for _ in range(20):
            da = tuple(rnd.randint(1, 5) for _ in range(rnd.randint(1, 3)))
            db = tuple(rnd.randint(1, 5) for _ in range(rnd.randint(1, 3)))
            n = rnd.randint(0, min(len(da), len(db)))
            pa = rnd.sample(range(len(da)), n)
            pb = rnd.sample(range(len(db)), n)
            db = tuple(
                da[pa[pb.index(i)]] if i in pb else d for i, d in enumerate(db)
            )
            pairs = list(zip(pa, pb))
            flipped = [(ib, ia) for ia, ib in pairs]
            assert contraction_cost(da, db, pairs) == contraction_cost(db, da, flipped)

    def test_extent_mismatch(self):
        with pytest.raises(TensorError):
            contraction_cost((2,), (3,), [(0, 0)])


class TestTensorInvariants:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(TensorError, match="duplicate"):
            Tensor(np.zeros((2, 2)), ("a", "a"))

    def test_label_count_must_match(self):
        with pytest.raises(TensorError):
            Tensor(np.zeros((2, 2)), ("a",))

    def test_row_major_layout(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.data[1, 0] == 3


# (a dims, b dims, pairs): one per in-place branch with a as the block,
# then a split run, which is staged; swapping the operands makes b the block
OUT_CASES = {
    "s-is-1": ((4, 3, 5), (5, 6), [(2, 0)]),
    "p-is-1": ((5, 4, 3), (5, 6), [(0, 0)]),
    "batch": ((4, 64, 32), (64, 8), [(1, 0)]),
    "staged": ((2, 3, 4, 3), (2, 4, 2), [(0, 0), (2, 1)]),
}


class TestContractPairOut:
    """``out=``: the result written into a given flat array."""

    @pytest.mark.parametrize("block_first", [True, False], ids=["block-a", "block-b"])
    @pytest.mark.parametrize("case", OUT_CASES)
    def test_result_is_the_allocated_one_in_out(self, rng, case, block_first):
        dims_a, dims_b, pairs = OUT_CASES[case]
        a, b = labelled(crandn(rng, *dims_a), "a"), labelled(crandn(rng, *dims_b), "b")
        if not block_first:
            a, b, pairs = b, a, [(j, i) for i, j in pairs]
        g = plan_gemm(a.dims, b.dims, pairs)
        assert g.block_is_a == block_first
        assert bool(g.stage) == (case == "staged")
        assert (g.p == 1, g.s == 1, g.batches > 1) == (
            case == "p-is-1", case in ("s-is-1", "staged"), case == "batch"
        )
        expected = contract_pair(a, b, pairs)
        out = np.full(expected.data.size + 3, np.nan, dtype=complex)
        result = contract_pair(a, b, pairs, out=out)
        assert result.labels == expected.labels
        np.testing.assert_array_equal(result.data, expected.data)
        assert np.shares_memory(result.data, out)
        assert np.isnan(out[expected.data.size:]).all()

    @pytest.mark.parametrize("block_first", [True, False], ids=["block-a", "block-b"])
    def test_staged_chunks_write_their_rows_of_out(self, rng, stage, block_first):
        # 15 rows in 3 chunks of 6 (K = 6)
        stage(36)
        a, b = labelled(crandn(rng, 2, 5, 3, 3), "l"), labelled(crandn(rng, 3, 4, 2), "s")
        pairs = [(0, 2), (3, 0)]
        if not block_first:
            a, b, pairs = b, a, [(j, i) for i, j in pairs]
        assert plan_gemm(a.dims, b.dims, pairs).chunks == 3
        expected = contract_pair(a, b, pairs)
        out = np.empty(expected.data.size, dtype=complex)
        result = contract_pair(a, b, pairs, out=out)
        np.testing.assert_array_equal(result.data, expected.data)
        assert np.shares_memory(result.data, out)

    def test_staged_step_copies_through_scratch_that_holds_its_buffer(self, rng):
        dims_a, dims_b, pairs = OUT_CASES["staged"]
        a, b = labelled(crandn(rng, *dims_a), "a"), labelled(crandn(rng, *dims_b), "b")
        g = plan_gemm(a.dims, b.dims, pairs)
        expected = contract_pair(a, b, pairs)
        for room, used in ((g.stage * g.k + 5, True), (g.stage * g.k - 1, False)):
            scratch = np.full(room, np.nan, dtype=complex)
            out = np.empty(expected.data.size, dtype=complex)
            result = contract_pair(a, b, pairs, out=out, scratch=scratch)
            np.testing.assert_array_equal(result.data, expected.data)
            # every element of the buffer is written when it is used
            assert np.isnan(scratch[:g.stage * g.k]).any() != used
            assert np.isnan(scratch[g.stage * g.k:]).all()

    def test_bad_scratch_rejected(self, rng):
        a, b = labelled(crandn(rng, 2, 3, 4, 3), "a"), labelled(crandn(rng, 2, 4, 2), "b")
        pairs = [(0, 0), (2, 1)]  # staged, an 18-element result
        mem = np.empty(100, dtype=complex)
        for scratch in (np.empty(100, dtype=np.complex64), np.empty((10, 10), dtype=complex),
                        mem[10:40], a.data.reshape(-1)):
            with pytest.raises(TensorError):
                contract_pair(a, b, pairs, out=mem[:18], scratch=scratch)

    @pytest.mark.parametrize("why", [
        "not an array", "2-D", "strided", "complex64", "float64", "too small",
        "a's memory", "b's memory",
    ])
    def test_bad_out_rejected(self, rng, why):
        # a (60 elements) and b (30) sit in one array, with room between
        mem = crandn(rng, 200)
        a, b = labelled(mem[:60].reshape(4, 3, 5), "a"), labelled(mem[170:].reshape(5, 6), "b")
        pairs = [(2, 0)]  # a 72-element result
        out = {
            "not an array": lambda: [0j] * 72,
            "2-D": lambda: np.empty((8, 9), dtype=complex),
            "strided": lambda: np.empty(144, dtype=complex)[::2],
            "complex64": lambda: np.empty(72, dtype=np.complex64),
            "float64": lambda: np.empty(144),
            "too small": lambda: np.empty(71, dtype=complex),
            "a's memory": lambda: mem[59:131],
            "b's memory": lambda: mem[99:171],
        }[why]()
        with pytest.raises(TensorError):
            contract_pair(a, b, pairs, out=out)
        # the room between them is fine
        assert np.shares_memory(contract_pair(a, b, pairs, out=mem[60:170]).data, mem)

    def test_out_is_keyword_only(self, rng):
        a, b = labelled(crandn(rng, 4, 3, 5), "a"), labelled(crandn(rng, 5, 6), "b")
        with pytest.raises(TypeError):
            contract_pair(a, b, [(2, 0)], np.empty(72, dtype=complex))


# (a dims, b dims, pairs, STAGE, split): a is the block of each in-place
# branch, with 70 rows or 5 batches, of a split run, staged, of 240 rows in
# chunks of 96, 96 and 48 rows, or of 60 rows, which 2 or 3 workers would
# cut into pieces of 30 or 20, and of calls with fewer rows or batches
# than the workers; swapping the operands makes b the block
SPLIT_CASES = {
    "s-is-1": ((7, 10, 5), (5, 6), [(2, 0)], None, True),
    "p-is-1": ((5, 7, 10), (5, 6), [(0, 0)], None, True),
    "batch": ((5, 64, 40), (64, 8), [(1, 0)], None, True),
    "staged": ((2, 120, 3, 2), (2, 3, 5), [(0, 0), (2, 1)], 576, True),
    "staged-unaligned": ((2, 120, 3, 2), (2, 3, 5), [(0, 0), (2, 1)], 360, False),
    "20-rows": ((4, 5, 5), (5, 6), [(2, 0)], None, False),
    "2-batches": ((2, 64, 40), (64, 8), [(1, 0)], None, True),
}


class TestSplitCalls:
    """A call split across workers, one fixed piece each, against the same
    call on one worker: the results are equal bit for bit."""

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("block_first", [True, False], ids=["block-a", "block-b"])
    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_split_call_is_the_whole_call(self, rng, stage, split, case, block_first, count):
        dims_a, dims_b, pairs, elements, splits = SPLIT_CASES[case]
        if elements:
            stage(elements)
        split(1)
        a, b = labelled(crandn(rng, *dims_a), "a"), labelled(crandn(rng, *dims_b), "b")
        if not block_first:
            a, b, pairs = b, a, [(j, i) for i, j in pairs]
        g = plan_gemm(a.dims, b.dims, pairs)
        assert g.block_is_a == block_first
        assert (bool(g.stage), g.p > 1 and g.s > 1) == (case.startswith("staged"), "batch" in case)
        expected = contract_pair(a, b, pairs)
        workers = Threads(count)
        result = contract_pair(a, b, pairs, workers=workers)
        assert workers.runs == splits
        assert result.labels == expected.labels
        np.testing.assert_array_equal(result.data, expected.data)

    @pytest.mark.parametrize("count", [2, 3])
    def test_staged_rows_fewer_than_workers_run_whole(self, rng, split, count):
        # 2 rows, paired on axes 0 and 2: a single-row piece would be
        # multiplied as a vector
        split(1)
        a, b = labelled(crandn(rng, 3, 2, 4), "a"), labelled(crandn(rng, 3, 4, 2), "b")
        pairs = [(0, 0), (2, 1)]
        assert plan_gemm(a.dims, b.dims, pairs).stage == 2
        workers = Threads(count)
        result = contract_pair(a, b, pairs, workers=workers)
        assert workers.runs == 0
        np.testing.assert_array_equal(result.data, contract_pair(a, b, pairs).data)

    def test_small_call_runs_whole(self, rng):
        a, b = labelled(crandn(rng, *SPLIT_CASES["s-is-1"][0]), "a"), labelled(crandn(rng, 5, 6), "b")
        workers = Threads(2)
        contract_pair(a, b, [(2, 0)], workers=workers)
        assert workers.runs == 0


class TestWorkers:
    """The threads of one amplitude and BLAS's thread count."""

    def test_blas_runs_single_threaded_inside_and_gets_its_count_back(self):
        blas = tensor._openblas()
        before = blas[0]() if blas else None
        threads = threading.active_count()
        with tensor.Workers() as outer:
            with tensor.Workers() as inner:
                # an amplitude that starts inside another's workers reads
                # the count BLAS was given, not the 1 it runs at
                assert inner.count == outer.count == (before or 1)
                if blas:
                    assert blas[0]() == 1
            if blas:
                assert blas[0]() == 1
            assert threading.active_count() == threads + outer.count - 1

            def job(j):
                if j == outer.count - 1:
                    raise ValueError(j)

            with pytest.raises(ValueError):
                outer.run(job)
            seen = []
            outer.run(seen.append)
            assert sorted(seen) == list(range(outer.count))
        if blas:
            assert blas[0]() == before
        assert threading.active_count() == threads
