import dataclasses
import functools
import sys
import threading
import tracemalloc
from itertools import permutations
from math import prod

import numpy as np
import pytest

from tnsim import network, tensor
from tnsim.circuit import (
    Circuit,
    CircuitGraph,
    Gate,
    cz_matrix,
    fuse_single_qubit_gates,
    generate_lattice,
    generate_rqc,
)
from tnsim.network import (
    PLANNER_STATE_BUDGET,
    StateOverlap,
    build_overlap_network,
    compile_program,
    compute_amplitude,
    contract_along_path,
    overlap_shape,
    overlap_states,
    plan_cuts,
    slice_network,
)
from tnsim.oracle import amplitude_oracle
from tnsim.pathfind import (
    NetworkShape,
    PathSearchError,
    find_optimal_path,
    treewidth_bound,
)
from tnsim.tensor import Gemm, Tensor, contraction_cost, gemm_time, plan_gemm
from tnsim.tns import init_state, two_sided_evolve

from conftest import random_bits
from oracles import TensorNetwork, network_shape


def overlap_net(circuit, in_bits, out_bits, split=None) -> StateOverlap:
    """The whole overlap network of the circuit's two states."""
    return StateOverlap(*overlap_states(circuit, in_bits, out_bits, split))


def shape_of(net: StateOverlap) -> NetworkShape:
    return overlap_shape(net.phi, net.psi)


def full_contract(net: StateOverlap) -> complex:
    shape = shape_of(net)
    return contract_along_path(net, compile_program(shape, list(shape.nodes)))


def slice_shape(shape: NetworkShape, cut_edges) -> NetworkShape:
    edges = {e: d for e, d in shape.edges.items() if e not in cut_edges}
    return NetworkShape(shape.nodes, edges)


def sliced_run(phi, psi, cuts):
    """The plan slicing ``cuts``, the program compiled on its slice shape,
    and the network ``compute_amplitude`` slices."""
    shape = overlap_shape(phi, psi)
    plan = plan_cuts(shape, explicit_edges=cuts)
    program = compile_program(slice_shape(shape, plan.cut_edges), list(plan.path))
    return plan, program, build_overlap_network(phi, psi, program, plan.cut_edges)


def intermediate_ranks(shape: NetworkShape, path) -> list[int]:
    """The rank of each intermediate along ``path``, from the first node
    to the one before the last absorption."""
    opened, ranks = frozenset(), []
    for q in path[:-1]:
        opened ^= shape.open_edges((q,))
        ranks.append(sum(shape.edges[e] > 1 for e in opened))
    return ranks


def program_reads(program) -> dict:
    """Each node's axis order in ``program``."""
    reads = {program.first: program.labels}
    reads.update((step.node, step.labels) for step in program.steps)
    return reads


class TestTensorNetwork:
    def test_edges_read_from_the_tensors(self):
        a = Tensor(np.ones((2, 3)), ((0, 1), (0, 2)))
        b = Tensor(np.ones(2), ((0, 1),))
        c = Tensor(np.ones(3), ((0, 2),))
        net = TensorNetwork({0: a, 1: b, 2: c})
        assert net.edges == {(0, 1): 2, (0, 2): 3}

    def test_endpoint_extents_must_agree(self):
        a = Tensor(np.ones(2), ((0, 1),))
        b = Tensor(np.ones(3), ((0, 1),))
        with pytest.raises(ValueError, match="extents 2 != 3"):
            TensorNetwork({0: a, 1: b})

    def test_label_on_one_tensor_rejected(self):
        a = Tensor(np.ones((2, 2)), ((0, 1), (0, 2)))
        b = Tensor(np.ones(2), ((0, 1),))
        with pytest.raises(ValueError, match=r"edge \(0, 2\) on 1 tensors, expected 2"):
            TensorNetwork({0: a, 1: b})


class TestBuildOverlapNetwork:
    def test_identical_product_states_give_one(self):
        graph = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        net = StateOverlap(init_state(graph, "010"), init_state(graph, "010"))
        assert full_contract(net) == pytest.approx(1.0)

    def test_orthogonal_product_states_give_zero(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        net = StateOverlap(init_state(graph, "00"), init_state(graph, "01"))
        assert full_contract(net) == pytest.approx(0.0)

    def test_edge_extents_are_bond_products(self):
        graph = generate_lattice("square", 2, 2)
        c = fuse_single_qubit_gates(generate_rqc(graph, 4, seed=2))
        phi, psi = two_sided_evolve(c, "0000", "1111")
        shape = overlap_shape(phi, psi)
        for e, ext in shape.edges.items():
            assert ext == phi.bond_dims[e] * psi.bond_dims[e]
        # the nodes built have the extents the shape gives
        net = StateOverlap(phi, psi)
        for q in shape.nodes:
            labels = graph.node_edges(q)
            assert net.node(q, labels).dims == tuple(shape.edges[e] for e in labels)

    def test_conjugation_symmetry(self):
        # <psi|phi> = conj(<phi|psi>)
        graph = generate_lattice("square", 2, 2)
        c = fuse_single_qubit_gates(generate_rqc(graph, 3, seed=8))
        phi, psi = two_sided_evolve(c, "0000", "0110")
        a = full_contract(StateOverlap(phi, psi))
        b = full_contract(StateOverlap(psi, phi))
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_mismatched_graphs_rejected(self):
        g1 = CircuitGraph(2, frozenset({(0, 1)}))
        g2 = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError, match="identical graphs"):
            StateOverlap(init_state(g1, "00"), init_state(g2, "000"))


class TestPlanCuts:
    def test_explicit_edges_returned_verbatim(self):
        graph = generate_lattice("square", 2, 3)
        shape = shape_of(overlap_net(generate_rqc(graph, 4, seed=4), "000000", "111111"))
        plan = plan_cuts(shape, explicit_edges=[(1, 4), (0, 1)])
        assert plan.cut_edges == ((1, 4), (0, 1))
        assert plan.extents == (shape.edges[(1, 4)], shape.edges[(0, 1)])

    def test_no_cuts_when_cap_is_generous(self):
        graph = generate_lattice("square", 2, 2)
        shape = shape_of(overlap_net(generate_rqc(graph, 3, seed=1), "0000", "0000"))
        plan = plan_cuts(shape, target_max_rank=10)
        assert plan.cut_edges == ()
        assert plan.slice_count == 1
        # the plan carries the path of the search that validated it
        assert (list(plan.path), plan.score) == find_optimal_path(shape, 10)

    def test_auto_cuts_unlock_a_tight_cap(self):
        graph = generate_lattice("square", 3, 4)
        net = overlap_net(generate_rqc(graph, 6, seed=6), "0" * 12, "1" * 12)
        plan = plan_cuts(shape_of(net), target_max_rank=3)
        assert plan.cut_edges  # the cap is infeasible without cuts
        assert plan.slice_count == np.prod(plan.extents)

    def test_square_4x4_d8_seed_3_at_cap_3(self):
        # `tnsim gen --lattice square --size 16 --depth 8 --seed 3` at
        # `--max-rank 3`: 4 cuts along the one path searched at cap 3
        circuit = generate_rqc(generate_lattice("square", 4, 4), 8, seed=3)
        shape = shape_of(overlap_net(circuit, "0" * 16, "01" * 8))
        plan = plan_cuts(shape, 3)
        assert len(plan.cut_edges) == 4
        assert plan.slice_count == 4096
        assert max(intermediate_ranks(slice_shape(shape, plan.cut_edges), plan.path)) <= 3

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, None])
    @pytest.mark.parametrize("depth", [4, 8, 12])
    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3), (3, 4), (4, 4), (4, 5)])
    @pytest.mark.parametrize("kind", ["square", "sycamore-like"])
    def test_plan_holds_the_cap_on_every_slice(self, kind, rows, cols, depth, cap):
        shape = lattice_overlap_shape(kind, rows, cols, depth)
        plan = plan_cuts(shape, cap)
        sliced = slice_shape(shape, plan.cut_edges)
        if cap is None:
            assert plan.cut_edges == ()
        else:
            assert max(intermediate_ranks(sliced, plan.path)) <= cap
        assert plan.score == sum(step_multiplies(sliced, list(plan.path)))

    def test_cut_plan_amplitude_matches_uncut(self):
        circuit = generate_rqc(generate_lattice("square", 3, 4), 6, seed=6)
        cut = compute_amplitude(circuit, "0" * 12, "01" * 6, max_rank=3)
        uncut = compute_amplitude(circuit, "0" * 12, "01" * 6, cuts=None)
        assert cut.slice_count == 8
        assert cut.amplitude == pytest.approx(uncut.amplitude, abs=1e-12)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_cap_holds_for_the_first_node(self, cap):
        # what `tnsim gen --lattice square --size 9 --depth 4` writes
        circuit = generate_rqc(generate_lattice("square", 3, 3), 4, seed=0)
        shape = shape_of(overlap_net(circuit, "000000000", "010101010"))
        plan = plan_cuts(shape, target_max_rank=cap)
        sliced = slice_shape(shape, plan.cut_edges)
        assert compile_program(sliced, list(plan.path)).peak_rank <= cap

    def test_unknown_cut_edge_rejected(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        shape = overlap_shape(init_state(graph, "00"), init_state(graph, "00"))
        with pytest.raises(ValueError, match="not in network"):
            plan_cuts(shape, explicit_edges=[(0, 5)])

    def test_duplicate_cut_edges_rejected(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        shape = overlap_shape(init_state(graph, "00"), init_state(graph, "00"))
        with pytest.raises(ValueError, match="duplicate"):
            plan_cuts(shape, explicit_edges=[(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "explicit", [None, [], [(0, 1)]], ids=["auto", "none", "explicit"]
    )
    def test_negative_cap_is_refused(self, explicit):
        graph = generate_lattice("square", 2, 3)
        net = overlap_net(generate_rqc(graph, 4, seed=4), "000000", "111111")
        with pytest.raises(ValueError, match="rank cap -1 is negative"):
            plan_cuts(shape_of(net), -1, explicit)


class TestSliceNetwork:
    """Slices of the network ``compute_amplitude`` builds, contracted by
    the program compiled on their shape."""

    def make(self, cuts, seed=5):
        graph = generate_lattice("square", 2, 3)
        phi, psi = overlap_states(generate_rqc(graph, 4, seed=seed), "000000", "101010")
        return (phi, psi, *sliced_run(phi, psi, cuts))

    def test_slices_sum_to_uncut_value(self):
        phi, psi, plan, program, net = self.make([(1, 2), (3, 4)])
        whole = full_contract(StateOverlap(phi, psi))
        total = sum(
            contract_along_path(slice_network(net, plan, s), program)
            for s in range(plan.slice_count)
        )
        assert total == pytest.approx(whole, abs=1e-12)

    def test_cut_axes_removed(self):
        _, _, plan, program, net = self.make([(0, 1)])
        sliced = slice_network(net, plan, 0)
        assert sliced.values == {(0, 1): 0}
        reads = program_reads(program)
        for q in (0, 1):
            assert (0, 1) not in reads[q]
            assert sliced.node(q, reads[q]).labels == reads[q]

    def test_mixed_radix_decoding(self):
        phi, psi, plan, program, net = self.make([(0, 1), (1, 2)])
        e0, e1 = plan.extents
        # first cut edge is most significant
        s0 = slice_network(net, plan, 1 * e1 + 2)
        assert s0.values == {(0, 1): 1, (1, 2): 2}
        # each endpoint is the uncut node's slice, in the program's order
        whole, reads = StateOverlap(phi, psi), program_reads(program)
        t = whole.node(0, ((0, 1),) + reads[0])
        np.testing.assert_allclose(s0.node(0, reads[0]).data, t.data[1], atol=1e-15)
        t = whole.node(1, ((0, 1), (1, 2)) + reads[1])
        np.testing.assert_allclose(s0.node(1, reads[1]).data, t.data[1, 2], atol=1e-15)

    def test_slice_index_out_of_range(self):
        _, _, plan, _, net = self.make([(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            slice_network(net, plan, plan.slice_count)

    def test_cut_endpoints_are_built_per_slice_in_program_order(self):
        graph = generate_lattice("square", 3, 3)
        c = generate_rqc(graph, 5, seed=6)
        phi, psi = overlap_states(c, "0" * 9, "010101010")
        plan, program, net = sliced_run(phi, psi, [(1, 4), (3, 4), (4, 5)])
        edges = slice_shape(overlap_shape(phi, psi), plan.cut_edges).edges
        reads = program_reads(program)
        cut_nodes = {q for e in plan.cut_edges for q in e}
        assert cut_nodes == {1, 3, 4, 5}
        # the cut-free nodes are held up front, in the program's order
        assert set(net.held) == set(range(9)) - cut_nodes
        free = {q: t for q, (_, t) in net.held.items()}
        assert all(t.labels == reads[q] for q, t in free.items())
        _, e1, e2 = plan.extents
        node1 = {}
        for s in range(plan.slice_count):
            sliced = slice_network(net, plan, s)
            for q in range(9):
                node = sliced.node(q, reads[q])
                # held for the slice, already in the order the program reads
                assert sliced.node(q, reads[q]) is node is net.held[q][1]
                assert node.data.size == prod(edges[e] for e in reads[q])
                assert q in cut_nodes or node is free[q]
            # node 1 carries only the first cut edge, the most significant:
            # it is rebuilt only when that edge's value changes
            assert node1.setdefault(s // (e1 * e2), net.held[1][1]) is net.held[1][1]
        assert len(set(map(id, node1.values()))) == len(node1) == plan.extents[0] > 1


class TestContractAlongPath:
    def test_path_permutation_invariance(self, rnd):
        graph = generate_lattice("square", 2, 3)
        net = overlap_net(generate_rqc(graph, 4, seed=10), "000000", "010101")
        base = full_contract(net)
        for _ in range(5):
            order = list(shape_of(net).nodes)
            rnd.shuffle(order)
            program = compile_program(shape_of(net), order)
            value = contract_along_path(net, program)
            assert value == pytest.approx(base, abs=1e-12)
            assert isinstance(program.multiplies, int)
            assert program.peak_rank >= 0

    def test_non_permutation_rejected(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        shape = overlap_shape(init_state(graph, "00"), init_state(graph, "00"))
        with pytest.raises(ValueError, match="permutation"):
            compile_program(shape, [0, 0])


class TestComputeAmplitude:
    def test_identity_circuit(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ())
        assert compute_amplitude(c, "01", "01").amplitude == pytest.approx(1.0)
        assert compute_amplitude(c, "01", "10").amplitude == pytest.approx(0.0)

    def test_single_cz(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ((Gate((0, 1), cz_matrix()),),))
        assert compute_amplitude(c, "11", "11").amplitude == pytest.approx(-1.0)

    def test_matches_oracle_across_options(self, rng):
        graph = generate_lattice("sycamore-like", 3, 3)
        c = generate_rqc(graph, 5, seed=15)
        out = random_bits(rng, 9)
        ref = amplitude_oracle(c, "0" * 9, out)
        for cuts in ("auto", None, [tuple(sorted(next(iter(graph.edges))))]):
            stats = compute_amplitude(c, "0" * 9, out, cuts=cuts)
            assert stats.amplitude == pytest.approx(ref, abs=1e-10)

    def test_slice_count_and_stats_recorded(self):
        graph = generate_lattice("square", 2, 3)
        c = generate_rqc(graph, 4, seed=3)
        stats = compute_amplitude(c, "0" * 6, "1" * 6, cuts=[(1, 2)])
        assert stats.slice_count >= 1
        assert sorted(stats.path) == list(range(6))
        rec = stats.record(timing=False)
        assert "wall_time_ms" not in rec
        assert rec["path_score"] == str(stats.path_score)
        assert "wall_time_ms" in stats.record(timing=True)

    @pytest.mark.parametrize(
        "cuts", ["auto", None, [(1, 2)]], ids=["auto", "none", "explicit"]
    )
    def test_one_path_search_per_amplitude(self, monkeypatch, cuts):
        budgets = []
        search = network.find_optimal_path

        def counted(*args, **kwargs):
            budgets.append(kwargs.get("max_states"))
            return search(*args, **kwargs)

        monkeypatch.setattr(network, "find_optimal_path", counted)
        graph = generate_lattice("square", 2, 3)
        c = generate_rqc(graph, 4, seed=3)
        stats = compute_amplitude(c, "0" * 6, "1" * 6, cuts=cuts)
        if cuts == "auto":  # no cuts needed
            assert stats.slice_count == 1
        # every mode runs one search: the first budgeted probe succeeds
        assert budgets == [PLANNER_STATE_BUDGET]

    def test_cuts_of_extent_one_give_one_slice(self):
        # a cz on |11> leaves product states: every bond has extent 1
        c = Circuit(generate_lattice("square", 2, 2), ((Gate((0, 1), cz_matrix()),),))
        for cuts in ([(0, 2)], [(0, 2), (0, 1)]):
            stats = compute_amplitude(c, "1100", "1100", cuts=cuts)
            assert stats.slice_count == 1
            assert stats.amplitude == pytest.approx(-1.0)

    @pytest.mark.parametrize("rows, cols, depth", [(3, 3, 12), (3, 4, 10)])
    def test_one_slice_peak_within_the_program(self, monkeypatch, rows, cols, depth):
        # nodes are built as their steps read them, so no node tensor sits
        # outside the live set of the program the run compiles
        n = rows * cols
        c = generate_rqc(generate_lattice("square", rows, cols), depth, seed=1)
        programs = []
        run = network.contract_along_path
        monkeypatch.setattr(
            network, "contract_along_path",
            lambda net, program, **kwargs: programs.append(program)
            or run(net, program, **kwargs),
        )
        tracemalloc.start()
        try:
            stats = compute_amplitude(c, "0" * n, "0" * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (program,) = programs
        assert stats.multiplies == program.multiplies
        assert peak <= program.peak_elements * 16 + 2**20

    @pytest.mark.parametrize("rows, depth, cuts", [
        (3, 12, [(0, 1)]),
        (4, 10, [(5, 6)]),
    ])
    def test_cut_peak_within_the_program_and_cut_free_nodes(
        self, monkeypatch, rows, depth, cuts
    ):
        # a cut endpoint is built per slice at the slice's size, so only the
        # nodes no cut edge touches are held beside the live sets of the
        # slices that run at once, which together fit the peak of the
        # program that runs one slice at a time
        n = rows * rows
        c = generate_rqc(generate_lattice("square", rows, rows), depth, seed=1)
        compiled = returns(monkeypatch, "_compile")
        at_once = returns(monkeypatch, "_slices_at_once")
        nets, programs = [], []
        build, run = network.build_overlap_network, network.contract_along_path
        monkeypatch.setattr(
            network, "build_overlap_network",
            lambda *args: nets.append(build(*args)) or nets[-1],
        )
        monkeypatch.setattr(
            network, "contract_along_path",
            lambda net, program, **kwargs: programs.append(program)
            or run(net, program, **kwargs),
        )
        tracemalloc.start()
        try:
            stats = compute_amplitude(c, "0" * n, "0" * n, cuts=cuts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.slice_count == len(programs) > 1
        ends = {q for e in cuts for q in e}
        (net,) = nets
        free = sum(
            t.data.size for q, (_, t) in net.held.items() if (q if q >= 0 else ~q) not in ends
        )
        whole, (k,) = compiled[0], at_once
        assert k * programs[0].peak_elements <= whole.peak_elements
        assert peak <= (whole.peak_elements + free) * 16 + 2**20

    def test_cut_edges_sharing_an_endpoint(self):
        # node 4 carries all three cut edges
        c = generate_rqc(generate_lattice("square", 3, 3), 5, seed=6)
        cuts = [(1, 4), (3, 4), (4, 5)]
        stats = compute_amplitude(c, "0" * 9, "010101010", cuts=cuts)
        uncut = compute_amplitude(c, "0" * 9, "010101010", cuts=None)
        assert stats.slice_count > 1 and uncut.slice_count == 1
        assert stats.amplitude == pytest.approx(uncut.amplitude, abs=1e-12)
        ref = amplitude_oracle(c, "0" * 9, "010101010")
        assert stats.amplitude == pytest.approx(ref, abs=1e-10)

    def test_every_edge_cut(self, monkeypatch):
        # every node is a cut endpoint, so none is held up front
        c = generate_rqc(generate_lattice("square", 2, 3), 3, seed=1)
        phi, psi = overlap_states(c, "0" * 6, "010101")
        cuts = list(overlap_shape(phi, psi).edges)
        held = []
        build = network.build_overlap_network

        def built(*args):
            net = build(*args)
            held.append(dict(net.held))
            return net

        monkeypatch.setattr(network, "build_overlap_network", built)
        stats = compute_amplitude(c, "0" * 6, "010101", cuts=cuts)
        assert held == [{}]
        assert stats.slice_count == 256
        uncut = compute_amplitude(c, "0" * 6, "010101", cuts=None)
        assert stats.amplitude == pytest.approx(uncut.amplitude, abs=1e-12)
        ref = amplitude_oracle(c, "0" * 6, "010101")
        assert stats.amplitude == pytest.approx(ref, abs=1e-10)

    def test_rank_cap_respected_with_cuts(self):
        graph = generate_lattice("square", 3, 3)
        c = generate_rqc(graph, 5, seed=6)
        ref = amplitude_oracle(c, "0" * 9, "0" * 9)
        stats = compute_amplitude(c, "0" * 9, "0" * 9, max_rank=3)
        assert stats.peak_rank <= 3
        assert stats.slice_count > 1
        assert stats.amplitude == pytest.approx(ref, abs=1e-10)


@functools.cache
def lattice_overlap_shape(kind: str, rows: int, cols: int, depth: int) -> NetworkShape:
    n = rows * cols
    circuit = generate_rqc(generate_lattice(kind, rows, cols), depth, seed=1)
    return overlap_shape(*overlap_states(circuit, "0" * n, "0" * n))


class TestSearchOnOverlapNetworks:
    """Paths, scores and cut plans pinned on real overlap networks, beyond
    the sizes the exhaustive oracle reaches."""

    def test_square_4x4_d11_at_auto_cap(self):
        shape = lattice_overlap_shape("square", 4, 4, 11)
        cap = treewidth_bound(shape) + 1
        assert cap == 5
        assert find_optimal_path(shape, cap) == (
            [0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 11, 14, 15],
            31241274368,
        )

    def test_square_4x4_d11_program_copies_nothing(self):
        shape = lattice_overlap_shape("square", 4, 4, 11)
        path = [0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 11, 14, 15]
        program = compile_program(shape, path)
        assert program.copied == 0
        assert program.multiplies == 31241274368
        # absorbing node 9: 2^23-element accumulator, 2^20 node, 2^25 result
        assert max(step.elements for step in program.steps) == 2**23 + 2**20 + 2**25

    def test_sycamore_6x6_d8_at_cap_5(self):
        shape = lattice_overlap_shape("sycamore-like", 6, 6, 8)
        path = [0, 6, 12, 7, 1, 18, 30, 24, 31, 19, 25, 13, 20, 8, 2, 32, 14, 9,
                26, 33, 21, 3, 15, 10, 27, 34, 22, 4, 16, 11, 5, 17, 23, 29, 28, 35]
        assert find_optimal_path(shape, 5) == (path, 155451968)
        # the default cap of 4 has no path: the planner raises it to 5,
        # takes this path and cuts nothing
        assert treewidth_bound(shape) + 1 == 4
        plan = plan_cuts(shape)
        assert (plan.cut_edges, list(plan.path), plan.score) == ((), path, 155451968)
        # a target of 4 cuts along the same path
        plan = plan_cuts(shape, 4)
        assert list(plan.path) == path
        assert len(plan.cut_edges) == 6
        assert plan.slice_count == 524_288

    def test_sycamore_6x6_d8_explicit_cuts_raise_the_cap(self):
        # `--cuts none` plans what the default plans: cap 5, no cuts
        shape = lattice_overlap_shape("sycamore-like", 6, 6, 8)
        assert plan_cuts(shape, None, []) == plan_cuts(shape)
        # an explicit cut leaves no path at 4 either: the cap rises to 5
        plan = plan_cuts(shape, None, [(0, 6)])
        sliced = slice_shape(shape, plan.cut_edges)
        assert plan.cut_edges == ((0, 6),)
        assert max(intermediate_ranks(sliced, plan.path)) == 5
        assert (list(plan.path), plan.score) == find_optimal_path(sliced, 5)
        # a cap given with the cuts is held as given
        for cuts in ([], [(0, 6)]):
            with pytest.raises(PathSearchError, match="no full contraction path"):
                plan_cuts(shape, 4, cuts)


def random_grid_network(rng, rows: int, cols: int, extents=(2, 5)) -> TensorNetwork:
    """A closed network on a rows x cols grid with extents drawn from
    ``range(*extents)`` and unit-norm random tensors, so its value has
    modulus at most 1."""
    graph = generate_lattice("square", rows, cols)
    ext = {e: int(rng.integers(*extents)) for e in sorted(graph.edges)}
    tensors = {}
    for q in range(graph.num_qubits):
        legs = tuple(e for e in sorted(ext) if q in e)
        shape = tuple(ext[e] for e in legs)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors[q] = Tensor(data / np.linalg.norm(data), legs)
    return TensorNetwork(tensors)


def tensordot_fold(net, path):
    """The value of ``net`` folded with ``np.tensordot`` in path order, and
    each step's live set: accumulator + node + result elements."""
    data, labels = net.tensors[path[0]].data, net.tensors[path[0]].labels
    live = []
    for q in path[1:]:
        t = net.tensors[q]
        shared = [lab for lab in labels if lab in t.labels]
        out = np.tensordot(
            data, t.data,
            ([labels.index(lab) for lab in shared], [t.axis(lab) for lab in shared]),
        )
        live.append(data.size + t.data.size + out.size)
        labels = tuple(lab for lab in labels + t.labels if lab not in shared)
        data = out
    return complex(data), live


def copy_free_program_exists(shape: NetworkShape, path) -> bool:
    """Whether some program runs ``path`` without copying an accumulator.

    A step copies nothing exactly when the node's edges form one run of the
    accumulator's axis order; its result keeps the other axes in order and
    puts the node's free axes before or after them.
    """
    legs = {q: shape.open_edges((q,)) for q in path}
    layouts = set(permutations(legs[path[0]]))
    for q in path[1:]:
        reached = set()
        for layout in layouts:
            run = [i for i, e in enumerate(layout) if e in legs[q]]
            if run and run[-1] - run[0] + 1 != len(run):
                continue
            rest = tuple(e for e in layout if e not in legs[q])
            for order in permutations(legs[q].difference(layout)):
                reached |= {rest + order, order + rest}
        layouts = reached
    return bool(layouts)


class TestContractionProgram:
    """Programs compiled on random grids, checked against shapes and the
    plain tensordot fold."""

    @pytest.mark.parametrize("rows, cols", [(3, 3), (4, 4)])
    def test_program_matches_tensordot_fold(self, rng, rows, cols):
        for _ in range(4):
            net = random_grid_network(rng, rows, cols)
            shape = network_shape(net)
            path, score = find_optimal_path(shape)
            program = compile_program(shape, path)
            value, live = tensordot_fold(net, path)
            assert contract_along_path(net, program) == pytest.approx(value, abs=1e-12)
            assert [step.elements for step in program.steps] == live
            assert program.multiplies == score

    @pytest.mark.parametrize("rows, cols", [(3, 3), (4, 4)])
    def test_copies_only_where_every_program_copies(self, rng, rows, cols):
        copy_free = 0
        for _ in range(20):
            shape = network_shape(random_grid_network(rng, rows, cols))
            path, _ = find_optimal_path(shape)
            program = compile_program(shape, path)
            assert (program.copied == 0) == copy_free_program_exists(shape, path)
            copy_free += program.copied == 0
        assert copy_free > 10

    def test_one_contract_pair_call_per_step(self, rng, monkeypatch):
        net = random_grid_network(rng, 3, 3)
        program = compile_program(network_shape(net), sorted(net.tensors))
        calls = pair_calls(monkeypatch)
        contract_along_path(net, program)
        assert len(calls) == len(program.steps) == len(net.tensors) - 1

    def test_one_node(self):
        shape = NetworkShape((0,), {})
        program = compile_program(shape, [0])
        assert program.steps == () and program.live_elements == 1
        # a run builds the node as a product and a copy
        assert program.peak_elements == 2
        assert compile_program(shape, [0], 1) == program
        assert compile_program(shape, [0], 0) is None

    def test_cut_edges_left_out_of_the_program(self):
        c = generate_rqc(generate_lattice("square", 3, 3), 5, seed=2)
        phi, psi = overlap_states(c, "0" * 9, "010101010")
        plan, program, net = sliced_run(phi, psi, [(0, 1), (4, 5)])
        assert plan.slice_count > 1
        total = sum(
            contract_along_path(slice_network(net, plan, s), program)
            for s in range(plan.slice_count)
        )
        assert total == pytest.approx(full_contract(StateOverlap(phi, psi)), abs=1e-12)
        assert program.multiplies == plan.score


def unchunked_peak(program) -> int:
    return max(step.elements for step in program.steps)


def pair_calls(monkeypatch) -> list:
    """The arguments of each ``network.contract_pair`` call, in call order."""
    calls = []
    pair = network.contract_pair
    monkeypatch.setattr(
        network, "contract_pair",
        lambda *args, **kwargs: calls.append(args) or pair(*args, **kwargs),
    )
    return calls


class TestWindows:
    """Programs that run a window of steps once per block of an axis the
    window leaves untouched."""

    def test_square_4x4_d11_halves_its_peak(self):
        shape = lattice_overlap_shape("square", 4, 4, 11)
        path = [0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 11, 14, 15]
        program = compile_program(shape, path)
        assert program.multiplies == 31241274368
        assert program.copied == 0
        assert program.windows
        assert program.peak_elements <= (2**23 + 2**20 + 2**25) // 2

    def test_sliced_square_4x4_d10_has_no_windows(self, monkeypatch):
        _, _, shape, path = states_and_path(4, 4, 10, [(5, 6)])
        program = compile_program(shape, path)
        assert program.windows == ()
        assert program.live_elements == unchunked_peak(program)
        monkeypatch.setattr(network, "WINDOW_SLACK", 0)  # no window fits
        assert compile_program(shape, path) == program

    def test_forced_window_gives_the_unchunked_amplitude(self, monkeypatch):
        circuit = generate_rqc(generate_lattice("square", 3, 3), 8, seed=1)
        net = overlap_net(circuit, "0" * 9, "1" * 9)
        shape = shape_of(net)
        path, _ = find_optimal_path(shape)
        unchunked = compile_program(shape, path)
        # calls and input reads free: windows pay off on any step
        monkeypatch.setattr(network, "CALL", 0)
        monkeypatch.setattr(network, "COPY", 0)
        chunked = compile_program(shape, path)
        assert unchunked.windows == () and chunked.windows
        assert chunked.peak_elements < unchunked.peak_elements
        # below the finest window an unbounded compile offers, its span is
        # cut into single indices
        single = compile_program(shape, path, chunked.live_elements - 1)
        (w,) = single.windows
        assert (w.blocks, shape.edges[w.axis]) == (8, 8)
        expected = contract_along_path(net, unchunked)
        calls = pair_calls(monkeypatch)
        for program in (chunked, single):
            assert program.multiplies == unchunked.multiplies
            calls.clear()
            value = contract_along_path(net, program)
            assert len(calls) == len(program.steps) + sum(
                (w.blocks - 1) * (w.stop - w.start + 1) for w in program.windows
            )
            assert value == pytest.approx(expected, abs=1e-12)
        # single indices give the bits of the same steps run once on the
        # whole window axis
        whole = dataclasses.replace(single, windows=(w._replace(blocks=1),))
        space = np.empty(max(step.elements for step in single.steps), dtype=np.complex128)
        assert value == contract_along_path(net, whole, workspace=space)

    def test_measured_peak_within_peak_elements(self):
        circuit = generate_rqc(generate_lattice("square", 3, 3), 12, seed=1)
        overlap = overlap_net(circuit, "0" * 9, "0" * 9)
        shape = shape_of(overlap)
        program = compile_program(shape, list(plan_cuts(shape, explicit_edges=[]).path))
        assert program.windows
        # nodes built beforehand: building one holds two node-sized arrays,
        # which ``peak_elements`` leaves out
        net = TensorNetwork(
            {q: overlap.node(q, labels) for q, labels in program_reads(program).items()}
        )
        tracemalloc.start()
        try:
            contract_along_path(net, program)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        node = max(t.data.nbytes for t in net.tensors.values())
        assert peak <= program.peak_elements * 16 + node
        assert peak < unchunked_peak(program) * 16

    def test_measured_peak_counts_copies(self):
        # a step that copies its accumulator holds it twice, so
        # peak_elements counts the copy
        rng = np.random.default_rng(7)
        for _ in range(2):
            net = random_grid_network(rng, 5, 5, extents=(6, 11))
            shape = network_shape(net)
            program = compile_program(shape, find_optimal_path(shape)[0])
            assert program.copied > 0
            tracemalloc.start()
            try:
                contract_along_path(net, program)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= program.peak_elements * 16 + 2**20


def layouts(program) -> list:
    return [(step.node, step.labels, step.node_first) for step in program.steps]


class TestFinerWindows:
    """Programs under the measured GEMM price, pinned against the layouts
    compiled before it: windows get finer, layouts do not move."""

    def test_square_4x4_d11_keeps_its_layouts_under_8m_elements(self):
        shape = lattice_overlap_shape("square", 4, 4, 11)
        path = [0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 11, 14, 15]
        program = compile_program(shape, path)
        assert program.multiplies == 31241274368
        assert program.copied == 0
        assert program.live_elements <= 8_000_000
        assert (program.first, program.labels) == (0, ((0, 1), (0, 4)))
        assert layouts(program) == [
            (4, ((0, 4), (4, 8), (4, 5)), True),
            (1, ((0, 1), (1, 5), (1, 2)), False),
            (5, ((4, 5), (1, 5), (5, 6), (5, 9)), True),
            (2, ((1, 2), (2, 3), (2, 6)), True),
            (6, ((2, 6), (5, 6), (6, 10), (6, 7)), False),
            (3, ((2, 3), (3, 7)), False),
            (7, ((6, 7), (3, 7), (7, 11)), True),
            (8, ((4, 8), (8, 9), (8, 12)), False),
            (12, ((8, 12), (12, 13)), True),
            (9, ((5, 9), (8, 9), (9, 10), (9, 13)), True),
            (13, ((9, 13), (12, 13), (13, 14)), False),
            (10, ((9, 10), (6, 10), (10, 14), (10, 11)), True),
            (11, ((10, 11), (7, 11), (11, 15)), False),
            (14, ((10, 14), (13, 14), (14, 15)), False),
            (15, ((11, 15), (14, 15)), False),
        ]

    def test_sliced_square_4x4_d10_program_unchanged(self):
        _, _, shape, path = states_and_path(4, 4, 10, [(5, 6)])
        program = compile_program(shape, path)
        assert (program.first, program.labels) == (0, ((0, 1), (0, 4)))
        assert program.windows == ()
        assert (program.copied, program.live_elements) == (0, 786944)
        assert layouts(program) == [
            (4, ((0, 4), (4, 8), (4, 5)), False),
            (1, ((0, 1), (1, 5), (1, 2)), False),
            (5, ((4, 5), (1, 5), (5, 9)), False),
            (8, ((4, 8), (8, 9), (8, 12)), False),
            (12, ((8, 12), (12, 13)), True),
            (9, ((5, 9), (8, 9), (9, 10), (9, 13)), True),
            (13, ((9, 13), (12, 13), (13, 14)), False),
            (14, ((13, 14), (14, 15), (10, 14)), True),
            (10, ((10, 14), (9, 10), (10, 11), (6, 10)), True),
            (15, ((14, 15), (11, 15)), True),
            (11, ((11, 15), (10, 11), (7, 11)), True),
            (2, ((1, 2), (2, 6), (2, 3)), False),
            (6, ((6, 10), (2, 6), (6, 7)), True),
            (7, ((6, 7), (7, 11), (3, 7)), False),
            (3, ((2, 3), (3, 7)), False),
        ]


def batch_time(rows: int, s: int, k: int, n: int) -> int:
    """Estimated time of rows / s GEMMs of (s x k)(k x n), or of one GEMM
    when s == rows."""
    return gemm_time(Gemm(True, rows // s, k, s, n, (0, 1), 1))


class TestGemmPrice:
    """The price keeps the order of the measured batched-GEMM times."""

    def test_halving_wide_batches_is_nearly_free(self):
        # 32 x (512 x 512)(512 x 2048) against 64 x (256 x 512)(512 x 2048)
        s512 = batch_time(16384, 512, 512, 2048)
        s256 = batch_time(16384, 256, 512, 2048)
        s128 = batch_time(16384, 128, 512, 2048)
        assert s512 < s256 <= 1.03 * s512
        assert s256 < s128

    def test_thin_batches_cost_more(self):
        one = batch_time(8192, 8192, 256, 256)
        times = [batch_time(8192, s, 256, 256) for s in (64, 32, 16)]
        assert one < times[0] < times[1] < times[2]

    def test_batch_reads_a_cached_matrix_once(self):
        # 256 x (32 x 16)(16 x 32) moves the elements of one (8192 x 16)(16 x 32)
        assert batch_time(8192, 32, 16, 32) == batch_time(8192, 8192, 16, 32)

    @pytest.mark.parametrize(
        "p, k, s, n", [(1024, 32, 16, 128), (4096, 32, 4, 32)],
        ids=["1024x(16x32)(32x128)", "4096x(4x32)(32x32)"],
    )
    @pytest.mark.parametrize("block_first", [True, False], ids=["block-a", "block-b"])
    def test_thin_batches_are_staged(self, p, k, s, n, block_first):
        # measured: 33.0 / 24.5 ms batched and 19.0 / 23.6 ms staged, and
        # 11.3 / 9.2 ms batched and 5.1 / 5.1 ms staged (block as a / b)
        if block_first:
            g = plan_gemm((p, k, s), (k, n), [(1, 0)])
        else:
            g = plan_gemm((k, n), (p, k, s), [(0, 1)])
        batch = Gemm(block_first, p, k, s, n, (0, 1), 1)
        assert g.stage and g.block_is_a == block_first
        assert gemm_time(g) < gemm_time(batch)

    @pytest.mark.parametrize("block_first", [True, False], ids=["block-a", "block-b"])
    def test_wide_batch_stays_batched(self, block_first):
        # (256 x 512)(512 x 2048) GEMMs ran 10-14% slower staged than batched
        if block_first:
            g = plan_gemm((64, 512, 256), (512, 2048), [(1, 0)])
        else:
            g = plan_gemm((512, 2048), (64, 512, 256), [(0, 1)])
        assert (g.stage, g.batches, g.block_is_a) == (0, 64, block_first)


def run_with_program(monkeypatch, circuit, out, cuts):
    """``compute_amplitude``'s stats on ``circuit`` from the all-zero
    string, and the program it ran on every slice."""
    programs = []
    run = network.contract_along_path
    monkeypatch.setattr(
        network, "contract_along_path",
        lambda net, program, **kwargs: programs.append(program)
        or run(net, program, **kwargs),
    )
    stats = compute_amplitude(circuit, "0" * circuit.num_qubits, out, cuts=cuts)
    assert all(p is programs[0] for p in programs)
    return stats, programs[0]


def returns(monkeypatch, name: str) -> list:
    """What each call of ``network.<name>`` returns, in call order."""
    got = []
    fn = getattr(network, name)
    monkeypatch.setattr(
        network, name, lambda *args, **kwargs: got.append(r := fn(*args, **kwargs)) or r
    )
    return got


def nrank(t: Tensor) -> int:
    return sum(1 for d in t.dims if d > 1)


class TestLayeredRuns:
    """Square 3x3 d12 (``tnsim gen --lattice square --size 9 --depth 12
    --seed 1``): absorbing qubit 4 as its two layer nodes costs 10.7 times
    fewer multiplies than its merged step, so every run layers it.  An
    uncut run's layer search adds the other qubits whose two layer steps
    cost fewer multiplies than their merged step: 0, 2, 3, 5, 6 and 7."""

    circuit = generate_rqc(generate_lattice("square", 3, 3), 12, seed=1)
    outs = ("000000000", "010101010", "110010011")
    searched = {0, 2, 3, 4, 5, 6, 7}

    @pytest.mark.parametrize(
        "cuts, layered",
        [(None, searched), ([(0, 1)], {4}), ([(1, 4)], set())],
        ids=["uncut", "cut-away-from-4", "cut-on-4"],
    )
    def test_matches_the_oracle(self, monkeypatch, cuts, layered):
        for out in self.outs:
            stats, program = run_with_program(monkeypatch, self.circuit, out, cuts)
            # an endpoint of a cut edge stays merged
            assert program.layered == layered
            ref = amplitude_oracle(self.circuit, "0" * 9, out)
            assert stats.amplitude == pytest.approx(ref, abs=1e-10)

    def test_sliced_square_4x4_d10_matches_the_oracle(self, monkeypatch):
        # qubits 9 and 10, whose ratios are exactly 8, are layered
        circuit = generate_rqc(generate_lattice("square", 4, 4), 10, seed=1)
        for out in ("0" * 16, "0110100110010110"):
            stats, program = run_with_program(monkeypatch, circuit, out, [(5, 6)])
            assert program.layered == {9, 10}
            ref = amplitude_oracle(circuit, "0" * 16, out)
            assert stats.amplitude == pytest.approx(ref, abs=1e-10)

    def test_counted_multiplies_and_ranks_are_the_stats(self, monkeypatch):
        costs, ranks = [], []
        pair = network.contract_pair

        def counted(a, b, pairs, **kwargs):
            out = pair(a, b, pairs, **kwargs)
            costs.append(contraction_cost(a.dims, b.dims, pairs))
            ranks.extend((nrank(a), nrank(b), nrank(out)))
            return out

        monkeypatch.setattr(network, "contract_pair", counted)
        stats, program = run_with_program(monkeypatch, self.circuit, "010101010", None)
        assert program.layered == self.searched
        assert sum(costs) == stats.multiplies == stats.path_score
        assert max(ranks) == stats.peak_rank
        # the search's score counts the layered qubits' merged steps
        shape = overlap_shape(*overlap_states(self.circuit, "0" * 9, "010101010"))
        assert stats.path_score < plan_cuts(shape, explicit_edges=[]).score


def states_and_path(rows, cols, depth, cuts=()):
    n = rows * cols
    c = generate_rqc(generate_lattice("square", rows, cols), depth, seed=1)
    phi, psi = overlap_states(c, "0" * n, "0" * n)
    shape = overlap_shape(phi, psi)
    plan = plan_cuts(shape, explicit_edges=list(cuts))
    return phi, psi, slice_shape(shape, plan.cut_edges), list(plan.path)


def layered_setup(rows, cols, depth, cuts=()):
    """The merged program of square rows x cols at ``depth`` from seed 1,
    the layer orders of the qubits whose ratio reaches ``LAYER_RATIO`` on
    its path, and the layered shape and path ``_reference`` compiles
    against the merged program's peak."""
    phi, psi, shape, path = states_and_path(rows, cols, depth, cuts)
    steps = network._layer_steps(shape, phi, psi, path, tuple(cuts))
    orders = {q: order for q, (merged, layered, order) in steps.items()
              if merged >= network.LAYER_RATIO * layered}
    return (compile_program(shape, path), orders,
            *network._layered(shape, phi, psi, path, orders))


def step_multiplies(shape: NetworkShape, path: list[int]) -> list[int]:
    opened, mults = frozenset(), []
    for t, q in enumerate(path):
        legs = shape.open_edges((q,))
        if t:
            mults.append(prod(shape.edges[e] for e in opened | legs))
        opened ^= legs
    return mults


class TestLayerChoice:
    """Which qubits a run layers, and the program held to the merged peak."""

    def test_square_4x4_d11_layers_its_four_costliest_steps(self):
        merged, orders, shape, path = layered_setup(4, 4, 11)
        # qubit 5's ratio is exactly 8, the others' 10.7-12.8
        assert orders == {5: (5, ~5), 6: (~6, 6), 9: (9, ~9), 10: (~10, 10)}
        layered = compile_program(shape, path, merged.live_elements)
        assert layered.layered == {5, 6, 9, 10}
        # the peak of the program that layered 6, 9 and 10 only
        assert layered.live_elements <= 4_198_400
        assert layered.windows
        assert layered.time < merged.time
        assert layered.multiplies < merged.multiplies / 5

    def test_square_4x4_d11_narrows_its_windows_to_single_indices(self):
        merged, _, shape, path = layered_setup(4, 4, 11)
        layered = compile_program(shape, path, merged.peak_elements)
        # the second window's blocks are single indices
        assert [(w.blocks, shape.edges[w.axis]) for w in layered.windows] == [(16, 32), (32, 32)]
        assert layered.live_elements == 2_758_656
        assert layered.workspace <= 2_621_440
        # a bound at a program's own peak finds it, as do bounds below 5.7M
        # elements: 4,069,376 is the peak of windows of 8 and 16 blocks
        for bound in (layered.live_elements, 4_069_376, 4_900_000):
            assert compile_program(shape, path, bound) == layered

    def test_sliced_square_4x4_d10_layers_qubits_9_and_10(self):
        merged, orders, shape, path = layered_setup(4, 4, 10, [(5, 6)])
        # both ratios are exactly 8
        assert orders == {9: (9, ~9), 10: (~10, 10)}
        layered = compile_program(shape, path, merged.live_elements)
        assert merged.live_elements == 786_944
        assert layered.layered == {9, 10}
        assert layered.live_elements <= merged.live_elements
        assert layered.time < merged.time
        assert layered.multiplies < merged.multiplies / 3

    def test_bounded_compile_returns_the_least_peak_within_its_slack(self, monkeypatch):
        merged, _, shape, path = layered_setup(4, 4, 11)
        times = []
        search = network._search

        def recorded(*args):
            found = search(*args)
            times.append(found and found[0][1])
            return found

        monkeypatch.setattr(network, "_search", recorded)
        program = compile_program(shape, path, merged.live_elements)
        # the first search is the least-time one within the merged peak
        fastest = times[0]
        mults = step_multiplies(shape, path)

        def slack(p) -> float:
            return network.WINDOW_SLACK * sum(
                sum(mults[w.start:w.stop + 1]) for w in p.windows
            )

        assert program.time <= fastest + slack(program)
        lower = compile_program(shape, path, program.live_elements - 1)
        assert lower is None or lower.time > fastest + slack(lower)

    def test_sliced_layered_compile_makes_few_moves(self, monkeypatch):
        merged, _, shape, path = layered_setup(4, 4, 10, [(5, 6)])
        calls = []
        moves = network._moves
        monkeypatch.setattr(
            network, "_moves", lambda *args: calls.append(args) or moves(*args)
        )
        assert compile_program(shape, path, merged.live_elements) is not None
        # 2,300 when every window that holds the bound was offered
        assert len(calls) <= 500

    def test_no_program_within_a_bound_too_small(self):
        phi, psi, shape, path = states_and_path(3, 3, 12)
        assert compile_program(shape, path, peak_bound=0) is None

    def test_merged_reference_where_layering_is_slower(self, monkeypatch):
        # at ratio 1, square 3x3 d8 layers seven qubits within the merged
        # live sets in 281,664 multiplies against 643,136, but the estimate
        # is 9.77e6 against 5.29e6
        monkeypatch.setattr(network, "LAYER_RATIO", 1)
        merged, orders, shape, path = layered_setup(3, 3, 8)
        assert len(orders) == 7
        layered = compile_program(shape, path, merged.live_elements)
        assert layered.multiplies < merged.multiplies and layered.time > merged.time
        phi, psi, shape, path = states_and_path(3, 3, 8)
        steps = network._layer_steps(shape, phi, psi, path, ())
        assert network._reference(shape, phi, psi, path, steps, None) == merged


def reference_and_chosen(kind, rows, cols, depth, seed=1, cuts=()):
    """The program a run had before the layer search (merged or layered by
    ``LAYER_RATIO``; a cut run's within a third of the peak) and the one
    ``_compile`` chooses, shape-only, with the all-zero strings."""
    n = rows * cols
    c = generate_rqc(generate_lattice(kind, rows, cols), depth, seed=seed)
    phi, psi = overlap_states(c, "0" * n, "0" * n)
    shape = overlap_shape(phi, psi)
    plan = plan_cuts(shape, explicit_edges=list(cuts))
    sliced, path = slice_shape(shape, plan.cut_edges), list(plan.path)
    steps = network._layer_steps(sliced, phi, psi, path, plan.cut_edges)
    reference = network._reference(sliced, phi, psi, path, steps, None)
    bound = None
    if cuts:
        bound = reference.live_elements // network.SLICE_SHARE
        reference = network._reference(sliced, phi, psi, path, steps, bound)
    return reference, network._compile(sliced, phi, psi, path, plan.cut_edges, bound)


class TestLayerSearch:
    """The layer search: within the peak of the program a run had before
    it, layer every qubit whose layer steps cost fewer multiplies than its
    merged step, merging back the least saving ones until a program fits."""

    def test_square_4x4_d11_layers_six_qubits(self, monkeypatch):
        circuit = generate_rqc(generate_lattice("square", 4, 4), 11, seed=1)
        reference, chosen = reference_and_chosen("square", 4, 4, 11)
        assert reference.layered == {5, 6, 9, 10}
        assert chosen.layered == {2, 5, 6, 9, 10, 13}
        assert chosen.live_elements <= 2_758_656 == reference.live_elements
        assert chosen.peak_elements <= reference.peak_elements
        assert chosen.multiplies == 4_095_738_880 < reference.multiplies
        out = "0101010101010101"
        stats, program = run_with_program(monkeypatch, circuit, out, None)
        assert program == chosen
        ref = amplitude_oracle(circuit, "0" * 16, out)
        assert stats.amplitude == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("kind, rows, cols, depth, cuts", [
        ("square", 3, 3, 12, ()),
        ("square", 3, 4, 10, ()),
        ("square", 4, 4, 10, ((5, 6),)),
        ("sycamore-like", 4, 5, 14, ()),
    ], ids=["sq9-d12", "sq12-d10", "sq16-d10-cut-5-6", "syc20-d14"])
    def test_never_above_the_reference(self, kind, rows, cols, depth, cuts):
        reference, chosen = reference_and_chosen(kind, rows, cols, depth, cuts=cuts)
        assert chosen.peak_elements <= reference.peak_elements
        assert chosen.time <= reference.time
        assert chosen.multiplies <= reference.multiplies

    def test_sliced_square_4x4_d10_keeps_its_programs(self):
        # the search finds no faster program within the slices' peak, and
        # the program that sets their bound is never searched
        phi, psi, shape, path = states_and_path(4, 4, 10, [(5, 6)])
        whole = network._compile(shape, phi, psi, path, ((5, 6),))
        steps = network._layer_steps(shape, phi, psi, path, ((5, 6),))
        assert whole == network._reference(shape, phi, psi, path, steps, None)
        reference, chosen = reference_and_chosen("square", 4, 4, 10, cuts=((5, 6),))
        assert chosen == reference

    @pytest.mark.parametrize("rows, cols, depth, cuts, layered, multiplies", [
        # each candidate set is compiled once, so the move budget lasts
        # until the search reaches these sets
        (4, 4, 12, ((5, 6),), {1, 2, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 1_235_551_232),
        (3, 4, 11, (), {0, 1, 2, 4, 5, 6, 7, 9, 10, 11}, 150_700_544),
    ], ids=["sq16-d12-cut-5-6", "sq12-d11"])
    def test_one_compile_per_set_reaches_more_qubits(
        self, rows, cols, depth, cuts, layered, multiplies
    ):
        reference, chosen = reference_and_chosen("square", rows, cols, depth, cuts=cuts)
        assert chosen.layered == layered
        assert chosen.multiplies == multiplies < reference.multiplies
        assert chosen.peak_elements <= reference.peak_elements
        assert chosen.time < reference.time

    def test_search_stops_where_the_reference_layers_every_candidate(self, monkeypatch):
        # at ratio 1, square 3x3 d12's reference layers every qubit whose
        # layer steps cost fewer multiplies, so no set can save more
        monkeypatch.setattr(network, "LAYER_RATIO", 1)
        phi, psi, shape, path = states_and_path(3, 3, 12)
        steps = network._layer_steps(shape, phi, psi, path, ())
        reference = network._reference(shape, phi, psi, path, steps, None)
        assert reference.layered == {q for q, (m, l, _) in steps.items() if l < m}
        calls = compile_calls(monkeypatch)
        assert network._layer_more(shape, phi, psi, path, steps, reference) is reference
        assert calls == []

    def test_sycamore_4x5_d14_layers_all_but_three(self):
        reference, chosen = reference_and_chosen("sycamore-like", 4, 5, 14)
        assert reference.layered == {6, 7, 8, 11, 12, 13}
        assert chosen.layered == set(range(20)) - {4, 9, 15}
        assert chosen.peak_elements < reference.peak_elements / 16

    def test_54_qubits_keep_their_program_within_the_budget(self, monkeypatch):
        # the README's 54-qubit run, shape-only: no candidate set compiles
        # within LAYER_MOVES move evaluations, so its program stands
        budgets = []

        class Recorded(network.Budget):
            def __init__(self, moves):
                super().__init__(moves)
                budgets.append(self)

        monkeypatch.setattr(network, "Budget", Recorded)
        spent = []
        search = network._search

        def counted(*args):
            before = args[-1].moves if args[-1] else None
            try:
                return search(*args)
            finally:
                if before is not None:
                    spent.append(before - args[-1].moves)

        monkeypatch.setattr(network, "_search", counted)
        reference, chosen = reference_and_chosen("sycamore-like", 9, 6, 8, seed=7)
        assert chosen == reference and chosen.layered == frozenset()
        (budget,) = budgets
        # spent to its end, and past it by at most one state's option: two
        # operand orders of a node of at most five free axes
        assert budget.moves < 0
        assert sum(spent) == network.LAYER_MOVES - budget.moves <= network.LAYER_MOVES + 240


def compile_calls(monkeypatch) -> list:
    calls = []
    compile_ = network.compile_program
    monkeypatch.setattr(
        network, "compile_program",
        lambda *args, **kwargs: calls.append(args) or compile_(*args, **kwargs),
    )
    return calls


class TestProgramCache:
    """A circuit's amplitudes share their program: it is compiled once per
    process for each slice shape, path, cut set and pair of bond extents."""

    circuit = TestLayeredRuns.circuit

    # merged, then with qubit 4 layered, then uncut the layer search's
    # one compile; cut, both again within a third of the peak, where
    # neither fits
    @pytest.mark.parametrize(
        "cuts, compiles", [(None, 3), ([(0, 1)], 4)], ids=["uncut", "cut-0-1"]
    )
    def test_second_amplitude_compiles_nothing(self, monkeypatch, cuts, compiles):
        calls = compile_calls(monkeypatch)
        compute_amplitude(self.circuit, "0" * 9, "010101010", cuts=cuts)
        assert len(calls) == compiles
        cached = compute_amplitude(self.circuit, "0" * 9, "110010011", cuts=cuts)
        assert len(calls) == compiles
        network._programs.clear()
        fresh = compute_amplitude(self.circuit, "0" * 9, "110010011", cuts=cuts)
        assert len(calls) == 2 * compiles
        assert cached.record(timing=False) == fresh.record(timing=False)

    def test_other_extents_miss(self, monkeypatch):
        calls = compile_calls(monkeypatch)
        compute_amplitude(self.circuit, "0" * 9, "010101010")
        compiled = len(calls)
        shallower = generate_rqc(generate_lattice("square", 3, 3), 11, seed=1)
        shapes = [overlap_shape(*overlap_states(c, "0" * 9, "010101010"))
                  for c in (self.circuit, shallower)]
        assert shapes[0].nodes == shapes[1].nodes and shapes[0].edges != shapes[1].edges
        compute_amplitude(shallower, "0" * 9, "010101010")
        assert len(calls) > compiled

    def test_least_recently_used_program_is_dropped(self, monkeypatch):
        monkeypatch.setattr(network, "PROGRAMS", 1)
        calls = compile_calls(monkeypatch)
        c = generate_rqc(generate_lattice("square", 3, 3), 4, seed=1)
        for cuts in (None, None, [(0, 1)], None):
            compute_amplitude(c, "0" * 9, "010101010", cuts=cuts)
        # the cut run's two programs, without and with a bound, evict
        # the uncut one and then each other
        assert len(calls) == 4
        assert len(network._programs) == 1


def owner(a: np.ndarray) -> np.ndarray:
    return a if a.base is None else owner(a.base)


class TestWorkspace:
    """Every result of an amplitude is written into one workspace, which
    ``compute_amplitude`` allocates once and every slice reuses."""

    circuit = TestLayeredRuns.circuit

    @pytest.mark.parametrize("cuts", [None, [(0, 1)]], ids=["uncut", "cut-0-1"])
    def test_every_result_in_one_workspace_per_amplitude(self, monkeypatch, cuts):
        results = []
        pair = network.contract_pair
        monkeypatch.setattr(
            network, "contract_pair",
            lambda *args, **kwargs: results.append(pair(*args, **kwargs)) or results[-1],
        )
        workspaces = []
        for out in ("010101010", "110010011"):
            results.clear()
            stats, program = run_with_program(monkeypatch, self.circuit, out, cuts)
            assert program.layered == (TestLayeredRuns.searched if cuts is None else {4})
            assert bool(program.windows) == (cuts is None)
            assert (stats.slice_count > 1) == (cuts is not None)
            owners = {id(owner(r.data)): owner(r.data) for r in results}
            (workspace,) = owners.values()
            assert workspace.size == program.workspace
            assert all(np.shares_memory(r.data, workspace) for r in results)
            workspaces.append(workspace)
        assert workspaces[0] is not workspaces[1]

    def test_threads_keep_their_own_workspace_and_programs(self, monkeypatch):
        # more threads than cores, each alternating shapes through a
        # one-program cache and splitting its calls, or its slices, across
        # its own workers: a shared workspace, a lost cache update or a
        # split that changes a GEMM would change an amplitude or raise
        monkeypatch.setattr(network, "PROGRAMS", 1)
        jobs = [(self.circuit, None), (self.circuit, [(0, 1)]),
                (generate_rqc(generate_lattice("square", 3, 3), 6, seed=2), None),
                (TestSlicesAtOnce.circuit, [(1, 4)])]
        expected = [compute_amplitude(c, "0" * 9, "010101010", cuts=k).amplitude for c, k in jobs]
        monkeypatch.setattr(tensor, "SPLIT", 1)
        splits = []
        run = tensor.Workers.run
        monkeypatch.setattr(
            tensor.Workers, "run", lambda self, job: splits.append(1) or run(self, job)
        )
        blas = tensor._openblas()
        before = blas[0]() if blas else None
        failures = []

        def work(offset):
            for i in range(3):
                c, k = jobs[(i + offset) % len(jobs)]
                got = compute_amplitude(c, "0" * 9, "010101010", cuts=k).amplitude
                if got != expected[(i + offset) % len(jobs)]:
                    failures.append((offset, i, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        if blas:
            assert blas[0]() == before
            assert splits or before == 1


# as imported, before any test patches them
openblas, contract_slices = tensor._openblas, network._contract_slices


class TestSlicesAtOnce:
    """A cut run's program fits a third of the peak of the one it would
    run otherwise where one does, and its workers take whole slices, as
    many at once as fit that peak."""

    # square 3x3 d10 cut on (1, 4): 16 slices of 4.6M multiplies, in a
    # program that peaks at 41,984 elements against 143,360
    circuit = generate_rqc(generate_lattice("square", 3, 3), 10, seed=1)

    @staticmethod
    def run_on(monkeypatch, count: int, circuit, out: str, **kwargs):
        """``compute_amplitude`` with BLAS reporting ``count`` threads, and
        how many slices at once each ``_contract_slices`` call ran."""
        blas = openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS to take a thread count from")
        get, set_ = blas
        before = get()
        monkeypatch.setattr(tensor, "_openblas", lambda: (lambda: count, set_))
        ks = []
        monkeypatch.setattr(
            network, "_contract_slices",
            lambda *args: ks.append(args[-1]) or contract_slices(*args),
        )
        try:
            stats = compute_amplitude(circuit, "0" * len(out), out, **kwargs)
        finally:
            set_(before)
        return stats, ks

    def test_output_is_the_same_at_any_worker_count(self, monkeypatch):
        results = returns(monkeypatch, "contract_pair")
        programs = returns(monkeypatch, "_compile")
        runs = []
        for count in (1, 2, 3):
            results.clear()
            runs.append(
                self.run_on(monkeypatch, count, self.circuit, "010101010", cuts=[(1, 4)])
            )
            # every result in one workspace, of one part per slice at once
            (workspace,) = {id(owner(r.data)): owner(r.data) for r in results}.values()
            assert workspace.size == count * programs[-1].workspace
        # one slice at a time, then two and three at once
        assert [ks for _, ks in runs] == [[1], [2], [3]]
        one = runs[0][0]
        assert one.slice_count == 16
        assert [s.record(timing=False) for s, _ in runs[1:]] == [one.record(timing=False)] * 2
        ref = amplitude_oracle(self.circuit, "0" * 9, "010101010")
        assert one.amplitude == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("rows, depth, seed, cuts, max_rank, slices, k", [
        # every edge cut: 65,536 slices of a few multiplies each
        (3, 4, 0, "auto", 0, 65536, 1),
        # no program fits a third of the layered program's peak
        (3, 12, 1, [(0, 1)], None, 32, 1),
        # 76.9M multiplies a slice, in 258,560 elements against 786,944
        (4, 10, 1, [(5, 6)], None, 32, 2),
    ], ids=["every-edge", "sq9-d12-cut-0-1", "sq16-d10-cut-5-6"])
    def test_slices_at_once_on_two_workers(
        self, monkeypatch, rows, depth, seed, cuts, max_rank, slices, k
    ):
        # shape-sized: every slice contracts to 0
        threads = set()
        monkeypatch.setattr(
            network, "contract_along_path",
            lambda *args, **kwargs: threads.add(threading.get_ident()) or 0j,
        )
        n = rows * rows
        c = generate_rqc(generate_lattice("square", rows, rows), depth, seed=seed)
        out = "01" * (n // 2) + "0" * (n % 2)
        stats, ks = self.run_on(monkeypatch, 2, c, out, cuts=cuts, max_rank=max_rank)
        assert stats.slice_count == slices
        assert ks == [k]
        assert len(threads) == k
