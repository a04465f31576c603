from itertools import islice

import numpy as np
import pytest

from tnsim import network
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
    CutPlan,
    CutPlanError,
    build_overlap_network,
    compute_amplitude,
    contract_along_path,
    overlap_network,
    plan_cuts,
    slice_network,
)
from tnsim.oracle import amplitude_oracle
from tnsim.pathfind import NetworkShape, find_optimal_path, treewidth_bound
from tnsim.tns import init_state, two_sided_evolve

from conftest import random_bits


def overlap_net(circuit, in_bits, out_bits, split=None):
    fused = fuse_single_qubit_gates(circuit)
    phi, psi = two_sided_evolve(fused, in_bits, out_bits, split)
    return build_overlap_network(phi, psi)


def full_contract(net) -> complex:
    order = sorted(net.tensors)
    return contract_along_path(net, order)[0]


class TestBuildOverlapNetwork:
    def test_identical_product_states_give_one(self):
        graph = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        net = build_overlap_network(init_state(graph, "010"), init_state(graph, "010"))
        net.validate()
        assert full_contract(net) == pytest.approx(1.0)

    def test_orthogonal_product_states_give_zero(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        net = build_overlap_network(init_state(graph, "00"), init_state(graph, "01"))
        assert full_contract(net) == pytest.approx(0.0)

    def test_edge_extents_are_bond_products(self):
        graph = generate_lattice("square", 2, 2)
        c = fuse_single_qubit_gates(generate_rqc(graph, 4, seed=2))
        phi, psi = two_sided_evolve(c, "0000", "1111")
        net = build_overlap_network(phi, psi)
        for e, ext in net.edges.items():
            assert ext == phi.bond_dims[e] * psi.bond_dims[e]

    def test_conjugation_symmetry(self):
        # <psi|phi> = conj(<phi|psi>)
        graph = generate_lattice("square", 2, 2)
        c = fuse_single_qubit_gates(generate_rqc(graph, 3, seed=8))
        phi, psi = two_sided_evolve(c, "0000", "0110")
        a = full_contract(build_overlap_network(phi, psi))
        b = full_contract(build_overlap_network(psi, phi))
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_mismatched_graphs_rejected(self):
        g1 = CircuitGraph(2, frozenset({(0, 1)}))
        g2 = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError, match="identical graphs"):
            build_overlap_network(init_state(g1, "00"), init_state(g2, "000"))


class TestPlanCuts:
    def test_explicit_edges_returned_verbatim(self):
        graph = generate_lattice("square", 2, 3)
        net = overlap_net(generate_rqc(graph, 4, seed=4), "000000", "111111")
        plan = plan_cuts(net, explicit_edges=[(1, 4), (0, 1)])
        assert plan.cut_edges == ((1, 4), (0, 1))
        assert plan.extents == (net.edges[(1, 4)], net.edges[(0, 1)])

    def test_no_cuts_when_cap_is_generous(self):
        graph = generate_lattice("square", 2, 2)
        net = overlap_net(generate_rqc(graph, 3, seed=1), "0000", "0000")
        plan = plan_cuts(net, target_max_rank=10)
        assert plan.cut_edges == ()
        assert plan.slice_count == 1
        # the plan carries the path of the search that validated it
        shape = NetworkShape.from_network(net)
        assert (list(plan.path), plan.score) == find_optimal_path(shape, 10)

    def test_auto_cuts_unlock_a_tight_cap(self):
        graph = generate_lattice("square", 3, 4)
        net = overlap_net(generate_rqc(graph, 6, seed=6), "0" * 12, "1" * 12)
        plan = plan_cuts(net, target_max_rank=3)
        assert plan.cut_edges  # the cap is infeasible without cuts
        assert plan.slice_count == np.prod(plan.extents)

    def test_unknown_cut_edge_rejected(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        net = build_overlap_network(init_state(graph, "00"), init_state(graph, "00"))
        with pytest.raises(ValueError, match="not in network"):
            plan_cuts(net, explicit_edges=[(0, 5)])

    def test_duplicate_cut_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CutPlan(((0, 1), (0, 1)), (2, 2))

    def test_impossible_cap_raises_with_best_plan(self):
        graph = generate_lattice("square", 2, 3)
        net = overlap_net(generate_rqc(graph, 4, seed=4), "000000", "111111")
        with pytest.raises(CutPlanError) as exc:
            plan_cuts(net, target_max_rank=-1)
        assert isinstance(exc.value.best_plan, CutPlan)


class TestSliceNetwork:
    def make(self, seed=5):
        graph = generate_lattice("square", 2, 3)
        return overlap_net(generate_rqc(graph, 4, seed=seed), "000000", "101010")

    def test_slices_sum_to_uncut_value(self):
        net = self.make()
        whole = full_contract(net)
        plan = plan_cuts(net, explicit_edges=[(1, 2), (3, 4)])
        total = sum(
            full_contract(slice_network(net, plan, s))
            for s in range(plan.slice_count)
        )
        assert total == pytest.approx(whole, abs=1e-12)

    def test_cut_axes_removed(self):
        net = self.make()
        plan = plan_cuts(net, explicit_edges=[(0, 1)])
        sliced = slice_network(net, plan, 0)
        assert (0, 1) not in sliced.edges
        assert (0, 1) not in sliced.tensors[0].labels
        sliced.validate()

    def test_mixed_radix_decoding(self):
        net = self.make()
        edges = [(0, 1), (1, 2)]
        plan = plan_cuts(net, explicit_edges=edges)
        e0, e1 = plan.extents
        # first cut edge is most significant
        s0 = slice_network(net, plan, 1 * e1 + 2)
        expect0 = np.take(net.tensors[0].data, 1, net.tensors[0].axis((0, 1)))
        got0 = np.take(s0.tensors[0].data, 2, 0)  # remaining axis order unchanged
        t = net.tensors[1]
        manual = np.take(np.take(t.data, 1, t.axis((0, 1))), 2, 0)
        np.testing.assert_allclose(s0.tensors[1].data, manual)
        np.testing.assert_allclose(got0, np.take(expect0, 2, 0)[...])

    def test_slice_index_out_of_range(self):
        net = self.make()
        plan = plan_cuts(net, explicit_edges=[(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            slice_network(net, plan, plan.slice_count)


class TestContractAlongPath:
    def test_path_permutation_invariance(self, rnd):
        graph = generate_lattice("square", 2, 3)
        net = overlap_net(generate_rqc(graph, 4, seed=10), "000000", "010101")
        base, _ = contract_along_path(net, sorted(net.tensors))
        for _ in range(5):
            order = sorted(net.tensors)
            rnd.shuffle(order)
            value, stats = contract_along_path(net, order)
            assert value == pytest.approx(base, abs=1e-12)
            assert isinstance(stats["multiplies"], int)
            assert stats["peak_rank"] >= 0

    def test_non_permutation_rejected(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        net = build_overlap_network(init_state(graph, "00"), init_state(graph, "00"))
        with pytest.raises(ValueError, match="permutation"):
            contract_along_path(net, [0, 0])


class TestComputeAmplitude:
    def test_identity_circuit(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ())
        assert compute_amplitude(c, "01", "01").amplitude == pytest.approx(1.0)
        assert compute_amplitude(c, "01", "10").amplitude == pytest.approx(0.0)

    def test_single_cz(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ((Gate((0, 1), cz_matrix(), 0),),))
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
        if cuts == "auto":  # no cuts needed: the first budgeted probe succeeds
            assert stats.slice_count == 1
        assert budgets == [PLANNER_STATE_BUDGET if cuts == "auto" else None]

    def test_rank_cap_respected_with_cuts(self):
        graph = generate_lattice("square", 3, 3)
        c = generate_rqc(graph, 5, seed=6)
        ref = amplitude_oracle(c, "0" * 9, "0" * 9)
        stats = compute_amplitude(c, "0" * 9, "0" * 9, max_rank=3)
        assert stats.peak_rank <= 3
        assert stats.slice_count > 1
        assert stats.amplitude == pytest.approx(ref, abs=1e-10)


def lattice_overlap_shape(kind: str, rows: int, cols: int, depth: int) -> NetworkShape:
    n = rows * cols
    circuit = generate_rqc(generate_lattice(kind, rows, cols), depth, seed=1)
    return NetworkShape.from_network(overlap_network(circuit, "0" * n, "0" * n))


class TestSearchOnOverlapNetworks:
    """Paths, scores and separator cuts pinned on real overlap networks,
    beyond the sizes the exhaustive oracle reaches."""

    def test_square_4x4_d11_at_auto_cap(self):
        shape = lattice_overlap_shape("square", 4, 4, 11)
        cap = treewidth_bound(shape) + 1
        assert cap == 5
        assert find_optimal_path(shape, cap) == (
            [0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 11, 14, 15],
            31241274368,
        )

    def test_sycamore_6x6_d8_at_cap_5(self):
        shape = lattice_overlap_shape("sycamore-like", 6, 6, 8)
        assert find_optimal_path(shape, 5) == (
            [0, 6, 12, 7, 1, 18, 30, 24, 31, 19, 25, 13, 20, 8, 2, 32, 14, 9,
             26, 33, 21, 3, 15, 10, 27, 34, 22, 4, 16, 11, 5, 17, 23, 29, 28, 35],
            155451968,
        )
        assert list(islice(network._separator_cuts(shape), 2)) == [
            [(5, 11)],
            [(5, 11), (24, 30)],
        ]
