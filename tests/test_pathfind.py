import functools
import re

import pytest

from tnsim.circuit import generate_lattice, generate_rqc
from tnsim.network import overlap_shape, overlap_states
from tnsim.pathfind import (
    NetworkShape,
    PathSearchError,
    _candidates,
    find_optimal_path,
    treewidth_bound,
)

from conftest import random_network_shape
from oracles import (
    boundary_rank,
    connectivity,
    exhaustive_path_oracle,
    reference_path_search,
    score_increment,
    unpruned,
)


def grid_shape(rows: int, cols: int, extent: int = 2) -> NetworkShape:
    edges = {}
    for i in range(rows):
        for j in range(cols):
            q = i * cols + j
            if j + 1 < cols:
                edges[(q, q + 1)] = extent
            if i + 1 < rows:
                edges[(q, q + cols)] = extent
    return NetworkShape(tuple(range(rows * cols)), edges)


def path_shape(n: int, extent: int = 2) -> NetworkShape:
    return NetworkShape(tuple(range(n)), {(i, i + 1): extent for i in range(n - 1)})


@functools.cache
def sycamore_shape(rows: int, cols: int, depth: int, seed: int) -> NetworkShape:
    """Overlap shape of a sycamore-like circuit, in and out all zeros."""
    n = rows * cols
    circuit = generate_rqc(generate_lattice("sycamore-like", rows, cols), depth, seed=seed)
    return overlap_shape(*overlap_states(circuit, "0" * n, "0" * n))


class TestScoreIncrement:
    def test_chain_example(self):
        net = path_shape(4)
        # absorbing 2 into {0,1}: shared bond (1,2)=2, open bond (2,3)=2
        assert score_increment([0, 1], 2, net) == 4

    def test_first_absorption_includes_both_frontiers(self):
        net = path_shape(3)
        # {0} + 1: shared (0,1)=2 times open (1,2)=2
        assert score_increment([0], 1, net) == 4
        # {0} + 2 (outer product): open (0,1)=2 times open (1,2)=2
        assert score_increment([0], 2, net) == 4

    def test_internal_edges_do_not_count(self):
        net = grid_shape(2, 2)
        # {0,1,2} + 3 closes two bonds; no open edges remain
        assert score_increment([0, 1, 2], 3, net) == 4

    def test_matches_exhaustive_oracle_cost(self, rnd):
        for _ in range(10):
            net = random_network_shape(rnd, 6)
            path, score = exhaustive_path_oracle(net)
            total = sum(
                score_increment(path[:i], path[i], net) for i in range(1, len(path))
            )
            assert total == score

    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError, match="already"):
            score_increment([0, 1], 1, path_shape(3))


class TestConnectivity:
    def test_connected_path(self):
        assert connectivity([0, 1, 2], path_shape(4)) == -1

    def test_single_isolated_qubit(self):
        assert connectivity([0, 3], path_shape(4)) == 3

    def test_isolated_is_most_recent(self):
        net = grid_shape(2, 3)
        # {0, 5}: both singletons; 5 was added last
        assert connectivity([0, 5], net) == 5

    def test_two_isolated_components_invalid(self):
        with pytest.raises(ValueError, match="isolated"):
            connectivity([0, 2, 5], path_shape(6))

    def test_empty_path_invalid(self):
        with pytest.raises(ValueError, match="empty"):
            connectivity([], path_shape(3))

    def test_random_trajectories_against_component_count(self, rnd):
        for _ in range(30):
            net = random_network_shape(rnd, 7)
            adj = net.adjacency()
            order = list(net.nodes)
            rnd.shuffle(order)
            for upto in range(1, len(order) + 1):
                prefix = order[:upto]
                members = set(prefix)
                comps = []
                seen: set[int] = set()
                for q in prefix:
                    if q in seen:
                        continue
                    comp, stack = {q}, [q]
                    while stack:
                        for nb in adj[stack.pop()] & members:
                            if nb not in comp:
                                comp.add(nb)
                                stack.append(nb)
                    seen |= comp
                    comps.append(comp)
                singles = [c for c in comps if len(c) == 1]
                if len(comps) == 1:
                    assert connectivity(prefix, net) == -1
                elif len(comps) == 2 and singles:
                    got = connectivity(prefix, net)
                    assert {got} in singles
                else:
                    with pytest.raises(ValueError):
                        connectivity(prefix, net)


def candidates(net: NetworkShape, path: list[int], c: int, cap) -> list:
    return list(_candidates(net, frozenset(path), c, net.open_edges(path), cap))


class TestNeighbours:
    def predicate(self, net: NetworkShape, path: list[int], q: int, cap) -> bool:
        """Oracle for candidate admissibility from whole-path connectivity."""

        def connected(p: list[int]) -> bool:
            try:
                return connectivity(p, net) == -1
            except ValueError:
                return False

        extended = path + [q]
        try:
            new_c = connectivity(extended, net)
        except ValueError:
            return False
        if connectivity(path, net) != -1 and new_c != -1:
            return False  # a pending isolated qubit must be reconnected
        if new_c != -1 and not any(
            connected(extended + [r]) for r in net.nodes if r not in extended
        ):
            return False  # no next qubit could reconnect it
        if cap is not None and boundary_rank(net, set(extended)) > cap:
            return False
        return True

    @pytest.mark.parametrize("cap", [None, 4, 3])
    def test_against_predicate_on_grid(self, cap, rnd):
        net = grid_shape(3, 3)
        for _ in range(40):
            order = list(net.nodes)
            rnd.shuffle(order)
            path = order[: rnd.randint(1, 8)]
            try:
                c = connectivity(path, net)
            except ValueError:
                continue
            expected = [q for q in net.nodes if q not in path
                        and self.predicate(net, path, q, cap)]
            found = candidates(net, path, c, cap)
            assert sorted(q for q, *_ in found) == expected
            for q, cost, nc, after in found:
                assert cost == score_increment(path, q, net)
                assert nc == connectivity(path + [q], net)
                assert after == net.open_edges(path + [q])

    def test_waiting_qubit_is_one_step_out(self):
        net = path_shape(5)
        # 1 joins, 2 may wait for 1; nothing could join 3 or 4 to {0}
        assert [(q, nc) for q, _, nc, _ in candidates(net, [0], -1, None)] == [
            (1, -1), (2, 2)
        ]
        assert [q for q, *_ in candidates(net, [0, 2], 2, None)] == [1]

    def test_without_connectivity_pruning(self):
        net = path_shape(5)
        with unpruned():
            got = candidates(net, [0], -1, None)
            pending = candidates(net, [0, 3], 3, None)
        assert [q for q, *_ in got] == [1, 2, 3, 4]
        # with 3 isolated, the rule admits only a qubit joining 3 to {0}: none
        assert [q for q, *_ in pending] == [1, 2, 4]
        assert candidates(net, [0, 3], 3, None) == []

    def test_rank_cap_filters(self):
        net = grid_shape(3, 3)
        # absorbing the centre alone opens four extent-2 bonds
        with unpruned():
            got = candidates(net, [0], -1, 3)
        assert 4 not in [q for q, *_ in got]


class TestTreewidthBound:
    def test_path_graph(self):
        assert treewidth_bound(path_shape(4)) == 1

    def test_grid(self):
        assert treewidth_bound(grid_shape(3, 3)) == 3

    def test_complete_graph(self):
        k4 = NetworkShape(
            (0, 1, 2, 3), {(i, j): 2 for i in range(4) for j in range(i + 1, 4)}
        )
        assert treewidth_bound(k4) == 3


class TestFindOptimalPath:
    def test_single_node(self):
        path, score = find_optimal_path(NetworkShape((0,), {}))
        assert (path, score) == ([0], 0)

    def test_three_node_path(self):
        path, score = find_optimal_path(path_shape(3))
        assert score == 6
        assert path == [0, 1, 2]

    def test_grid_with_cap(self):
        path, score = find_optimal_path(grid_shape(3, 3), max_rank=4)
        assert score == 196
        assert sorted(path) == list(range(9))

    def test_unpruned_matches_exhaustive(self, rnd):
        for _ in range(20):
            net = random_network_shape(rnd, rnd.randint(4, 7))
            with unpruned():
                _, score = find_optimal_path(net)
            _, best = exhaustive_path_oracle(net)
            assert score == best

    def test_pruned_score_is_consistent_and_valid(self, rnd):
        for _ in range(10):
            net = random_network_shape(rnd, 7)
            path, score = find_optimal_path(net)
            assert sorted(path) == sorted(net.nodes)
            total = sum(
                score_increment(path[:i], path[i], net) for i in range(1, len(path))
            )
            assert total == score
            _, best = exhaustive_path_oracle(net)
            assert score >= best

    def test_deterministic(self, rnd):
        net = random_network_shape(rnd, 8)
        assert find_optimal_path(net) == find_optimal_path(net)

    def test_infeasible_cap_reports_largest_subset(self):
        net = grid_shape(3, 3)
        with pytest.raises(PathSearchError) as exc:
            find_optimal_path(net, max_rank=2)
        k = re.search(r"largest subset reached has (\d+) of 9", str(exc.value))
        assert k and 0 < int(k.group(1)) < 9

    def test_state_budget_enforced(self):
        net = grid_shape(3, 4)
        with pytest.raises(PathSearchError, match="budget"):
            find_optimal_path(net, max_states=10)

    def test_empty_network_rejected(self):
        with pytest.raises(PathSearchError, match="empty"):
            find_optimal_path(NetworkShape((), {}))


class TestAgainstReference:
    """Pushing only states that can finish, the search returns what the
    almost-connected rule tested on every qubit off the path returns."""

    def check(self, net: NetworkShape) -> None:
        for cap in (None, 3, 4):
            try:
                expected = reference_path_search(net, cap)
            except PathSearchError:
                with pytest.raises(PathSearchError):
                    find_optimal_path(net, cap)
            else:
                assert find_optimal_path(net, cap) == expected

    def test_random_shapes(self, rnd):
        for _ in range(40):
            self.check(random_network_shape(rnd, rnd.randint(5, 9)))

    @pytest.mark.parametrize("rows, cols", [(3, 3), (4, 4)])
    def test_grids(self, rows, cols):
        self.check(grid_shape(rows, cols))

    def test_sycamore_6x6_d8(self):
        self.check(sycamore_shape(6, 6, 8, seed=1))

    def test_54_qubits_within_15000_states(self):
        # the rule tested on every qubit pushes 22,712 states here; the
        # states that can finish number 13,573
        path, score = find_optimal_path(sycamore_shape(9, 6, 8, seed=7), 8, max_states=15_000)
        assert score == 102944358920
        assert path == [
            0, 6, 7, 12, 1, 18, 8, 2, 13, 19, 24, 30, 20, 25, 31, 36, 42, 48,
            43, 49, 37, 44, 50, 32, 38, 26, 33, 14, 21, 9, 3, 15, 10, 4, 27, 22,
            16, 11, 5, 17, 23, 29, 28, 34, 39, 45, 51, 46, 35, 41, 40, 52, 47, 53,
        ]


class TestExhaustiveOracle:
    def test_single_node(self):
        assert exhaustive_path_oracle(NetworkShape((5,), {})) == ([5], 0)

    def test_two_nodes_lexicographic_tie(self):
        net = NetworkShape((0, 1), {(0, 1): 2})
        assert exhaustive_path_oracle(net) == ([0, 1], 2)

    def test_node_cap(self):
        net = path_shape(11)
        with pytest.raises(ValueError, match="cap"):
            exhaustive_path_oracle(net)
