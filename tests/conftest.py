import random

import numpy as np
import pytest

from tnsim import network
from tnsim.circuit import CircuitGraph, edge_key
from tnsim.pathfind import NetworkShape


def random_connected_edges(rnd: random.Random, n: int) -> set[tuple[int, int]]:
    """Random connected graph on n nodes (spanning tree plus extras)."""
    edges = set()
    for i in range(1, n):
        edges.add(edge_key(rnd.randrange(i), i))
    for _ in range(rnd.randint(0, n)):
        a, b = rnd.sample(range(n), 2)
        edges.add(edge_key(a, b))
    return edges


def random_network_shape(rnd: random.Random, n: int) -> NetworkShape:
    edges = {e: rnd.choice([2, 4]) for e in random_connected_edges(rnd, n)}
    return NetworkShape(tuple(range(n)), edges)


def random_graph(rnd: random.Random, n: int) -> CircuitGraph:
    return CircuitGraph(n, frozenset(random_connected_edges(rnd, n)))


def random_bits(rng: np.random.Generator, n: int) -> str:
    return "".join(rng.choice(["0", "1"], n))


@pytest.fixture
def rnd():
    return random.Random(1234)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def fresh_programs():
    """Each test compiles its own programs, so a test that patches the
    compiler's constants never runs one compiled before."""
    network._programs.clear()
