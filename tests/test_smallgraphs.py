import pytest

from cfcolor.smallgraphs import is_connected, nonisomorphic_graphs
from util import brute_force_nonisomorphic_graphs

# graphs on n = 0..6 vertices up to isomorphism: OEIS A000088, and the
# connected ones: OEIS A001349
GRAPHS = [1, 1, 2, 4, 11, 34, 156]
CONNECTED_GRAPHS = [1, 1, 1, 2, 6, 21, 112]


@pytest.mark.parametrize("n", range(7))
def test_class_counts_match_oeis(n):
    assert len(nonisomorphic_graphs(n)) == GRAPHS[n]
    connected = nonisomorphic_graphs(n, connected_only=True)
    assert len(connected) == CONNECTED_GRAPHS[n]
    assert all(is_connected(g) for g in connected)


@pytest.mark.parametrize("connected_only", [False, True])
@pytest.mark.parametrize("n", range(6))
def test_same_graphs_in_the_same_order_as_brute_force(n, connected_only):
    assert nonisomorphic_graphs(n, connected_only) == (
        brute_force_nonisomorphic_graphs(n, connected_only)
    )

