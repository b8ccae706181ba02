import math

import numpy as np
import pytest

from bigcross.engine import _distance_pass
from bigcross.graph import Graph, GraphError, Layout, LayoutParams, make_graph


class TestMakeGraph:
    def test_path_graph(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            make_graph(2, [(0, 0)])

    def test_unordered_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            make_graph(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            make_graph(3, [(0, 3)])

    def test_canonicalization_sorts_pairs_and_list(self):
        g = make_graph(4, [(3, 2), (1, 0)])
        assert g.edges == ((0, 1), (2, 3))

    def test_idempotent_on_own_output(self):
        g = make_graph(5, [(4, 0), (2, 1), (3, 2)])
        again = make_graph(g.n, g.edges)
        assert again == g

    def test_adjacency_and_degree(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.adjacency[0] == (1, 2, 3)
        assert g.degree(0) == 3
        assert g.degree(2) == 1

    def test_nonadjacent_pairs_exclude_shared_endpoints(self):
        # Square with both diagonals: only the diagonal pair is disjoint.
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
        pairs = {tuple(p) for p in g.nonadjacent_edge_pairs.tolist()}
        e = list(g.edges)
        expected = set()
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                if not set(e[i]) & set(e[j]):
                    expected.add((i, j))
        assert pairs == expected


class TestDistance:
    """Pairwise distances as the layout engine computes them (`_distance_pass`).

    The differences come as two (n, n) planes, dxy[c][j, i] = pos[i, c] - pos[j, c].
    """

    def test_three_four_five(self):
        dxy, d2 = _distance_pass(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d2[0, 1] == d2[1, 0] == 25.0
        assert dxy[:, 0, 1].tolist() == [3.0, 4.0]

    def test_coincident(self):
        _, d2 = _distance_pass(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert d2[0, 1] == 0.0
        # A vertex is never coincident with itself.
        assert np.isinf(np.diag(d2)).all()

    def test_unit_axis(self):
        _, d2 = _distance_pass(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert d2[0, 1] == 1.0

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(200):
            pts = np.array([(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)])
            dxy, d2 = _distance_pass(pts)
            assert dxy.shape == (2, 3, 3) and dxy.flags.c_contiguous
            assert (dxy == -dxy.transpose(0, 2, 1)).all()
            assert (d2 == d2.T).all()
            d = np.sqrt(d2)
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


class TestLayout:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Layout([[0.0, float("inf")]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Layout([[0.0, 1.0, 2.0]])

    def test_positions_read_only(self):
        lay = Layout([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            lay.positions[0, 0] = 5.0

    def test_point_accessor(self):
        lay = Layout([[0.25, 0.75]])
        assert lay.point(0) == (0.25, 0.75)


class TestLayoutParams:
    def test_defaults(self):
        p = LayoutParams()
        assert (p.k_s, p.k_r, p.k_cos, p.l) == (1.0, 1.0, 1.0, 1.0)
        assert p.move_threshold == 0.0005
        assert p.max_iterations == 80000
        assert p.variant == "parallel"

    def test_high_quality_preset(self):
        p = LayoutParams.high_quality()
        assert p.move_threshold == 0.00001
        assert p.max_iterations == 100000

    def test_k_cos_zero_allowed(self):
        assert LayoutParams(k_cos=0.0).k_cos == 0.0

    @pytest.mark.parametrize("bad", [
        {"k_s": 0}, {"k_r": -1}, {"l": 0}, {"step": 0}, {"move_threshold": 0},
        {"max_iterations": 0}, {"variant": "bogus"}, {"k_cos": -0.5},
        {"k_cos": math.nan}, {"k_cos": math.inf}, {"k_s": math.nan}, {"k_s": math.inf},
        {"step": math.inf}, {"max_disp": math.inf}, {"move_threshold": math.nan},
    ])
    def test_invalid_params_rejected(self, bad):
        with pytest.raises(ValueError):
            LayoutParams(**bad)
