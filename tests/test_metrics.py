import math

import numpy as np
import pytest

from bigcross.crossings import find_crossings
from bigcross.engine import initial_placement
from bigcross.generators import gen_erdos_renyi
from bigcross.graph import Layout, make_graph
from bigcross.metrics import (
    ANGULAR_RESOLUTION_UNDEFINED,
    MetricsReport,
    angular_resolution,
    measure,
)

from conftest import rotate


def k4_square():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    lay = Layout([[0, 0], [1, 0], [1, 1], [0, 1]])
    return g, lay


class TestMeasure:
    def test_unit_square_k4(self):
        g, lay = k4_square()
        rep = measure(g, lay)
        assert rep.crossings == 1
        assert rep.angle_mean == pytest.approx(90.0)
        assert rep.angle_stddev == 0.0
        assert rep.edge_len_mean == pytest.approx((4 * 1 + 2 * math.sqrt(2)) / 6)
        assert rep.angular_resolution == pytest.approx(45.0)

    def test_crossing_free_zero_convention(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        lay = Layout([[0, 0], [1, 0], [2, 1]])
        rep = measure(g, lay)
        assert rep.crossings == 0
        assert rep.angle_mean == 0.0
        assert rep.angle_stddev == 0.0

    def test_star_fan(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        lay = Layout([[0, 0], [1, 0], [0, 1], [-1, 0]])
        rep = measure(g, lay)
        assert rep.angular_resolution == pytest.approx(90.0)

    def test_population_stddev_singleton(self):
        g = make_graph(2, [(0, 1)])
        lay = Layout([[0, 0], [2, 0]])
        rep = measure(g, lay)
        assert rep.edge_len_mean == pytest.approx(2.0)
        assert rep.edge_len_stddev == 0.0

    def test_no_edges(self):
        g = make_graph(3, [])
        lay = Layout([[0, 0], [1, 0], [2, 0]])
        rep = measure(g, lay)
        assert rep.crossings == 0
        assert rep.edge_len_mean == 0.0
        assert not rep.angular_defined

    def test_report_roundtrip(self):
        g, lay = k4_square()
        rep = measure(g, lay)
        assert MetricsReport.from_dict(rep.to_dict()) == rep

    def test_rigid_motion_invariance(self, rng):
        g, lay = k4_square()
        base = measure(g, lay)
        ang = rng.uniform(0, 2 * math.pi)
        off = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        moved = Layout([rotate(p, ang, off) for p in lay.positions])
        rep = measure(g, moved)
        assert rep.crossings == base.crossings
        assert rep.angle_mean == pytest.approx(base.angle_mean, abs=1e-9)
        assert rep.angle_stddev == pytest.approx(base.angle_stddev, abs=1e-9)
        assert rep.edge_len_mean == pytest.approx(base.edge_len_mean, abs=1e-9)
        assert rep.edge_len_stddev == pytest.approx(base.edge_len_stddev, abs=1e-9)
        assert rep.angular_resolution == pytest.approx(base.angular_resolution, abs=1e-9)

    def test_uniform_scaling(self):
        g, lay = k4_square()
        base = measure(g, lay)
        scaled = Layout(lay.positions * 3.5)
        rep = measure(g, scaled)
        assert rep.angle_mean == pytest.approx(base.angle_mean, abs=1e-9)
        assert rep.angular_resolution == pytest.approx(base.angular_resolution, abs=1e-9)
        assert rep.edge_len_mean == pytest.approx(3.5 * base.edge_len_mean, abs=1e-9)
        assert rep.edge_len_stddev == pytest.approx(3.5 * base.edge_len_stddev, abs=1e-9)

    def test_vertex_permutation_invariance(self, rng):
        n = 8
        g = make_graph(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                           (0, 4), (1, 5), (2, 6)])
        lay = Layout([[rng.random() * 3, rng.random() * 3] for _ in range(n)])
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = make_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        pos2 = [None] * n
        for v in range(n):
            pos2[perm[v]] = lay.positions[v]
        rep1 = measure(g, lay)
        rep2 = measure(g2, Layout(pos2))
        assert rep1.crossings == rep2.crossings
        assert rep1.angle_mean == pytest.approx(rep2.angle_mean, abs=1e-9)
        assert rep1.edge_len_stddev == pytest.approx(rep2.edge_len_stddev, abs=1e-9)
        assert rep1.angular_resolution == pytest.approx(rep2.angular_resolution, abs=1e-9)

    def test_agrees_with_find_crossings(self):
        for seed in range(4):
            g = gen_erdos_renyi(30, 60, seed=seed)
            lay = initial_placement(30, seed=seed + 40)
            found = find_crossings(g, lay)
            assert len(found) >= 200
            rep = measure(g, lay)
            assert rep.crossings == len(found)
            thetas = np.array([c.theta for c in found])
            mean = float(thetas.mean())
            assert rep.angle_mean == mean
            assert rep.angle_stddev == float(np.sqrt(((thetas - mean) ** 2).mean()))

    def test_size_mismatch_rejected(self):
        g, lay = k4_square()
        with pytest.raises(ValueError, match="positions for a graph"):
            measure(g, Layout(lay.positions[:3]))


class TestAngularResolution:
    def test_bent_path(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        ang = math.radians(60)
        lay = Layout([[-1, 0], [0, 0], [math.cos(ang), math.sin(ang)]])
        # Directions from the middle vertex: 180 and 60 degrees; gap 120 or
        # wrap 240: the smallest angle between the edges is 120... the bend
        # leaves a 120-degree gap on one side; the edge-to-edge angle is 120.
        assert angular_resolution(g, lay) == pytest.approx(120.0)

    def test_sixty_degree_angle(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        ang = math.radians(120)
        lay = Layout([[-1, 0], [0, 0], [math.cos(ang), math.sin(ang)]])
        assert angular_resolution(g, lay) == pytest.approx(60.0)

    def test_four_edge_fan(self):
        g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        lay = Layout([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]])
        assert angular_resolution(g, lay) == pytest.approx(90.0)

    def test_no_degree_two_vertex(self):
        g = make_graph(2, [(0, 1)])
        lay = Layout([[0, 0], [1, 0]])
        assert angular_resolution(g, lay) == ANGULAR_RESOLUTION_UNDEFINED

    def test_matches_pairwise_oracle_on_random_fans(self, rng):
        for _ in range(100):
            deg = 5
            g = make_graph(deg + 1, [(0, i) for i in range(1, deg + 1)])
            pts = [[0.0, 0.0]]
            angles = [rng.uniform(0, 2 * math.pi) for _ in range(deg)]
            for a in angles:
                r = rng.uniform(0.5, 2.0)
                pts.append([r * math.cos(a), r * math.sin(a)])
            got = angular_resolution(g, Layout(pts))
            # Oracle: minimum pairwise circular distance between directions.
            best = 360.0
            for i in range(deg):
                for j in range(i + 1, deg):
                    d = abs(math.degrees(angles[i] - angles[j])) % 360.0
                    best = min(best, min(d, 360.0 - d))
            assert got == pytest.approx(best, abs=1e-9)
