import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bigcross.crossings import _acute_angles, find_crossings, proper_intersection
from bigcross.engine import initial_placement
from bigcross.graph import Layout, make_graph

from conftest import rotate


# Independent oracle: counterclockwise predicate written in a different form
# from the library's signed-area expression.
def _ccw(a, b, c):
    v = (b[1] - a[1]) * (c[0] - b[0]) - (b[0] - a[0]) * (c[1] - b[1])
    if v > 0:
        return -1
    if v < 0:
        return 1
    return 0


def oracle_crosses(seg1, seg2):
    p1, p2 = seg1
    p3, p4 = seg2
    d1 = _ccw(p3, p4, p1)
    d2 = _ccw(p3, p4, p2)
    d3 = _ccw(p1, p2, p3)
    d4 = _ccw(p1, p2, p4)
    return d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0 and d1 != d2 and d3 != d4


class TestProperIntersection:
    def test_symmetric_x(self):
        assert proper_intersection(((0, 0), (1, 1)), ((0, 1), (1, 0))) == (0.5, 0.5)

    def test_shared_endpoint_is_not_a_crossing(self):
        assert proper_intersection(((0, 0), (1, 1)), ((1, 1), (2, 0))) is None

    def test_parallel_disjoint(self):
        assert proper_intersection(((0, 0), (1, 0)), ((0, 1), (1, 1))) is None

    def test_endpoint_on_interior_touch(self):
        assert proper_intersection(((0, 0), (2, 0)), ((1, 0), (1, 1))) is None

    def test_collinear_overlap(self):
        assert proper_intersection(((0, 0), (2, 0)), ((1, 0), (3, 0))) is None

    def test_disjoint_far_apart(self):
        assert proper_intersection(((0, 0), (1, 0)), ((5, 5), (6, 6))) is None

    def test_matches_oracle_on_random_segments(self, rng):
        for _ in range(200):
            segs = [((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     (rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(2)]
            got = proper_intersection(*segs)
            assert (got is not None) == oracle_crosses(*segs)

    def test_symmetry_of_point(self, rng):
        for _ in range(300):
            s1 = ((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (rng.uniform(-1, 1), rng.uniform(-1, 1)))
            s2 = ((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (rng.uniform(-1, 1), rng.uniform(-1, 1)))
            base = proper_intersection(s1, s2)
            for a, b in [(s2, s1), ((s1[1], s1[0]), s2), (s1, (s2[1], s2[0]))]:
                other = proper_intersection(a, b)
                assert (base is None) == (other is None)
                if base is not None:
                    assert math.dist(base, other) < 1e-9


def acute_angle(seg1, seg2) -> float:
    """`_acute_angles` of one edge pair, given as two segments (one-row endpoint arrays)."""
    return float(_acute_angles(*(np.array([p], dtype=np.float64) for p in (*seg1, *seg2)))[0])


class TestCrossingAngle:
    def test_perpendicular_diagonals(self):
        assert acute_angle(((0, 0), (1, 1)), ((0, 1), (1, 0))) == pytest.approx(90.0)

    def test_arctan_two_slope(self):
        # Oracle: the second segment's direction is (1, 2); the acute angle to
        # the x-axis segment is atan2(2, 1) in degrees.
        expected = math.degrees(math.atan2(2.0, 1.0))
        got = acute_angle(((0, 0), (1, 0)), ((0.5, -1), (1.5, 1)))
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(63.43494882292201, abs=1e-9)

    def test_steep_crossing(self):
        expected = math.degrees(math.atan2(1.0, 0.1))
        got = acute_angle(((0, 0), (1, 0)), ((0.5, -0.5), (0.6, 0.5)))
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(84.28940686250037, abs=1e-9)

    def test_range_and_symmetries(self, rng):
        for _ in range(300):
            s1 = ((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (rng.uniform(-1, 1), rng.uniform(-1, 1)))
            s2 = ((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (rng.uniform(-1, 1), rng.uniform(-1, 1)))
            if proper_intersection(s1, s2) is None:
                continue
            theta = acute_angle(s1, s2)
            assert 0.0 < theta <= 90.0
            assert acute_angle(s2, s1) == pytest.approx(theta, abs=1e-9)
            assert acute_angle((s1[1], s1[0]), s2) == pytest.approx(theta, abs=1e-9)

    def test_rigid_motion_invariance(self, rng):
        for _ in range(200):
            pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            if proper_intersection((pts[0], pts[1]), (pts[2], pts[3])) is None:
                continue
            theta = acute_angle((pts[0], pts[1]), (pts[2], pts[3]))
            ang = rng.uniform(0, 2 * math.pi)
            off = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            moved = [rotate(p, ang, off) for p in pts]
            theta2 = acute_angle((moved[0], moved[1]), (moved[2], moved[3]))
            assert theta2 == pytest.approx(theta, abs=1e-9)


class TestFindCrossings:
    def test_square_with_diagonals(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
        lay = Layout([[0, 0], [1, 0], [1, 1], [0, 1]])
        found = find_crossings(g, lay)
        assert len(found) == 1
        c = found[0]
        assert {c.edge_a, c.edge_b} == {g.edges.index((0, 2)), g.edges.index((1, 3))}
        assert c.theta == pytest.approx(90.0)
        assert c.point[0] == pytest.approx(0.5)
        assert c.point[1] == pytest.approx(0.5)

    def test_path_on_a_line_has_none(self):
        g = make_graph(5, [(i, i + 1) for i in range(4)])
        lay = Layout([[i * 1.0, 0.0] for i in range(5)])
        assert find_crossings(g, lay) == []

    def test_mismatched_layout_rejected(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="positions"):
            find_crossings(g, Layout([[0, 0], [1, 1]]))

    def _random_graph(self, rng, n_max=20):
        n = rng.randint(4, n_max)
        mmax = min(3 * n, n * (n - 1) // 2)
        m = rng.randint(n - 1, mmax)
        seen = set()
        while len(seen) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                seen.add((min(u, v), max(u, v)))
        return make_graph(n, sorted(seen))

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(200):
            g = self._random_graph(rng)
            lay = initial_placement(g.n, rng.randrange(10**6))
            pos = lay.positions
            expected = set()
            for i in range(g.m):
                for j in range(i + 1, g.m):
                    e1, e2 = g.edges[i], g.edges[j]
                    if set(e1) & set(e2):
                        continue
                    s1 = (tuple(pos[e1[0]]), tuple(pos[e1[1]]))
                    s2 = (tuple(pos[e2[0]]), tuple(pos[e2[1]]))
                    if oracle_crosses(s1, s2):
                        expected.add((i, j))
            got = {(c.edge_a, c.edge_b) for c in find_crossings(g, lay)}
            assert got == expected

    def test_agrees_with_scalar_predicate_and_angle(self, rng):
        for trial in range(50):
            g = self._random_graph(rng)
            lay = initial_placement(g.n, rng.randrange(10**6))
            pos = lay.positions
            for c in find_crossings(g, lay):
                e1, e2 = g.edges[c.edge_a], g.edges[c.edge_b]
                s1 = (tuple(pos[e1[0]]), tuple(pos[e1[1]]))
                s2 = (tuple(pos[e2[0]]), tuple(pos[e2[1]]))
                (ux, uy), (vx, vy) = np.subtract(s1[1], s1[0]), np.subtract(s2[1], s2[0])
                pt = proper_intersection(s1, s2)
                assert pt is not None
                assert math.dist(pt, c.point) < 1e-9
                # Independent solve, along the second segment: p3 + w * v with
                # w = ((p3 - p1) x u) / (u x v).
                (x1, y1), (x3, y3) = s1[0], s2[0]
                w = ((x3 - x1) * uy - (y3 - y1) * ux) / (ux * vy - uy * vx)
                assert math.dist((x3 + w * vx, y3 + w * vy), c.point) < 1e-9
                expected = math.degrees(math.atan2(abs(ux * vy - uy * vx),
                                                   abs(ux * vx + uy * vy)))
                assert c.theta == pytest.approx(expected, abs=1e-9)
                assert 0.0 < c.theta <= 90.0


def exact_crosses(p1, p2, p3, p4):
    """Proper crossing of (p1, p2) and (p3, p4) in exact rational arithmetic."""
    def side(a, b, c):
        (ax, ay), (bx, by), (cx, cy) = ([Fraction(v) for v in p] for p in (a, b, c))
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return side(p1, p2, p3) * side(p1, p2, p4) < 0 and side(p3, p4, p1) * side(p3, p4, p2) < 0


# Grid coordinates i * 2**-s with |i| <= 4 and 0 <= s <= 20 are multiples of
# 2**-20 below 2**2, so every float64 orientation of them is exact, and a
# float predicate that disagrees with the rational oracle is wrong.
grid = st.builds(lambda i, s: i * 2.0 ** -s, st.integers(-4, 4), st.integers(0, 20))


class TestExactGrid:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(grid, grid), min_size=4, max_size=7))
    def test_matches_fraction_oracle(self, pts):
        # The complete graph on the drawn points: coincident points, shared
        # endpoints, collinear overlaps and endpoint-on-interior touches are
        # all among its edge pairs.
        edges = list(itertools.combinations(range(len(pts)), 2))
        g = make_graph(len(pts), edges)
        expected = set()
        for i, j in itertools.combinations(range(len(edges)), 2):
            (a, b), (c, d) = edges[i], edges[j]
            crosses = exact_crosses(pts[a], pts[b], pts[c], pts[d])
            got = proper_intersection((pts[a], pts[b]), (pts[c], pts[d]))
            assert (got is not None) == crosses
            if crosses:
                expected.add((g.edges.index(edges[i]), g.edges.index(edges[j])))
        found = find_crossings(g, Layout(pts))
        assert {(c.edge_a, c.edge_b) for c in found} == expected
