import math

import numpy as np
import pytest

from bigcross.crossings import proper_intersection
from bigcross.forces import (
    CrossingForces,
    _attract_repel_arrays,
    _attract_repel_parts,
    _parallel_arrays,
    _rotational_arrays,
    attract_repel_components,
    attract_repel_cosine,
    parallel_cosine,
    repulsive_force,
    rotational_cosine,
    spring_force,
)

from conftest import rotate

VARIANTS = {
    "parallel": parallel_cosine,
    "rotational": rotational_cosine,
    "attract_repel": attract_repel_cosine,
}


def random_proper_crossing(rng, scale=2.0):
    while True:
        pts = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(4)]
        if proper_intersection((pts[0], pts[1]), (pts[2], pts[3])) is not None:
            return pts


def perpendicular_crossing(rng):
    """Random axis-aligned right-angle crossing.

    One edge is horizontal, the other vertical, so the direction dot product
    is structurally 0.0 in floating point (0*x + y*0) no matter how the
    coordinates round.
    """
    x0 = rng.uniform(-2, 2)
    y0 = rng.uniform(-2, 2)
    a = (x0 - rng.uniform(0.1, 2), y0)
    b = (x0 + rng.uniform(0.1, 2), y0)
    c = (x0, y0 - rng.uniform(0.1, 2))
    d = (x0, y0 + rng.uniform(0.1, 2))
    pts = [a, b, c, d]
    if rng.random() < 0.5:
        pts = [pts[2], pts[3], pts[0], pts[1]]  # swap which edge is vertical
    if rng.random() < 0.5:
        pts = [pts[1], pts[0]] + pts[2:]  # flip an edge's endpoint order
    return pts


def abs_cos(pts):
    ux, uy = pts[1][0] - pts[0][0], pts[1][1] - pts[0][1]
    vx, vy = pts[3][0] - pts[2][0], pts[3][1] - pts[2][1]
    return abs(ux * vx + uy * vy) / (math.hypot(ux, uy) * math.hypot(vx, vy))


def apply_forces(pts, forces: CrossingForces, eps):
    return [(p[0] + eps * f.fx, p[1] + eps * f.fy)
            for p, f in zip(pts, (forces.on_a, forces.on_b, forces.on_c, forces.on_d))]


class TestSpringForce:
    def test_rest_length(self):
        assert spring_force((0, 0), (1, 0), 1.0, 1.0) == (0.0, 0.0)

    def test_stretched_attracts(self):
        assert spring_force((0, 0), (2, 0), 1.0, 1.0) == (-1.0, 0.0)

    def test_compressed_pushes(self):
        assert spring_force((0, 0), (0.5, 0), 1.0, 1.0) == (0.5, 0.0)

    def test_coincident_returns_zero(self):
        assert spring_force((1, 1), (1, 1), 1.0, 1.0) == (0.0, 0.0)

    def test_newton_pairs(self, rng):
        for _ in range(100):
            pu = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            pv = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            f1 = spring_force(pu, pv, 1.3, 0.8)
            f2 = spring_force(pv, pu, 1.3, 0.8)
            assert abs(f1.fx + f2.fx) < 1e-12
            assert abs(f1.fy + f2.fy) < 1e-12


class TestRepulsiveForce:
    def test_unit_distance(self):
        assert repulsive_force((0, 0), (1, 0), 1.0) == (1.0, 0.0)

    def test_inverse_square(self):
        assert repulsive_force((0, 0), (2, 0), 1.0) == (0.25, 0.0)

    def test_direction_away(self):
        f = repulsive_force((0, 0), (0, -1), 4.0)
        assert f.fx == pytest.approx(0.0, abs=1e-15)
        assert f.fy == pytest.approx(-4.0)

    def test_newton_pairs(self, rng):
        for _ in range(100):
            pu = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            pv = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            f1 = repulsive_force(pu, pv, 2.0)
            f2 = repulsive_force(pv, pu, 2.0)
            assert abs(f1.fx + f2.fx) < 1e-12
            assert abs(f1.fy + f2.fy) < 1e-12


def kernel_magnitudes(pts, k_cos):
    """Per-endpoint force magnitudes from the engine's three cosine kernels.

    attract_repel contributes its attract and repel components separately,
    each of which has the cosine-force magnitude.
    """
    pa, pb, pc, pd = (np.array([p], dtype=np.float64) for p in pts)
    att, rep = _attract_repel_parts(pa, pb, pc, pd, k_cos)
    forces = (*_parallel_arrays(pa, pb, pc, pd, k_cos),
              *_rotational_arrays(pa, pb, pc, pd, k_cos), *att, *rep)
    return [math.hypot(*f[0]) for f in forces]


def crossing_at(theta_deg):
    """Two edges through the origin at the given angle."""
    t = math.radians(theta_deg)
    return [(-1.0, 0.0), (1.0, 0.0), (-math.cos(t), -math.sin(t)), (math.cos(t), math.sin(t))]


class TestCosineMagnitude:
    def test_right_angle_exactly_zero(self):
        assert kernel_magnitudes([(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)],
                                 1.0) == [0.0] * 16

    def test_sixty_degrees(self):
        assert kernel_magnitudes(crossing_at(60.0), 1.0) == pytest.approx([0.5] * 16)

    def test_forty_five_scaled(self):
        assert kernel_magnitudes(crossing_at(45.0), 2.0) == pytest.approx(
            [math.sqrt(2)] * 16, abs=1e-12)


class TestParallelCosine:
    def test_perpendicular_gives_zero(self):
        cf = parallel_cosine((0, 0), (1, 1), (0, 1), (1, 0), 1.0)
        for f in (cf.on_a, cf.on_b, cf.on_c, cf.on_d):
            assert f.fx == 0.0 and f.fy == 0.0

    def test_worked_configuration(self):
        # u = (1,2)/sqrt5, v = (1,0): dot = 1/sqrt5.
        cf = parallel_cosine((0, -1), (1, 1), (0, 0), (1, 0), 1.0)
        s5 = math.sqrt(5)
        assert cf.on_a.fx == pytest.approx(1 / s5, abs=1e-12)
        assert cf.on_a.fy == pytest.approx(0.0, abs=1e-12)
        assert cf.on_b.fx == pytest.approx(-1 / s5, abs=1e-12)
        assert cf.on_c.fx == pytest.approx(1 / 5, abs=1e-12)
        assert cf.on_c.fy == pytest.approx(2 / 5, abs=1e-12)
        assert cf.on_d.fx == pytest.approx(-1 / 5, abs=1e-12)
        assert cf.on_d.fy == pytest.approx(-2 / 5, abs=1e-12)

    def test_label_swap_symmetry(self, rng):
        for _ in range(50):
            a, b, c, d = random_proper_crossing(rng)
            cf = parallel_cosine(a, b, c, d, 1.0)
            swapped = parallel_cosine(b, a, c, d, 1.0)
            assert swapped.on_a == cf.on_b
            assert swapped.on_b == cf.on_a


class TestRotationalCosine:
    def test_perpendicular_gives_zero(self):
        cf = rotational_cosine((0, 0), (1, 1), (0, 1), (1, 0), 1.0)
        for f in (cf.on_a, cf.on_b, cf.on_c, cf.on_d):
            assert f.fx == 0.0 and f.fy == 0.0

    def test_magnitude_and_perpendicularity_at_60_degrees(self):
        # Edges meeting at 60 degrees through the origin.
        a, b = (-1.0, 0.0), (1.0, 0.0)
        ang = math.radians(60)
        c = (-math.cos(ang), -math.sin(ang))
        d = (math.cos(ang), math.sin(ang))
        k = 1.7
        cf = rotational_cosine(a, b, c, d, k)
        assert math.hypot(*cf.on_a) == pytest.approx(0.5 * k, abs=1e-9)
        # Perpendicular to the own edge (a, b).
        assert cf.on_a.fx * (b[0] - a[0]) + cf.on_a.fy * (b[1] - a[1]) == pytest.approx(0, abs=1e-12)
        assert math.hypot(*cf.on_c) == pytest.approx(0.5 * k, abs=1e-9)
        assert cf.on_c.fx * (d[0] - c[0]) + cf.on_c.fy * (d[1] - c[1]) == pytest.approx(0, abs=1e-12)


class TestAttractRepel:
    def test_perpendicular_gives_zero(self):
        cf = attract_repel_cosine((0, 0), (1, 1), (0, 1), (1, 0), 1.0)
        for f in (cf.on_a, cf.on_b, cf.on_c, cf.on_d):
            assert f.fx == 0.0 and f.fy == 0.0

    def test_obtuse_side_targets(self):
        # a lower-left, b upper-right; second edge from c lower-left-ish to d
        # upper-right: the angle (a, X, d) is obtuse, so a attracts toward d
        # and repels from c.
        a, b = (-2.0, -1.0), (2.0, 1.0)
        c, d = (-1.0, -1.0), (1.0, 1.0)
        att, rep = attract_repel_components(a, b, c, d, 1.0)
        cosang = abs_cos([a, b, c, d])
        to_d = (d[0] - a[0], d[1] - a[1])
        nd = math.hypot(*to_d)
        assert att.on_a.fx == pytest.approx(cosang * to_d[0] / nd, abs=1e-12)
        assert att.on_a.fy == pytest.approx(cosang * to_d[1] / nd, abs=1e-12)
        from_c = (a[0] - c[0], a[1] - c[1])
        nc = math.hypot(*from_c)
        assert rep.on_a.fx == pytest.approx(cosang * from_c[0] / nc, abs=1e-12)
        assert rep.on_a.fy == pytest.approx(cosang * from_c[1] / nc, abs=1e-12)

    def test_component_magnitudes(self, rng):
        for _ in range(100):
            pts = random_proper_crossing(rng)
            cosang = abs_cos(pts)
            att, rep = attract_repel_components(*pts, 1.0)
            for f in (att.on_a, att.on_b, att.on_c, att.on_d,
                      rep.on_a, rep.on_b, rep.on_c, rep.on_d):
                assert math.hypot(*f) == pytest.approx(cosang, abs=1e-9)

    def test_net_is_sum_of_components(self, rng):
        for _ in range(50):
            pts = random_proper_crossing(rng)
            net = attract_repel_cosine(*pts, 1.3)
            att, rep = attract_repel_components(*pts, 1.3)
            for f, fa, fr in zip((net.on_a, net.on_b, net.on_c, net.on_d),
                                 (att.on_a, att.on_b, att.on_c, att.on_d),
                                 (rep.on_a, rep.on_b, rep.on_c, rep.on_d)):
                assert f.fx == pytest.approx(fa.fx + fr.fx, abs=1e-12)
                assert f.fy == pytest.approx(fa.fy + fr.fy, abs=1e-12)


class TestSharedVariantProperties:
    @pytest.mark.parametrize("name", ["parallel", "rotational"])
    def test_zero_net_force(self, name, rng):
        fn = VARIANTS[name]
        for _ in range(100):
            pts = random_proper_crossing(rng)
            cf = fn(*pts, 1.0)
            sx = cf.on_a.fx + cf.on_b.fx + cf.on_c.fx + cf.on_d.fx
            sy = cf.on_a.fy + cf.on_b.fy + cf.on_c.fy + cf.on_d.fy
            assert abs(sx) < 1e-12 and abs(sy) < 1e-12

    @pytest.mark.parametrize("name", ["parallel", "rotational"])
    def test_magnitude_law(self, name, rng):
        fn = VARIANTS[name]
        for _ in range(200):
            pts = random_proper_crossing(rng)
            k = 1.5
            expected = k * abs_cos(pts)
            cf = fn(*pts, k)
            for f in (cf.on_a, cf.on_b, cf.on_c, cf.on_d):
                assert math.hypot(*f) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("name", ["parallel", "rotational"])
    def test_net_torque(self, name, rng):
        # The per-crossing torque stated in the module docstring: nonzero
        # unless the two crossing edges have equal length.
        fn = VARIANTS[name]
        k = 1.5
        for _ in range(200):
            a, b, c, d = pts = random_proper_crossing(rng)
            cf = fn(*pts, k)
            torque = sum(p[0] * f.fy - p[1] * f.fx
                         for p, f in zip(pts, (cf.on_a, cf.on_b, cf.on_c, cf.on_d)))
            l_ab, l_cd = math.dist(a, b), math.dist(c, d)
            ux, uy = (b[0] - a[0]) / l_ab, (b[1] - a[1]) / l_ab
            vx, vy = (d[0] - c[0]) / l_cd, (d[1] - c[1]) / l_cd
            s, cross = ux * vx + uy * vy, ux * vy - uy * vx
            if name == "parallel":
                expected = k * s * cross * (l_cd - l_ab)
            else:
                expected = k * abs(s) * math.copysign(1.0, s * cross) * (l_cd - l_ab)
            assert torque == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_right_angle_fixpoint_exact(self, name, rng):
        fn = VARIANTS[name]
        for _ in range(100):
            pts = perpendicular_crossing(rng)
            assert proper_intersection((pts[0], pts[1]), (pts[2], pts[3])) is not None
            cf = fn(*pts, 1.0)
            for f in (cf.on_a, cf.on_b, cf.on_c, cf.on_d):
                assert f.fx == 0.0 and f.fy == 0.0

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_first_order_improvement(self, name, rng):
        fn = VARIANTS[name]
        eps = 1e-6
        for _ in range(300):
            pts = random_proper_crossing(rng)
            before = abs_cos(pts)
            after = abs_cos(apply_forces(pts, fn(*pts, 1.0), eps))
            assert after <= before + 1e-9

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_rotation_equivariance(self, name, rng):
        fn = VARIANTS[name]
        for _ in range(100):
            pts = random_proper_crossing(rng)
            cf = fn(*pts, 1.0)
            ang = rng.uniform(0, 2 * math.pi)
            off = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            moved = [rotate(p, ang, off) for p in pts]
            cf2 = fn(*moved, 1.0)
            for f, f2 in zip((cf.on_a, cf.on_b, cf.on_c, cf.on_d),
                             (cf2.on_a, cf2.on_b, cf2.on_c, cf2.on_d)):
                expect = rotate((f.fx, f.fy), ang)
                assert f2.fx == pytest.approx(expect[0], abs=1e-9)
                assert f2.fy == pytest.approx(expect[1], abs=1e-9)


class TestVectorizedMatchesScalar:
    def test_batched_equals_per_crossing(self, rng):
        pts_all = [random_proper_crossing(rng) for _ in range(64)]
        pa = np.array([p[0] for p in pts_all])
        pb = np.array([p[1] for p in pts_all])
        pc = np.array([p[2] for p in pts_all])
        pd = np.array([p[3] for p in pts_all])
        batches = {
            "parallel": _parallel_arrays(pa, pb, pc, pd, 1.0),
            "rotational": _rotational_arrays(pa, pb, pc, pd, 1.0),
            "attract_repel": _attract_repel_arrays(pa, pb, pc, pd, 1.0),
        }
        for name, batch in batches.items():
            assert isinstance(batch, np.ndarray) and batch.dtype == np.float64
            assert batch.shape == (4, 64, 2) and batch.flags.c_contiguous
            if name != "attract_repel":
                assert batch[1].tobytes() == (-batch[0]).tobytes()
                assert batch[3].tobytes() == (-batch[2]).tobytes()
            fn = VARIANTS[name]
            for k, pts in enumerate(pts_all):
                cf = fn(*pts, 1.0)
                for arr, f in zip(batch, (cf.on_a, cf.on_b, cf.on_c, cf.on_d)):
                    assert arr[k, 0] == f.fx
                    assert arr[k, 1] == f.fy
        att, rep = _attract_repel_parts(pa, pb, pc, pd, 1.0)
        assert (att + rep).tobytes() == batches["attract_repel"].tobytes()

    def test_degenerate_edge_gives_zero(self):
        z = parallel_cosine((0, 0), (0, 0), (0, 1), (1, 0), 1.0)
        assert z.on_a == (0.0, 0.0) and z.on_c == (0.0, 0.0)
        z = rotational_cosine((0, 0), (1, 1), (0.5, 0.5), (0.5, 0.5), 1.0)
        assert z.on_a == (0.0, 0.0) and z.on_c == (0.0, 0.0)
