import math
import numpy as np
import pytest

from bigcross import forces
from bigcross.crossings import find_crossings
from bigcross.engine import (
    EngineError,
    _jitter_angle,
    _step_arrays,
    initial_placement,
    run,
    step,
    total_force,
)
from bigcross.forces import COINCIDENCE_EPS, repulsive_force, spring_force
from bigcross.forces import parallel_cosine, rotational_cosine, attract_repel_cosine
from bigcross.generators import classic, gen_erdos_renyi
from bigcross.graph import Layout, LayoutParams, make_graph


def scalar_total_force(graph, layout, params):
    """Independent oracle: sum the scalar kernels vertex by vertex."""
    pos = [layout.point(v) for v in range(graph.n)]
    F = [[0.0, 0.0] for _ in range(graph.n)]
    for u, v in graph.edges:
        f = spring_force(pos[u], pos[v], params.k_s, params.l)
        F[v][0] += f.fx
        F[v][1] += f.fy
        f = spring_force(pos[v], pos[u], params.k_s, params.l)
        F[u][0] += f.fx
        F[u][1] += f.fy
    for u in range(graph.n):
        for v in range(graph.n):
            if u != v:
                f = repulsive_force(pos[u], pos[v], params.k_r)
                F[v][0] += f.fx
                F[v][1] += f.fy
    if params.variant != "classical" and params.k_cos:
        kernel = {"parallel": parallel_cosine, "rotational": rotational_cosine,
                  "attract_repel": attract_repel_cosine}[params.variant]
        for c in find_crossings(graph, layout):
            a, b = graph.edges[c.edge_a]
            cc, d = graph.edges[c.edge_b]
            cf = kernel(pos[a], pos[b], pos[cc], pos[d], params.k_cos)
            for vid, f in zip((a, b, cc, d), (cf.on_a, cf.on_b, cf.on_c, cf.on_d)):
                F[vid][0] += f.fx
                F[vid][1] += f.fy
    return np.array(F)


def _reference_distance_pass(pos):
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    return diff, d2


def _reference_quads(graph, pos):
    """Endpoint ids (K, 4) of the crossing pairs, by orientation signs over every candidate."""
    quads = graph.edge_array[graph.nonadjacent_edge_pairs].reshape(-1, 4)
    p1, p2, p3, p4 = (pos[quads[:, k]] for k in range(4))

    def orient(a, b, c):
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    cross = (((o1 > 0) & (o2 < 0)) | ((o1 < 0) & (o2 > 0))) \
        & (((o3 > 0) & (o4 < 0)) | ((o3 < 0) & (o4 > 0)))
    return quads[cross]


def reference_step(graph, pos, params):
    """One iteration the way the engine used to compute it, for bit comparison.

    Pairwise differences as one (n, n, 2) array summed along axis 1, and
    every force group scattered per axis with its own `bincount`.
    """
    n = graph.n
    eps2 = COINCIDENCE_EPS * COINCIDENCE_EPS
    pos_in = pos
    diff, d2 = _reference_distance_pass(pos)
    if d2.min() < eps2:
        pos = pos.copy()
        iu, ju = np.triu_indices(n, k=1)
        hit = d2[iu, ju] < eps2
        for u, v in zip(iu[hit], ju[hit]):
            ang = _jitter_angle(int(u), int(v))
            pos[v, 0] += 1e-6 * math.cos(ang)
            pos[v, 1] += 1e-6 * math.sin(ang)
        diff, d2 = _reference_distance_pass(pos)
    d2[d2 < eps2] = np.inf
    d3 = np.sqrt(d2) * d2
    repulsion = params.k_r * (diff / d3[:, :, None]).sum(axis=1)

    F = np.zeros((n, 2))
    e = graph.edge_array
    if e.shape[0]:
        delta = pos[e[:, 0]] - pos[e[:, 1]]
        d = np.sqrt((delta * delta).sum(axis=1))
        ok = d >= COINCIDENCE_EPS
        fv = (np.where(ok, params.k_s * (d - params.l), 0.0) / np.where(ok, d, 1.0))[:, None] * delta
        idx = np.concatenate([e[:, 1], e[:, 0]])
        for c in range(2):
            F[:, c] += np.bincount(idx, np.concatenate([fv[:, c], -fv[:, c]]), minlength=n)
    F += repulsion
    if params.variant != "classical" and params.k_cos:
        quads = _reference_quads(graph, pos)
        if quads.shape[0]:
            ends = [pos[quads[:, k]] for k in range(4)]
            kernel = getattr(forces, f"_{params.variant}_arrays")
            fs = kernel(*ends, params.k_cos)
            idx = quads.T.ravel()
            for c in range(2):
                F[:, c] += np.bincount(idx, np.concatenate([f[:, c] for f in fs]), minlength=n)

    disp = params.step * F
    mags = np.sqrt((disp * disp).sum(axis=1))
    over = mags > params.max_disp
    if over.any():
        disp = disp * np.where(over, params.max_disp / np.where(over, mags, 1.0), 1.0)[:, None]
    new_pos = pos + disp
    moved = np.abs(new_pos - pos_in).max(axis=0)
    return new_pos, (float(moved[0]), float(moved[1]))


def random_graph(n, seed):
    """A graph with min(2n, n(n-1)/2) edges drawn uniformly, not necessarily connected."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pick = np.random.default_rng(seed).choice(len(pairs), min(2 * n, len(pairs)), replace=False)
    return make_graph(n, [pairs[i] for i in pick])


class TestStepBits:
    """`_step_arrays` reproduces `reference_step` bit for bit."""

    @staticmethod
    def assert_same_steps(graph, pos, params, steps):
        for _ in range(steps):
            new, moved = _step_arrays(graph, pos, params)
            ref, ref_moved = reference_step(graph, pos, params)
            assert new.tobytes() == ref.tobytes()
            assert moved == ref_moved
            pos = new

    @pytest.mark.parametrize("variant", ["classical", "parallel", "rotational", "attract_repel"])
    @pytest.mark.parametrize("n", [2, 9, 14, 47, 200])
    def test_random_start(self, n, variant):
        graph = random_graph(n, seed=n)
        pos = initial_placement(n, seed=n + 1).positions
        self.assert_same_steps(graph, pos, LayoutParams(variant=variant), 5 if n == 200 else 30)

    @pytest.mark.parametrize("variant", ["classical", "parallel", "rotational", "attract_repel"])
    def test_coincident_start(self, variant):
        graph = random_graph(14, seed=3)
        pos = initial_placement(14, seed=4).positions.copy()
        pos[5] = pos[2]
        self.assert_same_steps(graph, pos, LayoutParams(variant=variant), 30)


class TestInitialPlacement:
    def test_deterministic(self):
        a = initial_placement(40, seed=5)
        b = initial_placement(40, seed=5)
        assert np.array_equal(a.positions, b.positions)

    def test_unit_square(self):
        lay = initial_placement(1000, seed=1)
        assert lay.positions.min() >= 0.0
        assert lay.positions.max() <= 1.0

    def test_seeds_differ(self):
        for s in range(5):
            a = initial_placement(10, seed=s)
            b = initial_placement(10, seed=s + 1)
            assert not np.array_equal(a.positions, b.positions)


class TestTotalForce:
    def test_two_isolated_vertices(self):
        g = make_graph(2, [])
        lay = Layout([[0, 0], [1, 0]])
        F = total_force(g, lay, LayoutParams(), [])
        assert F[0] == pytest.approx([-1.0, 0.0])
        assert F[1] == pytest.approx([1.0, 0.0])

    def test_single_edge_at_rest_length(self):
        g = make_graph(2, [(0, 1)])
        lay = Layout([[0, 0], [1, 0]])
        F = total_force(g, lay, LayoutParams(), [])
        # Spring is zero at rest length; repulsion k_r/l^2 pushes outward.
        assert F[0] == pytest.approx([-1.0, 0.0])
        assert F[1] == pytest.approx([1.0, 0.0])

    def test_classical_equals_zero_kcos(self, rng):
        g = gen_erdos_renyi(12, 20, seed=3)
        lay = initial_placement(12, seed=8)
        crossings = find_crossings(g, lay)
        f1 = total_force(g, lay, LayoutParams(variant="classical"), crossings)
        f2 = total_force(g, lay, LayoutParams(variant="parallel", k_cos=0.0), crossings)
        assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("variant", ["classical", "parallel", "rotational", "attract_repel"])
    def test_matches_scalar_kernel_sum(self, variant, rng):
        for seed in range(5):
            g = gen_erdos_renyi(10, 18, seed=seed)
            lay = initial_placement(10, seed=seed + 50)
            params = LayoutParams(variant=variant)
            F = total_force(g, lay, params, find_crossings(g, lay))
            expected = scalar_total_force(g, lay, params)
            assert np.allclose(F, expected, atol=1e-12)


class TestStep:
    def test_single_vertex_fixpoint(self):
        g = make_graph(1, [])
        lay = Layout([[0.3, 0.7]])
        new, mm = step(g, lay, LayoutParams())
        assert np.array_equal(new.positions, lay.positions)
        assert mm == (0.0, 0.0)

    def test_stretched_spring_moves_along_axis_only(self):
        g = make_graph(2, [(0, 1)])
        lay = Layout([[0, 0], [3, 0]])
        new, mm = step(g, lay, LayoutParams())
        assert new.positions[0, 1] == 0.0
        assert new.positions[1, 1] == 0.0
        # Net force: spring pull (2) beats repulsion (1/9).
        assert new.positions[0, 0] > 0.0
        assert new.positions[1, 0] < 3.0
        assert mm[1] == 0.0

    def test_deterministic(self):
        g = gen_erdos_renyi(15, 30, seed=2)
        lay = initial_placement(15, seed=4)
        a, mma = step(g, lay, LayoutParams())
        b, mmb = step(g, lay, LayoutParams())
        assert a.positions.tobytes() == b.positions.tobytes()
        assert mma == mmb

    def test_translation_equivariance(self, rng):
        g = gen_erdos_renyi(12, 24, seed=6)
        lay = initial_placement(12, seed=9)
        new, _ = step(g, lay, LayoutParams())
        shift = np.array([13.25, -7.5])
        shifted, _ = step(g, Layout(lay.positions + shift), LayoutParams())
        assert np.allclose(shifted.positions, new.positions + shift, atol=1e-9)

    def test_displacement_cap(self):
        g = make_graph(2, [])
        lay = Layout([[0, 0], [1e-3, 0]])  # repulsion magnitude 1e6
        params = LayoutParams()
        new, mm = step(g, lay, params)
        moved = np.abs(new.positions - lay.positions)
        assert moved.max() <= params.max_disp + 1e-12
        assert mm[0] == pytest.approx(params.max_disp)

    def test_coincident_vertices_jittered(self):
        cases = [
            (make_graph(2, [(0, 1)]), Layout([[0.5, 0.5], [0.5, 0.5]]), LayoutParams(), (0, 1)),
            # Vertex 4 sits on vertex 2 and ends edge (0, 4), which crosses
            # (1, 3): the jitter moves a crossing endpoint before the scan.
            (make_graph(5, [(0, 4), (1, 3)]), Layout([[0, 0], [0, 1], [1, 1], [1, 0], [1, 1]]),
             LayoutParams(variant="attract_repel"), (2, 4)),
        ]
        assert len(find_crossings(*cases[1][:2])) == 1
        for g, lay, params, (u, v) in cases:
            new1, _ = step(g, lay, params)
            new2, _ = step(g, lay, params)
            assert np.all(np.isfinite(new1.positions))
            assert new1.positions.tobytes() == new2.positions.tobytes()
            # The pair must have separated. Repulsion over the 1e-6 jittered
            # distance caps both moves, so it comes out near 2 * max_disp.
            assert math.dist(new1.positions[u], new1.positions[v]) > params.max_disp

    @pytest.mark.parametrize("variant", ["classical", "parallel", "rotational", "attract_repel"])
    def test_matches_scalar_oracle(self, variant):
        params = LayoutParams(variant=variant)
        for seed in range(5):
            g = gen_erdos_renyi(10, 18, seed=seed)
            lay = initial_placement(10, seed=seed + 50)
            disp = params.step * scalar_total_force(g, lay, params)
            mags = np.sqrt((disp * disp).sum(axis=1))
            over = mags > params.max_disp
            disp[over] *= (params.max_disp / mags[over])[:, None]
            new, _ = step(g, lay, params)
            assert np.allclose(new.positions, lay.positions + disp, rtol=0, atol=1e-12)

    def test_non_finite_force_aborts(self):
        g = make_graph(2, [])
        lay = Layout([[0, 0], [2e-9, 0]])  # d^2 ~ 4e-18 with huge k_r overflows
        with pytest.raises(EngineError, match="non-finite"):
            step(g, lay, LayoutParams(k_r=1e308))


class TestRun:
    def test_c6_becomes_near_regular_hexagon(self):
        g = classic("cycle", 6)
        result = run(g, LayoutParams.high_quality(variant="classical"), seed=1)
        assert result.converged
        pos = result.final.positions
        lengths = [math.dist(pos[u], pos[v]) for u, v in g.edges]
        mean = sum(lengths) / len(lengths)
        std = math.sqrt(sum((x - mean) ** 2 for x in lengths) / len(lengths))
        assert std / mean < 0.05

    def test_k2_equilibrium_matches_root_oracle(self):
        # Oracle: bisection on the scalar balance k_s*(d-l) = k_r/d^2.
        def balance(d):
            return (d - 1.0) - 1.0 / (d * d)
        lo, hi = 1.0, 2.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if balance(mid) > 0:
                hi = mid
            else:
                lo = mid
        d_star = (lo + hi) / 2
        g = make_graph(2, [(0, 1)])
        # The movement threshold stops at residual force ~ threshold/step, so
        # checking the equilibrium to 1e-3 needs the larger explicit step.
        result = run(g, LayoutParams.high_quality(variant="classical", step=0.01), seed=3)
        assert result.converged
        d_final = math.dist(result.final.positions[0], result.final.positions[1])
        assert abs(d_final - d_star) < 1e-3

    def test_max_iterations_cap(self):
        g = gen_erdos_renyi(10, 20, seed=1)
        result = run(g, LayoutParams(max_iterations=1), seed=1)
        assert result.iterations == 1
        assert not result.converged

    def test_zero_max_iterations_invalid(self):
        with pytest.raises(ValueError):
            LayoutParams(max_iterations=0)

    def test_bit_reproducible(self):
        g = gen_erdos_renyi(12, 20, seed=5)
        params = LayoutParams(max_iterations=500)
        a = run(g, params, seed=7)
        b = run(g, params, seed=7)
        assert a.final.positions.tobytes() == b.final.positions.tobytes()
        assert a.iterations == b.iterations

    def test_kcos_zero_trajectory_identical_to_classical(self):
        for seed in range(3):
            g = gen_erdos_renyi(14, 28, seed=seed)
            pc = LayoutParams(variant="classical", max_iterations=300)
            pz = LayoutParams(variant="parallel", k_cos=0.0, max_iterations=300)
            a = run(g, pc, seed=seed + 10)
            b = run(g, pz, seed=seed + 10)
            assert a.final.positions.tobytes() == b.final.positions.tobytes()

    def test_converged_flag_honest(self):
        g = classic("cycle", 6)
        params = LayoutParams(variant="classical")
        result = run(g, params, seed=2)
        assert result.converged
        _, mm = step(g, result.final, params)
        assert mm[0] <= params.move_threshold
        assert mm[1] <= params.move_threshold

    def test_wall_time_recorded(self):
        g = make_graph(2, [(0, 1)])
        result = run(g, LayoutParams(max_iterations=5), seed=0)
        assert result.wall_time > 0.0
