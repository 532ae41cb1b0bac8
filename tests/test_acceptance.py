"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from specbound import (
    MatrixSpec,
    auto_window,
    build_frame,
    build_matrix,
    crossing_condition,
    cubic_g1,
    envelope_margins,
    envelope_member_mask,
    envelope_raster,
    epsilon_thresholds,
    explicit_g2,
    g_field,
    gamma_curves,
    max_abs,
    membership_tolerance,
    point_in_polygon,
    rank_numrange_raster,
    region_index,
    simultaneous_merge_deltas,
    theta_grid,
)
from conftest import bisect_root, random_complex, random_unitary


class _report:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.num:02d} {status} "
              f"({self.elapsed:6.2f}s): {self.desc}")
        return False


def test_criterion_01_reference_constants():
    with _report(1, "3x3 reference constants and curve heights at s=2") as rep:
        a = build_matrix(MatrixSpec("a_tilde"))
        f1 = build_frame(a, 1)
        f2 = build_frame(a, 2)
        assert np.all(np.abs(f1.deltas - np.array([3.0, 1.0, 0.0])) <= 1e-8)
        assert abs(f1.kappa - 4.0) <= 1e-8
        assert abs(f2.kappa - 20.0) <= 1e-8
        t1 = bisect_root(lambda t: float(cubic_g1(f1, 2.0, t)), 1.0, 2.5)
        t2 = bisect_root(lambda t: float(explicit_g2(f2, 2.0, t)), 2.0, 4.0)
        assert abs(t1 ** 2 - 3.0) <= 1e-8
        assert abs(t2 ** 2 - 9.0) <= 1e-8
        assert rep.elapsed < 1.0


def test_criterion_02_switch_abscissas_and_meeting_points():
    with _report(2, "4x4 example: eigenvalue-switch abscissas and curve meetings") as rep:
        eps = 1.01
        s_lo = (3.0 - np.sqrt(9.0 - 8.0 * eps**2)) / 4.0
        s_hi = (3.0 + np.sqrt(9.0 - 8.0 * eps**2)) / 4.0
        deltas = [2.0, 1.0]

        def branch_t(s, dj):
            return float(np.sqrt(eps**2 * (dj - s) / s - (dj - s) ** 2))

        def low_flip(s):
            return region_index(deltas, 2, s, branch_t(s, 2.0)) - 1.5

        def high_flip(s):
            return region_index(deltas, 2, s, branch_t(s, 1.0)) - 1.5

        assert low_flip(0.4) < 0 < low_flip(0.6)
        assert high_flip(0.93) > 0 > high_flip(0.999)
        s_lo_found = bisect_root(low_flip, 0.4, 0.6)
        s_hi_found = bisect_root(high_flip, 0.93, 0.999)
        assert abs(s_lo_found - s_lo) <= 1e-6
        assert abs(s_hi_found - s_hi) <= 1e-6

        a = build_matrix(MatrixSpec("a_hat"))
        f = build_frame(a, 2)
        from specbound import Window

        win = Window(-0.3, 2.4, -1.7, 1.7, cols=700, rows=520)
        hi_curve, lo_curve = gamma_curves(f, win)
        limit = 2 * win.cell_diagonal
        for s_meet in (s_lo, s_hi):
            t_meet = np.sqrt(s_meet**2 - 3 * s_meet + 2)
            for t_sgn in (t_meet, -t_meet):
                for curve in (hi_curve, lo_curve):
                    d = min(
                        float(np.min(np.hypot(p[:, 0] - s_meet, p[:, 1] - t_sgn)))
                        for p in curve.polylines
                    )
                    assert d <= limit
        assert rep.elapsed < 5.0


def test_criterion_03_simultaneous_merge_recurrence():
    with _report(3, "simultaneous-merge recurrence and constant thresholds"):
        d = simultaneous_merge_deltas(0.0, 1.0, 4)
        expected = np.array([941 / 580, 29 / 20, 5 / 4, 1.0, 0.0])
        assert np.all(np.abs(d - expected) <= 1e-12)
        eps = epsilon_thresholds(d, 4)
        assert np.all(np.abs(eps - 0.5) <= 1e-12)


def test_criterion_04_containment_sweep():
    with _report(4, "1000-matrix containment sweep, orders 1..3, 120 angles") as rep:
        thetas = theta_grid(120)
        for seed in range(1000):
            a = random_complex(5, seed=seed + 40_000)
            evs = np.linalg.eigvals(a)
            for k in (1, 2, 3):
                f = build_frame(a, k)
                tol = 1e-8 * (1.0 + max_abs(a)) ** (2 * k + 1)
                g = g_field(f, evs.real, evs.imag)
                assert np.all(g >= -tol), (seed, k)
                assert np.all(envelope_member_mask(a, k, thetas, evs)), (seed, k)
        assert rep.elapsed < 180.0


def test_criterion_05_closed_form_oracle_agreement():
    with _report(5, "closed-form k=1/k=2 oracles agree on 100x100 grids") as rep:
        for seed in range(100):
            a = random_complex(5, seed=seed + 50_000)
            for k, oracle in ((1, cubic_g1), (2, explicit_g2)):
                f = build_frame(a, k)
                win = auto_window(f, cols=100, rows=100)
                s_ax, t_ax = win.node_axes()
                ss, tt = np.meshgrid(s_ax, t_ax)
                g = g_field(f, ss, tt)
                diff = np.abs(oracle(f, ss, tt) - g)
                assert np.all(diff <= 1e-9 * (1.0 + np.abs(g))), (seed, k)
        assert rep.elapsed < 120.0


def test_criterion_06_asymptote_lower_bound_on_gallery():
    with _report(6, "traced curves never cross left of delta_{k+1}"):
        specs = [
            MatrixSpec("toeplitz_eq1"),
            MatrixSpec("a_tilde"),
            MatrixSpec("a_hat"),
            MatrixSpec("pair_A"),
            MatrixSpec("pair_B"),
            MatrixSpec("matrix_C"),
            MatrixSpec("matrix_F"),
            MatrixSpec("matrix_A1"),
            MatrixSpec("frank"),
            MatrixSpec("random_real"),
            MatrixSpec("random_complex"),
        ]
        for spec in specs:
            a = build_matrix(spec)
            n = a.shape[0]
            for k in (1, 2, 3):
                if k > n - 1:
                    continue
                f = build_frame(a, k)
                win = auto_window(f, cols=400, rows=300)
                cs = gamma_curves(f, win, ("max",))[0]
                if not cs.polylines:
                    continue
                verts = np.vstack(cs.polylines)
                cell_width = win.step[0]
                assert verts[:, 0].min() >= f.delta_next - cell_width, (spec.name, k)


def test_criterion_07_invariance_of_membership():
    with _report(7, "membership invariances: similarity, transpose, adjoint, affine") as rep:
        thetas = theta_grid(120)
        rng = np.random.default_rng(99)
        k = 2
        for seed in range(20):
            a = random_complex(5, seed=seed + 60_000)
            q = random_unitary(5, seed=seed + 61_000)
            scale_pts = 1.0 + max_abs(a)
            pts = (rng.normal(size=30) + 1j * rng.normal(size=30)) * scale_pts
            band = 1e-6 * (1.0 + max_abs(a)) ** (2 * k + 1)

            base, _ = envelope_margins(a, k, thetas, pts)
            clear = np.abs(base) > band
            base_in = base >= -membership_tolerance(a, k)

            for mapped_matrix, mapped_pts, mapped_thetas in (
                (q.conj().T @ a @ q, pts, thetas),
                (a.T, pts, thetas),
                (a.conj().T, np.conj(pts), thetas),
            ):
                m, _ = envelope_margins(mapped_matrix, k, mapped_thetas, mapped_pts)
                m_in = m >= -membership_tolerance(mapped_matrix, k)
                assert np.array_equal(base_in[clear], m_in[clear]), seed

            for r in (1.0, 2.0):
                phi = float(rng.uniform(0, 2 * np.pi))
                b = complex(rng.normal(), rng.normal())
                factor = r * np.exp(1j * phi)
                mapped = factor * a + b * np.eye(5)
                shifted, _ = envelope_margins(a, k, thetas + phi, pts)
                shifted_in = shifted >= -membership_tolerance(a, k)
                shifted_clear = np.abs(shifted) > band
                m, _ = envelope_margins(mapped, k, thetas, factor * pts + b)
                m_in = m >= -membership_tolerance(mapped, k)
                assert np.array_equal(shifted_in[shifted_clear], m_in[shifted_clear]), seed
        assert rep.elapsed < 120.0


def test_criterion_08_envelope_nesting():
    with _report(8, "raster nesting: rank-3 inside envelope inside half-planes") as rep:
        for name in ("toeplitz_eq1", "matrix_A1"):
            a = build_matrix(MatrixSpec(name))
            f = build_frame(a, 2)
            win = auto_window(f, cols=150, rows=110)
            e2 = envelope_raster(a, 2, 120, win)
            l1 = rank_numrange_raster(a, 1, 120, win)
            l3 = rank_numrange_raster(a, 3, 120, win)
            assert np.all(~e2.bits | l1.bits), name
            assert np.all(~l3.bits | e2.bits), name
        assert rep.elapsed < 120.0


def test_criterion_09_loop_count_transitions():
    with _report(9, "closed-loop counts walk 2 -> 1 -> 0 as coupling grows") as rep:
        cases = {
            "pair_A": (0.45, 0.55, 0.65),
            "pair_B": (0.35, 0.45, 0.55),
        }
        for name, eps_values in cases.items():
            counts = []
            for eps in eps_values:
                a = build_matrix(MatrixSpec(name, {"eps": eps}))
                f = build_frame(a, 2)
                win = auto_window(f, cols=1200, rows=900)
                cs = gamma_curves(f, win, ("max",))[0]
                counts.append(int(sum(cs.closed_flags)))
            assert counts == [2, 1, 0], (name, counts)
        assert rep.elapsed < 60.0


def test_criterion_10_eigenvalue_free_loop():
    with _report(10, "two-parameter family traps an eigenvalue-free closed loop"):
        a = build_matrix(MatrixSpec("matrix_F", {"eps1": 2.52, "eps2": 0.66}))
        f = build_frame(a, 2)
        win = auto_window(f, cols=900, rows=700)
        cs = gamma_curves(f, win, ("max",))[0]
        evs = np.linalg.eigvals(a)
        empty_loops = 0
        for poly, closed in zip(cs.polylines, cs.closed_flags):
            if not closed:
                continue
            inside = sum(point_in_polygon(ev.real, ev.imag, poly) for ev in evs)
            if inside == 0:
                empty_loops += 1
        assert empty_loops >= 1


def test_criterion_11_crossing_condition():
    with _report(11, "explicit crossing condition with lhs 4 and rhs 10"):
        cc = crossing_condition(build_matrix(MatrixSpec("a_tilde")))
        assert cc.holds
        assert abs(cc.lhs - 4.0) <= 1e-8
        assert abs(cc.rhs - 10.0) <= 1e-8
