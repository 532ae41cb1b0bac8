import os

import numpy as np
import pytest

import specbound.frame as frame_module
from specbound import (
    MatrixSpec,
    ParameterError,
    build_frame,
    build_frames,
    build_matrix,
    hermitian_part,
    max_abs,
    rotation_spectra,
    skew_part,
    theta_grid,
    w_matrix,
)
from conftest import chunk_settings, random_complex, random_hermitian, random_unitary

A_TILDE = build_matrix(MatrixSpec("a_tilde"))


def test_a_tilde_frames():
    f1 = build_frame(A_TILDE, 1)
    assert np.allclose(f1.deltas, [3, 1, 0], atol=1e-12)
    assert abs(f1.kappa - 4.0) <= 1e-10
    assert abs(f1.delta_next - 1.0) <= 1e-12
    f2 = build_frame(A_TILDE, 2)
    assert abs(f2.kappa - 20.0) <= 1e-9
    assert abs(f2.delta_next - 0.0) <= 1e-12


def test_hermitian_matrix_frame():
    h = random_hermitian(5, seed=2)
    f = build_frame(h, 2)
    assert max(max_abs(f.y_k), max_abs(f.v_k)) <= 1e-12 * (1 + max_abs(h))
    assert f.kappa <= 1e-20 * (1 + max_abs(h)) ** 2


def test_frame_block_structure():
    a = random_complex(6, seed=8)
    f = build_frame(a, 3, theta=0.7)
    scale = 1 + max_abs(a)
    # Y_k is exactly skew-Hermitian; Y_k and the coupling block below it are
    # the first columns of Y = U* S U
    assert np.array_equal(f.y_k, -f.y_k.conj().T)
    y = f.u.conj().T @ skew_part(f.a_rot) @ f.u
    assert max_abs(y[:3, :3] - f.y_k) <= 1e-10 * scale
    assert max_abs(y[3:, :3] - f.v_k) <= 1e-10 * scale
    assert f.kappa >= 0
    assert np.all(np.diff(f.deltas) <= 0)
    assert f.delta_next == f.deltas[3]


def test_frame_round_trip_diagonalization():
    a = random_complex(6, seed=21)
    f = build_frame(a, 2, theta=1.1)
    d = f.u.conj().T @ hermitian_part(f.a_rot) @ f.u
    scale = 1 + max_abs(a)
    assert max_abs(d - np.diag(f.deltas)) <= 1e-9 * scale


def test_frame_identity_matrix():
    # all deltas of the identity coincide; U is still unitary
    f = build_frame(np.eye(3), 1)
    assert np.array_equal(f.deltas, [1.0, 1.0, 1.0])
    assert max_abs(f.u.conj().T @ f.u - np.eye(3)) <= 1e-12


def test_frame_reconstruction_many():
    # U is unitary and diagonalizes the rotated Hermitian part, with the
    # deltas non-increasing, over a large seeded corpus of sizes 2..9
    cases = []
    seed = 0
    while len(cases) < 10_000:
        seed += 1
        cases.append((random_complex(2 + seed % 8, seed=seed), 0.37 * seed))
    for a, theta in cases:
        n = a.shape[0]
        f = build_frame(a, 1, theta)
        assert max_abs(f.u.conj().T @ f.u - np.eye(n)) <= 1e-10
        d = f.u.conj().T @ hermitian_part(f.a_rot) @ f.u
        assert max_abs(d - np.diag(f.deltas)) <= 1e-9 * (1.0 + max_abs(a))
        assert np.all(np.diff(f.deltas) <= 0)


def test_frame_phase_fixing():
    # the largest-modulus entry of every column of U is real and positive,
    # and identical calls give identical bits
    for seed in range(40):
        a = random_complex(2 + seed % 7, seed=seed + 77)
        f = build_frame(a, 1, 0.5 * seed)
        for col in f.u.T:
            lead = col[np.argmax(np.abs(col))]
            assert lead.real > 0
            assert abs(lead.imag) <= 1e-14
        assert np.array_equal(build_frame(a, 1, 0.5 * seed).u, f.u)


def test_rotation_consistency():
    a = random_complex(5, seed=13)
    for theta in (0.3, 2.0, 5.5):
        f = build_frame(a, 2, theta=theta)
        f0 = build_frame(np.exp(1j * theta) * a, 2, theta=0.0)
        assert np.allclose(f.deltas, f0.deltas, atol=1e-10 * (1 + max_abs(a)))


def test_kappa_unitary_invariance():
    for seed in range(8):
        a = random_complex(5, seed=seed)
        q = random_unitary(5, seed=seed + 500)
        for k in (1, 2, 3):
            k0 = build_frame(a, k).kappa
            k1 = build_frame(q.conj().T @ a @ q, k).kappa
            assert abs(k0 - k1) <= 1e-8 * (1 + max_abs(a) ** 2)


def test_frame_k_bounds():
    a = random_complex(4, seed=1)
    with pytest.raises(ParameterError):
        build_frame(a, 0)
    with pytest.raises(ParameterError):
        build_frame(a, 4)


def test_degenerate_flag():
    f = build_frame(build_matrix(MatrixSpec("matrix_F", {"eps1": 2.52, "eps2": 0.66})), 1)
    assert f.degenerate  # top two Hermitian-part eigenvalues coincide
    assert not build_frame(A_TILDE, 1).degenerate


def test_w_matrix_k1_scalar_form():
    f = build_frame(A_TILDE, 1)
    w = w_matrix(f, 2.0, 0.5)
    assert w.shape == (1, 1)
    alpha = f.y_k[0, 0].imag
    assert w[0, 0] == complex(f.deltas[0] - 2.0, alpha - 0.5)


def test_w_matrix_hermitian_part_exact():
    a = random_complex(5, seed=31)
    f = build_frame(a, 3, theta=0.4)
    s, t = 0.37, -1.2
    w = w_matrix(f, s, t)
    expected = np.diag((f.delta_k_block - s).astype(complex))
    assert np.array_equal(0.5 * (w + w.conj().T), expected)


def test_w_matrix_matches_direct_block():
    f = build_frame(A_TILDE, 2)
    lam = 0.3 + 0.8j
    w = w_matrix(f, lam.real, lam.imag)
    direct = (f.u.conj().T @ (A_TILDE - lam * np.eye(3)) @ f.u)[:2, :2]
    assert max_abs(w - direct) <= 1e-9 * (1 + max_abs(A_TILDE))


def test_build_frames_batch_matches_single():
    a = random_complex(5, seed=17)
    thetas = [0.0, 0.9, 3.1, 5.0]
    batch = build_frames(a, 2, thetas)
    for th, fb in zip(thetas, batch):
        f = build_frame(a, 2, th)
        assert np.allclose(fb.deltas, f.deltas, atol=1e-12 * (1 + max_abs(a)))
        assert abs(fb.kappa - f.kappa) <= 1e-10 * (1 + max_abs(a) ** 2)


def test_build_frames_chunking_is_bit_identical(monkeypatch):
    fields = ("theta", "deltas", "delta_k_block", "y_k", "delta_next", "kappa", "degenerate")
    shuffled = np.random.default_rng(4).permutation(np.linspace(0.0, 6.0, 37))
    unpaired = np.r_[theta_grid(36)[:-1], 6.1]  # even, but not antipodal
    # theta_grid(36) is antipodal: only its first half is solved
    for thetas in (shuffled, theta_grid(36), unpaired):
        for a, k in ((random_complex(40, seed=6), 2), (A_TILDE, 1), (random_complex(5, seed=3), 3)):
            n = a.shape[0]
            default = build_frames(a, k, thetas)
            stacks, plans = [], []
            for budget, workers in chunk_settings(n):
                monkeypatch.setattr(frame_module, "_CHUNK_BYTES", budget)
                monkeypatch.setattr(frame_module, "_WORKERS", workers)
                solved = len(thetas) // (2 if frame_module._antipodal(thetas) else 1)
                plans.append(frame_module._chunk_plan(n, solved))
                stacks.append(build_frames(a, k, thetas))
                monkeypatch.undo()
            # one angle per chunk, one chunk, then many chunks on every thread
            assert plans[0] == (1, 1)
            assert plans[1][0] == 1 and plans[1][1] >= solved
            assert plans[2:] == [(2, 1), (3, 2)]
            whole = stacks[1]  # every angle in one chunk
            for name in fields:
                ref = getattr(whole, name)
                assert ref.shape[0] == len(thetas) == len(whole)
                assert np.array_equal(getattr(default, name), ref)
                for stack in stacks:
                    assert np.array_equal(getattr(stack, name), ref)
            if thetas is not shuffled:
                continue
            for i in (0, 17, 36):
                f = build_frame(a, k, thetas[i])
                one = whole[i]
                assert one.theta == f.theta and one.kappa == f.kappa
                assert np.array_equal(one.y_k, f.y_k) and np.array_equal(one.deltas, f.deltas)


def test_solve_thread_rule(monkeypatch):
    # the rule is arithmetic on the environment and the CPU count: no pool
    # is built, so extreme CPU counts start no thread
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    rule = frame_module._solve_threads
    assert rule(os.environ, 2) == 1  # unset: BLAS threads every solve itself
    cases = [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OMP_NUM_THREADS": "3"}, 8, 1),
        ({"MKL_NUM_THREADS": "16"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 1),  # the first one counts
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, 8),
        ({"OPENBLAS_NUM_THREADS": "many", "MKL_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 8, 8),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 8, 1),
        ({"OMP_NUM_THREADS": "4,2"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": ""}, 8, 1),
    ]
    for env, cpus, want in cases:
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert rule(os.environ, cpus) == want, env
        for name in env:
            monkeypatch.delenv(name)
    for cpus in (1, 2, 3, 64, 10 ** 9):
        for blas in (None, "1", "2", "junk"):
            env = {} if blas is None else {"OPENBLAS_NUM_THREADS": blas}
            workers = rule(env, cpus)
            assert 1 <= workers <= cpus
            monkeypatch.setattr(frame_module, "_WORKERS", workers)
            for n in (2, 5, 40, 160, 256, 257, 1000):
                angle = frame_module._SOLVE_ARRAYS * 16 * n * n
                for count in (0, 1, 2, 3, 60, 120, 2621, 10 ** 6):
                    threads, step = frame_module._chunk_plan(n, count)
                    assert 1 <= threads <= min(workers, cpus)
                    assert threads <= max(1, -(-count // step))  # no more threads than chunks
                    if count <= frame_module._chunk_angles(n):
                        assert threads == 1  # one chunk of the whole budget: inline
                    if angle <= frame_module._CHUNK_BYTES:
                        assert threads * step * angle <= frame_module._CHUNK_BYTES
                    else:  # one angle alone exceeds the budget: serial, one angle a chunk
                        assert (threads, step) == (1, 1)
    # the n = 160 check solves 60 angles: two threads of one angle, or one of
    # two, on any CPU count; the 60 angles of n = 5 fit one chunk
    for workers in (2, 128):
        monkeypatch.setattr(frame_module, "_WORKERS", workers)
        assert frame_module._chunk_plan(160, 60) == (2, 1)
        assert frame_module._chunk_plan(300, 60) == (1, 1)
        assert frame_module._chunk_plan(5, 60) == (1, 2621)
        assert frame_module._chunk_plan(40, 60) == (2, 20)
        assert frame_module._chunk_plan(40, 40) == (1, 40)
    monkeypatch.setattr(frame_module, "_WORKERS", 1)
    assert frame_module._chunk_plan(160, 60) == (1, 2)


def test_theta_grids_of_even_count_are_antipodal():
    # arithmetic only: the pair test on every grid, without a solve
    assert all(frame_module._antipodal(theta_grid(c)) for c in range(2, 20_001, 2))
    assert not any(frame_module._antipodal(theta_grid(c)) for c in (1, 3, 37, 121))
    grid = theta_grid(120)
    assert frame_module._antipodal(grid[::-1])
    assert not frame_module._antipodal(np.r_[grid[::2], grid[1::2]])
    assert not frame_module._antipodal(np.r_[grid[:-1], grid[-1] + 1e-9])
    assert not frame_module._antipodal([])


def _normal_with_double_eigenvalue():
    # H(e^{i theta} A) has a double eigenvalue at every angle, at the top on
    # half the angles and at the bottom on the other half; A is normal, so
    # y_k and kappa do not depend on the basis picked inside that eigenspace
    q = random_unitary(3, seed=9)
    lam = 1.0 + 0.5j
    mu = lam - 2.0 * np.exp(0.3j)
    return q @ np.diag([lam, lam, mu]) @ q.conj().T


# Largest differences, in units of eps (1 + max|a|) (squared for kappa),
# between a frame of a paired solve and a direct solve at its angle: the
# derived half solves theta - pi instead of theta, which differ by up to
# 8 eps, and the solved half forms 2k columns of Y instead of k.  Measured
# on the cases below at most 20, 200 and 50; the bounds leave room for
# other BLAS builds.
_PAIRED_EPS = {"deltas": 256, "y_k": 2048, "kappa": 512}


def test_paired_frames_match_direct_solves():
    eps = np.finfo(float).eps
    cases = [(random_complex(5, seed=s), k) for s in (1, 2) for k in (1, 2, 3, 4)]
    cases += [(random_complex(40, seed=6), k) for k in (1, 2, 5)]
    cases += [(_normal_with_double_eigenvalue(), k) for k in (1, 2)]
    degenerate = 0
    for a, k in cases:
        scale = 1.0 + max_abs(a)
        for count in (2, 12, 36):
            stack = build_frames(a, k, theta_grid(count))
            degenerate += int(stack.degenerate.sum())
            for i in range(count):
                f = build_frame(a, k, stack.theta[i])
                one = stack[i]
                assert bool(one.degenerate) == f.degenerate
                assert max_abs(one.deltas - f.deltas) <= _PAIRED_EPS["deltas"] * eps * scale
                assert max_abs(one.y_k - f.y_k) <= _PAIRED_EPS["y_k"] * eps * scale
                assert abs(float(one.kappa) - f.kappa) <= _PAIRED_EPS["kappa"] * eps * scale ** 2
    assert degenerate >= 2 * (1 + 6 + 18)  # the double eigenvalue sits at k, k + 1


def test_paired_half_is_the_antipode_of_the_solved_half():
    a = random_complex(6, seed=12)
    spectra = rotation_spectra(a, theta_grid(40))
    assert np.array_equal(spectra[20:], -spectra[:20, ::-1])
    for k in (1, 2, 4):
        stack = build_frames(a, k, theta_grid(40))
        solved, derived = stack[:20], stack[20:]
        assert np.array_equal(derived.deltas, -solved.deltas[:, ::-1])
        # Y at theta + pi is -Y reversed in both axes: the k x k block of the
        # derived frame is the negated, reversed trailing block at theta
        f = build_frame(a, k, stack.theta[3])
        y = f.u.conj().T @ skew_part(f.a_rot) @ f.u
        tail = -y[::-1, ::-1][:k, :k]
        assert max_abs(derived.y_k[3] - tail) <= 64 * np.finfo(float).eps * (1 + max_abs(a))


def test_even_list_that_is_not_antipodal_matches_build_frame():
    thetas = np.r_[theta_grid(36)[:-1], 6.1]  # even, but the last angle has no pair
    assert not frame_module._antipodal(thetas)
    fields = ("theta", "deltas", "delta_k_block", "y_k", "delta_next", "kappa", "degenerate")
    for a, k in ((random_complex(40, seed=6), 2), (A_TILDE, 1), (random_complex(5, seed=3), 3)):
        stack = build_frames(a, k, thetas)
        for i, theta in enumerate(thetas):
            f = build_frame(a, k, theta)
            for name in fields:
                assert np.array_equal(getattr(stack[i], name), getattr(f, name))


def test_rotation_spectra_matches_frames():
    a = random_complex(4, seed=23)
    thetas = [0.0, 1.3, 4.4]
    spectra = rotation_spectra(a, thetas)
    for row, th in zip(spectra, thetas):
        f = build_frame(a, 1, th)
        assert np.allclose(row, f.deltas, atol=1e-10 * (1 + max_abs(a)))


def test_rotation_spectra_chunking_is_bit_identical(monkeypatch):
    shuffled = np.random.default_rng(5).permutation(np.linspace(0.0, 6.0, 37))
    unpaired = np.r_[theta_grid(36)[:-1], 6.1]  # even, but not antipodal
    for thetas in (shuffled, theta_grid(36), unpaired):
        for a in (random_complex(40, seed=6), A_TILDE, 1e150 * random_complex(5, seed=3)):
            ref = rotation_spectra(a, thetas)
            if not frame_module._antipodal(thetas):
                h = np.exp(1j * thetas)[:, None, None] * a[None, :, :]
                h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
                h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
                assert np.array_equal(ref, np.linalg.eigvalsh(h)[:, ::-1])  # one call
            for budget, workers in chunk_settings(a.shape[0]):
                monkeypatch.setattr(frame_module, "_CHUNK_BYTES", budget)
                monkeypatch.setattr(frame_module, "_WORKERS", workers)
                assert np.array_equal(rotation_spectra(a, thetas), ref)
                monkeypatch.undo()


def test_frame_arrays_read_only():
    f = build_frame(A_TILDE, 1)
    with pytest.raises(ValueError):
        f.deltas[0] = 99.0
