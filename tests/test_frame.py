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
    w_matrix,
)
from conftest import random_complex, random_hermitian, random_unitary

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
    assert max_abs(f.y) <= 1e-12 * (1 + max_abs(h))
    assert f.kappa <= 1e-20 * (1 + max_abs(h)) ** 2


def test_frame_block_structure():
    a = random_complex(6, seed=8)
    f = build_frame(a, 3, theta=0.7)
    scale = 1 + max_abs(a)
    assert max_abs(f.y + f.y.conj().T) <= 1e-10 * scale
    # the upper-right block mirrors the coupling block exactly
    assert np.array_equal(f.y[:3, 3:], -f.v_k.conj().T)
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
    alpha = f.y[0, 0].imag
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
    thetas = np.random.default_rng(4).permutation(np.linspace(0.0, 6.0, 37))
    for a, k in ((random_complex(40, seed=6), 2), (A_TILDE, 1), (random_complex(5, seed=3), 3)):
        default = build_frames(a, k, thetas)
        monkeypatch.setattr(frame_module, "_CHUNK_BYTES", 1)  # one angle per chunk
        assert frame_module._chunk_angles(a.shape[0]) == 1
        single = build_frames(a, k, thetas)
        monkeypatch.setattr(frame_module, "_CHUNK_BYTES", 2 ** 40)  # every angle in one chunk
        assert frame_module._chunk_angles(a.shape[0]) >= len(thetas)
        whole = build_frames(a, k, thetas)
        monkeypatch.undo()
        for name in fields:
            ref = getattr(whole, name)
            assert ref.shape[0] == len(thetas) == len(whole)
            assert np.array_equal(getattr(single, name), ref)
            assert np.array_equal(getattr(default, name), ref)
        for i in (0, 17, 36):
            f = build_frame(a, k, thetas[i])
            one = whole[i]
            assert one.theta == f.theta and one.kappa == f.kappa
            assert np.array_equal(one.y_k, f.y_k) and np.array_equal(one.deltas, f.deltas)


def test_rotation_spectra_matches_frames():
    a = random_complex(4, seed=23)
    thetas = [0.0, 1.3, 4.4]
    spectra = rotation_spectra(a, thetas)
    for row, th in zip(spectra, thetas):
        f = build_frame(a, 1, th)
        assert np.allclose(row, f.deltas, atol=1e-10 * (1 + max_abs(a)))


def test_rotation_spectra_chunking_is_bit_identical(monkeypatch):
    thetas = np.random.default_rng(5).permutation(np.linspace(0.0, 6.0, 37))
    for a in (random_complex(40, seed=6), A_TILDE, 1e150 * random_complex(5, seed=3)):
        h = np.exp(1j * thetas)[:, None, None] * a[None, :, :]
        h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
        h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
        ref = np.linalg.eigvalsh(h)[:, ::-1]  # every angle in one call
        assert np.array_equal(rotation_spectra(a, thetas), ref)
        monkeypatch.setattr(frame_module, "_CHUNK_BYTES", 1)  # one angle per chunk
        assert np.array_equal(rotation_spectra(a, thetas), ref)
        monkeypatch.undo()


def test_frame_arrays_read_only():
    f = build_frame(A_TILDE, 1)
    with pytest.raises(ValueError):
        f.deltas[0] = 99.0
