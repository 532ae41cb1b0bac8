import numpy as np
import pytest

from specbound import (
    GALLERY,
    MatrixSpec,
    ParameterError,
    build_frame,
    build_matrix,
    diagonal_case_report,
    diagonal_gamma_prediction,
    epsilon_thresholds,
    g_field,
    gallery_entries,
    hermitian_part,
    region_index,
    s_pm,
    simultaneous_merge_deltas,
    splitmix64_uniforms,
)


def test_toeplitz_entries():
    a = build_matrix(MatrixSpec("toeplitz_eq1"))
    assert a[0, 3] == 1j
    assert a[3, 0] == 4
    assert np.array_equal(np.diag(a), np.ones(4))


def test_a_tilde_entries_and_spectrum_of_hermitian_part():
    a = build_matrix(MatrixSpec("a_tilde"))
    assert np.array_equal(a.real, [[3, 0, -2], [0, 1, -4], [2, 4, 0]])
    assert np.all(a.imag == 0)
    vals = np.linalg.eigvalsh(hermitian_part(a))
    assert np.allclose(sorted(vals, reverse=True), [3, 1, 0], atol=1e-12)


def test_matrix_c_deltas_prefix():
    a = build_matrix(MatrixSpec("matrix_C", {"eps": 0.45}))
    f = build_frame(a, 4)
    assert np.allclose(f.deltas[:5], [941 / 580, 29 / 20, 5 / 4, 1, 0], atol=1e-12)
    assert abs(f.kappa - 0.45**2) <= 1e-12


def test_pair_matrices_have_advertised_structure():
    for name, d1 in (("pair_A", 1.36), ("pair_B", 1.16)):
        a = build_matrix(MatrixSpec(name, {"eps": 0.4}))
        f = build_frame(a, 2)
        assert np.allclose(f.deltas, [d1, 1, 0, 0], atol=1e-12)
        assert abs(f.kappa - 0.16) <= 1e-12


def test_frank_determinant_one():
    for n in range(2, 12):
        a = build_matrix(MatrixSpec("frank", {"n": n}))
        assert abs(np.linalg.det(a) - 1.0) <= 1e-6


def test_frank_structure():
    a = build_matrix(MatrixSpec("frank", {"n": 5}))
    assert a[4, 2] == 0  # below the first subdiagonal
    assert a[1, 0] == 4  # subdiagonal: n + 1 - i
    assert a[0, 4] == 1  # last column of the first row: n + 1 - j


def test_random_matrices_reproducible_and_in_range():
    a1 = build_matrix(MatrixSpec("random_real", {"n": 6, "seed": 9}))
    a2 = build_matrix(MatrixSpec("random_real", {"n": 6, "seed": 9}))
    assert np.array_equal(a1, a2)
    assert np.all(np.abs(a1.real) <= 1.0) and np.all(a1.imag == 0)
    c1 = build_matrix(MatrixSpec("random_complex", {"n": 6, "seed": 9}))
    assert np.all(np.abs(c1.real) <= 1.0) and np.all(np.abs(c1.imag) <= 1.0)
    assert not np.array_equal(c1, build_matrix(MatrixSpec("random_complex", {"n": 6, "seed": 10})))


def test_splitmix64_against_reference_implementation():
    # independent pure-int recomputation of the generator
    def ref_stream(seed, count):
        mask = (1 << 64) - 1
        out = []
        state = seed & mask
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z = z ^ (z >> 31)
            out.append((z >> 11) * 2.0**-53)
        return out

    got = splitmix64_uniforms(12345, 8)
    assert np.array_equal(got, ref_stream(12345, 8))
    assert np.all((got >= 0) & (got < 1))


def test_gallery_validation_and_listing():
    with pytest.raises(ParameterError):
        build_matrix(MatrixSpec("unknown_matrix"))
    with pytest.raises(ParameterError):
        build_matrix(MatrixSpec("pair_A", {"epsilon": 0.3}))
    names = [row[0] for row in gallery_entries()]
    assert names == sorted(GALLERY)


def test_epsilon_thresholds_examples():
    assert np.allclose(epsilon_thresholds([1.36, 1, 0], 2), [0.6, 0.5], atol=1e-12)
    assert np.allclose(epsilon_thresholds([1.16, 1, 0], 2), [0.4, 0.5], atol=1e-12)
    merged = simultaneous_merge_deltas(0.0, 1.0, 4)
    assert np.allclose(epsilon_thresholds(merged, 4), [0.5] * 4, atol=1e-12)
    with pytest.raises(ParameterError):
        epsilon_thresholds([0.0, 1.0], 1)


def test_epsilon_thresholds_below_half_gap():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = np.sort(rng.uniform(-3, 3, size=6))[::-1]
        for k in (1, 2, 3, 4):
            eps = epsilon_thresholds(d, k)
            for j in range(1, k + 1):
                assert eps[j - 1] <= 0.5 * (d[j - 1] - d[k]) + 1e-12


def test_s_pm():
    assert s_pm(2.0, 0.0, 0.6) == (pytest.approx(0.2), pytest.approx(1.8))
    assert s_pm(2.0, 0.0, 0.0) == (0.0, 2.0)
    lo, hi = s_pm(2.0, 0.0, 1.0)
    assert lo == hi == 1.0
    assert s_pm(2.0, 0.0, 1.0001) is None
    with pytest.raises(ParameterError):
        s_pm(0.0, 1.0, 0.1)


def test_region_index_a_hat_bands():
    deltas = [2.0, 1.0]
    # on the curve branches of the 4x4 example with eps = 1.01
    eps = 1.01
    s_lo = (3 - np.sqrt(9 - 8 * eps**2)) / 4
    s_hi = (3 + np.sqrt(9 - 8 * eps**2)) / 4

    def t_branch(s, dj):
        return np.sqrt(eps**2 * (dj - s) / s - (dj - s) ** 2)

    s = s_lo - 1e-3
    assert region_index(deltas, 2, s, t_branch(s, 2.0)) == 1
    s = s_lo + 1e-3
    assert region_index(deltas, 2, s, t_branch(s, 1.0)) == 2
    s = s_hi - 1e-3
    assert region_index(deltas, 2, s, t_branch(s, 1.0)) == 2
    s = s_hi + 1e-3
    assert region_index(deltas, 2, s, t_branch(s, 2.0)) == 1


def test_region_index_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = np.sort(rng.uniform(-2, 2, size=5))[::-1]
        k = int(rng.integers(1, 5))
        s = rng.uniform(-3, 3, size=500)
        t = rng.uniform(-3, 3, size=500)
        got = region_index(d[:k], k, s, t)
        lam = s + 1j * t
        entries = np.empty((500, k))
        for j in range(k):
            prod = np.ones(500)
            for r in range(k):
                if r != j:
                    prod *= np.abs(d[r] - lam) ** 2
            entries[:, j] = (d[j] - s) * prod
        brute = np.argmax(entries, axis=1) + 1
        # ties and near-ties are legitimate either way; ignore them
        sorted_entries = np.sort(entries, axis=1)
        clear = (sorted_entries[:, -1] - sorted_entries[:, -2]) > 1e-9 if k > 1 else np.ones(500, bool)
        assert np.array_equal(got[clear], brute[clear])


def test_region_index_ties_go_to_smaller():
    assert region_index([1.0, 1.0], 2, 0.5, 0.0) == 1
    assert region_index([1.0, 1.0], 2, 0.5, 2.0) == 1


def test_simultaneous_merge_recurrence():
    d = simultaneous_merge_deltas(0.0, 1.0, 4)
    assert np.allclose(d, [941 / 580, 29 / 20, 5 / 4, 1.0, 0.0], atol=1e-12)
    assert np.array_equal(simultaneous_merge_deltas(0.5, 2.0, 1), [2.0, 0.5])
    with pytest.raises(ParameterError):
        simultaneous_merge_deltas(1.0, 1.0, 2)


def test_diagonal_prediction_zeroes():
    deltas = [2.0, 1.0, 0.0]
    eps = 0.4
    assert diagonal_gamma_prediction(deltas, 2, eps, 2.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    lo, hi = s_pm(2.0, 0.0, eps)
    # s_plus of the j=1 cubic lies in region 1
    assert diagonal_gamma_prediction(deltas, 2, eps, hi, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_diagonal_prediction_matches_generic_sign_field():
    a = build_matrix(MatrixSpec("pair_A", {"eps": 0.45}))
    f = build_frame(a, 2)
    deltas = f.deltas[:3]
    s = np.linspace(-0.2, 1.7, 200)
    t = np.linspace(-1.4, 1.4, 200)
    ss, tt = np.meshgrid(s, t)
    predicted = diagonal_gamma_prediction(deltas, 2, 0.45, ss, tt)
    generic = g_field(f, ss, tt)
    # exclude a band around the region-boundary hyperbola and the curve itself
    boundary = np.abs((deltas[0] - ss) * (deltas[1] - ss) - tt**2)
    clear = (boundary > 5e-3) & (np.abs(generic) > 1e-10)
    agree = (predicted > 0) == (generic > 0)
    assert np.all(agree[clear])


def test_diagonal_case_report():
    rep = diagonal_case_report([2.0, 1.0, 0.0], 2, 0.4)
    assert np.allclose(rep.epsilon_thresholds, [1.0, 0.5], atol=1e-12)
    assert len(rep.s_plus) == 2 and len(rep.region_boundaries) == 3
    assert rep.s_plus[0] is not None
    rep2 = diagonal_case_report([2.0, 1.0, 0.0], 2, 0.75)
    assert rep2.s_plus[1] is None  # above the j=2 existence threshold
