import numpy as np

from specbound import MatrixSpec, build_matrix


def bisect_root(f, lo, hi, iters=80):
    """Plain bisection; f(lo) and f(hi) must have opposite signs."""
    flo = f(lo)
    fhi = f(hi)
    assert flo * fhi <= 0.0, "root is not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def random_complex(n, seed):
    return build_matrix(MatrixSpec("random_complex", {"n": n, "seed": seed}))


def random_real(n, seed):
    return build_matrix(MatrixSpec("random_real", {"n": n, "seed": seed}))


def random_hermitian(n, seed):
    a = random_complex(n, seed)
    return 0.5 * (a + a.conj().T)


def random_unitary(n, seed):
    q, r = np.linalg.qr(random_complex(n, seed))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def chunk_settings(n):
    """(_CHUNK_BYTES, _WORKERS) pairs of the chunked angle solve at order n.

    One angle per chunk, every angle in one chunk, and two and three threads
    that share budgets of 2 and 7 angles (1 and 2 angles per chunk), so many
    chunks are solved on a pool even at small n.
    """
    import specbound.frame as frame_module

    angle = frame_module._SOLVE_ARRAYS * np.dtype(np.complex128).itemsize * n * n
    return [(1, 1), (2 ** 40, 1), (2 * angle, 2), (7 * angle, 3)]
