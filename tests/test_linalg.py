import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh as oracle_eigh
from scipy.linalg import subspace_angles

from microclust import jacobi_eigh, kmeans

# The oracle is scipy's LAPACK copy with the QR driver (dsyev); jacobi_eigh
# ships numpy's copy with divide-and-conquer (dsyevd).
ORACLE_DRIVER = "ev"


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_jacobi_matches_lapack_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 51))
        a = random_symmetric(rng, n)
        w, v = jacobi_eigh(a)
        w_oracle = oracle_eigh(a, eigvals_only=True, driver=ORACLE_DRIVER)
        np.testing.assert_allclose(w, w_oracle, atol=1e-8)
        # eigenpairs actually solve the problem
        np.testing.assert_allclose(a @ v, v * w, atol=1e-8)
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-10)


def test_jacobi_eigenspaces_match_oracle_subspaces():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 51))
        a = random_symmetric(rng, n)
        w, v = jacobi_eigh(a)
        w_o, v_o = oracle_eigh(a, driver=ORACLE_DRIVER)
        # group nearly-equal eigenvalues and compare their invariant subspaces
        scale = max(1.0, float(np.abs(w_o).max()))
        start = 0
        for i in range(1, n + 1):
            if i == n or w_o[i] - w_o[i - 1] > 1e-6 * scale:
                angles = subspace_angles(v[:, start:i], v_o[:, start:i])
                assert angles.max() < 1e-6
                start = i


def test_jacobi_repeated_eigenvalues():
    a = np.diag([2.0, 2.0, 5.0])
    w, v = jacobi_eigh(a)
    np.testing.assert_allclose(w, [2.0, 2.0, 5.0])
    np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-12)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_jacobi_rejects_nonfinite_and_empty():
    with pytest.raises(ValueError, match="finite"):
        jacobi_eigh(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="nonempty"):
        jacobi_eigh(np.zeros((0, 0)))


def test_jacobi_deterministic_signs():
    rng = np.random.default_rng(9)
    a = random_symmetric(rng, 15)
    w1, v1 = jacobi_eigh(a)
    w2, v2 = jacobi_eigh(a)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)
    for j in range(15):
        lead = int(np.argmax(np.abs(v1[:, j])))
        assert v1[lead, j] > 0


def _one_lapack_call(a):
    w, v = np.linalg.eigh(a)
    lead = np.argmax(np.abs(v), axis=0)
    v *= np.where(v[lead, np.arange(v.shape[1])] < 0, -1.0, 1.0)
    return w, v


def test_jacobi_solves_each_component_alone():
    # A connected matrix is one LAPACK call, bit for bit.
    rng = np.random.default_rng(11)
    a = random_symmetric(rng, 20)
    for got, want in zip(jacobi_eigh(a), _one_lapack_call(a)):
        np.testing.assert_array_equal(got, want)
    # Components of sizes 6, 1, 9, 4, 1, 6 on interleaved members; the last
    # repeats the first block, so its eigenvalues tie the first's exactly.
    sizes = [6, 1, 9, 4, 1, 6]
    bounds = np.cumsum(sizes)[:-1]
    members = [np.sort(c) for c in np.split(rng.permutation(sum(sizes)), bounds)]
    blocks = [random_symmetric(rng, s) for s in sizes]
    blocks[5] = blocks[0]
    m = sum(sizes)
    a = np.zeros((m, m))
    for idx, block in zip(members, blocks):
        a[np.ix_(idx, idx)] = block
    # Expected: each block's own eigenpairs, zero outside the block, in
    # ascending order with ties kept in order of the component's smallest member.
    expected = []
    for idx in sorted(members, key=lambda idx: idx[0]):
        wb, vb = _one_lapack_call(a[np.ix_(idx, idx)])
        for j in range(idx.size):
            col = np.zeros(m)
            col[idx] = vb[:, j]
            expected.append((wb[j], col))
    expected.sort(key=lambda e: e[0])
    w, v = jacobi_eigh(a)
    np.testing.assert_array_equal(w, [e[0] for e in expected])
    np.testing.assert_array_equal(v, np.column_stack([e[1] for e in expected]))
    np.testing.assert_allclose(w, oracle_eigh(a, eigvals_only=True, driver=ORACLE_DRIVER), atol=1e-8)


def test_jacobi_symmetry_check_makes_one_temporary():
    m = 400
    a = np.zeros((m, m))
    a[0, 1] = 2e-12
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes  # np.allclose peaked near 2.2x
    a = np.zeros((3, 3))
    a[0, 1] = 1e-12  # the tolerance itself is still accepted
    jacobi_eigh(a)


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(2)
    x = np.vstack([rng.standard_normal((40, 2)), rng.standard_normal((40, 2)) + 100])
    labels, inertia = kmeans(x, 2, seed=0)
    assert np.unique(labels[:40]).size == 1
    assert np.unique(labels[40:]).size == 1
    assert labels[0] != labels[40]
    assert inertia < 500


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 4))
    l1, i1 = kmeans(x, 5, seed=7)
    l2, i2 = kmeans(x, 5, seed=7)
    np.testing.assert_array_equal(l1, l2)
    assert i1 == i2
    assert l1.dtype == np.int32


def test_kmeans_near_tie_keeps_earliest_restart(monkeypatch):
    from microclust import linalg

    first, second = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    x = np.arange(8.0).reshape(4, 2)
    # Two restart inertias measured on two-spirals-300 (gbsc, k = 3) that
    # differ only in the last digits: the earlier restart is kept.
    restarts = iter([(first, 5.2636241688762029), (second, 5.263624168876186)])
    monkeypatch.setattr(linalg, "_lloyd", lambda *args: next(restarts))
    labels, inertia = kmeans(x, 2, seed=0, n_restarts=2)
    np.testing.assert_array_equal(labels, first)
    assert inertia == 5.2636241688762029
    # A real improvement still wins.
    restarts = iter([(first, 1.0), (second, 1.0 - 1e-6)])
    labels, inertia = kmeans(x, 2, seed=0, n_restarts=2)
    np.testing.assert_array_equal(labels, second)


def test_kmeans_stops_at_zero_inertia(monkeypatch):
    from microclust import linalg

    # Three distinct points, four copies each: the first restart's k-means++
    # seeds one center per point, and no later restart can beat inertia 0.
    x = np.repeat(np.eye(3), 4, axis=0)
    calls = []
    real = linalg._lloyd
    monkeypatch.setattr(linalg, "_lloyd", lambda *args: calls.append(1) or real(*args))
    labels, inertia = kmeans(x, 3, seed=0)
    assert inertia == 0.0 and len(calls) == 1
    assert np.unique(labels).size == 3
    assert (labels.reshape(3, 4) == labels[::4, None]).all()


def test_kmeans_c_equals_n():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 2))
    labels, inertia = kmeans(x, 8, seed=0)
    assert np.unique(labels).size == 8
    assert inertia < 1e-20


def test_kmeans_duplicate_points():
    x = np.zeros((10, 2))
    labels, _ = kmeans(x, 3, seed=0)
    assert np.unique(labels).size == 3  # empty-cluster repair keeps all 3 alive


def test_kmeans_validates_cluster_count():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4, seed=0)
