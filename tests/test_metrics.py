import numpy as np
import pytest

from microclust import acc, ari, contingency_table, metrics_report, nmi

from conftest import brute_force_acc, brute_force_ari


def test_contingency_table_basic():
    table = contingency_table([0, 0, 1, 1], [0, 1, 0, 1])
    np.testing.assert_array_equal(table.counts, [[1, 1], [1, 1]])
    np.testing.assert_array_equal(table.row_marginals, [2, 2])
    np.testing.assert_array_equal(table.col_marginals, [2, 2])
    assert table.n == 4


def test_contingency_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="lengths differ"):
        contingency_table([0, 1], [0, 1, 2])


def test_ari_identical_and_permuted():
    truth = [0, 0, 1, 1, 2, 2]
    assert ari(truth, truth) == 1.0
    assert ari([2, 2, 0, 0, 1, 1], truth) == 1.0


def test_ari_crossed_pairs_exact():
    pred, truth = [0, 0, 1, 1], [0, 1, 0, 1]
    expected = brute_force_ari(pred, truth)
    np.testing.assert_allclose(ari(pred, truth), expected)
    np.testing.assert_allclose(ari(pred, truth), -0.5)


def test_ari_matches_pair_counting_randomized():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        pred = rng.integers(0, 4, n)
        truth = rng.integers(0, 3, n)
        np.testing.assert_allclose(ari(pred, truth), brute_force_ari(pred, truth), atol=1e-12)


def test_ari_independent_labelings_near_zero():
    rng = np.random.default_rng(99)
    vals = []
    for _ in range(100):
        pred = rng.integers(0, 5, 1000)
        truth = rng.integers(0, 5, 1000)
        vals.append(ari(pred, truth))
    assert max(abs(v) for v in vals) < 0.1


def test_nmi_identical():
    assert nmi([0, 1, 2, 0], [5, 6, 7, 5]) == pytest.approx(1.0)


def test_nmi_constant_prediction_zero():
    assert nmi([1, 1, 1, 1], [0, 1, 2, 3]) == 0.0
    assert nmi([1, 1, 1, 1], [0, 0, 0, 0]) == 0.0


def test_nmi_crossed_pairs_zero():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0


def test_nmi_hand_computed_table():
    # counts [[2,1],[0,1]]: direct MI / entropy evaluation with natural logs
    pred = [0, 0, 0, 1]
    truth = [0, 0, 1, 1]
    n = 4
    pij = np.array([[2, 1], [0, 1]]) / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    mi = sum(
        pij[i, j] * np.log(pij[i, j] / (pi[i] * pj[j]))
        for i in range(2)
        for j in range(2)
        if pij[i, j] > 0
    )
    h_pred = -(pi * np.log(pi)).sum()
    h_true = -(pj * np.log(pj)).sum()
    np.testing.assert_allclose(nmi(pred, truth), mi / np.sqrt(h_pred * h_true), rtol=1e-12)


def test_nmi_bounds_randomized():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        pred = rng.integers(0, 6, n)
        truth = rng.integers(0, 6, n)
        v = nmi(pred, truth)
        assert 0.0 <= v <= 1.0


def test_acc_examples():
    assert acc([0, 1, 2], [5, 6, 7]) == 1.0
    assert acc([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0  # permutation recovered
    assert acc([0, 0, 0, 1], [0, 0, 1, 1]) == 0.75


def test_acc_matches_brute_force_randomized():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        r = int(rng.integers(1, 8))
        c = int(rng.integers(1, 8))
        pred = rng.integers(0, r, n)
        truth = rng.integers(0, c, n)
        np.testing.assert_allclose(acc(pred, truth), brute_force_acc(pred, truth))


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    pred = rng.integers(0, 4, 80)
    truth = rng.integers(0, 3, 80)
    perm_p = rng.permutation(4)
    perm_t = rng.permutation(3)
    assert ari(perm_p[pred], truth) == pytest.approx(ari(pred, truth))
    assert nmi(pred, perm_t[truth]) == pytest.approx(nmi(pred, truth))
    assert acc(perm_p[pred], perm_t[truth]) == pytest.approx(acc(pred, truth))


def test_metrics_report_schema_conformant():
    pytest.importorskip("jsonschema")
    import json
    from importlib import resources

    import jsonschema

    rep = metrics_report([0, 0, 1, 1], [0, 1, 0, 1], runtime_ms=12.5)
    schema = json.loads(
        resources.files("microclust").joinpath("schemas/metrics.schema.json").read_text()
    )
    jsonschema.validate(rep, schema)
    assert rep["n"] == 4 and rep["C_pred"] == 2 and rep["C_true"] == 2


def test_metrics_report_builds_one_table(monkeypatch):
    from microclust import metrics

    rng = np.random.default_rng(8)
    pred = rng.integers(0, 4, 120)
    truth = rng.integers(0, 3, 120)
    calls = []
    real = metrics.contingency_table
    monkeypatch.setattr(
        metrics, "contingency_table", lambda *args: calls.append(1) or real(*args)
    )
    rep = metrics_report(pred, truth)
    assert len(calls) == 1
    assert rep["ari"] == ari(pred, truth)
    assert rep["nmi"] == nmi(pred, truth)
    assert rep["acc"] == acc(pred, truth)
