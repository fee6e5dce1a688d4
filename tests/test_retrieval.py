"""Retrieval metrics against hand and Monte Carlo oracles."""

import csv

import numpy as np
import pytest

import trifuse.dump as dump
from trifuse.retrieval import (average_precision, evaluate,
                               format_table, pairwise_distances, write_csv)


def test_average_precision_five_sixths_fixture():
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
    ap = average_precision(np.array([True, False, True]))
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_average_precision_edge_lists():
    assert average_precision(np.array([True, True, True])) == 1.0
    assert average_precision(np.array([False, False, True])) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        average_precision(np.array([False, False]))


def test_pairwise_distances_columns():
    a = np.array([[0.0, 3.0]])
    b = np.array([[0.0, 4.0]])
    want = np.array([[0.0, 4.0], [3.0, 1.0]])
    assert np.allclose(pairwise_distances(a, b), want)


def _hand_case():
    query = np.array([[0.0, 0.31]])
    query_ids = np.array([1, 2])
    query_cams = np.array([0, 1])
    gallery = np.array([[0.1, 0.2, 0.3]])
    gallery_ids = np.array([1, 2, 1])
    gallery_cams = np.array([1, 0, 0])
    return query, query_ids, query_cams, gallery, gallery_ids, gallery_cams


def test_evaluate_hand_case():
    # query 1 (id 1, cam 0): gallery entry at 0.3 shares id and camera and
    # is excluded; remaining ranks are [0.1 hit, 0.2 miss], AP 1.
    # query 2 (id 2, cam 1): ranks [0.3 miss, 0.2 hit, 0.1 miss], AP 1/2.
    res = evaluate(*_hand_case())
    assert res.mean_ap == pytest.approx(0.75, abs=1e-15)
    assert res.num_queries == 2
    assert res.num_skipped == 0
    assert res.cmc_at(1) == pytest.approx(0.5)
    assert res.cmc_at(2) == pytest.approx(1.0)


def test_cmc_at_reads_the_last_rank_past_the_end_and_refuses_k_below_one():
    res = evaluate(*_hand_case())
    assert res.cmc_at(len(res.cmc) + 5) == float(res.cmc[-1])
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k={k}"):
            res.cmc_at(k)


def test_same_camera_exclusion_changes_ranking():
    # nearest gallery entry is an exact copy of the query with the same id
    # and camera; it must not count as a free rank-1 hit
    query = np.array([[0.0]])
    gallery = np.array([[0.0, 0.5, 1.0]])
    res = evaluate(query, np.array([7]), np.array([0]),
                   gallery, np.array([7, 3, 7]), np.array([0, 1, 1]))
    assert res.mean_ap == pytest.approx(0.5, abs=1e-15)


def test_cmc_monotone_and_saturating():
    rng = np.random.default_rng(0)
    query = rng.normal(size=(4, 10))
    gallery = rng.normal(size=(4, 30))
    res = evaluate(query, rng.integers(0, 5, 10), np.zeros(10, int),
                   gallery, rng.integers(0, 5, 30), np.ones(30, int))
    assert np.all(np.diff(res.cmc) >= 0)
    assert res.cmc[-1] == pytest.approx(1.0)
    assert 0.0 <= res.mean_ap <= 1.0


def test_orthogonal_rotation_leaves_metrics_unchanged():
    rng = np.random.default_rng(1)
    f = 6
    query = rng.normal(size=(f, 8))
    gallery = rng.normal(size=(f, 24))
    q_ids = rng.integers(0, 4, 8)
    g_ids = rng.integers(0, 4, 24)
    rot, _ = np.linalg.qr(rng.normal(size=(f, f)))
    a = evaluate(query, q_ids, np.zeros(8, int),
                 gallery, g_ids, np.ones(24, int))
    b = evaluate(rot @ query, q_ids, np.zeros(8, int),
                 rot @ gallery, g_ids, np.ones(24, int))
    assert a.mean_ap == pytest.approx(b.mean_ap, abs=1e-12)
    assert np.allclose(a.cmc, b.cmc)


def test_matchless_queries_are_skipped():
    query = np.array([[0.0, 1.0]])
    gallery = np.array([[0.2, 0.8]])
    res = evaluate(query, np.array([1, 9]), np.array([0, 0]),
                   gallery, np.array([1, 1]), np.array([1, 1]))
    assert res.num_queries == 1
    assert res.num_skipped == 1
    with pytest.raises(ValueError):
        evaluate(query, np.array([8, 9]), np.array([0, 0]),
                 gallery, np.array([1, 1]), np.array([1, 1]))


def test_tie_breaking_is_stable():
    query = np.array([[0.0]])
    gallery = np.array([[1.0, -1.0]])  # both at distance 1
    res = evaluate(query, np.array([5]), np.array([0]),
                   gallery, np.array([3, 5]), np.array([1, 1]))
    assert res.mean_ap == pytest.approx(0.5)
    flipped = evaluate(query, np.array([5]), np.array([0]),
                       gallery[:, ::-1], np.array([5, 3]), np.array([1, 1]))
    assert flipped.mean_ap == pytest.approx(1.0)


def test_random_embeddings_score_near_class_prior():
    rng = np.random.default_rng(42)
    classes, per_gallery, per_query, feat = 4, 40, 4, 8
    g_ids = np.repeat(np.arange(classes), per_gallery)
    q_ids = np.repeat(np.arange(classes), per_query)
    maps = []
    for _ in range(50):
        res = evaluate(rng.normal(size=(feat, len(q_ids))), q_ids,
                       np.zeros(len(q_ids), int),
                       rng.normal(size=(feat, len(g_ids))), g_ids,
                       np.ones(len(g_ids), int))
        maps.append(res.mean_ap)
    assert abs(np.mean(maps) - 1.0 / classes) < 0.05


def test_report_serialization_round_trip(tmp_path):
    res = evaluate(*_hand_case())
    text = format_table(res)
    assert "mAP" in text and "0.7500" in text

    path = tmp_path / "report.csv"
    write_csv(str(path), res)
    with open(path, newline="") as fh:
        rows = {r[0]: r[1] for r in csv.reader(fh)}
    assert float(rows["mAP"]) == res.mean_ap
    assert float(rows["cmc@1"]) == res.cmc_at(1)
    assert int(rows["queries"]) == 2


def test_report_write_failing_midway_keeps_the_previous_report(tmp_path,
                                                               monkeypatch):
    res = evaluate(*_hand_case())
    path = tmp_path / "report.csv"
    write_csv(str(path), res)
    before = path.read_bytes()
    assert before.startswith(b"metric,value\r\nmAP,")

    def fail(fd):
        raise OSError("no space left on device")

    # the new bytes are written, then syncing them fails
    monkeypatch.setattr(dump.os, "fsync", fail)
    res.mean_ap = 0.25
    with pytest.raises(OSError):
        write_csv(str(path), res)
    assert path.read_bytes() == before
