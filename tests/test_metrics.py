import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsd.errors import DataError
from ddsd.metrics import compute_eer, compute_fa_at_fr, det_curve, evaluate_scores
from oracles import brute_force_eer, brute_force_fa_at_fr


def test_perfect_separation():
    scores = np.array([0.9, 0.8, 0.85, 0.1, 0.2, 0.3])
    labels = np.array([1, 1, 1, 0, 0, 0])
    assert compute_eer(scores, labels) == 0.0
    fa, thr = compute_fa_at_fr(scores, labels)
    assert fa == 0.0
    assert 0.3 < thr < 0.85  # interpolated into the positive-score span


def test_single_class_rejected():
    with pytest.raises(DataError):
        compute_eer(np.array([0.5, 0.6]), np.array([1, 1]))
    with pytest.raises(DataError):
        compute_fa_at_fr(np.array([0.5, 0.6]), np.array([0, 0]))


def test_six_point_toy_matches_brute_force_exactly():
    scores = [0.1, 0.4, 0.35, 0.8, 0.65, 0.7]
    labels = [0, 0, 1, 1, 0, 1]
    assert compute_eer(np.array(scores), np.array(labels)) == brute_force_eer(scores, labels)


def test_eight_point_toy_fa_matches_brute_force_exactly():
    scores = [0.15, 0.3, 0.45, 0.5, 0.55, 0.7, 0.75, 0.9]
    labels = [0, 1, 0, 0, 1, 1, 0, 1]
    got_fa, got_thr = compute_fa_at_fr(np.array(scores), np.array(labels))
    exp_fa, exp_thr = brute_force_fa_at_fr(scores, labels)
    assert got_fa == exp_fa
    assert got_thr == exp_thr


def test_random_classifier_sanity():
    rng = np.random.default_rng(123)
    n = 10_000
    scores = np.concatenate([rng.random(n), rng.random(n)])
    labels = np.concatenate([np.ones(n, dtype=int), np.zeros(n, dtype=int)])
    eer = compute_eer(scores, labels)
    fa, _ = compute_fa_at_fr(scores, labels)
    assert abs(eer - 50.0) < 3.0
    assert abs(fa - 90.0) < 3.0


def test_det_monotonicity():
    rng = np.random.default_rng(7)
    scores = rng.random(500)
    labels = (rng.random(500) < 0.3).astype(int)
    _, fr, fa = det_curve(scores, labels)
    assert np.all(np.diff(fr) >= 0)
    assert np.all(np.diff(fa) <= 0)


@st.composite
def score_sets(draw, max_size=50):
    # scores on a 1e-4 grid: coarse enough that the strictly increasing
    # transforms below cannot collide distinct values in float arithmetic
    n = draw(st.integers(min_value=2, max_value=max_size))
    grid = draw(st.lists(st.integers(min_value=0, max_value=10_000), min_size=n, max_size=n))
    scores = [g / 10_000.0 for g in grid]
    labels = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    if sum(labels) == 0:
        labels[0] = 1
    if sum(labels) == n:
        labels[0] = 0
    return scores, labels


@given(score_sets())
@settings(max_examples=300, deadline=None)
def test_oracle_equivalence_random_sets(data):
    scores, labels = data
    arr_s, arr_l = np.array(scores), np.array(labels)
    assert compute_eer(arr_s, arr_l) == brute_force_eer(scores, labels)
    got = compute_fa_at_fr(arr_s, arr_l)
    exp = brute_force_fa_at_fr(scores, labels)
    assert got[0] == exp[0]
    assert got[1] == exp[1]


@given(score_sets(), st.sampled_from(["affine", "cube", "exp", "logit-ish"]))
@settings(max_examples=150, deadline=None)
def test_strictly_increasing_transform_invariance(data, kind):
    scores, labels = data
    s = np.array(scores)
    l = np.array(labels)
    if kind == "affine":
        t = 3.0 * s + 0.25
    elif kind == "cube":
        t = (s - 0.5) ** 3 + s  # strictly increasing on [0,1]
    elif kind == "exp":
        t = np.exp(2.0 * s)
    else:
        t = np.log((s + 0.5) / (2.5 - s))
    assert compute_eer(t, l) == compute_eer(s, l)
    assert compute_fa_at_fr(t, l)[0] == compute_fa_at_fr(s, l)[0]


@given(score_sets())
@settings(max_examples=150, deadline=None)
def test_eer_symmetry_negate_and_swap(data):
    scores, labels = data
    s = np.array(scores)
    l = np.array(labels)
    direct = compute_eer(s, l)
    flipped = compute_eer(-s, 1 - l)
    assert direct == pytest.approx(flipped, abs=1e-9)


def test_eval_report_write(tmp_path):
    scores = np.array([0.9, 0.8, 0.1, 0.2, 0.7, 0.3])
    labels = np.array([1, 1, 0, 0, 1, 0])
    report = evaluate_scores(scores, labels)
    report.write(tmp_path / "report")
    text = (tmp_path / "report.txt").read_text()
    assert "EER: 0.00 %" in text
    assert "FA@10%FR: 0.00 %" in text
    import csv as _csv
    import json as _json

    payload = _json.loads((tmp_path / "report.json").read_text())
    assert payload["eer"] == 0.0
    with open(tmp_path / "report.det.csv") as f:
        rows = list(_csv.reader(f))
    assert rows[0] == ["threshold", "FR%", "FA%"]
    assert len(rows) == len(report.det_points) + 1


@pytest.mark.parametrize("fr_target", [1.0, 1.5])
def test_fa_at_fr_of_one_or_more_rejects_everything(fr_target):
    rng = np.random.default_rng(17)
    scores = rng.random(40)
    labels = (rng.random(40) < 0.4).astype(int)
    fa, thr = compute_fa_at_fr(scores, labels, fr_target)
    assert fa == 0.0
    assert thr == np.nextafter(scores.max(), np.inf)  # just above the top score
