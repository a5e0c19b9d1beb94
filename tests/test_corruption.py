import copy

import numpy as np
import pytest

from ddsd.corruption import corrupt_missing
from ddsd.errors import DataError
from ddsd.fusion import EmbeddingSet, FusionSample, ScoreSet
from ddsd.modalities import EMBEDDING_DIMS, MODALITIES


def _samples(n, lacking=(), seed=0):
    """n samples holding every modality; every other one lacks the modalities in lacking."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        held = [m for m in MODALITIES if not (i % 2 and m in lacking)]
        scores = {m: float(rng.uniform()) for m in held}
        embeddings = {m: rng.normal(size=EMBEDDING_DIMS[m]) for m in held}
        out.append(FusionSample(f"u{i}", i % 2, ScoreSet(scores), EmbeddingSet(embeddings)))
    return out


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.utterance_id, g.label) == (w.utterance_id, w.label)
        for a, b in ((g.scores.scores, w.scores.scores), (g.embeddings.embeddings, w.embeddings.embeddings)):
            assert list(a) == list(b)
            for m in a:
                assert (a[m] is None) == (b[m] is None)
                if a[m] is not None:
                    np.testing.assert_array_equal(a[m], b[m])


def _dropped(corrupted, original, m):
    """Which samples held m and lost it."""
    return [
        m in s.scores.scores and c.scores.scores[m] is None and s.scores.scores[m] is not None
        for c, s in zip(corrupted, original)
    ]


def test_equal_seeds_give_equal_output():
    samples = _samples(200)
    (a, rates_a), (b, rates_b) = corrupt_missing(samples, seed=3), corrupt_missing(samples, seed=3)
    _assert_same(a, b)
    assert rates_a == rates_b
    assert all(type(r) is float for r in rates_a.values())


def test_different_seeds_give_different_masks():
    samples = _samples(200)
    a, _ = corrupt_missing(samples, seed=3)
    b, _ = corrupt_missing(samples, seed=4)
    assert [_dropped(a, samples, m) for m in MODALITIES] != [_dropped(b, samples, m) for m in MODALITIES]


def test_input_samples_are_left_unchanged():
    samples = _samples(100, lacking=("text",))
    before = copy.deepcopy(samples)
    out, _ = corrupt_missing(samples, rate=0.5, seed=1)
    _assert_same(samples, before)
    assert any(any(_dropped(out, samples, m)) for m in MODALITIES)


def test_rate_zero_is_the_identity():
    samples = _samples(50, lacking=("asr",))
    out, rates = corrupt_missing(samples, rate=0.0, seed=9)
    _assert_same(out, samples)
    assert rates == {m: 0.0 for m in MODALITIES}


@pytest.mark.parametrize("rate", [-0.1, 1.0])
def test_rate_outside_zero_to_one_raises(rate):
    with pytest.raises(DataError, match="corruption rate"):
        corrupt_missing(_samples(4), rate=rate)


def test_a_modality_a_sample_lacks_is_not_dropped_or_counted():
    samples = _samples(400, lacking=("text",))
    out, rates = corrupt_missing(samples, rate=0.3, seed=5)
    for c, s in zip(out, samples):
        assert ("text" in c.scores.scores) == ("text" in s.scores.scores)
        assert ("text" in c.embeddings.embeddings) == ("text" in s.embeddings.embeddings)
        for m in MODALITIES:  # a drop takes the score and the embedding together
            assert (c.scores.scores.get(m) is None) == (c.embeddings.embeddings.get(m) is None)
    for m in MODALITIES:
        holders = [s for s in samples if m in s.scores.scores]
        assert rates[m] == sum(_dropped(out, samples, m)) / len(holders)
    assert len([s for s in samples if "text" in s.scores.scores]) == 200
