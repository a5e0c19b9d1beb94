import numpy as np

from ddsd.dsp import AudioBuffer, extract_vad, frame_speech_probability
from ddsd.dsp.audio import frame_centers
from signals import SR, tone_silence_alternation


def test_tone_silence_alternation_accuracy():
    x, mask = tone_silence_alternation()
    vad = extract_vad(AudioBuffer(x))
    centers = frame_centers(len(x))
    truth = mask[centers]
    keep = np.ones(len(centers), dtype=bool)
    for edge in np.nonzero(np.diff(mask.astype(int)))[0]:
        keep &= np.abs(centers - edge) > 0.030 * SR  # exclude +/-30 ms boundaries
    accuracy = ((vad > 0.5) == truth)[keep].mean()
    assert accuracy > 0.95


def test_all_silence_low_vad():
    vad = extract_vad(AudioBuffer(np.zeros(SR)))
    assert vad.mean() < 0.1


def test_click_no_speech_island():
    # single 5 ms click: smoothing plus the frame gates keep vad below 0.5
    x = np.zeros(SR)
    x[8000:8080] = 0.9
    vad = extract_vad(AudioBuffer(x))
    assert np.all(vad < 0.5)


def test_posterior_range_and_determinism():
    rng = np.random.default_rng(11)
    x, _ = tone_silence_alternation(reps=2)
    x = x + 0.01 * rng.normal(size=len(x))
    buf = AudioBuffer(x)
    v1 = extract_vad(buf)
    v2 = extract_vad(AudioBuffer(x))
    assert np.all((v1 >= 0.0) & (v1 <= 1.0))
    np.testing.assert_array_equal(v1, v2)


def test_frame_probability_separates_tone_from_silence():
    x, mask = tone_silence_alternation(reps=2)
    p = frame_speech_probability(AudioBuffer(x))
    centers = frame_centers(len(x))
    truth = mask[centers]
    interior = np.ones(len(centers), dtype=bool)
    for edge in np.nonzero(np.diff(mask.astype(int)))[0]:
        interior &= np.abs(centers - edge) > 0.030 * SR
    assert p[truth & interior].mean() > 0.9
    assert p[~truth & interior].mean() < 0.1
