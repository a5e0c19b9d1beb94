import numpy as np
import pytest
from scipy.io import wavfile

from ddsd.dsp import AudioBuffer, extract_filterbank, read_wav
from ddsd.dsp.melbank import LOG_FLOOR, N_FFT, mel_filterbank_matrix
from ddsd.errors import DataError
from signals import SR, sine


def test_silence_equals_log_floor():
    fb = extract_filterbank(AudioBuffer(np.zeros(SR)))
    assert fb.shape[1] == 40
    np.testing.assert_array_equal(fb, np.log(LOG_FLOOR))


def test_pure_tone_argmax_band():
    freq = 1000.0
    fb = extract_filterbank(AudioBuffer(sine(freq)))
    weights = mel_filterbank_matrix()
    bin_idx = int(round(freq / (SR / N_FFT)))
    expected_band = int(np.argmax(weights[:, bin_idx]))
    got = np.bincount(np.argmax(fb, axis=1)).argmax()
    assert got == expected_band


def test_white_noise_flat_after_weight_correction():
    # statistical oracle: E[band energy] is proportional to the sum of the
    # band's weights; use non-overlapping frames for an independent-sample
    # variance estimate and check each corrected band within 3 sigma
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.99, 0.99, size=20 * SR)
    fb = extract_filterbank(AudioBuffer(x))
    energy = np.exp(fb)[::3]  # non-overlapping 25 ms windows at 30 ms spacing
    weights = mel_filterbank_matrix().sum(axis=1)
    corrected = energy / weights
    band_means = corrected.mean(axis=0)
    grand = band_means.mean()
    sem = corrected.std(axis=0, ddof=1) / np.sqrt(corrected.shape[0])
    assert np.all(np.abs(band_means - grand) < 3.0 * sem)


def test_all_bands_finite_and_shape():
    rng = np.random.default_rng(1)
    fb = extract_filterbank(AudioBuffer(rng.normal(size=SR) * 0.1))
    assert fb.shape == (98, 40)
    assert np.all(np.isfinite(fb))


def test_every_band_has_weight():
    weights = mel_filterbank_matrix()
    assert np.all(weights.sum(axis=1) > 0)


@pytest.mark.parametrize(
    "rate, samples",
    [
        (8000, np.zeros(8000, dtype=np.int16)),
        (44100, np.zeros(44100, dtype=np.int16)),
        (SR, np.zeros((SR, 2), dtype=np.int16)),
        (SR, np.zeros(SR, dtype=np.float32)),
        (SR, np.full(SR, 128, dtype=np.uint8)),
    ],
    ids=["8kHz", "44.1kHz", "stereo", "float32", "uint8"],
)
def test_read_wav_rejects_other_formats(tmp_path, rate, samples):
    path = tmp_path / "x.wav"
    wavfile.write(path, rate, samples)
    with pytest.raises(DataError, match="expected 16000 Hz mono 16-bit PCM"):
        read_wav(path)
