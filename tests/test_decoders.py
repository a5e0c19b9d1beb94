"""Corrupt model and record files: a decoder either loads them or raises DataError.

Deterministic byte-level fuzzing: truncation at every byte of a saved EL
fusion model's header and at every 8-byte boundary after it, trailing
bytes, every single-bit flip in the header of an EL fusion model and of an
ASR component model, corrupt record files, and cut or foreign WAV files.
Any other exception type escaping a loader is a bug.
"""

import json
import os
import struct
import warnings

import numpy as np
import pytest

from ddsd.components import ComponentModel, Standardizer, build_component, infer_component_batch
from ddsd.data import Record, read_records, write_records
from ddsd.dsp.audio import SAMPLE_RATE, read_wav, write_wav
from ddsd.errors import DataError
from ddsd.fusion import FusionModel, build_fusion, input_width
from ddsd.nn import Dense, ModelGraph


def _load_or_none(load, path, data):
    """What the loader returns for these bytes, or None if it raised DataError."""
    path.write_bytes(bytes(data))
    try:
        return load(path)
    except DataError:
        return None


def _header_end(raw):
    return 16 + struct.unpack_from("<I", raw, 12)[0]


@pytest.fixture(scope="module")
def el_model_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("decoders") / "el.ddm"
    build_fusion("EL", ("asr",), seed=0).save(path)
    return path.read_bytes()


def test_model_truncated_in_header_raises_data_error(el_model_bytes, tmp_path):
    path = tmp_path / "cut.ddm"
    for k in range(_header_end(el_model_bytes) + 1):
        assert _load_or_none(FusionModel.load, path, el_model_bytes[:k]) is None, k


def test_model_cut_inside_its_blobs_raises_data_error(el_model_bytes, tmp_path):
    path = tmp_path / "cut.ddm"
    path.write_bytes(el_model_bytes)
    # shortening the one file in place, from the end, keeps the sweep fast
    for k in range(len(el_model_bytes) - 8, _header_end(el_model_bytes) - 1, -8):
        os.truncate(path, k)
        with pytest.raises(DataError, match="truncated"):
            FusionModel.load(path)


def test_model_with_trailing_bytes_raises_data_error(el_model_bytes, tmp_path):
    path = tmp_path / "long.ddm"
    for tail in (b"\x00", bytes(8), bytes(16 * 8)):
        path.write_bytes(el_model_bytes + tail)
        with pytest.raises(DataError, match="trailing bytes"):
            FusionModel.load(path)


def test_model_of_container_version_1_raises_data_error(el_model_bytes, tmp_path):
    path = tmp_path / "v1.ddm"
    path.write_bytes(el_model_bytes[:8] + struct.pack("<I", 1) + el_model_bytes[12:])
    with pytest.raises(DataError, match="unsupported container version 1"):
        FusionModel.load(path)


def _flip_header_bits(raw, path, load, check):
    """Flip each bit of every header byte, binary prefix and JSON alike, one at a time.

    check runs on every model that still loads; returns how many loaded.
    """
    end = _header_end(raw)
    loaded = 0
    for k in range(end):
        data = bytearray(raw)
        for bit in range(8):
            data[k] ^= 1 << bit
            model = _load_or_none(load, path, data)
            data[k] ^= 1 << bit
            if model is not None:
                check(model)
                loaded += 1
    assert loaded < end // 4  # most flips must be caught, not silently accepted
    return loaded


def test_model_bit_flips_in_header_load_or_raise_data_error(el_model_bytes, tmp_path):
    # a model that loads must also run on inputs of the width it declares
    _flip_header_bits(el_model_bytes, tmp_path / "flip.ddm", FusionModel.load,
                      lambda model: model.graph.forward(np.zeros((2, input_width(model)))))


def test_component_bit_flips_in_header_keep_the_embedding_width(tmp_path):
    path = tmp_path / "asr.ddm"
    model = build_component("asr", seed=0)
    model.standardizer = Standardizer(mean=np.linspace(-1, 1, 8), std=np.linspace(1, 2, 8))
    model.save(path)
    # a file written before the rng seed left the header: flips of its ignored value must load
    raw = _with_rng_seed(path.read_bytes())
    feats = [np.random.default_rng(0).normal(size=8) for _ in range(3)]

    def check(loaded):
        scores, embeddings = infer_component_batch(loaded, feats)
        assert scores.shape == (3,) and embeddings.shape == (3, 16)

    assert _flip_header_bits(raw, tmp_path / "flip.ddm", ComponentModel.load, check) > 0


def test_model_file_shorter_than_its_prefix(tmp_path):
    path = tmp_path / "short.ddm"
    path.write_bytes(b"DDSDMDL1\x01\x00")
    with pytest.raises(DataError, match="truncated"):
        ModelGraph.load(path)


def test_model_metadata_fields_are_checked(tmp_path):
    path = tmp_path / "m.ddm"
    graph = build_fusion("SL", ("asr",)).graph
    for meta in ({"type": "fusion"}, {"type": "fusion", "kind": "SL", "modalities": ["vision"]},
                 {"type": "fusion", "kind": "XL", "modalities": ["asr"]}):
        graph.save(path, meta)
        with pytest.raises(DataError, match=str(path)):
            FusionModel.load(path)
    component = build_component("asr").graph
    for meta in ({"type": "component"}, {"type": "component", "modality": "vision"},
                 {"type": "component", "modality": "prosody"}):
        component.save(path, meta)
        with pytest.raises(DataError, match=str(path)):
            ComponentModel.load(path)
    # prosody weights labelled asr: layer 0 outputs 128 columns, asr embeddings have 16
    prosody = build_component("prosody")
    prosody.modality = "asr"
    # asr weights whose layer 0 is the sigmoid head
    headless = ComponentModel("asr", ModelGraph([Dense(16, 1, "sigmoid", rng=np.random.default_rng(0))]))
    for model in (prosody, headless):
        model.save(path)
        with pytest.raises(DataError, match=f"{path}: layer 0 outputs width"):
            ComponentModel.load(path)


def _with_header(raw, header):
    """The model file raw with its JSON header replaced by header."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:12] + struct.pack("<I", len(blob)) + blob + raw[_header_end(raw):]


def _with_rng_seed(raw):
    """raw as older versions wrote it, with an rng_seed key in the header."""
    header = json.loads(raw[16 : _header_end(raw)])
    return _with_header(raw, {**header, "rng_seed": 0})


def test_model_file_with_an_rng_seed_key_loads(tmp_path):
    path = tmp_path / "old.ddm"
    model = build_fusion("EL", ("asr", "prosody"), seed=3)
    model.save(path)
    path.write_bytes(_with_rng_seed(path.read_bytes()))
    x = np.random.default_rng(4).normal(size=(5, input_width(model)))
    np.testing.assert_array_equal(FusionModel.load(path).graph.forward(x), model.graph.forward(x))


def test_model_file_with_a_mask_layer_raises_data_error(tmp_path):
    # the layout of older prosody files: a parameterless "mask" marker before the GRU
    path = tmp_path / "old.ddm"
    build_component("prosody").save(path)
    raw = path.read_bytes()
    header = json.loads(raw[16 : _header_end(raw)])
    header["layers"].insert(0, {"kind": "mask"})
    path.write_bytes(_with_header(raw, header))
    with pytest.raises(DataError, match="unknown layer kind 'mask'"):
        ComponentModel.load(path)


@pytest.mark.parametrize("extras", [
    [["standardizer_mean", [8]], ["standardizer_mean", [8]]],
    [["standardizer_mean", [-1]], ["standardizer_std", [17]]],
])
def test_model_extras_must_be_unique_and_non_negative(tmp_path, extras):
    # each header implies the file's true length, so only the names or shapes are wrong
    path = tmp_path / "asr.ddm"
    model = build_component("asr")
    model.standardizer = Standardizer(mean=np.zeros(8), std=np.ones(8))
    model.save(path)
    raw = path.read_bytes()
    header = json.loads(raw[16 : _header_end(raw)])
    header["extras"] = extras
    path.write_bytes(_with_header(raw, header))
    with pytest.raises(DataError, match="extras names repeat or shapes are negative"):
        ComponentModel.load(path)


def test_record_with_corrupt_utterance_id_raises_data_error(tmp_path):
    path = tmp_path / "r.rec"
    write_records(path, [Record("utt0001", "asr", "features", True, np.arange(8, dtype=np.float32))])
    raw = bytearray(path.read_bytes())
    raw[12] = 0xFF  # first byte of the id: never valid UTF-8
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="utterance id"):
        read_records(path)


def test_record_file_truncations_and_bit_flips(tmp_path):
    path = tmp_path / "r.rec"
    records = [
        Record("u1", "prosody", "score", True, np.array([0.25], dtype=np.float32)),
        Record("u1", "prosody", "embedding", False, np.full(4, -99999.0, dtype=np.float32)),
    ]
    write_records(path, records[:1])
    boundary = len(path.read_bytes())
    write_records(path, records)
    raw = path.read_bytes()
    for k in range(len(raw)):
        # a file cut between records is a valid, shorter file
        assert (_load_or_none(read_records, path, raw[:k]) is not None) == (k in (0, boundary)), k
        data = bytearray(raw)
        for bit in range(8):
            data[k] ^= 1 << bit
            _load_or_none(read_records, path, data)
            data[k] ^= 1 << bit


@pytest.mark.parametrize("cut", ["empty", "not_riff", "header_cut", "data_cut"])
def test_wav_file_cut_or_foreign_raises_data_error(tmp_path, cut):
    path = tmp_path / "u.wav"
    write_wav(path, np.zeros(SAMPLE_RATE))
    raw = path.read_bytes()
    data = {"empty": b"", "not_riff": b"OggS" + raw[4:], "header_cut": raw[:20], "data_cut": raw[:1000]}[cut]
    assert _load_or_none(read_wav, path, data) is None


def test_wav_header_bit_flips_load_or_raise_data_error(tmp_path):
    path = tmp_path / "u.wav"
    write_wav(path, 0.3 * np.sin(0.1 * np.arange(1600)))
    raw = path.read_bytes()
    want = read_wav(path).samples
    data = bytearray(raw)
    # default filters, as outside pytest: a file read_wav only warns about must not load
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        for k in range(44):  # the canonical RIFF, fmt and data chunk headers
            for bit in range(8):
                data[k] ^= 1 << bit
                buf = _load_or_none(read_wav, path, data)
                data[k] ^= 1 << bit
                assert buf is None or np.array_equal(buf.samples, want), (k, bit)
