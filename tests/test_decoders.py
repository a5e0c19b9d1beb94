"""Corrupt model and record files: a decoder either loads them or raises DataError.

Deterministic byte-level fuzzing: truncation at every byte of a saved EL
fusion model's header, a bit flip in every header byte, and corrupt record
files. Any other exception type escaping a loader is a bug.
"""

import struct

import numpy as np
import pytest

from ddsd.components import ComponentModel, build_standin
from ddsd.data import Record, read_records, write_records
from ddsd.errors import DataError
from ddsd.fusion import FusionModel, build_fusion, input_width
from ddsd.nn import ModelGraph


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


def test_model_bit_flips_in_header_load_or_raise_data_error(el_model_bytes, tmp_path):
    path = tmp_path / "flip.ddm"
    end = _header_end(el_model_bytes)
    loaded = 0
    for k in range(end):
        data = bytearray(el_model_bytes)
        # every bit of the binary prefix; one bit per JSON byte, cycling through all eight
        for bit in range(8) if k < 16 else (k % 8,):
            data[k] ^= 1 << bit
            model = _load_or_none(FusionModel.load, path, data)
            data[k] ^= 1 << bit
            if model is not None:
                # a model that loads must also run on inputs of the width it declares
                model.graph.forward(np.zeros((2, input_width(model))))
                loaded += 1
    assert loaded < end // 4  # most flips must be caught, not silently accepted


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
        graph.meta = meta
        graph.save(path)
        with pytest.raises(DataError, match=str(path)):
            FusionModel.load(path)
    component = build_standin("asr").graph
    for meta in ({"type": "component"}, {"type": "component", "modality": "asr", "embedding_tap": 9}):
        component.meta = meta
        component.save(path)
        with pytest.raises(DataError, match=str(path)):
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
