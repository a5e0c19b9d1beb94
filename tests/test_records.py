import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsd.data import Record, read_records, write_records
from ddsd.errors import DataError


def test_embedding_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    payload = rng.normal(size=128).astype(np.float32)
    rec = Record("utt000001", "prosody", "embedding", True, payload)
    path = tmp_path / "a.rec"
    write_records(path, [rec])
    back = read_records(path)
    assert len(back) == 1
    got = back[0]
    assert got.utterance_id == "utt000001"
    assert got.modality == "prosody"
    assert got.kind == "embedding"
    assert got.present is True
    np.testing.assert_array_equal(got.payload, payload)
    assert got.payload.tobytes() == payload.tobytes()


def test_multiple_records_per_file(tmp_path):
    recs = [
        Record("u1", "acoustic", "score", True, np.array([0.7], dtype=np.float32)),
        Record("u1", "acoustic", "embedding", True, np.zeros(256, dtype=np.float32)),
        Record("u1", "text", "score", True, np.array([0.2], dtype=np.float32)),
    ]
    path = tmp_path / "multi.rec"
    write_records(path, recs)
    back = read_records(path)
    assert [(r.modality, r.kind) for r in back] == [
        ("acoustic", "score"),
        ("acoustic", "embedding"),
        ("text", "score"),
    ]


def test_truncated_file_names_byte_offset(tmp_path):
    rec = Record("utt7", "asr", "features", True, np.arange(8, dtype=np.float32))
    path = tmp_path / "t.rec"
    write_records(path, [rec])
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(DataError, match=r"truncated at byte \d+"):
        read_records(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rec"
    path.write_bytes(b"GARBAGE!" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        read_records(path)


def test_absent_modality_round_trip_preserves_flag_and_sentinel(tmp_path):
    emb = np.full(128, -99999.0, dtype=np.float32)
    recs = [
        Record("u9", "prosody", "score", False, np.array([-1.0], dtype=np.float32)),
        Record("u9", "prosody", "embedding", False, emb),
    ]
    path = tmp_path / "absent.rec"
    write_records(path, recs)
    back = read_records(path)
    assert back[0].present is False
    assert back[0].payload[0] == -1.0
    assert back[1].present is False
    np.testing.assert_array_equal(back[1].payload, emb)


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(mod_idx, values):
    import tempfile

    from ddsd.modalities import MODALITIES

    payload = np.array(values, dtype=np.float32)
    rec = Record("x", MODALITIES[mod_idx], "features", True, payload)
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/p.rec"
        write_records(path, [rec])
        got = read_records(path)[0]
    np.testing.assert_array_equal(got.payload, payload)
