import hashlib
import json

import pytest

from ddsd.data import Utterance, read_manifest, write_manifest
from ddsd.errors import DataError


def _utt(i, label="directed", split="test"):
    return Utterance(utterance_id=f"u{i}", label=label, split=split)


def test_manifest_round_trip(tmp_path):
    utts = [
        Utterance("u1", "directed", "train-comp", "spk1", "audio/u1.wav", "play music",
                  {"asr": "features/u1.asr.rec"}),
        Utterance("u2", "not-directed", "test"),
    ]
    path = tmp_path / "m.jsonl"
    write_manifest(path, utts)
    back = read_manifest(path)
    assert back == utts


def test_duplicate_ids_rejected(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        write_manifest(tmp_path / "m.jsonl", [_utt(1), _utt(1)])


def test_bad_label_and_split_rejected(tmp_path):
    with pytest.raises(DataError):
        write_manifest(tmp_path / "m.jsonl", [_utt(1, label="maybe")])
    with pytest.raises(DataError):
        write_manifest(tmp_path / "m.jsonl", [_utt(1, split="dev")])


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"utterance_id": "u1", "label": "directed", "split": "test"}\nnot json\n')
    with pytest.raises(DataError, match=":2:"):
        read_manifest(path)


def test_line_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b'{"utterance_id": "u\xff1", "label": "directed", "split": "test"}\n')
    with pytest.raises(DataError, match=":1:"):
        read_manifest(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("utterance_id", 7),
        ("utterance_id", None),
        ("label", ["directed"]),
        ("split", 1.5),
        ("speaker_id", 3),
        ("audio_path", {"a": "b"}),
        ("text", False),
        ("feature_paths", ["features/u1.asr.rec"]),
        ("feature_paths", {"asr": 1}),
    ],
)
def test_wrong_field_types_rejected_with_line(tmp_path, field, value):
    good = {"utterance_id": "u0", "label": "directed", "split": "test"}
    bad = {**good, "utterance_id": "u1", field: value}
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=f":2: .*{field}"):
        read_manifest(path)


def test_manifest_file_bytes_are_pinned(tmp_path):
    # the byte layout of the format: a writer that changes one byte fails here
    utts = [
        Utterance("u1", "directed", "train-comp", "spk1", "audio/u1.wav", "play music",
                  {"prosody": "features/u1.prosody.rec", "asr": "features/u1.asr.rec"}),
        Utterance("u2", "not-directed", "test"),
        Utterance("u3", "not-directed", "val-fus", text="", feature_paths={"directedness": "d/u3.dir.rec"}),
        Utterance("ü4", "directed", "train-fus", "spk\"2", None, "naïve \\ \"quoted\"\ttab"),
    ]
    path = tmp_path / "m.jsonl"
    write_manifest(path, utts)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == "96a904b1178df39ba57cdf93115d8b1db85ec01f11f6de2ba99f8384044aaeef"
    assert read_manifest(path) == utts
