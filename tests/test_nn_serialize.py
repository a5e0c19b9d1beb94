import numpy as np
import pytest

from ddsd.components import Standardizer, build_component
from ddsd.errors import DataError
from ddsd.fusion import build_fusion
from ddsd.nn import Branches, Dense, Dropout, GRU, LayerNorm, ModelGraph

META = {"type": "demo", "note": "round-trip"}


def _demo_graph():
    rng = np.random.default_rng(42)
    return ModelGraph(
        [
            GRU(5, 8, rng=rng),
            LayerNorm(8),
            Dropout(0.2),
            Dense(8, 1, "sigmoid", rng=rng),
        ],
    )


def test_round_trip_bit_exact_forward(tmp_path):
    graph = _demo_graph()
    mean = np.linspace(-1, 1, 5)
    path = tmp_path / "model.ddm"
    graph.save(path, META, {"mean": mean})
    loaded, meta, extras = ModelGraph.load(path)

    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 6, 5))
    lengths = np.array([6, 4, 2])
    a = graph.forward(x, lengths=lengths)
    b = loaded.forward(x, lengths=lengths)
    np.testing.assert_array_equal(a, b)  # bit-identical
    np.testing.assert_array_equal(extras["mean"], mean)
    assert meta == META


def test_save_load_save_identical_bytes(tmp_path):
    graph = _demo_graph()
    p1 = tmp_path / "a.ddm"
    p2 = tmp_path / "b.ddm"
    graph.save(p1, META, {"mean": np.linspace(-1, 1, 5)})
    loaded, meta, extras = ModelGraph.load(p1)
    loaded.save(p2, meta, extras)
    assert p1.read_bytes() == p2.read_bytes()


def test_branches_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    graph = ModelGraph(
        [
            Branches([1, 1], 4, "tanh", rng=rng),
            Dense(8, 1, "sigmoid", rng=rng),
        ]
    )
    path = tmp_path / "fusion.ddm"
    graph.save(path, {})
    loaded, _, _ = ModelGraph.load(path)
    x = rng.normal(size=(4, 2))
    np.testing.assert_array_equal(graph.forward(x), loaded.forward(x))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ddm"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        ModelGraph.load(path)


def test_truncated_model_rejected(tmp_path):
    graph = _demo_graph()
    path = tmp_path / "model.ddm"
    graph.save(path, META)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 17])
    with pytest.raises(DataError, match="truncated"):
        ModelGraph.load(path)


def test_parameter_count():
    # GRU(5->128) + layer norm + dense head: 3*(5*128 + 128*128 + 128) + 256 + 129
    rng = np.random.default_rng(2)
    graph = ModelGraph([GRU(5, 128, rng=rng), LayerNorm(128), Dropout(0.2), Dense(128, 1, "sigmoid", rng=rng)])
    assert graph.num_params() == 3 * (5 * 128 + 128 * 128 + 128) + 2 * 128 + 129
    assert graph.num_params() == 51841


def test_saving_leaves_the_model_unchanged(tmp_path):
    component = build_component("asr", seed=1)
    component.standardizer = Standardizer(mean=np.zeros(8), std=np.ones(8))
    for model in (component, build_component("prosody"), build_fusion("EL", ("asr", "text"))):
        before = dict(vars(model.graph))
        model.save(tmp_path / "m.ddm")
        assert vars(model.graph) == before
