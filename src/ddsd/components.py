"""Single-modality directedness models.

The prosody classifier is the full-fidelity model: GRU(5->128) over the
valid frames -> layer norm -> dropout(0.2) -> dense sigmoid head, with the
128-dim pre-normalization GRU output exported as the fusion embedding.
The acoustic/text/asr models are lightweight stand-ins that honor the same
interface contract: a directedness score plus a fixed-size embedding
(256 / 128 / 16). In every component model the embedding is the output of
layer 0.

This module owns the directedness file: ``write_directedness_records``
writes it, for exported outputs and for corrupted sets alike, and
``ingest_precomputed`` reads it.
"""

import os
import zlib
from dataclasses import dataclass

import numpy as np

from .data.manifest import by_split
from .data.records import Record, read_records, read_single, write_records
from .errors import DataError
from .fusion import EMBEDDING_SENTINEL, SCORE_SENTINEL, EmbeddingSet, FusionSample, ScoreSet
from .metrics import compute_eer
from .modalities import EMBEDDING_DIMS, MODALITIES
from .nn import (
    Dense,
    Dropout,
    GRU,
    LayerNorm,
    ModelGraph,
    TrainConfig,
    balanced_class_weights,
    fit,
    pad_batch,  # not called here; perfbench/probes.py wraps components.pad_batch
    predict,
)

TEXT_BAG_DIM = 4096


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, rows):
        """Per-dimension moments over stacked rows; std floored for stability."""
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        return cls(mean=mean, std=np.maximum(std, 1e-6))

    def apply(self, x):
        return (x - self.mean) / self.std


@dataclass
class ComponentModel:
    """A component graph whose layer 0 outputs the modality's fusion embedding."""

    modality: str
    graph: ModelGraph
    standardizer: Standardizer = None

    @property
    def embedding_dim(self):
        return EMBEDDING_DIMS[self.modality]

    def save(self, path):
        extras = {}
        if self.standardizer is not None:
            extras = {"standardizer_mean": self.standardizer.mean, "standardizer_std": self.standardizer.std}
        self.graph.save(path, {"type": "component", "modality": self.modality}, extras)

    @classmethod
    def load(cls, path):
        graph, meta, extras = ModelGraph.load(path)
        if meta.get("type") != "component":
            raise DataError(f"{path}: not a component model file")
        modality = meta.get("modality")
        if modality not in MODALITIES:
            raise DataError(f"{path}: bad component modality {modality!r}")
        first = graph.layers[0].descriptor() if graph.layers else {}
        width = first.get("nhidden", first.get("nout"))
        if width != EMBEDDING_DIMS[modality]:
            raise DataError(
                f"{path}: layer 0 outputs width {width}, but {modality} embeddings have width "
                f"{EMBEDDING_DIMS[modality]}"
            )
        std = None
        if extras:
            nin = first["nin"]  # layer 0 is a Dense or a GRU: only they have these widths
            shapes = {name: arr.shape for name, arr in extras.items()}
            if shapes != {"standardizer_mean": (nin,), "standardizer_std": (nin,)}:
                raise DataError(f"{path}: standardizer does not match the {nin} input features of layer 0")
            std = Standardizer(mean=extras["standardizer_mean"], std=extras["standardizer_std"])
        return cls(modality=modality, graph=graph, standardizer=std)


# layers from the features up to the sigmoid head; layer 0 outputs the embedding, d wide
_BODIES = {
    "acoustic": lambda rng, d: [GRU(40, d, rng=rng)],
    "text": lambda rng, d: [Dense(TEXT_BAG_DIM, d, "relu", rng=rng)],
    "asr": lambda rng, d: [Dense(8, d, "relu", rng=rng)],
    # the paper's prosody model: ~50K parameters, GRU -> layer norm -> dropout -> head
    "prosody": lambda rng, d: [GRU(5, d, rng=rng), LayerNorm(d), Dropout(0.2)],
}


def build_component(modality, seed=0):
    if modality not in _BODIES:
        raise DataError(f"no component model for modality {modality!r}")
    rng = np.random.default_rng(seed)
    d = EMBEDDING_DIMS[modality]
    layers = _BODIES[modality](rng, d) + [Dense(d, 1, "sigmoid", rng=rng)]
    return ComponentModel(modality=modality, graph=ModelGraph(layers))


def text_trigram_bag(text):
    """Hashed character-trigram counts; crc32 keeps the hash stable."""
    s = f" {text.strip().lower()} "
    bag = np.zeros(TEXT_BAG_DIM)
    for i in range(len(s) - 2):
        idx = zlib.crc32(s[i : i + 3].encode("utf-8")) % TEXT_BAG_DIM
        bag[idx] += 1.0
    return bag


def load_features(modality, utt, base_dir):
    """Raw (unstandardized) model input for one utterance."""
    if modality == "text":
        if utt.text is None:
            raise DataError(f"{utt.utterance_id}: no text field")
        return text_trigram_bag(utt.text)
    key = modality
    if key not in utt.feature_paths:
        raise DataError(f"{utt.utterance_id}: no {modality} features in manifest")
    rec = read_single(os.path.join(base_dir, utt.feature_paths[key]), modality, "features")
    feats = rec.payload.astype(np.float64)
    if modality == "prosody" and (feats.ndim != 2 or feats.shape[1] != 5):
        raise DataError(f"{utt.utterance_id}: prosody features must be (T, 5)")
    if modality == "acoustic" and (feats.ndim != 2 or feats.shape[1] != 40):
        raise DataError(f"{utt.utterance_id}: acoustic features must be (T, 40)")
    if modality == "asr" and feats.shape != (8,):
        raise DataError(f"{utt.utterance_id}: asr features must be 8-dim")
    return feats


def _model_inputs(model, feats):
    """Standardized features: a list of (T_i, D) sequences if 2-D, else an (N, D) matrix."""
    if model.standardizer is None:
        raise DataError("model has no fitted standardizer")
    std = [model.standardizer.apply(f) for f in feats]
    return std if not std or std[0].ndim == 2 else np.stack(std)


def _prepare_inputs(model, utts, base_dir, fit_standardizer=False):
    feats = [load_features(model.modality, u, base_dir) for u in utts]
    labels = np.array([u.label_int() for u in utts], dtype=np.float64)
    if fit_standardizer:
        model.standardizer = Standardizer.fit(np.concatenate([np.atleast_2d(f) for f in feats]))
    return _model_inputs(model, feats), labels


def train_component(model, utts, base_dir, config=None, log=None):
    """Fit on train-comp, validate on val-comp; returns (history, best_epoch).

    Class weights default to n_neg/n_pos from the training manifest; the
    checkpoint with the best validation EER is kept.
    """
    train_utts = by_split(utts, "train-comp")
    val_utts = by_split(utts, "val-comp")
    if not train_utts or not val_utts:
        raise DataError(f"empty split: {'val-comp' if train_utts else 'train-comp'}")

    config = config or TrainConfig()
    train_x, train_y = _prepare_inputs(model, train_utts, base_dir, fit_standardizer=True)
    val_x, val_y = _prepare_inputs(model, val_utts, base_dir)

    if config.class_weights == (1.0, 1.0):
        config.class_weights = balanced_class_weights(train_y)

    return fit(
        model.graph,
        train_x,
        train_y,
        val_x,
        val_y,
        config,
        val_metric=compute_eer,
        log=log,
    )


def infer_component_batch(model, features_list):
    """(scores (N,), embeddings: outputs of layer 0 (N, D)) in eval mode."""
    return predict(model.graph, _model_inputs(model, features_list), tap=0)


def write_directedness_records(samples, utts_by_id, base_dir, out_dir):
    """Serialize samples back to record files; sentinels written verbatim."""
    os.makedirs(os.path.join(base_dir, out_dir), exist_ok=True)
    for sample in samples:
        records = []
        for m in MODALITIES:
            if m in sample.scores.scores:
                present = sample.scores.present(m)
                value = sample.scores.scores[m] if present else SCORE_SENTINEL
                records.append(Record(sample.utterance_id, m, "score", present, np.array([value])))
            if m in sample.embeddings.embeddings:
                present = sample.embeddings.present(m)
                if present:
                    payload = sample.embeddings.embeddings[m]
                else:
                    payload = np.full(EMBEDDING_DIMS[m], EMBEDDING_SENTINEL)
                records.append(Record(sample.utterance_id, m, "embedding", present, payload))
        rel = os.path.join(out_dir, f"{sample.utterance_id}.dir.rec")
        write_records(os.path.join(base_dir, rel), records)
        u = utts_by_id[sample.utterance_id]
        u.feature_paths = dict(u.feature_paths)
        u.feature_paths["directedness"] = rel


def export_directedness(models, utts, base_dir, out_dir):
    """Run every model over the utterances and write their directedness files.

    Each utterance's file holds a score and an embedding record per model's
    modality (see write_directedness_records). Returns the utterance list,
    whose feature_paths gain a "directedness" entry relative to base_dir.
    """
    outputs = {}
    for modality, model in models.items():
        outputs[modality] = infer_component_batch(model, [load_features(modality, u, base_dir) for u in utts])
    samples = [
        FusionSample(
            utterance_id=u.utterance_id,
            label=u.label_int(),
            scores=ScoreSet({m: float(scores[i]) for m, (scores, _) in outputs.items()}),
            embeddings=EmbeddingSet({m: embeddings[i] for m, (_, embeddings) in outputs.items()}),
        )
        for i, u in enumerate(utts)
    ]
    write_directedness_records(samples, {u.utterance_id: u for u in utts}, base_dir, out_dir)
    return utts


def ingest_precomputed(utts, base_dir):
    """Read each utterance's directedness file into a FusionSample.

    Each embedding is the record's float32 payload as decoded, not a float64
    copy: every float32 value is exact in float64, and the network widens
    each batch when it reads it, so a wider copy would only take memory.
    A record of another utterance, of a kind other than score or embedding,
    of a (modality, kind) already read, or of the wrong shape raises
    DataError naming the utterance.
    """
    samples = []
    for u in utts:
        if "directedness" not in u.feature_paths:
            raise DataError(f"{u.utterance_id}: no directedness records in manifest")
        read = {"score": {}, "embedding": {}}
        for rec in read_records(os.path.join(base_dir, u.feature_paths["directedness"])):
            if rec.utterance_id != u.utterance_id:
                raise DataError(f"{u.utterance_id}: record belongs to {rec.utterance_id}")
            if rec.kind not in read:
                raise DataError(f"{u.utterance_id}: {rec.modality} {rec.kind} record in a directedness file")
            if rec.modality in read[rec.kind]:
                raise DataError(f"{u.utterance_id}: second {rec.modality} {rec.kind} record")
            want = (1,) if rec.kind == "score" else (EMBEDDING_DIMS[rec.modality],)
            if rec.payload.shape != want:
                shape = rec.payload.shape
                raise DataError(f"{u.utterance_id}: {rec.modality} {rec.kind} has shape {shape}, expected {want}")
            read[rec.kind][rec.modality] = rec.payload if rec.present else None
        scores = {m: None if v is None else float(v[0]) for m, v in read["score"].items()}
        samples.append(
            FusionSample(
                utterance_id=u.utterance_id,
                label=u.label_int(),
                scores=ScoreSet(scores),
                embeddings=EmbeddingSet(read["embedding"]),
            )
        )
    return samples
