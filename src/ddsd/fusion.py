"""Score and embedding fusion with modality dropout.

Three schemes over the component models' directedness outputs:

* AVG - arithmetic mean of the available scores (no parameters).
* SL  - per-modality branch: inverse softmax -> dense(1->128, tanh); the
  branch outputs are concatenated into dense(128M->128, ReLU) -> layer norm
  -> dense sigmoid. A missing score bypasses the inverse softmax and feeds
  the branch the sentinel -1 directly.
* EL  - same trunk, but branches consume the raw embeddings (no inverse
  softmax); a missing embedding is a dimension-matched fill of -99999.

Modality dropout (MD) trains SL/EL on what inference sees when a modality is
missing: each epoch, every (sample, modality) input is independently
replaced, with one probability p for all modalities, by the same sentinel
encoding. Training and inference share one encoder; MD writes the same
sentinel over the dropped column blocks of its output.

Embeddings keep the precision they arrive in: ingested records hold float32,
and an EL input matrix is float32 when every present embedding is. Every
float32 value, the -99999 fill included, is exact in float64, and the
network widens each batch to float64 as it reads it, so a float64 matrix
would double the memory and leave every score the same. SL matrices are
float64, because their inverse-softmax logits are computed here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metrics import compute_eer
from .modalities import EMBEDDING_DIMS, MODALITIES, check_modalities
from .nn import Branches, Dense, LayerNorm, ModelGraph, TrainConfig, balanced_class_weights, fit, predict

SCORE_SENTINEL = -1.0
EMBEDDING_SENTINEL = -99999.0
SCORE_CLAMP = 1e-6

FUSION_KINDS = ("AVG", "SL", "EL")


@dataclass
class ScoreSet:
    """Per-modality probabilities; None marks an absent modality in memory.

    The -1 sentinel exists only at serialized/encoded boundaries.
    """

    scores: dict

    def present(self, modality):
        return self.scores.get(modality) is not None

    def present_modalities(self):
        return tuple(m for m, v in self.scores.items() if v is not None)


@dataclass
class EmbeddingSet:
    """Per-modality embedding vectors; None marks an absent modality in memory.

    Vectors keep their own dtype: float32 as read from records, float64 when
    a model produced them in memory. encode_inputs widens only as needed.
    """

    embeddings: dict

    def present(self, modality):
        return self.embeddings.get(modality) is not None


@dataclass
class FusionSample:
    utterance_id: str
    label: int
    scores: ScoreSet
    embeddings: EmbeddingSet


@dataclass
class ModalityDropoutConfig:
    p: float = 0.3  # drop probability, the same for every modality
    seed: int = 0

    def validate(self):
        if not 0.0 <= self.p < 1.0:
            raise DataError("modality dropout probability must be in [0, 1)")
        return self


def fuse_avg(scores, modalities=None):
    """Arithmetic mean over the present scores, pooled in MODALITIES order by default."""
    pool = modalities or MODALITIES
    vals = [scores.scores[m] for m in pool if scores.present(m)]
    if not vals:
        raise DataError("AVG fusion needs at least one present modality")
    return float(np.mean(vals))


def inverse_softmax(score):
    """Two-class logit of a probability: ln(s / (1 - s)), input clamped."""
    s = np.clip(score, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    return np.log(s / (1.0 - s))


@dataclass
class FusionModel:
    kind: str
    modalities: tuple
    graph: ModelGraph = None  # None for AVG

    def save(self, path):
        graph = self.graph if self.graph is not None else ModelGraph([])
        graph.save(path, {"type": "fusion", "kind": self.kind, "modalities": list(self.modalities)})

    @classmethod
    def load(cls, path):
        graph, meta, _ = ModelGraph.load(path)
        if meta.get("type") != "fusion":
            raise DataError(f"{path}: not a fusion model file")
        try:
            kind = meta["kind"]
            modalities = check_modalities(meta["modalities"])
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: bad fusion model metadata: {e!r}") from None
        if kind not in FUSION_KINDS:
            raise DataError(f"{path}: unknown fusion kind {kind!r}")
        return cls(kind=kind, modalities=modalities, graph=None if kind == "AVG" else graph)


def _widths(kind, modalities):
    """Input columns per modality: one score for SL, the whole embedding for EL."""
    if kind == "SL":
        return [1] * len(modalities)
    return [EMBEDDING_DIMS[m] for m in modalities]


def build_fusion(kind, modalities, seed=0):
    if kind not in FUSION_KINDS:
        raise DataError(f"unknown fusion kind {kind!r}")
    modalities = check_modalities(modalities)
    if kind == "AVG":
        return FusionModel(kind=kind, modalities=modalities)
    rng = np.random.default_rng(seed)
    widths = _widths(kind, modalities)
    branches = Branches(widths, 128, "tanh", rng=rng)
    trunk = [
        Dense(128 * len(widths), 128, "relu", rng=rng),
        LayerNorm(128),
        Dense(128, 1, "sigmoid", rng=rng),
    ]
    return FusionModel(kind=kind, modalities=modalities, graph=ModelGraph([branches] + trunk))


def input_width(model):
    return sum(_widths(model.kind, model.modalities))


def encode_inputs(model, samples):
    """(N, width) network input matrix with sentinel encoding of absences.

    SL is float64. EL takes the widest dtype of float32 and the present
    embeddings, so float32 records give a float32 matrix.
    """
    sl = model.kind == "SL"
    widths = _widths(model.kind, model.modalities)
    columns = [
        [(s.scores.scores if sl else s.embeddings.embeddings).get(m) for s in samples] for m in model.modalities
    ]
    dtype = np.float64
    if not sl:
        # one argument per distinct dtype: numpy 1.x caps result_type's argument count
        dtype = np.result_type(np.float32, *{v.dtype for values in columns for v in values if v is not None})
    x = np.empty((len(samples), sum(widths)), dtype=dtype)
    col = 0
    for m, width, values in zip(model.modalities, widths, columns):
        absent = np.fromiter((v is None for v in values), dtype=bool, count=len(values))
        rows = np.flatnonzero(~absent)
        present = [values[i] for i in rows]
        block = slice(col, col + width)
        col += width
        x[absent, block] = SCORE_SENTINEL if sl else EMBEDDING_SENTINEL
        if sl:
            x[rows, block] = inverse_softmax(np.array(present))[:, None]
            continue
        for i, e in zip(rows, present):
            if e.shape != (width,):
                raise DataError(
                    f"{samples[i].utterance_id}: {m} embedding has shape {tuple(e.shape)}, expected ({width},)"
                )
        if present:
            x[rows, block] = np.stack(present)
    return x


def train_fusion(model, train_samples, val_samples, config=None, md=None, log=None):
    """Train SL/EL on directedness features; AVG has nothing to fit.

    With a ModalityDropoutConfig, each epoch redraws, independently per
    sample and modality with probability md.p, which branch inputs are
    replaced by the missing-data sentinel. The training set is encoded once;
    each epoch copies it into one buffer, reused every epoch, and overwrites
    the dropped column blocks there.
    """
    if model.kind == "AVG":
        return [], -1
    if not train_samples:
        raise DataError("empty fusion training set")
    config = config or TrainConfig()
    labels = np.array([s.label for s in train_samples], dtype=np.float64)
    val_x = encode_inputs(model, val_samples)
    val_y = np.array([s.label for s in val_samples], dtype=np.float64)

    if config.class_weights == (1.0, 1.0):
        config.class_weights = balanced_class_weights(labels)

    train_x = encode_inputs(model, train_samples)
    epoch_inputs = None
    if md is not None:
        md.validate()
        md_rng = np.random.default_rng(md.seed)
        column_modality = np.repeat(np.arange(len(model.modalities)), _widths(model.kind, model.modalities))
        sentinel = SCORE_SENTINEL if model.kind == "SL" else EMBEDDING_SENTINEL
        buf = np.empty_like(train_x)

        def epoch_inputs():
            drop = md_rng.random((len(train_samples), len(model.modalities))) < md.p
            np.copyto(buf, train_x)
            buf[drop[:, column_modality]] = sentinel
            return buf

    return fit(
        model.graph, train_x, labels, val_x, val_y, config, compute_eer,
        log=log, epoch_inputs=epoch_inputs,
    )


def infer_fusion(model, sample):
    """Fused directedness probability for one sample."""
    return float(infer_fusion_batch(model, [sample])[0])


def infer_fusion_batch(model, samples):
    if model.kind == "AVG":
        return np.array([fuse_avg(s.scores, model.modalities) for s in samples])
    return predict(model.graph, encode_inputs(model, samples))[0]
