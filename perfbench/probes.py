"""Per-layer probes: wrappers on ddsd call sites and the metrics built from them.

``instrument`` installs every probe whatever the workload, so a layer that a
workload does not use reports 0. Spans named here are the per-layer metric
names without their ``.s`` suffix.
"""

import os
from statistics import median

import numpy as np

from spans import Patches, self_times, timed

GRU_SHAPES = ("5x128", "40x256")
NN_LAYERS = ("Branches", "Dense", "LayerNorm")
FUSION_TRAINED = ("SL", "SL_MD", "EL", "EL_MD")
FUSION_KINDS = ("AVG", "SL", "EL")

# (metric name, unit); the span-time metrics end in ".s" or ".self_s"
PER_LAYER = [
    ("dsp.pitch.extract_pitch_voicing.s", "s"),
    ("dsp.pitch.extract_pitch_voicing.self_s", "s"),
    ("kernels.nccf.s", "s"),
    ("kernels.viterbi_pitch.s", "s"),
    ("dsp.voicequality.extract_jitter_shimmer.s", "s"),
    ("dsp.voicequality.extract_jitter_shimmer.self_s", "s"),
    ("kernels.cycle_peaks.s", "s"),
    ("kernels.cycle_peaks.calls", "count"),
    ("dsp.vad.extract_vad.s", "s"),
    ("kernels.hmm_posterior.s", "s"),
    ("dsp.melbank.extract_filterbank.s", "s"),
    ("extraction.extract_utterance.ms_p50", "ms"),
    ("extraction.extract_utterance.ms_p95", "ms"),
    ("extraction.extract_utterance.n", "count"),
    ("dsp.audio.read_wav.s", "s"),
    ("data.records.write_records.s", "s"),
    ("data.records.write_records.bytes", "B"),
    ("dsp.voiced_frame_frac", "ratio"),
]
PER_LAYER += [(f"nn.layers.GRU.{d}.{shape}.s", "s") for shape in GRU_SHAPES for d in ("forward", "backward")]
PER_LAYER += [
    ("nn.optim.Adam.step.s", "s"),
    ("nn.train.pad_batch.s", "s"),
    ("nn.gru.padded_step_frac", "ratio"),
    ("nn.train.fit.s", "s"),
    ("nn.train.predict.s", "s"),
    ("metrics.compute_eer.s", "s"),
    ("components.load_features.s", "s"),
    ("data.records.read_records.s", "s"),
    ("data.records.read_records.bytes", "B"),
    ("components.train_component.prosody.s", "s"),
    ("components.train_component.acoustic.s", "s"),
    ("components.export_directedness.s", "s"),
    ("components.infer_component_batch.s", "s"),
    ("fusion.encode_inputs.s", "s"),
    ("fusion.encode_inputs.samples", "count"),
]
PER_LAYER += [(f"nn.layers.{layer}.{d}.s", "s") for layer in NN_LAYERS for d in ("forward", "backward")]
PER_LAYER += [(f"fusion.train_fusion.{k}.s", "s") for k in FUSION_TRAINED]
PER_LAYER += [(f"fusion.infer_fusion_batch.{k}.s", "s") for k in FUSION_KINDS]
PER_LAYER += [
    ("components.ingest_precomputed.s", "s"),
    ("corruption.corrupt_missing.s", "s"),
    ("corruption.write_directedness_records.s", "s"),
    ("corruption.realised_drop_rate", "ratio"),
    ("trace_overhead_frac", "ratio"),
]


def instrument(tracer):
    """Install every probe; the caller must call ``restore`` on the result."""
    import ddsd.components as components
    import ddsd.corruption as corruption
    import ddsd.data.records as records
    import ddsd.dsp.prosody as prosody
    import ddsd.extraction as extraction
    import ddsd.fusion as fusion
    import ddsd.kernels as kernels
    import ddsd.nn.train as train
    from ddsd.nn.layers import GRU, Branches, Dense, LayerNorm
    from ddsd.nn.optim import Adam

    def count(name, value=lambda args, out: 1):
        return lambda args, out: tracer.count(name, value(args, out))

    def file_bytes(name):
        return count(name, lambda args, out: os.path.getsize(args[0]))

    def shape(prefix):
        return lambda layer, *args: f"{prefix}.{layer.nin}x{layer.nhidden}"

    def gru_steps(args, out):
        _, x, ctx = args
        steps = x.shape[0] * x.shape[1]
        tracer.count("nn.gru.steps", steps)
        if ctx.lengths is not None:
            tracer.count("nn.gru.padded_steps", steps - int(np.sum(ctx.lengths)))

    def voiced_frames(args, out):
        pitch = out[0]
        tracer.count("dsp.frames", pitch.shape[0])
        tracer.count("dsp.voiced_frames", int(np.count_nonzero(pitch > 0)))

    probes = [
        (prosody, "extract_pitch_voicing", "dsp.pitch.extract_pitch_voicing", voiced_frames),
        (prosody, "extract_jitter_shimmer", "dsp.voicequality.extract_jitter_shimmer", None),
        (prosody, "extract_vad", "dsp.vad.extract_vad", None),
        (kernels, "nccf", "kernels.nccf", None),
        (kernels, "viterbi_pitch", "kernels.viterbi_pitch", None),
        (kernels, "hmm_posterior", "kernels.hmm_posterior", None),
        (kernels, "cycle_peaks", "kernels.cycle_peaks", count("kernels.cycle_peaks.calls")),
        (extraction, "extract_filterbank", "dsp.melbank.extract_filterbank", None),
        (extraction, "extract_utterance", "extraction.extract_utterance", None),
        (extraction, "read_wav", "dsp.audio.read_wav", None),
        (GRU, "forward", shape("nn.layers.GRU.forward"), gru_steps),
        (GRU, "backward", shape("nn.layers.GRU.backward"), None),
        (Adam, "step", "nn.optim.Adam.step", None),
        (train, "predict", "nn.train.predict", None),
        (components, "load_features", "components.load_features", None),
        (components, "infer_component_batch", "components.infer_component_batch", None),
        (fusion, "encode_inputs", "fusion.encode_inputs",
         count("fusion.encode_inputs.samples", lambda args, out: len(args[1]))),
    ]
    for owner in (extraction, components, corruption):
        probes.append((owner, "write_records", "data.records.write_records",
                       file_bytes("data.records.write_records.bytes")))
    for owner in (records, components):
        probes.append((owner, "read_records", "data.records.read_records",
                       file_bytes("data.records.read_records.bytes")))
    for cls in (Branches, Dense, LayerNorm):
        for method in ("forward", "backward"):
            probes.append((cls, method, f"nn.layers.{cls.__name__}.{method}", None))
    for owner in (train, components):
        probes.append((owner, "pad_batch", "nn.train.pad_batch", None))
    for owner in (components, fusion):
        probes.append((owner, "fit", "nn.train.fit", None))
        probes.append((owner, "compute_eer", "metrics.compute_eer", None))

    p = Patches()
    try:
        for owner, attr, name, after in probes:
            p.wrap(owner, attr, timed(tracer, name, after))
    except BaseException:
        p.restore()
        raise
    return p


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, counts_per_rep, drop_rate, overhead):
    """Per-layer metric values: medians over the traced repetitions.

    Span metrics are per-repetition totals of span time (``.s``) and self
    time (``.self_s``). counts_per_rep holds the counts of one repetition:
    every traced repetition does the same work.
    """
    per_rep, utt_ms = {}, []
    for (name, start, end, _, rep), self_s in zip(tracer.spans, self_times(tracer.spans)):
        sums = per_rep.setdefault(rep, {})
        sums[name + ".s"] = sums.get(name + ".s", 0.0) + end - start
        sums[name + ".self_s"] = sums.get(name + ".self_s", 0.0) + self_s
        if name == "extraction.extract_utterance":
            utt_ms.append(1000.0 * (end - start))
    out = {
        name: median(sums.get(name, 0.0) for sums in per_rep.values())
        for name, unit in PER_LAYER
        if unit == "s"
    }
    c = counts_per_rep
    out.update(
        {
            "kernels.cycle_peaks.calls": c.get("kernels.cycle_peaks.calls", 0),
            "extraction.extract_utterance.ms_p50": float(np.percentile(utt_ms, 50)) if utt_ms else 0.0,
            "extraction.extract_utterance.ms_p95": float(np.percentile(utt_ms, 95)) if utt_ms else 0.0,
            "extraction.extract_utterance.n": len(utt_ms),
            "data.records.write_records.bytes": c.get("data.records.write_records.bytes", 0),
            "data.records.read_records.bytes": c.get("data.records.read_records.bytes", 0),
            "dsp.voiced_frame_frac": _ratio(c.get("dsp.voiced_frames", 0), c.get("dsp.frames", 0)),
            "nn.gru.padded_step_frac": _ratio(c.get("nn.gru.padded_steps", 0), c.get("nn.gru.steps", 0)),
            "fusion.encode_inputs.samples": c.get("fusion.encode_inputs.samples", 0),
            "corruption.realised_drop_rate": drop_rate,
            "trace_overhead_frac": overhead,
        }
    )
    return out
