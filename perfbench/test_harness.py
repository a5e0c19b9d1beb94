"""Fast tests of the benchmark harness, at tiny workload sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import inspect
import json
import os
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from spans import Patches, Tracer, self_times  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """(workload, trace) -> (result line, report) for a one-second tiny run."""
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            base = tmp_path_factory.mktemp(f"{name}{trace}")
            out[name, trace] = run.run_workload(
                name, seed=5, seconds=1, trace=trace, sizes=workloads.TINY,
                work_dir=str(base / "work"), out_dir=str(base / "out"),
            )
    return out


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_with_its_unit(results, name, trace):
    line, report = results[name, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], report["problems"]
    assert line["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float))


# one per-layer metric each workload must move, and the others' metrics it must not
EXERCISED = {
    "extract": "kernels.nccf.s",
    "components": "nn.layers.GRU.backward.40x256.s",
    "fusion": "fusion.encode_inputs.s",
}


def test_probes_see_only_the_layers_a_workload_uses(results):
    for name, metric in EXERCISED.items():
        metrics = results[name, 1][0]["metrics"]
        assert metrics[metric]["value"] > 0
        for other, other_metric in EXERCISED.items():
            if other != name:
                assert metrics[other_metric]["value"] == 0


def test_traced_run_reproduces_untraced_outputs(results):
    for name in workloads.WORKLOADS:
        plain, traced = results[name, 0][1], results[name, 1][1]
        assert plain["output_sha256"] == traced["output_sha256"]
        assert plain["quality"] == traced["quality"]


def test_fusion_counts_avg_all_missing_samples_as_failed(results):
    line, report = results["fusion", 0]
    sets = len(report["quality"]["table"])
    n_test = workloads.TINY["fusion_counts"]["test"]
    assert line["attempted"] == sets * n_test * len(report["reps"])
    assert line["failed"] == sum(r["failed"] for r in report["reps"])


def test_class_weights_recorded_per_model(results):
    comp = results["components", 0][1]["class_weights"]
    fus = results["fusion", 0][1]["class_weights"]
    assert set(comp) == {"prosody", "acoustic"}
    assert set(fus) == {"SL", "SL_MD", "EL", "EL_MD"}
    for w in list(comp.values()) + list(fus.values()):
        assert w[0] > 1.0 and w[1] == 1.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.x", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.x", 5.5, 6.0, 3, 0],
        ["b.y", 5.8, 7.0, 3, 0],  # overlaps b.x: the union is counted once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.2])


def test_tracer_records_parents_and_disabled_tracer_records_nothing():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert [(s[0], s[3]) for s in tr.spans] == [("outer", None), ("inner", 0)]
    off = Tracer(enabled=False)
    with off.span("x"):
        off.count("n")
    assert off.spans == [] and off.counts == {}


def _ddsd_attributes():
    """Identity of every attribute of every ddsd module and class."""
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("ddsd"):
            continue
        for attr, value in vars(mod).items():
            seen[mod_name, attr] = id(value)
            if inspect.isclass(value) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    seen[mod_name, attr, cattr] = id(cvalue)
    return seen


def test_no_patch_survives_a_traced_run(tmp_path):
    before = _ddsd_attributes()
    run.run_workload(
        "extract", seed=2, seconds=1, trace=1, sizes=workloads.TINY,
        work_dir=str(tmp_path / "work"), out_dir=str(tmp_path / "out"),
    )
    after = _ddsd_attributes()
    changed = [k for k in before if after.get(k) != before[k]]
    assert changed == []


def test_patches_restore_in_reverse_order():
    class Owner:
        f = 1

    p = Patches()
    p.set(Owner, "f", 2)
    p.set(Owner, "f", 3)
    p.restore()
    assert Owner.f == 1
