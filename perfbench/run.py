"""Benchmark runner for the ddsd pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload extract|components|fusion \
        --seed N --seconds S --trace 0|1

Set-up writes the workload's inputs from the seed (several times; the median
is ``setup_s``). The timed part then repeats until ``--seconds`` is used up.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, medians
over the repetitions. With ``--trace 1`` untraced and traced repetitions
alternate, and the last line holds the per-layer metrics from the traced
ones. The line before it is a JSON report: environment, digests, quality
numbers, stage throughputs and class weights. Spans and the report are also
written under ``.bench_out/``.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

# numpy, ddsd and the harness modules that use them are imported inside
# functions: main() must cap the BLAS threads before numpy loads

NPROC = os.cpu_count() or 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# set-up repeats (at least, at most) until SETUP_SECONDS are spent; setup_s is their median
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 4.0
MIN_REPS = 3  # a traced run alternates, starting untraced


def environment(work_dir):
    """Versions, BLAS, nproc, commit and work-dir filesystem of this run."""
    import numpy
    import scipy

    import ddsd.kernels

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ddsd", "**", "*.py"), recursive=True)):
        src.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            src.update(f.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": NPROC,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "work_dir_fs": _filesystem(work_dir),
        "numba_enabled": bool(ddsd.kernels.NUMBA_ENABLED),
    }


def _filesystem(path):
    """Filesystem type of the mount holding path, from /proc/mounts when present."""
    best, fs = "", None
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                    best, fs = mount, parts[2]
    except OSError:
        return None
    return fs


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, sizes=None, work_dir=WORK_DIR, out_dir=OUT_DIR):
    """Run one workload; returns (result line dict, report dict)."""
    import probes
    import workloads
    from spans import Tracer

    sizes = sizes or workloads.FULL
    setup, run = workloads.WORKLOADS[name]
    os.makedirs(work_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_dir)
    in_dir = os.path.join(work, "inputs")
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS[0] or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_REPEATS[1]
        ):
            shutil.rmtree(in_dir, ignore_errors=True)
            t0 = time.perf_counter()
            setup(seed, in_dir, sizes)
            setup_times.append(time.perf_counter() - t0)
            if len(setup_times) == 1:
                first_inputs = workloads.input_digest(in_dir)
        input_digests = [first_inputs, workloads.input_digest(in_dir)]

        tracer = Tracer(enabled=False)
        reps, traced_reps, traced_counts = [], [], []
        start = time.perf_counter()
        while True:
            i = len(reps)
            tracer.enabled = bool(trace) and i % 2 == 1
            tracer.rep, tracer.counts = i, {}
            rep = run(in_dir, seed, sizes, tracer).as_dict()
            rep["traced"] = tracer.enabled
            reps.append(rep)
            if tracer.enabled:
                traced_reps.append(i)
                traced_counts.append(tracer.counts)
            elapsed = time.perf_counter() - start
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    problems = sorted({p for r in reps for p in r["problems"]})
    if len({r["digest"] for r in reps}) != 1:
        problems.append("output digests differ between repetitions")
    if any(r["quality"] != reps[0]["quality"] for r in reps):
        problems.append("quality numbers differ between repetitions")
    if len(set(input_digests)) != 1:
        problems.append("set-up wrote different inputs for the same seed")
    if any(c != traced_counts[0] for c in traced_counts):
        problems.append("traced repetitions counted different work")

    wall_s = median(r["wall_s"] for r in plain)
    if trace:
        traced_wall = median(reps[i]["wall_s"] for i in traced_reps)
        metrics = probes.layer_metrics(
            tracer, traced_counts[0], reps[0].get("realised_drop_rate", 0.0), traced_wall / wall_s - 1.0
        )
        units = dict(probes.PER_LAYER)
    else:
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    line = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "environment": environment(work_dir),
        "problems": problems,
        "input_sha256": input_digests[0],
        "output_sha256": reps[0]["digest"],
        "quality": reps[0]["quality"],
        "rates": {k: median(r["rates"][k] for r in plain) for k in reps[0]["rates"]},
        "class_weights": reps[0].get("class_weights"),
        "setup_s": setup_times,
        "reps": [{k: r[k] for k in ("wall_s", "cpu_s", "traced", "stages", "attempted", "failed")} for r in reps],
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(bool(trace))}")
    if trace:
        tracer.write_jsonl(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as f:
        json.dump({"result": line, "report": report}, f, indent=1, default=float)
    return line, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("extract", "components", "fusion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # BLAS reads its thread count when numpy loads, so cap it before any import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)

    if not os.path.isdir(os.path.join(SRC, "ddsd")):
        print(f"ddsd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    line, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        numbers = {**report["rates"], **report["quality"]}
        for name, unit in workloads.REPORTED_UNITS.items():
            if numbers.get(name) is not None:
                print(f"{name} = {numbers[name]:.6g} {unit}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(report, default=float))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
