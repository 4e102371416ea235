#!/usr/bin/env python3
"""textideal benchmark: one seeded workload per process, closed loop.

    python3 benchmarks/run.py --workload senate --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run repeats the workload's fixed-work pipeline
for about `--seconds` seconds and reports each pipeline time as the
fastest of the window, the one least disturbed by other work on a shared
host; set-up is the median of several set-ups, each a fresh interpreter
importing the program plus one input generation. With `--trace 1` it
runs a warm-up, one untraced and one traced pipeline on the same inputs
and reports per-layer metrics from the trace, the tracing overhead and
whether the two fits agree bitwise. Human-readable lines come first; the
last line of standard output is the JSON result. Span files and a full
result record (machine, provenance, per-pipeline samples) go to
`.bench_work/` in the checkout. See benchmarks/DESIGN.md for why each
workload and metric exists.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MODULES = ("analysis", "baselines", "cli", "corpus", "engine", "fitio", "pf", "synth", "tbip",
           "vote")


def metric_units():
    """(end-to-end, per-layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("senate", "desk", "baselines"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads():
    """BLAS may use at most one thread per CPU this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def machine_record(nproc):
    """Host and build provenance; read-only queries, no subprocesses."""
    import numpy
    import scipy

    record = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "bytes_note": "byte and cell counts are computed from array shapes, "
                      "not measured bandwidth; no DRAM roofline is claimed",
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f'{blas.get("name")} {blas.get("version")}'
    except (AttributeError, KeyError, TypeError):
        record["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        record["cpu"] = names[0] if names else platform.machine()
    except OSError:
        record["cpu"] = platform.machine()
    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    record["caches"] = caches
    record["git_commit"] = git_commit()
    return record


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def import_textideal():
    """Import the package from the checkout; raises ImportError if absent."""
    src = ROOT / "src"
    if not (src / "textideal" / "__init__.py").is_file():
        raise ImportError(f"no textideal sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    for name in MODULES:
        importlib.import_module(f"textideal.{name}")
    return sys.modules["textideal"]


def fresh_import_seconds():
    """Wall time for a new interpreter to start and import the program."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            + "; ".join(f"import textideal.{name}" for name in MODULES))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def outcome(pipes):
    ops = [op for pipe in pipes for op in pipe.ops]
    failed = [op for op in ops if not op.ok]
    return len(ops), failed


def main(argv=None):
    args = parse_args(argv)
    end_to_end, per_layer = metric_units()
    nproc = limit_blas_threads()
    try:
        ti = import_textideal()
    except ImportError as exc:
        print(f"cannot import textideal: {exc}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    work_root = ROOT / ".bench_work"
    scratch = work_root / "runs" / run_id
    workload = workloads.WORKLOADS[args.workload](ti, args.seed, scratch)

    # One set-up is a fresh interpreter importing the program plus making
    # the inputs; set-up is repeated and its median reported.
    import_s, prepare_s = [], []
    for _ in range(SETUP_REPEATS):
        import_s.append(fresh_import_seconds())
        t = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - t)
    setup_s = statistics.median(i + p for i, p in zip(import_s, prepare_s))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_id": run_id, "seconds": args.seconds, "machine": machine_record(nproc),
        "setup": {"import_s": import_s, "prepare_s": prepare_s},
    }

    if args.trace:
        # The warm-up pipeline fills caches and finishes lazy set-up, so the
        # untraced and traced pipelines start from the same state.
        warm, record["setup"]["warmup_s"] = workloads.run_pipeline(workload, "warmup")
        properties = workload.properties()
        plain, untraced_wall = workloads.run_pipeline(workload, "untraced")
        rec = tracing.Recorder(run_id)
        rec.install(tracing.targets())
        try:
            workloads.release_memory()
            t = time.perf_counter()
            with rec.span("pipeline"):
                traced = workload.run("traced")
            traced_wall = time.perf_counter() - t
        finally:
            rec.uninstall()
        pipes = [warm, plain, traced]
        bitwise = bool(plain.x_hat) and sorted(plain.x_hat) == sorted(traced.x_hat) and all(
            plain.x_hat[k].tobytes() == traced.x_hat[k].tobytes() for k in plain.x_hat)
        check = workloads.Operation("traced x_hat bitwise equal to untraced")
        check.check(bitwise, "traced and untraced fits differ")
        traced.ops.append(check)
        layers = tracing.layer_metrics(rec, properties, traced_wall, untraced_wall, bitwise)
        metrics = {}
        for name, unit in per_layer.items():
            value, layer_unit, _ = layers[name]
            if layer_unit != unit:
                raise ValueError(f"{name}: BENCHMARK.json unit {unit}, measured {layer_unit}")
            metrics[name] = value
        units = per_layer
        record["per_layer"] = {name: {"value": v, "unit": u, "samples": n}
                               for name, (v, u, n) in layers.items()}
        record["roadmap_rows"] = tracing.roadmap_rows(layers)
        (work_root / "spans").mkdir(parents=True, exist_ok=True)
        rec.write(work_root / "spans" / f"{run_id}.jsonl")
    else:
        pipes, durations = workloads.timed_pipelines(workload, args.seconds)
        properties = workload.properties()
        phases = ("preprocess", "train", "report")
        samples = {f"{ph}_s": [p.phases.get(ph, 0.0) for p in pipes] for ph in phases}
        samples["wall_s"] = durations
        measured = {
            "setup_s": setup_s,
            "wall_s": min(durations),
            "train_s": min(samples["train_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: measured[name] for name in end_to_end}
        units = end_to_end
        record["samples"] = samples
    record["input"] = properties

    attempted, failed = outcome(pipes)
    quality = {}
    for pipe in pipes:
        for key, value in pipe.quality.items():
            quality.setdefault(key, []).append(value)
    record["workload_metrics"] = {
        key: {"value": min(values), "unit": "1", "samples": len(values)}
        for key, values in quality.items()
    }
    if not args.trace:
        for name in ("preprocess_s", "report_s"):
            if any(samples[name]):
                record["workload_metrics"][name] = {
                    "value": min(samples[name]), "unit": "s",
                    "samples": len(samples[name])}
    record["workload_metrics"]["failed_frac"] = {
        "value": len(failed) / attempted, "unit": "1", "samples": attempted}
    record["failures"] = [f"{op.name}: {'; '.join(op.notes)}" for op in failed]
    record["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}

    (work_root / "results").mkdir(parents=True, exist_ok=True)
    with open(work_root / "results" / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    shutil.rmtree(scratch, ignore_errors=True)

    for name, m in record["metrics"].items():
        samples_note = f" (n={record['per_layer'][name]['samples']})" if args.trace else ""
        print(f"metric {name} {m['value']:.6g} {m['unit']}{samples_note}")
    for name, m in record["workload_metrics"].items():
        print(f"workload-metric {name} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    if args.trace:
        for name, m in record["per_layer"].items():
            if name not in metrics:
                value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
                print(f"layer-detail {name} {value} {m['unit']} (n={m['samples']})")
        for row in record["roadmap_rows"]:
            value = "n/a" if row["this_run"] is None else f"{row['this_run']:.6g}"
            print(f"roadmap-row {row['row']}: {row['metric']} {value} {row['unit']} "
                  f"(n={row['samples']}); ROADMAP baseline: {row['roadmap_baseline']}")
    for line in record["failures"]:
        print(f"failure {line}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
