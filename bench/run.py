"""chatdqn benchmark: one workload per process, BLAS pinned to one thread.

    python3 bench/run.py --workload toy|paper|corpus|all --seed N \
        --seconds S --trace 0|1

`--trace 0` is the timed run. It sets the workload up three times, runs the
main job once (the reuse job reads what it writes), and then repeats the
reuse and study jobs, interleaved, over the rest of `--seconds`. It prints
the end-to-end metrics: medians over the repeats, with every repeat's value
kept in the result record.

`--trace 1` is the traced run. It runs set-up and each job three times in a
row, and wraps every public `chatdqn` callable in a span for the middle one.
It prints the per-layer metrics, `tracing_overhead` (traced program time over
the mean of the untraced neighbours' program time, minus one) and
`untraced_share` (the share of traced program time that no top-level span
covers).

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Result records and span files go to
`.bench_out/` at the root of the checkout. `--workload all` runs every
workload in its own process and prints a summary.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("toy", "paper", "corpus")
JOBS = ("main", "reuse", "study")
# Each workload's job medians under their usual names: (name, sample key, unit).
JOB_NAMES = {
    "toy": [("train_steps_per_s", "main_items_per_s", "1/s"),
            ("eval_turns_per_s", "reuse_items_per_s", "1/s")],
    "paper": [("train_steps_per_s", "main_items_per_s", "1/s"),
              ("eval_turns_per_s", "reuse_items_per_s", "1/s")],
    "corpus": [("pipeline_s", "main_s", "s"), ("resume_s", "reuse_s", "s")],
}
METRIC_OF_JOB = {"main": "main_items_per_s", "reuse": "reuse_items_per_s",
                 "study": "study_examples_per_s"}


def _load_program():
    """Import chatdqn from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "chatdqn", "__init__.py")):
        sys.exit(f"error: no chatdqn sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import chatdqn

    if not os.path.abspath(chatdqn.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: chatdqn imported from {chatdqn.__file__}, not {SRC}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- environment fingerprint ---------------------------------------------


def gemm_peak_gflops(n: int = 512, reps: int = 20) -> float:
    """Best single-thread float64 GEMM rate over `reps` n x n products."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def _blas_threads(blas: dict) -> str:
    """Ask the loaded OpenBLAS for its thread count; fall back to the pin."""
    import ctypes
    import glob

    for lib in glob.glob(os.path.join(blas.get("lib directory", ""), "*openblas*.so*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (pinned)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(blas),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "gemm_peak_gflops": gemm_peak_gflops(),
    }


# -- running -------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with every check's outcome."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []  # (job, name, ok, detail)

    def run(self, job: str, fn):
        """fn() returns (items, seconds of program time, checks); returns
        (items, seconds), or None when it raised."""
        self.attempted += 1
        try:
            items, dt, checks = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            self.checks.append((job, "raised", False, "see stderr"))
            return None
        for c in checks:
            self.checks.append((job, c.name, c.ok, c.detail))
        self.failed += not all(c.ok for c in checks)
        return items, dt


def timed_run(wl, seconds: float, ledger: Ledger) -> dict:
    """Set-up, one main run, then reuse and study interleaved, each with half
    of what is left of `seconds`: the job that has used less time goes next,
    and a job stops once it has used its half. Interleaving spreads each job's repeats over the
    run, so that a slow spell of the machine does not fall on one job only."""
    samples = {"setup_s": []}
    for _ in range(SETUP_REPEATS):
        out = ledger.run("setup", wl.setup)
        if out is not None:
            samples["setup_s"].append(out[1])
    if not samples["setup_s"]:
        raise SystemExit("error: every set-up failed")
    values = {job: [] for job in JOBS}
    times = {job: [] for job in JOBS}

    def run(job: str) -> bool:
        out = ledger.run(job, getattr(wl, job))
        if out is None:
            return False
        items, dt = out
        values[job].append(items / dt)
        times[job].append(dt)
        return True

    if not run("main"):
        raise SystemExit("error: the main job failed")
    budget = max(seconds - times["main"][0], 0.0) / 2
    pending = ["reuse", "study"]
    while pending:
        job = min(pending, key=lambda j: sum(times[j]))
        if not run(job) or sum(times[job]) >= budget:
            pending.remove(job)
    for job in JOBS:
        if not values[job]:
            raise SystemExit(f"error: every repeat of job {job} failed")
        samples[METRIC_OF_JOB[job]] = values[job]
        samples[f"{job}_s"] = times[job]
    return samples


def traced_run(wl, ledger: Ledger):
    """Set-up and each job three times in a row: untraced, traced, untraced.
    Comparing each traced call with the mean of its two neighbours cancels
    drift in machine speed over the run."""
    from spans import Tracer

    tracer = Tracer()
    traced = untraced = 0.0
    windows = []
    for job in ("setup", *JOBS):
        fn = getattr(wl, job)
        before = ledger.run(job, fn)
        tracer.install()
        first = len(wl.windows)
        during = ledger.run(job, fn)
        windows += wl.windows[first:]
        tracer.uninstall()
        after = ledger.run(job, fn)
        if None in (before, during, after):
            raise SystemExit(f"error: job {job} failed in the traced run")
        traced += during[1]
        untraced += (before[1] + after[1]) / 2
    return tracer, windows, untraced, traced


def _median_metrics(samples: dict, spec: dict) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def _layer_metrics(tracer, windows, untraced: float, traced: float, gemm: float,
                   spec: dict):
    stats = tracer.layer_stats(windows)
    run_level = {
        "gemm_peak_gflops": gemm,
        "tracing_overhead": traced / untraced - 1.0,
        "untraced_share": 1.0 - tracer.covered_s(windows) / traced,
    }
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in run_level:
            value = run_level[name]
        else:
            layer, stat = name.rsplit(".", 1)
            value = stats.get(layer, {}).get(stat, 0.0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, stats


def _print_timed(wl_name: str, samples: dict, metrics: dict) -> None:
    for name, m in metrics.items():
        vals = samples.get(name)
        extra = ""
        if vals:
            extra = f"  (median of {len(vals)}: {', '.join(f'{v:.4g}' for v in vals)})"
        print(f"{name:24s} {m['value']:12.5g} {m['unit']}{extra}")
    for alias, key, unit in JOB_NAMES[wl_name]:
        print(f"  = {alias:20s} {statistics.median(samples[key]):12.5g} {unit}"
              f"  (n={len(samples[key])})")


def _print_traced(metrics: dict, stats: dict, top: int = 8) -> None:
    for name, m in metrics.items():
        note = ""
        if name.endswith(".p99_ms"):
            calls = stats.get(name.rsplit(".", 1)[0], {}).get("calls", 0)
            note = f"  (n={calls}{', indicative: under 1000 calls' if calls < 1000 else ''})"
        print(f"{name:52s} {m['value']:12.5g} {m['unit']}{note}")
    total = sum(s["self_s"] for s in stats.values())
    print(f"top self-time layers (of {total:.3f} s in spans):")
    ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    for name, s in ranked:
        print(f"  {name:48s} {s['self_s']:9.3f} s  {100 * s['self_s'] / total:5.1f}%"
              f"  calls {s['calls']}")


def run_workload(args) -> int:
    _load_program()
    from workloads import WORKLOADS

    spec = _spec()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    ledger = Ledger()
    try:
        fp = fingerprint()
        print("fingerprint: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "fingerprint": fp}
        if args.trace:
            tracer, windows, untraced, traced = traced_run(wl, ledger)
            metrics, stats = _layer_metrics(tracer, windows, untraced, traced,
                                            fp["gemm_peak_gflops"], spec)
            _print_traced(metrics, stats)
            tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
            record.update(untraced_s=untraced, traced_s=traced, layers=stats)
        else:
            samples = timed_run(wl, args.seconds, ledger)
            metrics = _median_metrics(samples, spec)
            _print_timed(args.workload, samples, metrics)
            record["samples"] = samples
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for job, name, ok, detail in ledger.checks:
        print(f"check {job:6s} {name:40s} {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"fail_ratio {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.4g}")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record.update(result=result, checks=ledger.checks)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak RSS is per workload."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print("== summary")
    for name, res in summary.items():
        print(f"{name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
