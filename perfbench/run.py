#!/usr/bin/env python3
"""Benchmark runner for compatgnn.

    python3 perfbench/run.py --workload compat-50k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload (see workloads.py) in this process on inputs made from
--seed, repeating its fixed job until --seconds have passed (at least
once), checks the outputs and prints every metric by name and unit. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics from a
traced run of the same job. A full report (environment, checks, curve
digests) goes to .perfbench/out/ under the repository root.

--smoke runs every workload at toy size, traced and untraced, each in its
own process, and checks that every metric BENCHMARK.json names is
emitted with its unit.
"""

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3          # set-up samples per run, at least; setup_s is their median
TAIL_BEYOND = 10           # samples the tail percentile must leave above it
TAIL_MAX_PERCENTILE = 90   # above p90 a burst of host load on a few epochs sets the tail
MAX_EPOCH_UNCOVERED = 0.06 # share of a train_model call outside sum(epoch_ms)


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("gb_computed"):
        return "GB"
    if "bytes" in name:
        return "B"
    if name.endswith(("ratio", "yield", "share", "frac")):
        return "ratio"
    return "count"


UNITS = {"setup_s": "s", "job_s": "s", "epoch_ms_p50": "ms", "epoch_ms_tail": "ms",
         "peak_rss_mb": "MB", "test_acc": "fraction", "model.cm_tv": "TV"}


def tail_percentile(samples):
    """(value, percentile, n): the largest sample with TAIL_BEYOND samples
    above it, i.e. the highest percentile that has that many beyond it, but
    no higher than TAIL_MAX_PERCENTILE. Below 2 * TAIL_BEYOND samples that
    percentile would fall under the median, so the median stands in for the
    tail."""
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(s), 50, n
    beyond = max(TAIL_BEYOND, -(-n * (100 - TAIL_MAX_PERCENTILE) // 100))
    return s[n - beyond - 1], 100 * (n - beyond) // n, n


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "compatgnn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed, "git_commit": _git_commit(),
            "src_digest": _src_digest()}


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _load_reference(name, toy):
    if toy:
        return {}
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(name, {})


# ---------------------------------------------------------------------------
# checks shared by traced and untraced runs

def check_job(job, evaluation, reference, seed, toy, checks, notes):
    """Append (name, passed) output checks for one job; passed None = skipped.
    Toy-size runs have no reference and skip the epoch-timer coverage check:
    there the per-call work outside the epochs outweighs the epochs."""
    import numpy as np
    from workloads import curves_digest

    checks.append(("no_failed_operations", job.failed == 0))
    checks.append(("losses_finite", bool(job.runs) and all(
        np.all(np.isfinite(r.loss_curve)) for r in job.runs)))
    checks.append(("artifacts_written", bool(evaluation.get("artifacts_ok"))))
    for key in ("test_acc", "cm_tv"):
        ref = reference.get(key)
        value = evaluation.get(key)
        notes[key] = value
        if ref is None or value is None:
            passed = None
        elif "min" in ref:
            passed = value >= ref["min"]
        else:
            passed = value <= ref["max"]
        checks.append((f"{key}_within_reference_bound", passed))
    # per call, so that a call with little to hide cannot dilute another's share
    uncovered = max((1.0 - inside / outside for outside, inside in job.train_calls),
                    default=0.0)
    notes["epoch_uncovered_share"] = max(uncovered, notes.get("epoch_uncovered_share", 0.0))
    checks.append(("epoch_timer_coverage", None if toy else uncovered <= MAX_EPOCH_UNCOVERED))
    digest = curves_digest(job.runs)
    notes["curves_digest"] = digest
    expected = reference.get("curves", {}).get(str(seed))
    notes["curves_identical"] = None if expected is None else digest == expected
    notes["errors"] = notes.get("errors", []) + job.errors
    return digest


def evaluate(wl, job):
    """The workload's output checks; unreadable outputs fail them."""
    try:
        return wl.evaluate(job)
    except Exception as exc:   # recorded, and the run goes on
        job.errors.append(f"evaluate: {type(exc).__name__}: {exc}")
        return {"artifacts_ok": False}


def measure(wl, ds, seed, seconds, work):
    """Untraced run: repeat the job for `seconds`, then set-up passes until
    there are SETUP_SAMPLES. A set-up pass is the same job trained for one
    epoch, so it times the job's own set-up path; its outputs are not kept."""
    jobs, evaluations = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        job = wl.job(ds, seed, _fresh(work))
        evaluations.append(evaluate(wl, job))
        job.state = {}
        jobs.append(job)
        if time.perf_counter() - start >= seconds:
            break
    setup = [j.setup_s for j in jobs]
    passes = []
    while len(setup) + len(passes) < SETUP_SAMPLES:
        gc.collect()
        passes.append(dataclasses.replace(wl, epochs=1).job(
            ds, seed, _fresh(work + "-setup")))
    return jobs, evaluations, setup + [p.setup_s for p in passes], passes


def end_to_end(wl_module, jobs, evaluations, setup, notes):
    epochs = [ms for j in jobs for r in j.runs
              for ms in r.epoch_ms[wl_module.WARMUP_EPOCHS:]]
    tail, pct, n = tail_percentile(epochs) if epochs else (float("nan"), 0, 0)
    notes.update({"jobs": len(jobs), "job_s_samples": [j.job_s for j in jobs],
                  "setup_s_samples": setup, "epoch_samples": n,
                  "epoch_tail_percentile": pct})
    first = evaluations[0]
    return {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(j.job_s for j in jobs),
        "epoch_ms_p50": statistics.median(epochs) if epochs else float("nan"),
        "epoch_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_acc": first.get("test_acc", float("nan")),
    }


def traced_run(wl, ds, seed, work, name):
    """The job traced, as the first job of the process like an untraced
    run's, then once untraced as the overhead baseline. The overhead so
    includes the first job's warm-up and is an upper bound."""
    from spans import Tracer

    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.job(ds, seed, _fresh(work))
    finally:
        tracer.uninstall()
    traced_eval = evaluate(wl, traced)
    traced.state = {}
    gc.collect()
    baseline = wl.job(ds, seed, _fresh(work))
    baseline_eval = evaluate(wl, baseline)
    baseline.state = {}
    metrics = tracer.layer_metrics()
    # 0 where no compatgnn model trains, like any metric of a layer that does not run
    metrics["model.cm_tv"] = traced_eval.get("cm_tv") or 0.0
    metrics["trace.overhead_s"] = traced.job_s - baseline.job_s
    metrics["trace.unattributed_share"] = 1.0 - tracer.root_seconds / traced.job_s
    jobs = [traced, baseline]
    metrics["failed_frac"] = (sum(j.failed for j in jobs)
                              / sum(j.attempted for j in jobs))
    ops = tracer.op_seconds()
    split = {"op_seconds": ops}
    if name == "compat-50k":
        split["dense_ops_outweigh_spmm"] = (
            ops["matmul"] + ops["concat_cols"] + ops["row_scale"] > ops["spmm"])
    if name == "h2gcn-5k":
        split["spmm_is_largest_op"] = max(ops, key=ops.get) == "spmm"
    os.makedirs(os.path.join(STATE, "out"), exist_ok=True)
    tracer.save(os.path.join(STATE, "out", f"{name}-seed{seed}-spans.npz"))
    return jobs, [traced_eval, baseline_eval], metrics, split


def run(name, seed, seconds, trace, toy):
    import workloads

    table = workloads.TOY if toy else workloads.WORKLOADS
    wl = table[name]
    reference = _load_reference(name, toy)
    work = os.path.join(STATE, "work", name)
    ds, prep_s, cached = wl.prepare(seed, os.path.join(STATE, "cache"))
    notes = {"workload": name, "seed": seed, "trace": trace, "toy": toy,
             "env": environment(seed), "prep_s": prep_s, "prep_cached": cached}
    checks = []
    passes = []
    if trace:
        jobs, evaluations, metrics, split = traced_run(wl, ds, seed, work, name)
        notes["workload_split"] = split
    else:
        jobs, evaluations, setup, passes = measure(wl, ds, seed, seconds, work)
        metrics = end_to_end(workloads, jobs, evaluations, setup, notes)
    digests = [check_job(job, evaluation, reference, seed, toy, checks, notes)
               for job, evaluation in zip(jobs, evaluations)]
    # every job of a run must train bit-identically; a traced run always has
    # two (traced and baseline), an untraced one as many as fit in --seconds
    if len(digests) > 1:
        checks.append(("curves_repeatable", len(set(digests)) == 1))
    if passes:
        checks.append(("setup_passes_ok", all(p.failed == 0 for p in passes)))
        notes["errors"] += [f"set-up pass: {e}" for p in passes for e in p.errors]
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    summary = {}          # per check over all jobs: False if any job failed it
    for key, passed in checks:
        prev = summary.get(key)
        summary[key] = False if False in (prev, passed) else (
            prev if passed is None else passed)
    notes["checks"] = summary
    correct = all(v is not False for v in summary.values()) and failed == 0
    units = {k: UNITS.get(k) or _unit(k) for k in metrics}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": int(v) if units[k] in ("count", "B")
                              and float(v).is_integer() else v, "unit": units[k]}
                          for k, v in metrics.items()}}
    notes["result"] = result
    os.makedirs(os.path.join(STATE, "out"), exist_ok=True)
    with open(os.path.join(STATE, "out", f"{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(notes, fh, indent=1, default=str)
    return result, notes


def print_human(result, notes):
    print(f"perfbench {notes['workload']} seed={notes['seed']} "
          f"trace={notes['trace']} toy={notes['toy']}")
    print("env " + json.dumps(notes["env"]))
    print(f"prep_s {notes['prep_s']:.3f} (cached: {notes['prep_cached']}; "
          "outside the timed region)")
    for key, m in result["metrics"].items():
        extra = ""
        if key == "epoch_ms_tail":
            extra = (f"  (p{notes['epoch_tail_percentile']}, "
                     f"{notes['epoch_samples']} samples)")
        elif key == "setup_s":
            extra = f"  (median of {len(notes['setup_s_samples'])})"
        print(f"{key} {m['value']:.6g} {m['unit']}{extra}")
    cm_tv = "n/a (no compatgnn model)" if notes["cm_tv"] is None else f"{notes['cm_tv']:.6g}"
    print(f"cm_tv {cm_tv} TV  (output check; per-layer metric model.cm_tv)")
    print(f"epoch_uncovered_share {notes['epoch_uncovered_share']:.4f}")
    for key, passed in notes["checks"].items():
        print(f"check {key} {'skipped' if passed is None else 'ok' if passed else 'FAILED'}")
    identical = notes["curves_identical"]
    print("curves_identical " + ("no reference for this seed" if identical is None
                                 else str(identical).lower()))
    if "workload_split" in notes:
        split = {k: v for k, v in notes["workload_split"].items() if k != "op_seconds"}
        print("workload_split " + json.dumps(split))
    for err in notes["errors"]:
        print(f"error {err}")
    print(f"attempted {result['attempted']} failed {result['failed']}")


# ---------------------------------------------------------------------------

def smoke():
    """Every workload at toy size, both modes, each in its own process."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=600, check=False)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                problems += [f"missing {k}" for k in expected[trace] if k not in got]
                problems += [f"unlisted {k}" for k in got if k not in expected[trace]]
                problems += [f"{k} unit {got[k]} != {u}" for k, u in expected[trace].items()
                             if k in got and got[k] != u]
                if not result["correct"]:
                    problems.append("correct is false")
            except (IndexError, ValueError, KeyError) as exc:
                problems.append(f"no result line ({exc}); exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
            ok = ok and not problems
            print(f"smoke {w['name']} trace={trace} "
                  f"{'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="run the workload at toy size (used by --smoke)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "compatgnn", "__init__.py")):
        print(f"perfbench: no compatgnn sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")

    # BLAS reads its thread count when numpy is first imported: one per CPU
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result, notes = run(args.workload, args.seed, args.seconds, args.trace, args.toy)
    print_human(result, notes)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
