#!/usr/bin/env python3
"""irsec benchmark: end-to-end timings of three workloads, per-layer spans.

    python3 bench/run.py --workload design_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload figures_mc --seed 1 --seconds 20 --trace 1 --out base.jsonl
    python3 bench/run.py --compare base.jsonl new.jsonl
    python3 bench/run.py --self-test

One client runs jobs one at a time (a closed loop with one client), each
in a fresh interpreter (bench/job.py) so the kappa-fit cache starts cold
as it does for every user invocation. It keeps starting jobs until
--seconds have passed, then prints every metric by name with its unit,
and as its last line one JSON object: correct, attempted, failed and the
metrics. BENCHMARK.json names the workloads and metrics and fixes units
and bounds.

--trace 0 reports the end-to-end metrics from untraced jobs:
  setup_s       median time from spawning an interpreter until irsec, numpy
                and scipy are imported (every job's own set-up, topped up
                with import-only probes)
  job_s         time of a job's timed region, median over the run's jobs
  point_ms_p50  latency of one point: a design point (four branches) on
  point_ms_p95  design_grid, a figure (sweep, CSV, SVG) on figures_mc, one
                CLI invocation on validate_cli. Each point's latency is its
                median over the run's jobs; p50 and p95 run over the points,
                so p95 is the cost of the slow points, not the host's noise
  peak_rss_mb   median peak resident memory of a job process
All times are at the reference speed of bench/calib.py: the shared 2-vCPU
virtual machine these workloads were tuned on changes speed by up to
about 1.9x from second to second, so each stretch of work is scaled by a
fixed calibration kernel timed right beside it. The record written by
--out keeps the raw wall and work times as well.
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones (bench/spans.py), the tracing overhead and
ops_failed_frac, which is `failed` over `attempted`.

An operation is a sweep row, a branch evaluation or a validated branch;
it fails if it raises or its output check fails. Failed operations are
counted, not hidden: design_grid includes the cells where the closed
forms are known to fail. `correct` is false when a job does not finish,
or when jobs of one run disagree on the outputs or on which operations
failed, since the same seed must give the same results.

--seed feeds only the oracle seeds and the design_grid evaluation order.
--out appends the run's full record (metadata, samples, failures,
analytic digest, self-time table) as one JSON line; --compare reads two
such files and prints, per workload and metric, both sides' medians and
quartiles, their ratio and a verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
JOB = BENCH_DIR / "job.py"
REQUIRED = (ROOT / "src" / "irsec" / "__init__.py",
            ROOT / "scripts" / "run_figure_sweeps.py")

# Set-up samples per run: every job's own set-up, topped up with probes
# that only import. One discarded warm-up probe first lets the file cache
# and the bytecode cache fill.
SETUP_SAMPLES = 9

# No job starts once the run could then overrun this many seconds.
RUN_CAP_S = 120.0
JOB_TIMEOUT_S = 170.0

# Numeric-library thread pools are capped in every job process; the
# workloads are single-threaded, so this only removes idle pool threads.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class JobError(RuntimeError):
    """A job process failed, timed out or printed no record."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ stats

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ------------------------------------------------------------------- jobs

def _job_env() -> dict:
    env = dict(os.environ)
    env.pop("IRS_EC_SEED", None)
    env.update(THREAD_CAPS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(args: list[str]) -> tuple[float, dict]:
    """Spawn one job; return (set-up seconds at reference speed, its record)."""
    speed = calib.speed_sample()
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(JOB), *args], cwd=ROOT,
                            env=_job_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise JobError(f"job {args} timed out after {JOB_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobError(f"job {args} exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(lines[-1])
    scale = calib.REFERENCE_S / statistics.median(speed + record["ready_speed"])
    return (record["ready"] - spawned) * scale, record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run jobs for about `seconds`; return the raw samples of the run.

    A further job (or untraced/traced pair) starts only while the last one
    would still fit in the time left, so a run overshoots `seconds` by
    less than one job; the first always runs.
    """
    run_job(["--probe"])
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups, plain, traced = [], [], []
    start = time.monotonic()
    while True:
        cycle = time.monotonic()
        for with_trace in ((False, True) if trace else (False,)):
            job_id = len(plain) + len(traced)
            extra = ["--trace"] if with_trace else []
            setup, record = run_job(base + ["--job-id", str(job_id)] + extra)
            setups.append(setup)
            (traced if with_trace else plain).append(record)
        now = time.monotonic()
        if now + (now - cycle) - start > min(seconds, RUN_CAP_S):
            break
    while len(setups) < (2 if tiny else SETUP_SAMPLES):
        setups.append(run_job(["--probe"])[0])
    return {"setups": setups, "plain": plain, "traced": traced}


def _consistent(records: list[dict]) -> bool:
    first = records[0]
    return all(r["digest"] == first["digest"] and r["attempted"] == first["attempted"]
               and r["failures"] == first["failures"] for r in records)


def summarize(spec: dict, samples: dict, trace: bool) -> dict:
    """Metric values for the run, plus counts and the correctness verdict."""
    plain, traced = samples["plain"], samples["traced"]
    jobs = plain + traced
    attempted = sum(r["attempted"] for r in jobs)
    failed = sum(len(r["failures"]) for r in jobs)
    if trace:
        values = {}
        for name in traced[0]["trace"]["metrics"]:
            values[name] = statistics.median(
                r["trace"]["metrics"][name] for r in traced)
        # traced jobs run no calibration kernel, so both sides are wall time
        values["trace.overhead_frac"] = (
            statistics.median(r["job_s"] for r in traced)
            / statistics.median(r["job_work_s"] for r in plain) - 1.0)
        values["ops_failed_frac"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        # every job of a run evaluates the same points in the same order
        points = [statistics.median(ts) for ts in zip(*(r["points_s"] for r in plain))]
        values = {
            "setup_s": statistics.median(samples["setups"]),
            "job_s": statistics.median(r["job_s"] for r in plain),
            "point_ms_p50": 1e3 * statistics.median(points),
            "point_ms_p95": 1e3 * percentile(points, 95.0),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": _consistent(jobs), "attempted": attempted,
            "failed": failed, "metrics": metrics}


# --------------------------------------------------------------- metadata

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def metadata(seed: int, samples: dict) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "versions": samples["plain"][0]["versions"], "git_sha": _git_sha(),
            "seed": seed, "thread_caps": THREAD_CAPS}


# ---------------------------------------------------------------- reports

def _print_trace_table(record: dict) -> None:
    job_s = record["job_s"]
    trace = record["trace"]
    rows = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"traced job: {job_s:.3f} s, {trace['spans']} spans")
    print(f"  {'function':<36} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, row in rows:
        print(f"  {name:<36} {row['calls']:>9} {row['self_s']:>10.4f} "
              f"{row['self_s'] / job_s:>7.2%}")
    print(f"  {'(unwrapped remainder)':<36} {'':>9} {trace['unwrapped_s']:>10.4f} "
          f"{trace['unwrapped_s'] / job_s:>7.2%}")
    covered = sum(row["self_s"] for _, row in rows) + trace["unwrapped_s"]
    print(f"  self times + remainder = {covered:.4f} s of job_s {job_s:.4f} s")


def report(workload: str, seed: int, trace: bool, samples: dict, result: dict,
           meta: dict) -> dict:
    jobs = samples["plain"] + samples["traced"]
    print(f"workload = {workload}, seed = {seed}, trace = {int(trace)}, "
          f"jobs = {len(samples['plain'])} untraced + {len(samples['traced'])} traced, "
          f"setup samples = {len(samples['setups'])}")
    print("metadata = " + json.dumps(meta))
    print(f"analytic digest = {jobs[0]['digest']}")
    print(f"ops: attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    for label, error in jobs[0]["failures"]:
        print(f"  failed: {label}: {error}")
    if trace:
        _print_trace_table(samples["traced"][0])
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "metadata": meta, "digest": jobs[0]["digest"],
            "failures": jobs[0]["failures"], **result,
            "samples": {
                "setup_s": samples["setups"],
                "job_s": [r["job_s"] for r in samples["plain"]],
                "job_work_s": [r["job_work_s"] for r in samples["plain"]],
                "job_wall_s": [r["job_wall_s"] for r in samples["plain"]],
                "segments": [r["segments"] for r in samples["plain"]],
                "kernel_s_median": [r["kernel_s_median"] for r in samples["plain"]],
                "traced_job_s": [r["job_s"] for r in samples["traced"]],
                "points": sum(len(r["points_s"]) for r in samples["plain"]),
            },
            "self_time": [r["trace"] for r in samples["traced"]]}


# ---------------------------------------------------------------- compare

def _read_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """worse, unchanged or unresolved, by the benchmark's bound on the metric."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def _median_iqr(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(path_a, path_b) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = _read_records(path_a), _read_records(path_b)
    print(f"base = {path_a} ({len(base)} runs), new = {path_b} ({len(new)} runs)")
    for w in spec["workloads"]:
        name = w["name"]
        print(f"\n[{name}]")
        print(f"  {'metric':<44} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'new/base':>9}  verdict")
        for metric in list(bounds) + list(layers):
            a = [r["metrics"][metric]["value"] for r in base
                 if r["workload"] == name and metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in new
                 if r["workload"] == name and metric in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else math.nan
            if metric in bounds:
                m = bounds[metric]
                tag = verdict(a, b, m["bound"], m["better"])
            else:
                tag = "no bound (per layer)"
            print(f"  {metric:<44} {_median_iqr(qa):>32} {_median_iqr(qb):>32} "
                  f"{ratio:>9.4f}  {tag} (n={len(a)}/{len(b)})")
    return 0


# -------------------------------------------------------------- self-test

def _tamper_checks() -> list[str]:
    """The output checks must flag a tampered EC and a 5% validate line."""
    sys.path.insert(0, str(ROOT / "src"))
    from irsec import channel, eccore, rateopt, sweeps
    import workloads

    problems = []
    mods = {"channel": channel, "eccore": eccore, "rateopt": rateopt, "sweeps": sweeps}
    ctx = workloads.Context(mods=mods, script=None, seed=0, tiny=True, out_dir=None)
    clean = [((100, 1e-3, 0.1), workloads._design_point(mods, 100, 1e-3, 0.1))]
    ops, _ = workloads.check_design_grid(ctx, clean)
    if any(error for _, error in ops):
        problems.append(f"clean design point flagged: {ops}")
    cfg, scenario, mode, ec, rate, error = clean[0][1][1]
    above = 1.01 * eccore.mean_service(cfg, scenario, rate)
    tampered = list(clean[0][1])
    tampered[1] = (cfg, scenario, mode, above, rate, error)
    ops, _ = workloads.check_design_grid(ctx, [(clean[0][0], tampered)])
    if [label for label, error in ops if error] != [ops[1][0]]:
        problems.append(f"EC above mean service not flagged alone: {ops}")

    line = ("{}: analytic = 1.000000, oracle = 1.010000, stderr = 0.002, "
            "rel_err = {:.3%}")
    report_text = "\n".join(line.format(s, 0.01) for s in workloads._SCENARIOS)
    if any(error for _, error in workloads.check_validate_output(0, report_text)[0]):
        problems.append("clean validate report flagged")
    bad = report_text.replace("rel_err = 1.000%", "rel_err = 5.000%", 1)
    flagged = [l for l, e in workloads.check_validate_output(0, bad)[0] if e]
    if flagged != ["validate siso_csi"]:
        problems.append(f"validate line at 5% not flagged alone: {flagged}")
    if not all(e for _, e in workloads.check_validate_output(2, report_text)[0]):
        problems.append("nonzero validate exit code not flagged")
    return problems


def self_test() -> int:
    spec = load_spec()
    problems = _tamper_checks()
    for w in spec["workloads"]:
        for trace in (False, True):
            samples = measure(w["name"], 1, 0.0, trace, tiny=True)
            result = summarize(spec, samples, trace)
            wanted = spec["per_layer" if trace else "end_to_end"]
            print(f"[{w['name']} trace={int(trace)}] attempted = "
                  f"{result['attempted']}, failed = {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            got = [(n, m["unit"]) for n, m in result["metrics"].items()]
            if got != [(m["name"], m["unit"]) for m in wanted]:
                problems.append(f"{w['name']} trace={int(trace)}: metrics {got}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{w['name']} trace={int(trace)}: non-finite metric")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={int(trace)}: jobs disagree")
    for problem in problems:
        print(f"self-test problem: {problem}")
    print("self-test: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not an irsec checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")

    trace = bool(args.trace)
    try:
        samples = measure(args.workload, args.seed, args.seconds, trace)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(spec, samples, trace)
    record = report(args.workload, args.seed, trace, samples, result,
                    metadata(args.seed, samples))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
