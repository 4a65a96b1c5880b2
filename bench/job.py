"""One benchmark job, run in a fresh interpreter by bench/run.py.

    python3 bench/job.py --workload design_grid --seed 1 --job-id 0 [--trace]
    python3 bench/job.py --probe

It imports irsec from the checkout's src/ and reports, as one JSON line
on stdout, the CLOCK_MONOTONIC time at which the imports were ready, so
the parent can time set-up from the moment it spawned the process, and
a few calibration kernel times taken just after (bench/calib.py). A
probe stops there. A job then runs the workload's timed region (traced
or not), reads its peak RSS, checks every output outside the timed
region and reports ops, latencies and the analytic digest. Untraced jobs
report job and point times at the calibration's reference speed; traced
jobs run no kernel and report wall time.
"""

import argparse
import hashlib
import importlib.util
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIGURE_SCRIPT = ROOT / "scripts" / "run_figure_sweeps.py"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import irsec
    from irsec import channel, cli, eccore, mcoracle, rateopt, specfun, sweeps

    spec = importlib.util.spec_from_file_location("run_figure_sweeps", FIGURE_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    mods = {"specfun": specfun, "channel": channel, "eccore": eccore,
            "rateopt": rateopt, "mcoracle": mcoracle, "sweeps": sweeps, "cli": cli}
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "irsec": irsec.__version__}
    return mods, script, versions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--job-id", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="a few operations only, for the self-test")
    parser.add_argument("--probe", action="store_true",
                        help="import, report the ready time and exit")
    args = parser.parse_args(argv)

    mods, script, versions = _import_program()
    ready = time.monotonic()
    import calib
    ready_speed = calib.speed_sample()
    if args.probe:
        print(json.dumps({"ready": ready, "ready_speed": ready_speed}))
        return 0

    from spans import Tracer, unpatch
    from workloads import WORKLOADS, Context

    run, check = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_build" / f"job-{args.workload}-{args.job_id}"
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = calib.SpeedClock(calibrate=not args.trace)
    ctx = Context(mods=mods, script=script, seed=args.seed, tiny=args.tiny,
                  out_dir=out_dir, clock=clock)
    tracer = None
    marks = []
    try:
        if args.trace:
            tracer = Tracer(args.job_id)
            tracer.install(mods, importers=[script])
        else:
            marks = calib.install_marks(clock, mods, importers=[script])
        start = clock.start()
        try:
            intervals, outputs = run(ctx)
        finally:
            end = clock.stop()
            unpatch(marks)
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops, analytic = check(ctx, outputs)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    job_s, = clock.durations([(start, end)])
    work_s, = clock.durations([(start, end)], normalized=False)
    record = {
        "ready": ready,
        "ready_speed": ready_speed,
        "versions": versions,
        "job_s": job_s,
        "job_work_s": work_s,
        "job_wall_s": end - start,
        "segments": len(clock.segments),
        "kernel_s_median": statistics.median(clock.cals) if clock.cals else None,
        "points_s": clock.durations(intervals),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": [[label, error] for label, error in ops if error is not None],
        "digest": hashlib.sha256("\n".join(analytic).encode()).hexdigest(),
    }
    if tracer is not None:
        record["trace"] = tracer.summarize(job_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
