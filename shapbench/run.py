"""shapgate benchmark: one workload per process, closed loop, one BLAS thread.

    python3 shapbench/run.py --workload {grid,repeat,explain,cluster} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src. The
workload's inputs are made from --seed. A run makes a fixed number of timed
passes, set by --seconds and the workload; wall_s and cpu_s are those of the
slowest pass. Set-up is repeated SETUP_REPS times, spread between the passes,
and setup_s is the slowest set-up. Every pass is checked: each operation's
output must equal the first pass's, SHAP local accuracy and metric ranges
must hold, and with the default seed the output digests must equal those in
shapbench/digests.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 passes alternate traced
and untraced and the metrics are its per-layer ones. The line before holds
the details: environment fingerprint, every pass and set-up time with
their median and quartiles, failed_frac and the first failures.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
# one BLAS thread: the loop stays within nproc, and any pinned count gives
# the same output bytes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import envinfo  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")  # the benchmark's only output directory
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 0  # the seed whose output digests are recorded
SETUP_REPS = 4
IMPORT_PROBE = "import shapgate.cli, shapgate.pipeline"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "repeat", "explain", "cluster"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests (default seed only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    return args


def summary(samples):
    """Sample count, median, quartiles and extremes."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered), "min": ordered[0],
           "max": ordered[-1]}
    if len(ordered) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    return out


def pass_count(workload, seconds):
    """Passes of a run: fixed by --seconds and the workload, not by the code's speed."""
    return max(2, round(seconds / workload.pass_s))


def clock():
    """Wall time, and CPU time of the process and its children to the microsecond."""
    cpu = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        cpu += usage.ru_utime + usage.ru_stime
    return time.perf_counter(), cpu


def set_up(workload, seed, run_dir, log):
    """One set-up sample: a fresh interpreter importing the package, then the
    workload's input preparation. Returns the inputs."""
    setup_dir = os.path.join(run_dir, f"setup-{len(log['setup'])}")
    os.makedirs(setup_dir)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=setup_dir, check=True,
                   stdout=subprocess.DEVNULL)
    imported = time.perf_counter()
    inputs = workload.setup(seed, setup_dir)
    done = time.perf_counter()
    log["setup_imports"].append(imported - start)
    log["setup_inputs"].append(done - imported)
    log["setup"].append(done - start)
    return inputs


def run_passes(args, workload, run_dir, tracer, expected):
    """The run: set-up, then a fixed number of timed passes with the remaining
    set-up samples spread between them. A traced run alternates traced and
    untraced passes, starting with a traced one."""
    import workloads  # imports shapgate from ./src

    log = {"wall": [], "cpu": [], "calib": [], "traced": [], "profiles": [],
           "setup": [], "setup_imports": [], "setup_inputs": [],
           "attempted": 0, "failed": 0, "errors": [], "first_outcomes": None}
    passes = pass_count(workload, args.seconds)
    # the set-up samples after the first come before these passes (or after
    # the last one), evenly spaced, so that they see the host phases the
    # passes see
    setup_before = [round(j * passes / (SETUP_REPS - 1)) for j in range(1, SETUP_REPS)]
    inputs = set_up(workload, args.seed, run_dir, log)
    loop_start = time.perf_counter()
    log["first_call_s"] = loop_start - PROCESS_START
    for i in range(passes):
        for _ in range(setup_before.count(i)):
            set_up(workload, args.seed, run_dir, log)
        traced = tracer is not None and i % 2 == 0
        log["calib"].append(envinfo.calibrate())
        out_dir = os.path.join(run_dir, f"pass-{i}")
        os.makedirs(out_dir)
        first_span = tracer.begin_pass() if traced else None
        wall, cpu, result, error = workloads.timed_pass(workload, inputs, out_dir, clock)
        if traced:
            log["profiles"].append(tracer.end_pass(first_span))
        log["wall"].append(wall)
        log["cpu"].append(cpu)
        log["traced"].append(traced)

        outcomes = workloads.outcomes(workload, inputs, result, error)
        if log["first_outcomes"] is None:
            log["first_outcomes"] = outcomes
        outcomes = workloads.compare_digests(
            outcomes, {o.op: o.digest for o in log["first_outcomes"]}, "pass 0")
        if expected is not None:
            outcomes = workloads.compare_digests(outcomes, expected, "the recorded digest")
        bad = [o for o in outcomes if o.error is not None]
        log["attempted"] += len(outcomes)
        log["failed"] += len(bad)
        log["errors"] += [f"pass {i} {o.op}: {o.error}" for o in bad[:3]]
        shutil.rmtree(out_dir)
    for _ in range(SETUP_REPS - len(log["setup"])):
        set_up(workload, args.seed, run_dir, log)
    return log, loop_start


def layer_metrics(log):
    """Per-layer metrics: medians over the traced passes; counts must repeat exactly."""
    per_pass = [p.layer_metrics() for p in log["profiles"]]
    mismatch = [name for name in spans.COUNT_METRICS
                if len({m[name] for m in per_pass}) > 1]
    layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced = [w for w, t in zip(log["wall"], log["traced"]) if t]
    untraced = [w for w, t in zip(log["wall"], log["traced"]) if not t]
    layer["trace.wall_s"] = statistics.median(traced)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    layer["env.calib_s"] = statistics.median(log["calib"])
    return layer, mismatch


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shapgate", "__init__.py")):
        print(f"shapbench: no shapgate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import shapgate
    if not os.path.abspath(shapgate.__file__).startswith(SRC + os.sep):
        print(f"shapbench: imported shapgate from {shapgate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.WORKLOADS[args.workload]
    expected = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        expected = workloads.load_digests(DIGESTS).get(workload.name)

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        fingerprint = envinfo.fingerprint(ROOT)
        tracer = spans.Tracer() if args.trace else None
        with tracer or contextlib.nullcontext():
            log, loop_start = run_passes(args, workload, run_dir, tracer, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # passes repeat identical work, but the host's speed changes by up to about
    # 1.5x in phases of seconds to minutes; the slowest pass and set-up repeat
    # across runs more closely than the medians, which flip between phases
    setup_s = max(log["setup"])
    values = {
        "wall_s": max(log["wall"]),
        "cpu_s": max(log["cpu"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    mismatch = []
    if args.trace:
        values, mismatch = layer_metrics(log)
        spans.write(os.path.join(WORK, "traces", f"{workload.name}.jsonl"), tracer.spans, loop_start)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    if args.record_digests:
        if log["failed"]:
            print("shapbench: not recording digests of a run with failures", file=sys.stderr)
        else:
            table = workloads.load_digests(DIGESTS)
            table[workload.name] = {o.op: o.digest for o in log["first_outcomes"]}
            with open(DIGESTS, "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")

    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": fingerprint, "passes": len(log["wall"]),
        "ops_per_pass": len(log["first_outcomes"]),
        "failed_frac": log["failed"] / log["attempted"],
        "digests": ("recorded" if args.record_digests
                    else "checked against digests.json" if expected
                    else "checked between passes only"),
        "pass_wall_s": log["wall"],
        "pass_calib_s": log["calib"],
        "timings": {
            "wall_s": summary(log["wall"]),
            "cpu_s": summary(log["cpu"]),
            "env.calib_s": summary(log["calib"]),
            "setup_s": {**summary(log["setup"]), "imports": summary(log["setup_imports"]),
                        "inputs": summary(log["setup_inputs"]),
                        "first_call_s": log["first_call_s"]},
        },
        "pass_setup_s": log["setup"],
        "errors": log["errors"][:10],
        "count_mismatch": mismatch,
    }
    if args.trace:
        for traced, key in ((True, "traced_wall_s"), (False, "untraced_wall_s")):
            detail["timings"][key] = summary(
                [w for w, t in zip(log["wall"], log["traced"]) if t is traced])
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": log["failed"] == 0 and not mismatch,
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
