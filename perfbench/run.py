"""covmem benchmark: one workload, end-to-end metrics or the per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload rare_stream --seed 0 --seconds 45 --trace 0

Workloads are ``rare_stream`` and ``drift_harness``
(see perfbench/README.md).  Each runs in its own fresh process with
BLAS pinned to one thread and the process pinned to one CPU.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer split, the
trace overhead and the time no layer accounts for.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
correctness gate passed, 1 when one failed and 2 when the benchmark
could not run at all.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("rare_stream", "drift_harness")
IMPORT_PROBES = 7
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "samples_per_s": "1/s",
    "select_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "rare_share": "fraction",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(env: dict) -> float:
    """Median time from process start until ``import covmem`` has finished."""
    probe = "import time, covmem; print(repr(time.time()))"
    samples = []
    for _ in range(IMPORT_PROBES):
        spawned = time.time()
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - spawned)
    return statistics.median(samples)


def run_child(args, trace: int, env: dict) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} process exited with code {done.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, child: dict, cpu: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **child["versions"],
        "blas_threads": 1,
        "seed": args.seed,
        "run_seconds": args.seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covmem" / "__init__.py").is_file():
        print(f"perfbench: no covmem sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # One CPU for the launcher and every process it starts: the workload
    # stops migrating between CPUs, which narrowed the run-to-run spread
    # on a shared 2-vCPU machine.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    try:
        untraced = run_child(args, 0, env)
        traced = run_child(args, 1, env) if args.trace else None
        if not args.trace:
            untraced["setup_s"] = import_seconds(env) + untraced["build_s"]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    runs = [untraced] + ([traced] if traced else [])
    problems = [p for r in runs for p in r["problems"]]
    complete = all("loop_s" in r for r in runs)
    if complete and traced and traced["digest"] != untraced["digest"]:
        problems.append("traced and untraced runs produced different outputs")
    correct = complete and not problems

    print(f"environment {json.dumps(environment(args, untraced, cpu))}")
    outputs = {k: untraced.get(k) for k in ("workload", "passes", "digest", "extra")}
    print(f"outputs {json.dumps(outputs)}")
    for problem in problems:
        print(f"FAILED GATE: {problem}", file=sys.stderr)

    metrics = {}
    if complete and not args.trace:
        metrics = {name: {"value": untraced[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif complete:
        metrics = traced["layers"]
        metrics["trace.overhead_s"] = {"value": traced["loop_s"] - untraced["loop_s"], "unit": "s"}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if complete and not args.trace:
        print(f"{args.workload} select_p50_s over {untraced['select_calls_timed']} select calls "
              f"in {untraced['passes']} passes")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{args.workload} failed_frac = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} select calls)")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
