"""nuspec benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout is the directory above bench/.  Each run
starts the workload in fresh worker processes (bench/worker.py): several
that only set up, to take the median set-up time, then one that also runs
the timed closed loop.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
state each metric with its unit and sample count, and the environment.
Scratch files go under .bench_runs/ in the checkout.

    python3 bench/run.py --workload <name> --seed 0 --write-reference

stores the run's integer fields and report digests as the reference that
later runs on seed 0 must match (bench/reference.json).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

WORKLOADS = ["ns-context", "cert-scan", "diagnostics"]

# (name, unit, better) of every end-to-end metric, printed with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s.p50", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("in_ball_frac", "frac", "higher"),
]

# (name, unit) of every per-layer metric, printed with --trace 1
PER_LAYER = [
    ("lyapunov.spectrum.self_s", "s"),
    ("lyapunov.block_sample.self_s", "s"),
    ("lyapunov.block_sample.classified_frac", "frac"),
    ("dynamics.sampling_orbit.self_s", "s"),
    ("dynamics.orbit_array.self_s", "s"),
    ("specification.cover_events.self_s", "s"),
    ("specification.cover_events.events", "count"),
    ("specification.transition_scan.self_s", "s"),
    ("specification.transition_scan.witness_bytes", "bytes"),
    ("specification.transition_scan.M_k", "count"),
    ("specification.mixing_scan.self_s", "s"),
    ("specification.mixing_scan.witness_bytes", "bytes"),
    ("specification.mixing_scan.M_k", "count"),
    ("specification.build_cover.self_s", "s"),
    ("specification.build_cover.r_count", "count"),
    ("recurrence.return_times.self_s", "s"),
    ("recurrence.return_times.calls", "count"),
    ("specification.certificate_window.retries", "count"),
    ("shadowing.assemble.self_s", "s"),
    ("shadowing.newton.self_s", "s"),
    ("shadowing.newton.iters", "count"),
    ("shadowing.newton.unknowns", "count"),
    ("shadowing.cycle_degeneracy.self_s", "s"),
    ("shadowing.solve_cyclic.self_s", "s"),
    ("specification.certificate.self_s", "s"),
    ("recurrence.recurrence_scaling.self_s", "s"),
    ("shadowing.shadowing_profile.self_s", "s"),
    ("shadowing.check_domination.self_s", "s"),
    ("cli.report_digest_match", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.untraced_frac", "frac"),
]

# set-up samples per run: cert-scan builds its context in each one
SETUPS = {"cert-scan": 3}
DEFAULT_SETUPS = 5
# a worker that has not finished by then is killed and the run fails
DEADLINE_S = 170.0


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def _worker(args, rundir, env, probe, deadline):
    """Start a worker; return (seconds from spawn to its "ready" line, exit
    status).  The worker is always waited for."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rundir", str(rundir),
    ]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"bench: {args.workload} worker passed the {DEADLINE_S:.0f} s deadline")
    finally:
        proc.stdout.close()
    if line.strip() != "ready":
        status = status or 1
    return setup, status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nuspec benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if args.write_reference and args.seed != 0:
        ap.error("the reference is stored for seed 0 only")

    if not (ROOT / "src" / "nuspec" / "__init__.py").is_file():
        print(f"bench: no nuspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rundir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    worker.make_workload(args.workload, args.seed, rundir).write_inputs()
    env = dict(os.environ)
    env.pop("NUSPEC_THREADS", None)  # every scan stays serial
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    setups = []
    for _ in range(SETUPS.get(args.workload, DEFAULT_SETUPS) - 1):
        s, status = _worker(args, rundir, env, True, deadline)
        if status != 0:
            print(f"bench: set-up of {args.workload} failed (exit {status})", file=sys.stderr)
            return 1
        setups.append(s)
    s, status = _worker(args, rundir, env, False, deadline)
    if status != 0:
        print(f"bench: {args.workload} worker failed (exit {status})", file=sys.stderr)
        return 1
    setups.append(s)
    res = json.loads((rundir / "result.json").read_text())

    times = res["op_times"]
    attempted, failed = res["attempted"], res["failed"]
    env_info = dict(res["env"], git_sha=_git_sha(), seed=args.seed, workload=args.workload)
    print("env " + json.dumps(env_info, sort_keys=True))
    for item in res["problems"]:
        print(f"FAILED op {item['op']}: " + "; ".join(item["problems"]), file=sys.stderr)

    if args.trace:
        values = res["layers"]
        units = dict(PER_LAYER)
        if res["absent_layers"]:
            print("absent layers: " + ", ".join(res["absent_layers"]))
        for name, unit in PER_LAYER:
            print(f"{name:48s} {values[name]:.6g} {unit}")
        print("self times are per traced op; set-up spans count once; "
              "trace.untraced_frac is the share of traced op time outside every span")
    else:
        samples = f"over {attempted} ops"
        beyond = int(attempted * 0.1)
        values = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(times),
            # per second spent inside ops; the checks between ops are the benchmark's own time
            "ops_per_s": (attempted - failed) / sum(times),
            "peak_rss_mb": res["peak_rss_mb"],
            "in_ball_frac": res["in_ball"] / res["certificates"] if res["certificates"] else 0.0,
        }
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "op_s.p50": samples,
            "ops_per_s": f"{attempted - failed} correct ops in {sum(times):.2f} s of ops ({res['timed_s']:.2f} s timed phase)",
            "in_ball_frac": f"{res['in_ball']} of {res['certificates']} certificates",
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, unit, _ in END_TO_END:
            print(f"{name:14s} {values[name]:.6g} {unit:5s} {notes.get(name, '')}")
        # reported, not gated: a run of few ops has fewer than ten samples beyond p90
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
        print(f"op_s.p90       {p90:.6g} s     {samples}, {beyond} beyond it")
        print(f"failed_frac    {failed / attempted:.6g}       {failed} of {attempted} ops failed a check")

    if args.write_reference:
        ref_path = HERE / "reference.json"
        ref = json.loads(ref_path.read_text()) if ref_path.exists() else {"seed": args.seed, "workloads": {}}
        cycle = res["cycle"]
        ref["workloads"][args.workload] = {"cycle": cycle, "ops": res["records"][:cycle]}
        ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
