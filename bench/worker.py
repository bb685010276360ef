"""One benchmark workload in one fresh process.

Started by run.py.  It imports nuspec from the checkout's src/, sets the
workload up, prints "ready", then (unless --probe) runs a closed loop with
one client: the next op starts when the last one returns.  Every op is
checked for correctness after its timer stops.  The result goes to
<run dir>/result.json; with --trace 1 the spans go to <run dir>/spans.json.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracing import Tracer, layer_name, self_times  # noqa: E402

# the seed whose integer fields and report bytes are stored in reference.json
REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference.json"
# ops beyond this index are checked by invariants only
REFERENCE_OPS = 70

PERTURBED = {"kind": "PerturbedCatMap", "params": {"kappa": 0.05}}
CAT = {"kind": "CatMap", "params": {}}

# cert-scan ops of one round: ns certificates at windows m = n from 100 to
# 3200 and one gns certificate; an odd count puts the median and p90 inside
# one kind's cluster of op times, not between two
SCAN_WINDOWS = [100, 200, 400, 800, 1600, 3200]
GNS = "gns"


class CliWorkload:
    """Each op runs the given experiments through nuspec.cli.main with
    default parameters, one after another.

    Op i uses config seed CYCLE * seed + i % CYCLE.  The cover context and
    its cost depend on the config seed, so a run samples several contexts
    and its median varies less between workload seeds; every op after the
    first CYCLE reruns an earlier config, so its report bytes must repeat."""

    CYCLE = 4

    def __init__(self, system, experiments, seed, rundir):
        self.system = system
        self.experiments = experiments
        self.seed = seed
        self.rundir = rundir
        self.configs = [rundir / f"config{k}.json" for k in range(self.CYCLE)]

    def write_inputs(self):
        """Write the config files; run.py does this once, before any timing."""
        for k, path in enumerate(self.configs):
            path.write_text(json.dumps({"system": self.system, "seed": self.CYCLE * self.seed + k}))

    def setup(self):
        import nuspec.cli

        self.cli = nuspec.cli

    def round(self, index):
        return [functools.partial(self.op, self.configs[index % self.CYCLE], self.rundir / f"op{index}")]

    def op(self, config, outdir):
        # a fresh output directory per op: overwriting the last op's files
        # can wait on their writeback, a stall of the file system, not nuspec
        codes = {
            exp: self.cli.main([exp, "--config", str(config), "--out", str(outdir / exp)])
            for exp in self.experiments
        }
        return outdir, codes

    def check(self, result):
        """(problems, certificate outcomes, reference record) of one op."""
        outdir, codes = result
        try:
            return self._check(outdir, codes)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _check(self, outdir, codes):
        problems, outcomes, record = [], [], {}
        for exp in self.experiments:
            if codes[exp] != 0:
                problems.append(f"{exp}: exit status {codes[exp]}")
                continue
            out = outdir / exp
            data = (out / "report.json").read_bytes()
            try:
                report = checks.strict_loads(data.decode("utf-8"))
            except ValueError as err:
                problems.append(f"{exp}: report.json is not RFC 8259 JSON: {err}")
                continue
            rows = []
            if (out / "data.csv").exists():
                with open(out / "data.csv", encoding="utf-8", newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
            try:
                problems += [f"{exp}: {p}" for p in checks.REPORT_CHECKS[exp](report, rows)]
                outcome = checks.certificate_outcome(exp, report)
            except (KeyError, TypeError, ValueError) as err:
                problems.append(f"{exp}: report lacks a stated field: {err!r}")
                continue
            if outcome is not None:
                outcomes.append(outcome)
            record[exp] = {"fields": checks.int_bool_fields(report["results"]), "digest": checks.digest(data)}
        return problems, outcomes, record


class CertScan:
    """Set-up builds two contexts: min-gap transitions on PerturbedCatMap
    (the ns-cert defaults) and mixing transitions on CatMap (the gns-cert
    defaults but for a sampling orbit of GNS_ORBIT steps).  Each op is one
    certificate from them on block points drawn by the seed: an ns
    certificate at one of SCAN_WINDOWS, or a 3-segment gns certificate at
    m = n = 60.  One round runs each kind once, in a seeded order."""

    CYCLE = None  # no op repeats an earlier one
    NEWTON_TOL = 1e-11
    # a tenth of the gns-cert default: the mixing scan slows in bursts when
    # other tenants load the memory system, and at full length it moved the
    # median set-up time by a third between two sets of runs
    GNS_ORBIT = 20_000

    def __init__(self, seed, rundir):
        self.seed = seed

    def write_inputs(self):
        pass  # the inputs are drawn from the seed inside the worker

    def setup(self):
        import numpy as np
        from nuspec import dynamics, specification

        self.spec = specification
        common = dict(seed=self.seed, max_centers=256, T_floor=1, h_cap=512, epsilon_ratio=0.1,
                      block_window=(200, 200, 50), spectrum_N=100_000)
        # the CLI's ns-cert and gns-cert defaults, spelled out, but for GNS_ORBIT
        self.ns_ctx = specification.build_cover_context(
            dynamics.SystemSpec.from_json(PERTURBED), theta=0.05, block_samples=200,
            sampling_orbit_length=400_000, mixing_mode=False, **common
        )
        self.gns_ctx = specification.build_cover_context(
            dynamics.SystemSpec.from_json(CAT), theta=0.1, block_samples=100,
            sampling_orbit_length=self.GNS_ORBIT, mixing_mode=True, **common
        )
        self.rng = np.random.default_rng(self.seed)

    def _pick(self, ctx):
        pts = ctx.block_points
        return pts[int(self.rng.integers(len(pts)))][0]

    def round(self, index):
        kinds = SCAN_WINDOWS + [GNS]
        ops = []
        for kind in (kinds[i] for i in self.rng.permutation(len(kinds))):
            if kind == GNS:
                xs = [self._pick(self.gns_ctx) for _ in range(3)]
                ops.append(functools.partial(self.gns, xs))
            else:
                ops.append(functools.partial(self.ns, kind, self._pick(self.ns_ctx)))
        return ops

    def ns(self, w, x):
        ctx = self.ns_ctx
        eta = 0.1 * ctx.epsilon
        q = self.spec.SlowVaryingFn.constant(1.0, eta)
        return w, self.spec.ns_certificate(ctx.system, x, w, w, 0.05, eta, q, ctx, newton_tol=self.NEWTON_TOL)

    def gns(self, xs):
        ctx = self.gns_ctx
        eta = 0.1 * ctx.epsilon
        q = self.spec.SlowVaryingFn.constant(1.0, eta)
        segments = [(x, 60, 60) for x in xs]
        return GNS, self.spec.gns_certificate(ctx.system, segments, 0.1, eta, q, ctx, newton_tol=self.NEWTON_TOL)

    def check(self, result):
        kind, cert = result
        full = cert.to_json(include_margins=True)
        try:
            json.dumps(full, allow_nan=False)
        except ValueError as err:
            return [f"certificate is not RFC 8259 JSON: {err}"], [], {}
        if kind == GNS:
            rows = []
            for si, seg in enumerate(full["segments"]):
                mg = seg.pop("margins")
                rows += [(si, j, d, a) for j, d, a in zip(mg["j"], mg["distance"], mg["allowance"])]
            problems = checks.check_gns_certificate(full, rows, 3, self.NEWTON_TOL, self.gns_ctx.bounds.M_k)
            in_ball = full["all_in_ball"]
        else:
            mg = full.pop("margins")
            rows = list(zip(mg["j"], mg["distance"], mg["allowance"]))
            problems = checks.check_ns_certificate(full, rows, kind, kind, self.NEWTON_TOL, self.ns_ctx.bounds.M_k)
            in_ball = full["in_ball"]
        key = "gns_certificate" if kind == GNS else "ns_certificate"
        return problems, [in_ball], {key: {"fields": checks.int_bool_fields(full), "digest": None}}


def make_workload(name, seed, rundir):
    if name == "ns-context":
        return CliWorkload(PERTURBED, ["ns-cert"], seed, rundir)
    if name == "diagnostics":
        return CliWorkload(
            PERTURBED, ["lyapunov", "recurrence-scaling", "nonlacunarity", "shadow", "domination"], seed, rundir
        )
    if name == "cert-scan":
        return CertScan(seed, rundir)
    raise SystemExit(f"unknown workload {name!r}")


def _reference(workload, seed):
    if seed != REFERENCE_SEED or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text())["workloads"].get(workload)


def _reference_op(reference, op_index):
    """The stored record for this op: CLI workloads cycle through a few
    configs, one record each; cert-scan stores its first ops one by one."""
    if reference is None:
        return None
    i = op_index % reference["cycle"] if reference["cycle"] else op_index
    return reference["ops"][i] if i < len(reference["ops"]) else None


def layer_metrics(tracer, traced_ops, traced_times, untraced_times):
    """Per-layer numbers of a traced run.

    self_s is seconds per op: self time inside traced ops divided by their
    count, plus the self time spent in set-up (cert-scan's context) once."""
    spans = tracer.spans
    own = self_times(spans)
    n = max(traced_ops, 1)
    self_s, counts = {}, {}
    glue = wall = 0.0
    returns = retries = 0
    for i, s in enumerate(spans):
        name = layer_name(spans, i)
        if name == "op":
            glue += own[i]
            wall += s.end - s.start
            continue
        per = 1.0 if s.op == "setup" else 1.0 / n
        self_s[name] = self_s.get(name, 0.0) + own[i] * per
        if name == "recurrence.return_times":
            returns += 1
        if name == "recurrence.return_times" and s.parent is not None and spans[s.parent].name == "specification.certificate_window":
            retries += 1
        if name == "specification.certificate_window":
            retries -= 1
        for key, val in (s.counts or {}).items():
            counts.setdefault(f"{name}.{key}", []).append(val)

    def mean(key):
        vals = counts.get(key, [])
        return sum(vals) / len(vals) if vals else 0.0

    def per_op(key):
        return sum(counts.get(key, [])) / n

    sampled = sum(counts.get("lyapunov.block_sample.samples", []))
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in LAYER_STAGES}
    out.update(
        {
            "lyapunov.block_sample.classified_frac": sum(counts.get("lyapunov.block_sample.classified", [])) / sampled if sampled else 0.0,
            "specification.cover_events.events": mean("specification.cover_events.events"),
            "specification.transition_scan.witness_bytes": mean("specification.transition_scan.witness_bytes"),
            "specification.transition_scan.M_k": mean("specification.transition_scan.M_k"),
            "specification.mixing_scan.witness_bytes": mean("specification.mixing_scan.witness_bytes"),
            "specification.mixing_scan.M_k": mean("specification.mixing_scan.M_k"),
            "specification.build_cover.r_count": mean("specification.build_cover.r_count"),
            "recurrence.return_times.calls": returns / n,
            "specification.certificate_window.retries": retries / n,
            "shadowing.newton.iters": per_op("shadowing.newton.iters"),
            "shadowing.newton.unknowns": per_op("shadowing.newton.unknowns"),
            "trace.overhead_frac": statistics.median(traced_times) / statistics.median(untraced_times) - 1.0,
            "trace.untraced_frac": glue / wall if wall else 0.0,
        }
    )
    return out


# layers whose self time the traced run reports
LAYER_STAGES = [
    "lyapunov.spectrum",
    "lyapunov.block_sample",
    "dynamics.sampling_orbit",
    "dynamics.orbit_array",
    "specification.cover_events",
    "specification.transition_scan",
    "specification.mixing_scan",
    "specification.build_cover",
    "recurrence.return_times",
    "shadowing.assemble",
    "shadowing.newton",
    "shadowing.cycle_degeneracy",
    "shadowing.solve_cyclic",
    "specification.certificate",
    "recurrence.recurrence_scaling",
    "shadowing.shadowing_profile",
    "shadowing.check_domination",
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--probe", action="store_true", help="set up, report ready, and exit")
    args = ap.parse_args(argv)
    rundir = Path(args.rundir)

    tracer = Tracer() if args.trace else None
    work = make_workload(args.workload, args.seed, rundir)
    if tracer:
        import nuspec.cli  # noqa: F401  (bind every nuspec namespace before wrapping)

        tracer.install()
    work.setup()
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)
    if args.probe:
        return 0

    reference = _reference(args.workload, args.seed)
    times, traced_times, untraced_times = [], [], []
    problems, outcomes, records = [], [], []
    failed = 0
    digests = {}  # config index -> report digests every rerun of it must match
    digest_match = 0
    rounds = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        need = 2 if tracer else 1
        if len(rounds) >= need and elapsed + statistics.median(rounds) > args.seconds:
            break
        # alternate traced and untraced rounds, shifted each cycle so every
        # config of a cycling workload is seen both ways
        rnd = len(rounds)
        traced = tracer is not None and (rnd + (rnd // work.CYCLE if work.CYCLE else 0)) % 2 == 1
        if traced:
            tracer.install()
        r0 = time.perf_counter()
        for fn in work.round(rnd):
            op_index = len(times)
            if traced:
                tracer.op = op_index
                root = tracer.begin("op")
            t = time.perf_counter()
            try:
                result, err = fn(), None
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                result, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if traced:
                tracer.end(root)
            times.append(dt)
            (traced_times if traced else untraced_times).append(dt)
            if err is None:
                op_problems, op_outcomes, record = work.check(result)
            else:
                op_problems, op_outcomes, record = [err], [], {}
            ref = _reference_op(reference, op_index)
            for key, want in (ref or {}).items():
                got = record.get(key, {"fields": {}})["fields"]
                op_problems += [f"{key}: {d}" for d in checks.diff_fields(want["fields"], got)]
            if record and all(rec["digest"] for rec in record.values()):
                mine = {key: rec["digest"] for key, rec in record.items()}
                # the stored digests for the reference seed, else this run's first op on the config
                stored = {key: rec["digest"] for key, rec in ref.items()} if ref else mine
                digest_match += mine == digests.setdefault(op_index % work.CYCLE, stored)
            if op_problems:
                failed += 1
                problems.append({"op": op_index, "problems": op_problems[:10]})
            outcomes += op_outcomes
            if op_index < REFERENCE_OPS:
                records.append(record)
        if traced:
            tracer.uninstall()
        rounds.append(time.perf_counter() - r0)
    timed_s = time.perf_counter() - t0

    import numpy
    import scipy

    result = {
        "op_times": times,
        "timed_s": timed_s,
        "attempted": len(times),
        "failed": failed,
        "problems": problems[:20],
        "certificates": len(outcomes),
        "in_ball": sum(bool(o) for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "cycle": work.CYCLE,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "NUSPEC_THREADS": os.environ.get("NUSPEC_THREADS"),
        },
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, len(traced_times), traced_times, untraced_times)
        result["layers"]["cli.report_digest_match"] = digest_match
        result["absent_layers"] = tracer.absent
        (rundir / "spans.json").write_text(
            json.dumps({"absent": tracer.absent, "spans": [s.to_json() for s in tracer.spans]})
        )
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
