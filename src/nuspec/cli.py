"""Command-line front end.

    nuspec <experiment> --config cfg.json [--set key=value ...] [--out dir]
    nuspec compare --recurrence report.json --lyapunov report.json [--out dir]

Each run writes manifest.json (the fully resolved configuration), report.json
(stable key order, byte-identical across reruns with the same config and
seed), and data.csv where the experiment produces tabular output.  Module
errors produce a nonzero exit status and a report.json carrying the error
and a "partial": true marker.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import Point2, Space, SystemKind, SystemSpec, orbit_array
from .errors import ConfigError, NuspecError
from .lyapunov import (
    LyapunovSpectrum,
    PesinBlockParams,
    lyapunov_spectrum,
    _transport_sweeps,
)
from .recurrence import (
    SetSpec,
    birkhoff_indicator_average,
    interval_hit_check,
    nonlacunarity_profile,
    recurrence_scaling,
    return_times,
)
from .shadowing import (
    assemble,
    cat_rational_orbit,
    check_domination,
    displaced_pseudo_orbit,
    newton_refine_periodic,
    shadowing_profile,
)
from .specification import (
    SlowVaryingFn,
    build_cover_context,
    fixed_point_context,
    gns_certificate,
    ns_certificate,
    sublinearity_scan,
)

_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    system: SystemSpec
    seed: int
    experiment: str
    parameters: dict
    output_dir: Path


# parameter schemas: name -> default (None means optional, any JSON value)
_COVER_PARAMS = {
    "theta": 0.05,
    "eta_ratio": 0.1,
    "q": {"kind": "constant", "c": 1.0},
    "delta": None,
    "max_centers": 256,
    "sampling_orbit_length": 400_000,
    "block_samples": 200,
    "block_window": [200, 200, 50],
    "T_floor": 1,
    "h_cap": 512,
    "mixing": False,
    "newton_tol": 1e-11,
    "spectrum_N": 100_000,
}

SCHEMAS = {
    "lyapunov": {"N": 100_000, "qr_period": 10, "transient": None, "x0": None},
    "recurrence-scaling": {
        "radii_log2_min": 4,
        "radii_log2_max": 14,
        "grid": 5,
        "T_max": 400,
        "method": "auto",
        "spectrum_N": 100_000,
        "x0": None,
    },
    "nonlacunarity": {
        "radius": None,
        "count_fwd": 500,
        "count_bwd": 60,
        "horizon": 60_000,
        "thresholds": [10, 20, 50, 100],
        "hit_epsilon": 0.2,
        "N_start": 1,
        "x0": None,
    },
    "shadow": {
        "period_min": 55,
        "period_max": 70,
        "jitter": 2e-5,
        "tau_factor": 100.0,
        "epsilon_factor": 0.8,
        "newton_tol": 1e-11,
        "max_iter": 12,
        "spectrum_N": 100_000,
    },
    "ns-cert": dict(_COVER_PARAMS, m=100, n=100, x=None, fixed_point=False, connector_gap=None),
    "gns-cert": dict(
        _COVER_PARAMS,
        theta=0.1,
        mixing=True,
        k=3,
        m=60,
        n=60,
        segment_points=None,
        target_total_gap=None,
        block_samples=100,
        sampling_orbit_length=200_000,
    ),
    "sublinearity": dict(
        _COVER_PARAMS,
        eta_ratios=[0.1],
        mn_list=[[100, 100], [200, 200], [400, 400], [800, 800]],
        x=None,
    ),
    "domination": {
        "lam": 0.9,
        "S0": 1,
        "S_list": [1, 5, 10],
        "n_points": 40,
        "swap": False,
        "x0": None,
    },
}


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < math.inf


def _integer(name: str, v) -> int:
    """v as an int; an integral finite float is accepted, anything else refused."""
    if isinstance(v, float) and math.isfinite(v) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ConfigError(f"{name} must be an integer, got {v!r}", field=name)


def _check_q(q) -> None:
    """Refuse a weight q that _q_from_param cannot build as stated; an
    accepted q is stored as given."""
    if not isinstance(q, dict):
        raise ConfigError(f"q must be an object, got {q!r}", field="q")
    for key in q:
        if key not in ("kind", "c", "amplitude", "frequency"):
            raise ConfigError(f"unknown q key {key!r}", field=f"q.{key}")
    if q.get("kind", "constant") not in ("constant", "modulated"):
        raise ConfigError(f"q kind must be 'constant' or 'modulated', got {q['kind']!r}", field="q.kind")
    if "c" in q and not _positive(q["c"]):
        raise ConfigError(f"q.c must be a positive finite number, got {q['c']!r}", field="q.c")
    a = q.get("amplitude", 0.5)
    if isinstance(a, bool) or not isinstance(a, (int, float)) or not 0 <= a < 1:
        raise ConfigError(f"q.amplitude must lie in [0, 1), got {a!r}", field="q.amplitude")
    if "frequency" in q:
        _integer("q.frequency", q["frequency"])


def load_config(experiment: str, config_path, overrides, out_dir) -> ExperimentConfig:
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}", field="experiment")
    raw = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    allowed_top = {"system", "seed", "experiment", "parameters", "output_dir"}
    unknown = set(raw) - allowed_top
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}", field=sorted(unknown)[0])
    if "experiment" in raw and raw["experiment"] != experiment:
        raise ConfigError(
            f"config names experiment {raw['experiment']!r} but {experiment!r} was requested",
            field="experiment",
        )
    system = SystemSpec.from_json(raw.get("system", {"kind": "CatMap", "params": {}}))
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer", field="seed")
    params = dict(raw.get("parameters", {}))
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object", field="parameters")
    for k, v in overrides or []:
        params[k] = v
    schema = SCHEMAS[experiment]
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) for {experiment}: {sorted(unknown)}", field=sorted(unknown)[0]
        )
    resolved = dict(schema)
    resolved.update(params)
    # integer fields: int defaults, the optional gaps, each gns-cert m/n list entry
    for name, default in schema.items():
        v = resolved[name]
        if type(default) is int or (name in ("connector_gap", "target_total_gap") and v is not None):
            if experiment == "gns-cert" and name in ("m", "n") and isinstance(v, list):
                resolved[name] = [_integer(name, e) for e in v]
            else:
                resolved[name] = _integer(name, v)
    # the transition scan covers gaps T_floor..h_cap, T_floor >= 1, on an
    # orbit longer than h_cap; the block sweep needs a sample and a window
    if "T_floor" in schema:
        least = {"T_floor": 1, "h_cap": resolved["T_floor"], "sampling_orbit_length": resolved["h_cap"] + 1}
        least.update(block_samples=1, spectrum_N=100, max_centers=1)
        for name, lo in least.items():
            if resolved[name] < lo:
                raise ConfigError(f"{name} must be >= {lo}, got {resolved[name]}", field=name)
        w = resolved["block_window"]
        if not (isinstance(w, list) and len(w) == 3 and all(_positive(v) for v in w)):
            raise ConfigError(f"block_window must be three positive integers, got {w!r}", field="block_window")
        resolved["block_window"] = [_integer("block_window", v) for v in w]
        if resolved["delta"] is not None and not _positive(resolved["delta"]):
            raise ConfigError(f"delta must be a positive finite number, got {resolved['delta']!r}", field="delta")
        _check_q(resolved["q"])
    # gns-cert takes at least two segments, one m, one n and one segment point each
    if experiment == "gns-cert":
        if resolved["k"] < 2:
            raise ConfigError(f"gns-cert needs k >= 2 segments, got {resolved['k']}", field="k")
        for name in ("m", "n", "segment_points"):
            if isinstance(resolved[name], list) and len(resolved[name]) != resolved["k"]:
                msg = f"{name} lists {len(resolved[name])} value(s) for k={resolved['k']} segments"
                raise ConfigError(msg, field=name)
    for name in ("theta", "newton_tol"):
        if name in schema and not _positive(resolved[name]):
            raise ConfigError(f"{name} must be a positive finite number, got {resolved[name]!r}", field=name)
    # backward orbits of a plane map leave its basin: domination always runs
    # them, nonlacunarity for its backward return times
    backward = experiment == "domination" or (experiment == "nonlacunarity" and _positive(resolved["count_bwd"]))
    if backward and system.space is Space.PLANE:
        raise ConfigError(
            f"{experiment} needs backward orbits, which leave the basin of the plane map {system.kind.value}",
            field="system.kind",
        )
    outd = Path(out_dir) if out_dir else Path(raw.get("output_dir", "nuspec_out"))
    return ExperimentConfig(
        system=system, seed=seed, experiment=experiment, parameters=resolved, output_dir=outd
    )


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # RFC 8259 has no NaN or infinity
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else v for v in row])


def _seed_point(system: SystemSpec, rng, x0_param, transient=0) -> Point2:
    if x0_param is not None:
        return Point2(float(x0_param[0]), float(x0_param[1]), system.space)
    if system.kind is SystemKind.HENON:
        x, y = orbit_array(system, 0.1, 0.1, n_fwd=max(transient, 1000))[-1].tolist()
        return Point2(x, y, system.space)
    p = rng.random(2)
    return Point2(float(p[0]), float(p[1]), system.space)


def _spectrum_for(system, rng, N) -> LyapunovSpectrum:
    x0 = _seed_point(system, rng, None)
    return lyapunov_spectrum(system, x0, N=N, qr_period=10)


def _q_from_param(qspec: dict, eta: float) -> SlowVaryingFn:
    c = float(qspec.get("c", 1.0))
    if qspec.get("kind", "constant") == "constant":
        return SlowVaryingFn.constant(c, eta)
    return SlowVaryingFn.modulated(c, float(qspec.get("amplitude", 0.5)), int(qspec.get("frequency", 1)), eta)


def _build_ctx(system, seed, p, mixing=None):
    return build_cover_context(
        system,
        theta=p["theta"],
        seed=seed,
        block_samples=p["block_samples"],
        delta=p["delta"],
        max_centers=p["max_centers"],
        sampling_orbit_length=p["sampling_orbit_length"],
        T_floor=p["T_floor"],
        mixing_mode=p["mixing"] if mixing is None else mixing,
        h_cap=p["h_cap"],
        epsilon_ratio=0.1,
        block_window=tuple(p["block_window"]),
        spectrum_N=p["spectrum_N"],
    )


# ---------------------------------------------------------------------------
# experiment runners; each returns (results_dict, csv_header, csv_rows)


def _run_lyapunov(cfg: ExperimentConfig):
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    transient = p["transient"]
    if transient is None:
        transient = 1000 if cfg.system.kind is SystemKind.HENON else 0
    x0 = _seed_point(cfg.system, rng, p["x0"])
    spec = lyapunov_spectrum(cfg.system, x0, N=p["N"], qr_period=p["qr_period"], transient=transient)
    res = dict(spec.to_json())
    res["x0"] = [x0.x, x0.y]
    res["sum"] = sum(spec.exponents)
    return res, None, None


def _run_recurrence_scaling(cfg: ExperimentConfig):
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    x = _seed_point(cfg.system, rng, p["x0"])
    spec = _spectrum_for(cfg.system, rng, p["spectrum_N"])
    radii = [2.0**-e for e in range(p["radii_log2_min"], p["radii_log2_max"] + 1)]
    rep = recurrence_scaling(
        cfg.system, x, radii, grid=p["grid"], T_max=p["T_max"], spectrum=spec, method=p["method"]
    )
    res = rep.to_json()
    res["x"] = [x.x, x.y]
    res["spectrum"] = spec.to_json()
    rows = list(zip(rep.radii, rep.tau, rep.ratios, [int(c) for c in rep.censored]))
    return res, ["r", "tau", "ratio", "censored"], rows


def _run_nonlacunarity(cfg: ExperimentConfig):
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    x = _seed_point(cfg.system, rng, p["x0"])
    radius = p["radius"]
    if radius is None:
        radius = math.sqrt(0.05 / math.pi)  # ball of area 0.05
    gamma = SetSpec.ball(x, float(radius))
    seq = return_times(
        cfg.system, x, gamma, count_fwd=p["count_fwd"], count_bwd=p["count_bwd"], horizon=p["horizon"]
    )
    prof = nonlacunarity_profile(seq, thresholds=tuple(p["thresholds"]))
    hit_N = interval_hit_check(seq, float(p["hit_epsilon"]), N_start=p["N_start"])
    area = birkhoff_indicator_average(cfg.system, x, gamma, horizon=min(p["horizon"], 200_000))
    res = {
        "x": [x.x, x.y],
        "radius": radius,
        "n_forward": int(seq.count_fwd),
        "n_backward": int(seq.count_bwd),
        "t_first": int(seq.forward[0]) if seq.count_fwd else None,
        "t_last": int(seq.forward[-1]) if seq.count_fwd else None,
        "tail_deviation": prof.tail_deviation,
        "interval_hit_N": hit_N,
        "hit_epsilon": p["hit_epsilon"],
        "indicator_average": area,
    }
    rows = [
        (i + 1, int(seq.forward[i]), float(prof.ratios_fwd[i - 1]) if i >= 1 else None)
        for i in range(seq.count_fwd)
    ]
    return res, ["i", "t_i", "ratio"], rows


def _cat_rational_orbit(period_min, period_max):
    """The orbit of (1, 0)/q under the cat map for the least q whose period
    lies in range."""
    for q in range(3, 600):
        period, pts = cat_rational_orbit(q)
        if period_min <= period <= period_max:
            return q, period, pts
    raise NuspecError(f"no rational cat orbit with period in [{period_min}, {period_max}]")


def _run_shadow(cfg: ExperimentConfig):
    p = cfg.parameters
    system = cfg.system
    if system.kind not in (SystemKind.CAT_MAP, SystemKind.PERTURBED_CAT_MAP):
        raise ConfigError("shadow experiment supports CatMap and PerturbedCatMap", field="system.kind")
    rng = np.random.default_rng(cfg.seed)
    q_den, period, guess = _cat_rational_orbit(p["period_min"], p["period_max"])

    po0 = assemble([np.vstack([guess, guess[:1]])], system)
    ref = newton_refine_periodic(system, po0, tol=1e-12, max_iter=40)
    n1 = period // 2
    po = displaced_pseudo_orbit(system, ref.points, n1, float(p["jitter"]))

    sol = newton_refine_periodic(system, po, tol=float(p["newton_tol"]), max_iter=p["max_iter"])
    spec = _spectrum_for(system, rng, p["spectrum_N"])
    epsilon = float(p["epsilon_factor"]) * spec.lambda_u
    tau = float(p["tau_factor"]) * po.delta
    prof = shadowing_profile(system, sol, po, tau=tau, epsilon=epsilon)
    res = {
        "rational_denominator": q_den,
        "period": period,
        "segment_lengths": [n1, period - n1],
        "concatenation_times": [0, n1],
        "pseudo_orbit_delta": po.delta,
        "solution": sol.to_json(),
        "residual": sol.residual,
        "newton_iters": sol.newton_iters,
        "tau": tau,
        "epsilon": epsilon,
        "profile": prof.to_json(),
        "lambda_u": spec.lambda_u,
    }
    rows = list(zip(prof.indices.tolist(), prof.distances.tolist(), prof.bounds.tolist()))
    return res, ["index", "distance", "bound"], rows


def _pick_block_point(ctx, rng) -> Point2:
    pts = [p for p, _ in ctx.block_points]
    return pts[int(rng.integers(0, len(pts)))]


def _run_ns_cert(cfg: ExperimentConfig):
    p = cfg.parameters
    system = cfg.system
    rng = np.random.default_rng(cfg.seed)
    eta_ratio = float(p["eta_ratio"])
    if p["fixed_point"]:
        fp = Point2(0.0, 0.0, system.space)
        spec = _spectrum_for(system, rng, p["spectrum_N"])
        eps = 0.1 * min(abs(spec.lambda_s), spec.lambda_u)
        ctx = fixed_point_context(system, fp, epsilon=eps)
        x = fp
    else:
        ctx = _build_ctx(system, cfg.seed, p)
        x = Point2(*p["x"], system.space) if p["x"] is not None else _pick_block_point(ctx, rng)
    eta = eta_ratio * ctx.epsilon
    q = _q_from_param(p["q"], eta)
    cert = ns_certificate(
        system,
        x,
        p["m"],
        p["n"],
        float(p["theta"]),
        eta,
        q,
        ctx,
        connector_gap=p["connector_gap"],
        newton_tol=float(p["newton_tol"]),
    )
    res = {"certificate": cert.to_json(include_margins=False), "context": ctx.to_json()}
    rows = list(
        zip(
            cert.margins_j.tolist(),
            cert.margins_distance.tolist(),
            cert.margins_allowance.tolist(),
        )
    )
    return res, ["j", "distance", "allowance"], rows


def _run_gns_cert(cfg: ExperimentConfig):
    p = cfg.parameters
    system = cfg.system
    rng = np.random.default_rng(cfg.seed)
    ctx = _build_ctx(system, cfg.seed, p)
    eta = float(p["eta_ratio"]) * ctx.epsilon
    q = _q_from_param(p["q"], eta)
    k = p["k"]
    ms = p["m"] if isinstance(p["m"], list) else [p["m"]] * k
    ns = p["n"] if isinstance(p["n"], list) else [p["n"]] * k
    if p["segment_points"] is not None:
        xs = [Point2(float(a), float(b), system.space) for a, b in p["segment_points"]]
    else:
        xs = [_pick_block_point(ctx, rng) for _ in range(k)]
    segments = [(xs[i], ms[i], ns[i]) for i in range(k)]
    cert = gns_certificate(
        system,
        segments,
        float(p["theta"]),
        eta,
        q,
        ctx,
        target_total_gap=p["target_total_gap"],
        newton_tol=float(p["newton_tol"]),
    )
    res = {"certificate": cert.to_json(include_margins=False), "context": ctx.to_json()}
    rows = []
    for si, seg in enumerate(cert.segments):
        for j, d, a in zip(seg.margins_j, seg.margins_distance, seg.margins_allowance):
            rows.append((si, int(j), float(d), float(a)))
    return res, ["segment", "j", "distance", "allowance"], rows


def _run_sublinearity(cfg: ExperimentConfig):
    p = cfg.parameters
    system = cfg.system
    rng = np.random.default_rng(cfg.seed)
    ctx = _build_ctx(system, cfg.seed, p)
    x = Point2(*p["x"], system.space) if p["x"] is not None else _pick_block_point(ctx, rng)
    base_eta = float(p["eta_ratios"][0]) * ctx.epsilon
    q = _q_from_param(p["q"], base_eta)
    eta_list = [float(r) * ctx.epsilon for r in p["eta_ratios"]]
    mn_list = [tuple(int(v) for v in mn) for mn in p["mn_list"]]
    table = sublinearity_scan(
        system,
        x,
        float(p["theta"]),
        eta_list,
        mn_list,
        q,
        ctx,
        newton_tol=float(p["newton_tol"]),
    )
    res = {"table": table.to_json(), "x": [x.x, x.y], "epsilon": ctx.epsilon, "context": ctx.to_json()}
    rows = [(r.m, r.n, r.eta, r.K, r.ratio, int(r.in_ball)) for r in table.rows]
    return res, ["m", "n", "eta", "K", "ratio", "in_ball"], rows


def _run_domination(cfg: ExperimentConfig):
    p = cfg.parameters
    system = cfg.system
    rng = np.random.default_rng(cfg.seed)
    x = _seed_point(system, rng, p["x0"])
    S_list = [int(s) for s in p["S_list"]]
    n_pts = p["n_points"] + max(S_list)
    pts, vu, vs, _, _ = _transport_sweeps(system, x.as_array()[None], 0, n_pts)
    pts, vu, vs = pts[:, 0], vu[:, 0], vs[:, 0]
    E, F = (vu, vs) if p["swap"] else (vs, vu)
    rep = check_domination(system, pts, E, F, S0=p["S0"], lam=float(p["lam"]), S_list=S_list)
    res = {"x": [x.x, x.y], "swap": bool(p["swap"]), "lam": p["lam"], **rep.to_json()}
    return res, None, None


_RUNNERS = {
    "lyapunov": _run_lyapunov,
    "recurrence-scaling": _run_recurrence_scaling,
    "nonlacunarity": _run_nonlacunarity,
    "shadow": _run_shadow,
    "ns-cert": _run_ns_cert,
    "gns-cert": _run_gns_cert,
    "sublinearity": _run_sublinearity,
    "domination": _run_domination,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    outd = cfg.output_dir
    outd.mkdir(parents=True, exist_ok=True)
    manifest = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "system": cfg.system.to_json(),
        "parameters": cfg.parameters,
        "version": _VERSION,
    }
    _write_json(outd / "manifest.json", manifest)
    try:
        results, header, rows = _RUNNERS[cfg.experiment](cfg)
    except (NuspecError, ValueError) as err:
        report = dict(manifest)
        report["error"] = {
            "type": type(err).__name__,
            "message": str(err),
            "field": getattr(err, "field", None),
        }
        report["partial"] = True
        _write_json(outd / "report.json", report)
        print(f"error: {err}", file=sys.stderr)
        return 1
    report = dict(manifest)
    report["results"] = results
    _write_json(outd / "report.json", report)
    if header is not None:
        _write_csv(outd / "data.csv", header, rows)
    return 0


# ---------------------------------------------------------------------------
# report comparison


def compare_to_bound(recurrence_report: dict, lyapunov_report: dict, tolerance: float = 0.35) -> dict:
    """Compare a measured ball-return limsup against 1/lambda_u - 1/lambda_s.

    Refuses mismatched system fingerprints and non-hyperbolic spectra."""
    if recurrence_report.get("experiment") != "recurrence-scaling":
        raise ConfigError("first report must come from recurrence-scaling")
    if lyapunov_report.get("experiment") != "lyapunov":
        raise ConfigError("second report must come from lyapunov")
    if recurrence_report.get("system") != lyapunov_report.get("system"):
        raise ConfigError("mismatched system fingerprints between reports")
    lam_res = lyapunov_report["results"]
    lam_s = lam_res["lambda_s"]
    lam_u = lam_res["lambda_u"]
    if lam_s is None or lam_u is None or not (lam_s < 0 < lam_u):
        raise ConfigError("not hyperbolic: spectrum lacks exponents of both signs")
    bound = 1.0 / lam_u - 1.0 / lam_s
    measured = recurrence_report["results"]["limsup_estimate"]
    return {
        "system": recurrence_report["system"],
        "measured_limsup": measured,
        "bound": bound,
        "tolerance": tolerance,
        "pass": bool(measured is not None and measured <= bound * (1.0 + tolerance)),
        "censored_radii": [
            r
            for r, c in zip(
                recurrence_report["results"]["radii"], recurrence_report["results"]["censored"]
            )
            if c
        ],
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nuspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCHEMAS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        sp.add_argument("--out", default=None)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("--recurrence", required=True)
    cmp_p.add_argument("--lyapunov", required=True)
    cmp_p.add_argument("--tolerance", type=float, default=0.35)
    cmp_p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "compare":
        try:
            with open(args.recurrence, encoding="utf-8") as fh:
                rec = json.load(fh)
            with open(args.lyapunov, encoding="utf-8") as fh:
                lya = json.load(fh)
            table = compare_to_bound(rec, lya, tolerance=args.tolerance)
        except (NuspecError, OSError, json.JSONDecodeError) as err:
            print(f"refusal: {err}", file=sys.stderr)
            return 1
        print(f"{'measured':>12} {'bound':>12} {'pass':>6}")
        print(f"{table['measured_limsup']:>12.4f} {table['bound']:>12.4f} {str(table['pass']):>6}")
        if args.out:
            outd = Path(args.out)
            outd.mkdir(parents=True, exist_ok=True)
            _write_json(outd / "summary.json", table)
        return 0

    overrides = []
    for item in args.set:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        k, _, v = item.partition("=")
        overrides.append((k, _parse_set_value(v)))
    try:
        cfg = load_config(args.command, args.config, overrides, args.out)
    except (ConfigError, OSError, json.JSONDecodeError) as err:
        payload = {
            "error": {
                "type": type(err).__name__,
                "message": str(err),
                "field": getattr(err, "field", None),
            },
            "partial": True,
        }
        if args.out:
            outd = Path(args.out)
            outd.mkdir(parents=True, exist_ok=True)
            _write_json(outd / "report.json", payload)
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
