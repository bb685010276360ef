"""Command-line front end.

    nuspec <experiment> --config cfg.json [--set key=value ...] [--out dir]
    nuspec compare --recurrence report.json --lyapunov report.json [--out dir]

Each run writes manifest.json (the fully resolved configuration), report.json
(stable key order, byte-identical across reruns with the same config and
seed), and data.csv where the experiment produces tabular output.  Module
errors and MemoryError produce a nonzero exit status and a report.json
carrying the error and a "partial": true marker.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
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

# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    system: SystemSpec
    seed: int
    experiment: str
    parameters: dict
    output_dir: Path


# kinds: a kind takes a field's name and JSON value and returns the value to
# store, or raises ConfigError on that field


def _refuse(name, v, what):
    raise ConfigError(f"{name} must be {what}, got {v!r}", field=name)


def _int(lo=1, hi=math.inf):
    """An integer in [lo, hi]; an integral finite float is stored as the int."""
    def kind(name, v):
        if isinstance(v, float) and math.isfinite(v) and v.is_integer():
            v = int(v)
        return v if type(v) is int and lo <= v <= hi else _refuse(name, v, f"an integer in [{lo}, {hi}]")

    return kind


def _float(lo=0.0, hi=math.inf):
    """A finite number in (lo, hi], stored as a float."""
    def kind(name, v):
        if type(v) in (int, float) and lo < v <= hi and abs(v) <= sys.float_info.max:
            return float(v)
        _refuse(name, v, f"a finite number in ({lo}, {hi}]")

    return kind


def _bool(name, v):
    return v if type(v) is bool else _refuse(name, v, "true or false")


def _one_of(*choices):
    return lambda name, v: v if type(v) is str and v in choices else _refuse(name, v, f"one of {choices}")


def _list(elem, length=None):
    """A non-empty list of elem, of the given length if one is given."""
    def kind(name, v):
        if not isinstance(v, list) or not v or length not in (None, len(v)):
            _refuse(name, v, f"a list of {length} values" if length else "a non-empty list")
        return [elem(name, e) for e in v]

    return kind


def _opt(kind):
    return lambda name, v: None if v is None else kind(name, v)


def _each(kind):
    """One value of kind for every segment, or a list of them, one per segment."""
    many = _list(kind)
    return lambda name, v: many(name, v) if isinstance(v, list) else kind(name, v)


_Q_DEFAULTS = {"kind": "constant", "c": 1.0, "amplitude": 0.5, "frequency": 1}


def _q(name, q):
    """A weight that _q_from_param builds as stated; it is stored as given."""
    if not isinstance(q, dict):
        _refuse(name, q, "an object")
    for key in q:
        if key not in _Q_DEFAULTS:
            raise ConfigError(f"unknown q key {key!r}", field=f"q.{key}")
    full = {**_Q_DEFAULTS, **q}
    _one_of("constant", "modulated")("q.kind", full["kind"])
    _float()("q.c", full["c"])
    a = full["amplitude"]
    if type(a) not in (int, float) or not 0 <= a < 1:
        _refuse("q.amplitude", a, "a number in [0, 1)")
    _int(-math.inf)("q.frequency", full["frequency"])
    return q


def _implied(default):
    """The kind a bare default implies: true or false, an integer >= 1, a
    positive finite float, or a non-empty list of its first entry's kind."""
    if isinstance(default, list):
        return _list(_implied(default[0]))
    return {bool: _bool, int: _int(), float: _float()}[type(default)]


def _field(spec):
    """(default, kind) of a table entry; a bare default implies its kind."""
    return spec if isinstance(spec, tuple) else (spec, _implied(spec))


# the step budget: no step count asks one loop for more than MAX_STEPS map
# steps.  A scalar step (spectrum, orbit walk, return-time walk) took
# 0.17-0.77 us on a 2-CPU x86 host, so a loop at the bound ends within
# seconds.  The spectrum keeps no orbit rows; a return-time walk keeps 16 B
# per step on each side (160 MB a side at the bound)
MAX_STEPS = 10**7
_XY = _list(_float(-math.inf), 2)
_WINDOW = _int(0, MAX_STEPS)  # a window length m or n: each side walks past it
_POINT = _opt(_XY)
_SPECTRUM_N = (100_000, _int(100, MAX_STEPS))

# the parameter table: experiment -> field -> default or (default, kind)
_COVER_PARAMS = {
    "theta": 0.05,
    "eta_ratio": (0.1, _float(0.0, 0.5)),  # 0 < eta <= epsilon / 2
    "q": ({"kind": "constant", "c": 1.0}, _q),
    "delta": (None, _opt(_float())),
    "max_centers": 256,
    "sampling_orbit_length": 400_000,
    "block_samples": 200,
    "block_window": ([200, 200, 50], _list(_int(), 3)),
    "T_floor": 1,
    "h_cap": 512,
    "mixing": False,
    "newton_tol": 1e-11,
    "spectrum_N": _SPECTRUM_N,
}

SCHEMAS = {
    "lyapunov": {
        "N": (100_000, _int(1, MAX_STEPS)),
        "qr_period": 10,
        "transient": (None, _opt(_int(0, MAX_STEPS))),
        "x0": (None, _POINT),
    },
    "recurrence-scaling": {
        "radii_log2_min": 4,
        "radii_log2_max": (14, _int(1, 19)),  # radii 2^-e stay above the 1e-6 floor
        "grid": 5,
        "T_max": (400, _int(1, MAX_STEPS)),
        "method": ("auto", _one_of("auto", "segment", "lattice")),
        "spectrum_N": _SPECTRUM_N,
        "x0": (None, _POINT),
    },
    "nonlacunarity": {
        "radius": (None, _opt(_float(0.0, 0.5))),
        "count_fwd": (500, _int(3)),
        "count_bwd": (60, _int(0)),
        "horizon": (60_000, _int(1, MAX_STEPS)),
        "thresholds": [10, 20, 50, 100],
        "hit_epsilon": 0.2,
        "N_start": 1,
        "x0": (None, _POINT),
    },
    "shadow": {
        "period_min": 55,
        "period_max": 70,
        "jitter": 2e-5,
        "tau_factor": 100.0,
        "epsilon_factor": 0.8,
        "newton_tol": 1e-11,
        "max_iter": 12,
        "spectrum_N": _SPECTRUM_N,
    },
    "ns-cert": dict(
        _COVER_PARAMS,
        m=(100, _WINDOW),
        n=(100, _WINDOW),
        x=(None, _POINT),
        fixed_point=False,
        connector_gap=(None, _opt(_int())),
    ),
    "gns-cert": dict(
        _COVER_PARAMS,
        theta=0.1,
        mixing=True,
        k=(3, _int(2)),
        m=(60, _each(_WINDOW)),
        n=(60, _each(_WINDOW)),
        segment_points=(None, _opt(_list(_XY))),
        target_total_gap=(None, _opt(_int(0))),
        block_samples=100,
        sampling_orbit_length=200_000,
    ),
    "sublinearity": dict(
        _COVER_PARAMS,
        eta_ratios=([0.1], _list(_float(0.0, 0.5))),
        mn_list=([[100, 100], [200, 200], [400, 400], [800, 800]], _list(_list(_WINDOW, 2))),
        x=(None, _POINT),
    ),
    "domination": {
        "lam": 0.9,
        "S0": 1,
        "S_list": [1, 5, 10],
        "n_points": 40,
        "swap": False,
        "x0": (None, _POINT),
    },
}


def _per_segment(name):
    """The rule that a list given for name holds one entry for each of the k segments."""
    return name, lambda p: not isinstance(p[name], list) or len(p[name]) == p["k"], f"one {name} entry per segment"


# cross-field rules (field, holds, condition), checked on each experiment
# that has the field: the transition scan covers gaps T_floor..h_cap on an
# orbit longer than h_cap; the fixed-point certificate sits at (0, 0), not x
_RULES = [
    ("h_cap", lambda p: p["h_cap"] >= p["T_floor"], "h_cap >= T_floor"),
    ("sampling_orbit_length", lambda p: p["sampling_orbit_length"] > p["h_cap"], "sampling_orbit_length > h_cap"),
    ("x", lambda p: p["x"] is None or not p.get("fixed_point"), "no x with fixed_point true"),
    ("N", lambda p: p["N"] >= 10 * p["qr_period"], "N >= 10 * qr_period"),
    ("radii_log2_max", lambda p: p["radii_log2_max"] >= p["radii_log2_min"], "radii_log2_max >= radii_log2_min"),
    ("period_max", lambda p: p["period_max"] >= p["period_min"], "period_max >= period_min"),
    ("S_list", lambda p: min(p["S_list"]) >= p["S0"], "S >= S0 for every S in S_list"),
    _per_segment("m"),
    _per_segment("n"),
    _per_segment("segment_points"),
]

# system rules: experiment -> (accepts(system, parameters), what it needs).
# The certificate experiments seed their contexts in [0, 1)^2 and need
# backward orbits, which leave the basin of a plane map; domination always
# runs them, nonlacunarity for its backward return times
_TORUS = (lambda s, p: s.space is Space.TORUS2, "a torus map")
_SYSTEMS = {
    **dict.fromkeys(("ns-cert", "gns-cert", "sublinearity", "domination"), _TORUS),
    "nonlacunarity": (lambda s, p: p["count_bwd"] == 0 or s.space is Space.TORUS2, "a torus map for count_bwd > 0"),
    "shadow": (lambda s, p: s.kind in (SystemKind.CAT_MAP, SystemKind.PERTURBED_CAT_MAP), "a cat map"),
    "recurrence-scaling": (
        lambda s, p: p["method"] != "segment" or s.kind is SystemKind.CAT_MAP,
        "CatMap for method segment",
    ),
}


def _parse_set(item):
    """One --set KEY=VALUE item as (key, value); a value that is not JSON is a string."""
    if "=" not in item:
        raise ConfigError(f"--set expects KEY=VALUE, got {item!r}", field="--set")
    k, _, v = item.partition("=")
    try:
        return k, json.loads(v)
    except json.JSONDecodeError:
        return k, v


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
    seed = _int(0)("seed", raw.get("seed", 0))
    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        _refuse("parameters", params, "an object")
    params = {**params, **dict(overrides or [])}
    schema = SCHEMAS[experiment]
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) for {experiment}: {sorted(unknown)}", field=sorted(unknown)[0]
        )
    resolved = {}
    for name, spec in schema.items():
        default, kind = _field(spec)
        resolved[name] = kind(name, params.get(name, default))
    for name, holds, condition in _RULES:
        if name in schema and not holds(resolved):
            raise ConfigError(f"{experiment} needs {condition}; {name} is {resolved[name]!r}", field=name)
    accepts, needs = _SYSTEMS.get(experiment, (lambda s, p: True, ""))
    if not accepts(system, resolved):
        raise ConfigError(f"{experiment} needs {needs}, not {system.kind.value}", field="system.kind")
    outd = raw.get("output_dir", "nuspec_out")
    if not isinstance(outd, str):
        _refuse("output_dir", outd, "a path")
    return ExperimentConfig(
        system=system, seed=seed, experiment=experiment, parameters=resolved, output_dir=Path(out_dir or outd)
    )


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    """obj in JSON types: a dataclass record as its fields, tuples and arrays
    as lists, keys as strings, NaN and infinities as None."""
    if is_dataclass(obj):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # RFC 8259 has no NaN or infinity
    return obj


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else v for v in row])


def _seed_point(system: SystemSpec, rng, x0_param) -> np.ndarray:
    if x0_param is not None:
        return Point2(*x0_param, system.space)
    if system.kind is SystemKind.HENON:
        return orbit_array(system, 0.1, 0.1, n_fwd=1000)[-1]
    return rng.random(2)


def _spectrum_for(system, rng, N) -> LyapunovSpectrum:
    x0 = _seed_point(system, rng, None)
    return lyapunov_spectrum(system, x0, N=N, qr_period=10)


def _q_from_param(qspec: dict, eta: float) -> SlowVaryingFn:
    q = {**_Q_DEFAULTS, **qspec}
    if q["kind"] == "constant":
        return SlowVaryingFn.constant(float(q["c"]), eta)
    return SlowVaryingFn.modulated(float(q["c"]), float(q["amplitude"]), int(q["frequency"]), eta)


# the cover fields that build_cover_context takes under their own names
_CTX_FIELDS = "theta block_samples delta max_centers sampling_orbit_length T_floor h_cap spectrum_N".split()


def _build_ctx(system, seed, p):
    fields = {name: p[name] for name in _CTX_FIELDS}
    return build_cover_context(
        system, seed=seed, mixing_mode=p["mixing"], block_window=tuple(p["block_window"]), **fields
    )


# ---------------------------------------------------------------------------
# experiment runners: each takes (system, parameters, seed) and returns
# (results_dict, csv_header, csv_rows)


def _run_lyapunov(system, p, seed):
    rng = np.random.default_rng(seed)
    transient = p["transient"]
    if transient is None:
        transient = 1000 if system.kind is SystemKind.HENON else 0
    x0 = _seed_point(system, rng, p["x0"])
    spec = lyapunov_spectrum(system, x0, N=p["N"], qr_period=p["qr_period"], transient=transient)
    return {**asdict(spec), "x0": x0, "sum": sum(spec.exponents)}, None, None


def _run_recurrence_scaling(system, p, seed):
    rng = np.random.default_rng(seed)
    x = _seed_point(system, rng, p["x0"])
    spec = _spectrum_for(system, rng, p["spectrum_N"])
    radii = [2.0**-e for e in range(p["radii_log2_min"], p["radii_log2_max"] + 1)]
    rep = recurrence_scaling(
        system, x, radii, grid=p["grid"], T_max=p["T_max"], spectrum=spec, method=p["method"]
    )
    res = {**asdict(rep), "x": x, "spectrum": spec}
    rows = list(zip(rep.radii, rep.tau, rep.ratios, [int(c) for c in rep.censored]))
    return res, ["r", "tau", "ratio", "censored"], rows


def _run_nonlacunarity(system, p, seed):
    rng = np.random.default_rng(seed)
    x = _seed_point(system, rng, p["x0"])
    radius = p["radius"]
    if radius is None:
        radius = math.sqrt(0.05 / math.pi)  # ball of area 0.05
    gamma = SetSpec.ball(x, radius, system.space)
    seq = return_times(
        system, x, gamma, count_fwd=p["count_fwd"], count_bwd=p["count_bwd"], horizon=p["horizon"]
    )
    prof = nonlacunarity_profile(seq, thresholds=tuple(p["thresholds"]))
    hit_N = interval_hit_check(seq, p["hit_epsilon"], N_start=p["N_start"])
    area = birkhoff_indicator_average(system, x, gamma, horizon=min(p["horizon"], 200_000))
    res = {
        "x": x,
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


def _run_shadow(system, p, seed):
    rng = np.random.default_rng(seed)
    # the orbit of (1, 0)/q under the cat map for the least q whose period lies in range
    for q_den in range(3, 600):
        period, guess = cat_rational_orbit(q_den)
        if p["period_min"] <= period <= p["period_max"]:
            break
    else:
        raise NuspecError(f"no rational cat orbit with period in [{p['period_min']}, {p['period_max']}]")

    po0 = assemble([np.vstack([guess, guess[:1]])], system)
    ref = newton_refine_periodic(system, po0, tol=1e-12, max_iter=40)
    n1 = period // 2
    po = displaced_pseudo_orbit(system, ref.points, n1, p["jitter"])

    sol = newton_refine_periodic(system, po, tol=p["newton_tol"], max_iter=p["max_iter"])
    spec = _spectrum_for(system, rng, p["spectrum_N"])
    epsilon = p["epsilon_factor"] * spec.lambda_u
    tau = p["tau_factor"] * po.delta
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
    return res, ["index", "distance", "bound"], prof.margins.rows()


def _pick_block_point(ctx, rng) -> np.ndarray:
    return ctx.block_points[int(rng.integers(0, len(ctx.block_points)))][0]


def _run_ns_cert(system, p, seed):
    rng = np.random.default_rng(seed)
    if p["fixed_point"]:
        x = np.zeros(2)
        spec = _spectrum_for(system, rng, p["spectrum_N"])
        ctx = fixed_point_context(system, x, epsilon=PesinBlockParams.from_spectrum(spec).epsilon)
    else:
        ctx = _build_ctx(system, seed, p)
        x = Point2(*p["x"], system.space) if p["x"] is not None else _pick_block_point(ctx, rng)
    eta = p["eta_ratio"] * ctx.epsilon
    q = _q_from_param(p["q"], eta)
    cert = ns_certificate(
        system,
        x,
        p["m"],
        p["n"],
        p["theta"],
        eta,
        q,
        ctx,
        connector_gap=p["connector_gap"],
        newton_tol=p["newton_tol"],
    )
    res = {"certificate": cert.to_json(include_margins=False), "context": ctx.to_json()}
    return res, ["j", "distance", "allowance"], cert.segments[0].margins.rows()


def _run_gns_cert(system, p, seed):
    rng = np.random.default_rng(seed)
    ctx = _build_ctx(system, seed, p)
    eta = p["eta_ratio"] * ctx.epsilon
    q = _q_from_param(p["q"], eta)
    k = p["k"]
    ms = p["m"] if isinstance(p["m"], list) else [p["m"]] * k
    ns = p["n"] if isinstance(p["n"], list) else [p["n"]] * k
    if p["segment_points"] is not None:
        xs = [Point2(*pt, system.space) for pt in p["segment_points"]]
    else:
        xs = [_pick_block_point(ctx, rng) for _ in range(k)]
    segments = list(zip(xs, ms, ns))
    cert = gns_certificate(
        system,
        segments,
        p["theta"],
        eta,
        q,
        ctx,
        target_total_gap=p["target_total_gap"],
        newton_tol=p["newton_tol"],
    )
    res = {"certificate": cert.to_json(include_margins=False), "context": ctx.to_json()}
    rows = [(si, *r) for si, seg in enumerate(cert.segments) for r in seg.margins.rows()]
    return res, ["segment", "j", "distance", "allowance"], rows


def _run_sublinearity(system, p, seed):
    rng = np.random.default_rng(seed)
    ctx = _build_ctx(system, seed, p)
    x = Point2(*p["x"], system.space) if p["x"] is not None else _pick_block_point(ctx, rng)
    eta_list = [r * ctx.epsilon for r in p["eta_ratios"]]
    q = _q_from_param(p["q"], eta_list[0])
    table = sublinearity_scan(
        system,
        x,
        p["theta"],
        eta_list,
        p["mn_list"],
        q,
        ctx,
        newton_tol=p["newton_tol"],
    )
    res = {"table": table.to_json(), "x": x, "epsilon": ctx.epsilon, "context": ctx.to_json()}
    rows = [(r.m, r.n, r.eta, r.K, r.ratio, int(r.in_ball)) for r in table.rows]
    return res, ["m", "n", "eta", "K", "ratio", "in_ball"], rows


def _run_domination(system, p, seed):
    rng = np.random.default_rng(seed)
    x = _seed_point(system, rng, p["x0"])
    n_pts = p["n_points"] + max(p["S_list"])
    *_, log_u, log_s = _transport_sweeps(system, x[None], 0, n_pts)
    log_E, log_F = (log_u[:, 0], log_s[:, 0]) if p["swap"] else (log_s[:, 0], log_u[:, 0])
    rep = check_domination(log_E, log_F, S0=p["S0"], lam=p["lam"], S_list=p["S_list"])
    res = {"x": x, "swap": p["swap"], "lam": p["lam"], **asdict(rep)}
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


def _error_report(err, manifest=None) -> dict:
    """The report of a run refused or ended by err: the manifest if any, the error, "partial": true."""
    error = {"type": type(err).__name__, "message": str(err), "field": getattr(err, "field", None)}
    return {**(manifest or {}), "error": error, "partial": True}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    outd = cfg.output_dir
    manifest = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "system": cfg.system.to_json(),
        "parameters": cfg.parameters,
        "version": __version__,
    }
    _write_json(outd / "manifest.json", manifest)
    for stale in ("report.json", "data.csv"):  # a previous run's, which must not outlive a crash
        (outd / stale).unlink(missing_ok=True)
    try:
        results, header, rows = _RUNNERS[cfg.experiment](cfg.system, cfg.parameters, cfg.seed)
    except (NuspecError, ValueError, MemoryError) as err:
        _write_json(outd / "report.json", _error_report(err, manifest))
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_json(outd / "report.json", {**manifest, "results": results})
    if header is not None:
        _write_csv(outd / "data.csv", header, rows)
    return 0


# ---------------------------------------------------------------------------
# report comparison


def compare_to_bound(recurrence_report: dict, lyapunov_report: dict, tolerance: float = 0.35) -> dict:
    """Compare a measured ball-return limsup against 1/lambda_u - 1/lambda_s.

    Refuses mismatched system fingerprints and non-hyperbolic spectra."""
    for experiment, report in (("recurrence-scaling", recurrence_report), ("lyapunov", lyapunov_report)):
        if not isinstance(report, dict) or report.get("experiment") != experiment:
            raise ConfigError(f"expected a report of {experiment}")
        if "results" not in report:
            raise ConfigError(f"the {experiment} report is partial: its run ended in an error")
    if not 0 <= tolerance < math.inf:
        raise ConfigError(f"tolerance must be a finite number >= 0, got {tolerance}", field="tolerance")
    if recurrence_report.get("system") != lyapunov_report.get("system"):
        raise ConfigError("mismatched system fingerprints between reports")
    lam_res = lyapunov_report["results"]
    lam_s = lam_res["lambda_s"]
    lam_u = lam_res["lambda_u"]
    if lam_s is None or lam_u is None or not (lam_s < 0 < lam_u):
        raise ConfigError("not hyperbolic: spectrum lacks exponents of both signs")
    bound = 1.0 / lam_u - 1.0 / lam_s
    rec = recurrence_report["results"]
    measured = rec["limsup_estimate"]
    return {
        "system": recurrence_report["system"],
        "measured_limsup": measured,
        "bound": bound,
        "tolerance": tolerance,
        "pass": bool(measured is not None and measured <= bound * (1.0 + tolerance)),
        "censored_radii": [r for r, c in zip(rec["radii"], rec["censored"]) if c],
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
            rec, lya = (json.loads(Path(f).read_text(encoding="utf-8")) for f in (args.recurrence, args.lyapunov))
            table = compare_to_bound(rec, lya, tolerance=args.tolerance)
        except (NuspecError, OSError, ValueError, KeyError, TypeError) as err:
            if args.out:
                _write_json(Path(args.out) / "summary.json", _error_report(err))
            print(f"refusal: {err}", file=sys.stderr)
            return 1
        print(f"{'measured':>12} {'bound':>12} {'pass':>6}")
        measured = "n/a" if table["measured_limsup"] is None else f"{table['measured_limsup']:.4f}"
        print(f"{measured:>12} {table['bound']:>12.4f} {str(table['pass']):>6}")
        if args.out:
            _write_json(Path(args.out) / "summary.json", table)
        return 0

    try:
        cfg = load_config(args.command, args.config, [_parse_set(item) for item in args.set], args.out)
    except (ConfigError, OSError, ValueError) as err:
        if args.out:
            for stale in ("manifest.json", "data.csv"):  # an earlier run's, which the refusal must not sit beside
                (Path(args.out) / stale).unlink(missing_ok=True)
            _write_json(Path(args.out) / "report.json", _error_report(err))
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
