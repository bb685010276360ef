import csv
import hashlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuspec.cli import SCHEMAS, _build_ctx, _field, _write_json, compare_to_bound, load_config, main
from nuspec.dynamics import SystemSpec, orbit_array
from nuspec.errors import ConfigError
from nuspec.lyapunov import LyapunovSpectrum
from nuspec.recurrence import RecurrenceScalingReport
from nuspec.shadowing import DominationReport, Margins, ShadowingProfile

CAT_EXP = math.log((3 + math.sqrt(5)) / 2)


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_lyapunov_run(tmp_path):
    out = tmp_path / "ly"
    assert run_cli(["lyapunov", "--out", out]) == 0
    rep = read_json(out / "report.json")
    lo, hi = rep["results"]["exponents"]
    assert abs(hi - CAT_EXP) <= 1e-3 and abs(lo + CAT_EXP) <= 1e-3
    assert (out / "manifest.json").exists()


def test_reproducible_reports(tmp_path):
    args = ["lyapunov", "--set", "N=40000"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_ns_cert_fixed_point(tmp_path):
    out = tmp_path / "ns"
    rc = run_cli(
        [
            "ns-cert",
            "--out",
            out,
            "--set",
            "fixed_point=true",
            "--set",
            "m=30",
            "--set",
            "n=30",
            "--set",
            "spectrum_N=20000",
        ]
    )
    assert rc == 0
    rep = read_json(out / "report.json")
    cert = rep["results"]["certificate"]
    assert cert["in_ball"] is True
    assert cert["z"] == [0.0, 0.0]
    with open(out / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "distance", "allowance"]
    assert all(float(r[1]) == 0.0 for r in rows[1:])


def test_ns_cert_fixed_point_refuses_non_hyperbolic_spectrum(tmp_path, monkeypatch):
    # the fixed-point epsilon comes from the block parameters, so a spectrum
    # with no block parameters ends in a typed report before any context
    import nuspec.cli
    from nuspec.lyapunov import LyapunovSpectrum

    def no_context(*a, **kw):
        raise AssertionError("fixed_point_context reached")

    flat = LyapunovSpectrum.from_exponents((0.0, 0.0), horizon=100)
    monkeypatch.setattr(nuspec.cli, "_spectrum_for", lambda *a: flat)
    monkeypatch.setattr(nuspec.cli, "fixed_point_context", no_context)
    out = tmp_path / "run"
    assert run_cli(["ns-cert", "--set", "fixed_point=true", "--out", out]) == 1
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ValueError"
    assert "not hyperbolic" in rep["error"]["message"]


def test_crashed_run_leaves_no_stale_report(tmp_path, monkeypatch, capsys):
    # a run that runs out of memory ends in a typed partial report beside its
    # own manifest, never beside an earlier run's report or data.csv
    import nuspec.cli

    out = tmp_path / "run"
    assert run_cli(["recurrence-scaling", "--set", "spectrum_N=2000", "--set", "radii_log2_max=8", "--out", out]) == 0
    assert run_cli(["domination", "--out", out]) == 0
    assert "results" in read_json(out / "report.json")
    assert not (out / "data.csv").exists()

    def exhausted(*a):
        raise MemoryError("cannot allocate the sampling orbit")

    monkeypatch.setitem(nuspec.cli._RUNNERS, "ns-cert", exhausted)
    capsys.readouterr()
    assert run_cli(["ns-cert", "--out", out]) == 1
    assert "error: cannot allocate" in capsys.readouterr().err
    rep = read_json(out / "report.json")
    assert rep["experiment"] == read_json(out / "manifest.json")["experiment"] == "ns-cert"
    assert rep["partial"] is True and "results" not in rep
    assert rep["error"]["type"] == "MemoryError"
    assert not (out / "data.csv").exists()


def test_refused_config_leaves_no_stale_files(tmp_path):
    # a config refused before the run starts ends in its error report alone,
    # never beside an earlier run's manifest or data.csv
    out = tmp_path / "run"
    assert run_cli(["recurrence-scaling", "--set", "spectrum_N=2000", "--set", "radii_log2_max=8", "--out", out]) == 0
    assert (out / "manifest.json").exists() and (out / "data.csv").exists()
    assert run_cli(["ns-cert", "--set", "theta=-1", "--out", out]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    rep = read_json(out / "report.json")
    assert rep["partial"] is True and rep["error"]["field"] == "theta"


def test_invalid_kind_writes_error_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"kind": "catmap3", "params": {}}}))
    out = tmp_path / "run"
    rc = run_cli(["lyapunov", "--config", cfg, "--out", out])
    assert rc != 0
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["field"] == "system.kind"


def test_ns_cert_empty_window_writes_typed_error(tmp_path):
    out = tmp_path / "ns"
    args = ["ns-cert", "--out", out, "--set", "fixed_point=true", "--set", "spectrum_N=20000"]
    assert run_cli(args + ["--set", "m=0", "--set", "n=0"]) == 1
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "PreconditionError"


def test_ns_cert_rejects_plane_system(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"kind": "Henon", "params": {"a": 1.4, "b": 0.3}}}))
    out = tmp_path / "ns"
    # refused at the door (config exit 2), before any spectrum is computed
    assert run_cli(["ns-cert", "--config", cfg, "--out", out]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ConfigError"
    assert rep["error"]["field"] == "system.kind"


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("ns-cert", "theta", -1),
        ("gns-cert", "theta", 0),
        ("sublinearity", "theta", -0.5),
        ("ns-cert", "newton_tol", -1),
        ("gns-cert", "newton_tol", 0),
        ("sublinearity", "newton_tol", -1e-9),
        ("shadow", "newton_tol", -1),
    ],
)
def test_nonpositive_theta_or_newton_tol_refused(tmp_path, experiment, key, value):
    # theta = -1 once gave an in_ball: false "certificate", newton_tol = -1
    # thirty Newton steps ending in NonConvergenceError at residual 0
    out = tmp_path / "run"
    assert run_cli([experiment, "--out", out, "--set", f"{key}={value}"]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ConfigError"
    assert rep["error"]["field"] == key


@pytest.mark.parametrize(
    "args, field",
    [
        (["nonlacunarity", "--set", "count_bwd=1e999"], "count_bwd"),
        (["ns-cert", "--set", "fixed_point=true", "--set", "m=1e999"], "m"),
        (["ns-cert", "--set", "fixed_point=true", "--set", "m=2.5"], "m"),
        (["ns-cert", "--set", "mixing=true", "--set", "connector_gap=20.5"], "connector_gap"),
        (["gns-cert", "--set", "m=[60, 60.5, 60]"], "m"),
        (["lyapunov", "--set", "N=true"], "N"),
    ],
)
def test_non_integer_parameter_refused(tmp_path, args, field):
    # 1e999 parses as infinity: int() once raised OverflowError with a
    # traceback and no report; m = 2.5 ran as m = 2 and exited 0
    out = tmp_path / "run"
    assert run_cli(args + ["--out", out]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ConfigError"
    assert rep["error"]["field"] == field


@pytest.mark.parametrize(
    "args, field",
    [
        (["--set", "m=[60]"], "m"),
        (["--set", "n=[60, 60, 60, 60]"], "n"),
        (["--set", "k=2", "--set", "m=[60, 60, 60]"], "m"),
        (["--set", "segment_points=[[0.1, 0.2], [0.3, 0.4]]"], "segment_points"),
    ],
)
def test_gns_cert_segment_list_length_refused(tmp_path, monkeypatch, args, field):
    # a list whose length is not k once built the whole cover context, and a
    # short one then ended in an IndexError traceback; now it is refused first
    import nuspec.cli

    def no_context(*a, **kw):
        raise AssertionError("build_cover_context reached")

    monkeypatch.setattr(nuspec.cli, "build_cover_context", no_context)
    out = tmp_path / "run"
    assert run_cli(["gns-cert"] + args + ["--out", out]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ConfigError"
    assert rep["error"]["field"] == field


def test_gns_cert_runs_at_given_segment_points(tmp_path):
    # segment points given in the config are the windows' base points; a
    # point outside the cover is a typed refusal of the certificate layer
    small = {"sampling_orbit_length": 20_000, "block_samples": 40, "spectrum_N": 20_000, "m": 20, "n": 20}
    cfg = load_config("gns-cert", None, list(small.items()), tmp_path)
    ctx = _build_ctx(cfg.system, cfg.seed, cfg.parameters)
    points = [ctx.block_points[i][0].tolist() for i in range(3)]
    args = ["gns-cert", *(f"--set={k}={v}" for k, v in small.items())]
    out = tmp_path / "given"
    assert run_cli(args + ["--set", f"segment_points={json.dumps(points)}", "--out", out]) == 0
    segments = read_json(out / "report.json")["results"]["certificate"]["segments"]
    assert [seg["x"] for seg in segments] == points
    grid = (np.array([i, j]) / 16 for i in range(16) for j in range(16))
    outside = next(p for p in grid if not ctx.cover.membership(p)).tolist()
    out = tmp_path / "outside"
    assert run_cli(args + ["--set", f"segment_points={json.dumps([outside, *points[1:]])}", "--out", out]) == 1
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "PreconditionError"
    assert rep["error"]["message"] == "certificate base point must lie in the cover support"


HENON = {"system": {"kind": "Henon", "params": {"a": 1.4, "b": 0.3}}}
STANDARD = {"system": {"kind": "StandardMap", "params": {"K_s": 1.2}}}


@pytest.mark.parametrize(
    "experiment, args, field",
    [
        ("gns-cert", ["--set", "k=0"], "k"),
        ("gns-cert", ["--set", "k=1", "--set", "m=[60]"], "k"),
        ("ns-cert", ["--set", "T_floor=0"], "T_floor"),
        ("ns-cert", ["--set", "h_cap=0"], "h_cap"),
        ("ns-cert", ["--set", "T_floor=5", "--set", "h_cap=4"], "h_cap"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "T_floor=0"], "T_floor"),
        ("gns-cert", ["--set", "h_cap=0"], "h_cap"),
        ("sublinearity", ["--set", "T_floor=-3"], "T_floor"),
        ("ns-cert", ["--set", "sampling_orbit_length=0"], "sampling_orbit_length"),
        ("ns-cert", ["--set", "sampling_orbit_length=512"], "sampling_orbit_length"),
        ("sublinearity", ["--set", "h_cap=40", "--set", "sampling_orbit_length=40"], "sampling_orbit_length"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "sampling_orbit_length=-1"], "sampling_orbit_length"),
        ("gns-cert", ["--set", "block_samples=0"], "block_samples"),
        ("ns-cert", ["--set", "block_samples=-5"], "block_samples"),
        ("ns-cert", ["--set", "block_window=[1, 2]"], "block_window"),
        ("ns-cert", ["--set", "block_window=[0, 0, 0]"], "block_window"),
        ("gns-cert", ["--set", "block_window=[200, 200, 2.5]"], "block_window"),
        ("sublinearity", ["--set", "block_window=200"], "block_window"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "block_window=[200, -1, 50]"], "block_window"),
        ("ns-cert", ["--set", "spectrum_N=5"], "spectrum_N"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "spectrum_N=99"], "spectrum_N"),
        ("gns-cert", ["--set", "spectrum_N=0"], "spectrum_N"),
        ("ns-cert", ["--set", "max_centers=0"], "max_centers"),
        ("sublinearity", ["--set", "max_centers=-1"], "max_centers"),
        ("ns-cert", ["--set", "delta=-0.1"], "delta"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "delta=-0.1"], "delta"),
        ("gns-cert", ["--set", "delta=0"], "delta"),
        ("sublinearity", ["--set", "delta=1e999"], "delta"),
        ("ns-cert", ["--set", 'delta="0.1"'], "delta"),
        # q = {"kind": "modulated", "frequency": 0.5} once ran as frequency 0
        # while the report echoed 0.5; c = -1 failed at run time as a ValueError
        ("ns-cert", ["--set", "q=3"], "q"),
        ("ns-cert", ["--set", 'q={"kind": "bogus"}'], "q.kind"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", 'q={"kind": "bogus"}'], "q.kind"),
        ("gns-cert", ["--set", 'q={"kind": "constant", "scale": 2}'], "q.scale"),
        ("gns-cert", ["--set", 'q={"kind": "constant", "c": -1}'], "q.c"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", 'q={"kind": "constant", "c": -1}'], "q.c"),
        ("sublinearity", ["--set", 'q={"kind": "constant", "c": 1e999}'], "q.c"),
        ("ns-cert", ["--set", 'q={"kind": "constant", "c": "1"}'], "q.c"),
        ("ns-cert", ["--set", 'q={"kind": "modulated", "amplitude": 1}'], "q.amplitude"),
        ("gns-cert", ["--set", 'q={"kind": "modulated", "amplitude": -0.1}'], "q.amplitude"),
        ("ns-cert", ["--set", 'q={"kind": "modulated", "frequency": 0.5}'], "q.frequency"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", 'q={"kind": "modulated", "frequency": 0.5}'], "q.frequency"),
        ("sublinearity", ["--set", 'q={"kind": "modulated", "frequency": true}'], "q.frequency"),
        # the diagnostics and the top-level fields once went unchecked: these
        # ended in a traceback (qr_period=0, x0=[1], an inverted radii range,
        # count_fwd=0, x=[0.1], a non-object parameters) ...
        ("lyapunov", ["--set", "qr_period=0"], "qr_period"),
        ("lyapunov", ["--set", "x0=[1]"], "x0"),
        ("recurrence-scaling", ["--set", "radii_log2_min=10", "--set", "radii_log2_max=2"], "radii_log2_max"),
        ("nonlacunarity", ["--set", "count_fwd=0"], "count_fwd"),
        ("ns-cert", ["--set", "x=[0.1]"], "x"),
        ("lyapunov", ["--config", {"parameters": 5}], "parameters"),
        # ... these ran to exit 0 on a meaningless input ...
        ("nonlacunarity", ["--set", "radius=-1"], "radius"),
        ("domination", ["--set", "n_points=0"], "n_points"),
        ("nonlacunarity", ["--set", "thresholds=[]"], "thresholds"),
        ("ns-cert", ["--set", "fixed_point=1"], "fixed_point"),
        ("lyapunov", ["--config", {"seed": True}], "seed"),
        # ... and these were refused only after the work had started
        ("ns-cert", ["--set", "eta_ratio=-1"], "eta_ratio"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "eta_ratio=0"], "eta_ratio"),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "eta_ratio=1"], "eta_ratio"),
        ("sublinearity", ["--set", "eta_ratios=[]"], "eta_ratios"),
        ("sublinearity", ["--set", "mn_list=[]"], "mn_list"),
        ("domination", ["--set", "S_list=[]"], "S_list"),
        ("domination", ["--set", "S0=2"], "S_list"),
        ("lyapunov", ["--set", "N=5"], "N"),
        ("shadow", ["--set", "period_min=80", "--set", "period_max=60"], "period_max"),
        ("lyapunov", ["--config", {"seed": -1}], "seed"),
        ("ns-cert", ["--config", HENON, "--set", "fixed_point=true"], "system.kind"),
        ("shadow", ["--config", STANDARD], "system.kind"),
        ("recurrence-scaling", ["--config", STANDARD, "--set", "method=segment"], "system.kind"),
        ("recurrence-scaling", ["--set", "method=grid"], "method"),
        ("recurrence-scaling", ["--set", "radii_log2_max=20"], "radii_log2_max"),
        ("lyapunov", ["--set", "transient=-1"], "transient"),
        ("shadow", ["--set", "jitter=0"], "jitter"),
        ("nonlacunarity", ["--set", "radius=0.6"], "radius"),
        ("lyapunov", ["--config", {"output_dir": 5}], "output_dir"),
        # the fixed-point certificate sits at (0, 0): a given x once ran to
        # exit 0 and was echoed in the report as if it had been used
        ("ns-cert", ["--set", "fixed_point=true", "--set", "x=[0.3, 0.7]"], "x"),
    ],
)
def test_out_of_range_cover_parameter_refused(tmp_path, monkeypatch, experiment, args, field):
    # these once failed only after work had started (spectrum, block sweep
    # or context, about 1.5 s; sampling_orbit_length=0 with an IndexError
    # traceback and no report), or, with fixed_point=true, ran with the value
    # ignored; now they are refused first
    import nuspec.cli

    def no_work(*a, **kw):
        raise AssertionError("a spectrum, context, orbit or Newton solve was computed")

    stages = ["lyapunov_spectrum", "build_cover_context", "fixed_point_context", "return_times", "_transport_sweeps"]
    stages += ["newton_refine_periodic", "orbit_array"]
    for name in stages:
        monkeypatch.setattr(nuspec.cli, name, no_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(next((a for a in args if isinstance(a, dict)), {})))
    args = [cfg if isinstance(a, dict) else a for a in args]
    out = tmp_path / "run"
    assert run_cli([experiment] + args + ["--out", out]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ConfigError"
    assert rep["error"]["field"] == field


def test_set_item_without_value_writes_typed_error(tmp_path):
    # once exit 2 with no report.json, unlike every other refusal
    out = tmp_path / "run"
    assert run_cli(["lyapunov", "--out", out, "--set", "N"]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert (rep["error"]["type"], rep["error"]["field"]) == ("ConfigError", "--set")


def test_table_defaults_pass_their_kinds():
    for experiment, fields in SCHEMAS.items():
        defaults = {}
        for name, spec in fields.items():
            defaults[name], kind = _field(spec)
            assert kind(name, defaults[name]) == defaults[name], (experiment, name)
        # and the cross-field and system rules hold at the defaults on CatMap
        assert load_config(experiment, None, [], None).parameters == defaults


# one setting per experiment that keeps an accepted draw to milliseconds
TINY_COVER = {"spectrum_N": 200, "sampling_orbit_length": 600, "h_cap": 40, "block_samples": 4, "max_centers": 8}
TINY = {
    "lyapunov": {"N": 200},
    "recurrence-scaling": {"spectrum_N": 200, "radii_log2_max": 6, "T_max": 50},
    "nonlacunarity": {"count_fwd": 20, "count_bwd": 5, "horizon": 2000},
    "shadow": {"spectrum_N": 200},
    "ns-cert": dict(TINY_COVER, fixed_point=True, m=5, n=5, block_window=[20, 20, 5]),
    "gns-cert": dict(TINY_COVER, m=5, n=5, block_window=[20, 20, 5]),
    "sublinearity": dict(TINY_COVER, mn_list=[[5, 5]], block_window=[20, 20, 5]),
    "domination": {"n_points": 5, "S_list": [1, 2]},
}
# wrong types, boundary and out-of-range values, all small
PROBES = [1e999, "1", "lattice", None, [], [0.1, 0.2], [[0.1, 0.2], [0.3, 0.4]], {"kind": "modulated", "amplitude": 0.1}]
SYSTEMS = [{"kind": "CatMap", "params": {}}, {"kind": "PerturbedCatMap", "params": {"kappa": 0.05}}, HENON["system"]]


def field_values(default):
    """Small values of the default's type (its boundary values and beyond)
    or a probe of another type; none of them makes an accepted run slow."""
    own = st.nothing()
    if type(default) is bool:
        own = st.booleans()
    elif type(default) is int:
        own = st.integers(-1, 4)
    elif type(default) is float:
        own = st.sampled_from([-0.1, 0.0, 1e-3, 0.05, 0.3, 0.5, 0.6, 2.5])
    elif isinstance(default, list):
        own = st.lists(field_values(default[0]), max_size=3)
    return st.one_of(own, st.sampled_from(PROBES))


@st.composite
def table_configs(draw):
    experiment = draw(st.sampled_from(sorted(SCHEMAS)))
    fields = {name: _field(spec)[0] for name, spec in SCHEMAS[experiment].items()}
    params = dict(TINY[experiment])
    for name in draw(st.lists(st.sampled_from(sorted(fields) + ["seed"]), min_size=1, max_size=2)):
        params[name] = draw(field_values(fields.get(name, 0)))
    seed = params.pop("seed", 0)
    return experiment, {"system": draw(st.sampled_from(SYSTEMS)), "seed": seed, "parameters": params}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(table_configs())
def test_table_drawn_config_ends_in_report(case):
    # exit 0 with a full report, or a nonzero exit with a typed partial one;
    # an exception escaping main fails the test
    experiment, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "run"
        cfg.write_text(json.dumps(config))
        rc = run_cli([experiment, "--config", cfg, "--out", out])
        rep = read_json(out / "report.json")
    if rc == 0:
        assert "results" in rep and "partial" not in rep
        return
    assert rc in (1, 2) and rep["partial"] is True and rep["error"]["type"]
    if rc == 2:
        assert rep["error"]["type"] == "ConfigError"
        assert rep["error"]["field"].split(".")[0] in set(SCHEMAS[experiment]) | {"seed", "system"}


def test_modulated_q_stored_as_given(tmp_path):
    out = tmp_path / "run"
    q = {"kind": "modulated", "amplitude": 0.1, "frequency": 2.0}
    args = ["ns-cert", "--out", out, "--set", "fixed_point=true", "--set", "spectrum_N=2e4"]
    assert run_cli(args + ["--set", f"q={json.dumps(q)}", "--set", "m=30", "--set", "n=30"]) == 0
    rep = read_json(out / "report.json")
    assert rep["parameters"]["q"] == q
    cert_q = rep["results"]["certificate"]["q"]
    assert (cert_q["kind"], cert_q["amplitude"], cert_q["frequency"]) == ("modulated", 0.1, 2)


def test_integral_float_parameter_runs_as_int(tmp_path):
    # an integral float is stored as the int it is, in the manifest too; a
    # float h_cap or sampling_orbit_length once reached range() as a float
    out = tmp_path / "run"
    args = ["ns-cert", "--out", out, "--set", "fixed_point=true", "--set", "spectrum_N=2e4"]
    assert run_cli(args + ["--set", "m=30.0", "--set", "n=30"]) == 0
    rep = read_json(out / "report.json")
    assert rep["parameters"]["m"] == 30 and isinstance(rep["parameters"]["m"], int)
    assert rep["results"]["certificate"]["m"] == 30


@pytest.mark.parametrize("experiment", ["domination", "nonlacunarity"])
def test_backward_diagnostics_refuse_plane_system(tmp_path, experiment):
    # their backward orbits leave the Henon basin; the refusal comes before
    # any computation, not as NonFiniteError after it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(HENON))
    out = tmp_path / "run"
    assert run_cli([experiment, "--config", cfg, "--out", out]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ConfigError"
    assert rep["error"]["field"] == "system.kind"


def test_forward_nonlacunarity_runs_on_plane_system(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(HENON))
    out = tmp_path / "run"
    assert run_cli(["nonlacunarity", "--config", cfg, "--out", out, "--set", "count_bwd=0"]) == 0
    assert read_json(out / "report.json")["results"]["n_backward"] == 0


def test_nonlacunarity_plane_ball_does_not_wrap(tmp_path):
    # from this x0 a Henon orbit comes within the radius of x0 - (1, 0) at
    # step 19, which only a torus ball counts; the plane ball's first visit
    # is the first plane distance within the radius
    x0 = [0.0874, -0.2859]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(HENON))
    out = tmp_path / "run"
    args = ["--set", "count_bwd=0", "--set", "count_fwd=3", "--set", "horizon=2000", "--set", f"x0={x0}"]
    assert run_cli(["nonlacunarity", "--config", cfg, "--out", out] + args) == 0
    res = read_json(out / "report.json")["results"]
    orbit = orbit_array(SystemSpec.henon(1.4, 0.3), *x0, n_fwd=2000)
    d = np.hypot(*(orbit[1:] - orbit[0]).T)
    assert res["t_first"] == int(np.flatnonzero(d <= res["radius"])[0]) + 1 == 63


def test_non_finite_system_parameter_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"system": {"kind": "PerturbedCatMap", "params": {"kappa": NaN}}}')
    out = tmp_path / "ly"
    assert run_cli(["lyapunov", "--config", cfg, "--out", out]) != 0
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["field"] == "system.params"


def test_unknown_parameter_rejected(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(["lyapunov", "--out", out, "--set", "bogus_knob=3"])
    assert rc != 0


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systm": {"kind": "CatMap"}}))
    rc = run_cli(["lyapunov", "--config", cfg, "--out", tmp_path / "r"])
    assert rc != 0


def test_csv_shape_recurrence(tmp_path):
    out = tmp_path / "rec"
    assert (
        run_cli(
            [
                "recurrence-scaling",
                "--out",
                out,
                "--set",
                "radii_log2_max=10",
                "--set",
                "spectrum_N=20000",
            ]
        )
        == 0
    )
    with open(out / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "tau", "ratio", "censored"]
    assert all(len(r) == 4 for r in rows)
    assert len(rows) == 1 + 7  # header + radii 2^-4 .. 2^-10


def test_compare_pair(tmp_path):
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--out", ly]) == 0
    assert run_cli(["recurrence-scaling", "--out", rec]) == 0
    cmp_out = tmp_path / "cmp"
    rc = run_cli(
        ["compare", "--recurrence", rec / "report.json", "--lyapunov", ly / "report.json", "--out", cmp_out]
    )
    assert rc == 0
    summary = read_json(cmp_out / "summary.json")
    assert abs(summary["bound"] - 2.0 / CAT_EXP) <= 1e-3
    assert summary["pass"] is True
    assert summary["censored_radii"] == []


def test_compare_refuses_mismatched_systems(tmp_path):
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--out", ly]) == 0
    assert run_cli(["recurrence-scaling", "--out", rec]) == 0
    lyr = read_json(ly / "report.json")
    lyr["system"] = {"kind": "StandardMap", "params": {"K_s": 1.0}}
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(lyr))
    rc = run_cli(["compare", "--recurrence", rec / "report.json", "--lyapunov", doctored])
    assert rc != 0


def test_compare_refuses_non_hyperbolic(tmp_path):
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--out", ly]) == 0
    assert run_cli(["recurrence-scaling", "--out", rec]) == 0
    lyr = read_json(ly / "report.json")
    lyr["results"]["lambda_s"] = 0.4  # both exponents "positive"
    with pytest.raises(ConfigError, match="not hyperbolic"):
        compare_to_bound(read_json(rec / "report.json"), lyr)


def test_compare_refuses_partial_report(tmp_path, capsys):
    # a lyapunov run that ended in an error once raised KeyError: 'results'
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(HENON))
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--config", cfg, "--set", "x0=[100, 100]", "--out", ly]) == 1
    assert read_json(ly / "report.json")["partial"] is True
    assert run_cli(["recurrence-scaling", "--config", cfg, "--set", "spectrum_N=2000", "--out", rec]) == 0
    capsys.readouterr()
    assert run_cli(["compare", "--recurrence", rec / "report.json", "--lyapunov", ly / "report.json"]) == 1
    assert "refusal:" in capsys.readouterr().err


def test_compare_refusal_writes_partial_summary(tmp_path, capsys):
    ly, cmp_out = tmp_path / "ly", tmp_path / "cmp"
    assert run_cli(["lyapunov", "--set", "N=2000", "--out", ly]) == 0
    capsys.readouterr()
    argv = ["compare", "--recurrence", ly / "report.json", "--lyapunov", ly / "report.json", "--out", cmp_out]
    assert run_cli(argv) == 1
    assert "refusal:" in capsys.readouterr().err
    summary = read_json(cmp_out / "summary.json")
    assert summary["partial"] is True and "bound" not in summary
    assert summary["error"]["type"] == "ConfigError"
    assert "expected a report of recurrence-scaling" in summary["error"]["message"]


@pytest.mark.parametrize("malformed", ["not an object", "no lambda_s"])
def test_compare_refuses_malformed_report(tmp_path, capsys, malformed):
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--set", "N=2000", "--out", ly]) == 0
    assert run_cli(["recurrence-scaling", "--set", "spectrum_N=2000", "--set", "radii_log2_max=8", "--out", rec]) == 0
    lyr = read_json(ly / "report.json")
    if malformed == "not an object":
        lyr = [lyr]
    else:
        del lyr["results"]["lambda_s"]
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(lyr))
    capsys.readouterr()
    assert run_cli(["compare", "--recurrence", rec / "report.json", "--lyapunov", doctored]) == 1
    assert "refusal:" in capsys.readouterr().err


def test_compare_all_radii_censored(tmp_path, capsys):
    # no uncensored radius leaves limsup_estimate null; the summary line once
    # raised TypeError formatting it
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--set", "N=2000", "--out", ly]) == 0
    args = ["--set", "T_max=1", "--set", "radii_log2_min=8", "--set", "radii_log2_max=10", "--set", "spectrum_N=2000"]
    assert run_cli(["recurrence-scaling", "--out", rec] + args) == 0
    assert read_json(rec / "report.json")["results"]["limsup_estimate"] is None
    cmp_out = tmp_path / "cmp"
    argv = ["compare", "--recurrence", rec / "report.json", "--lyapunov", ly / "report.json", "--out", cmp_out]
    assert run_cli(argv) == 0
    assert "n/a" in capsys.readouterr().out
    summary = read_json(cmp_out / "summary.json")
    assert summary["pass"] is False and summary["measured_limsup"] is None
    assert len(summary["censored_radii"]) == 3


@pytest.mark.parametrize("tolerance", ["-0.1", "nan", "inf"])
def test_compare_refuses_bad_tolerance(tmp_path, capsys, tolerance):
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--set", "N=2000", "--out", ly]) == 0
    assert run_cli(["recurrence-scaling", "--set", "spectrum_N=2000", "--set", "radii_log2_max=8", "--out", rec]) == 0
    capsys.readouterr()
    argv = ["compare", "--recurrence", rec / "report.json", "--lyapunov", ly / "report.json"]
    assert run_cli(argv + [f"--tolerance={tolerance}"]) == 1
    assert "refusal:" in capsys.readouterr().err


def test_compare_fixed_point_recurrence(tmp_path):
    ly, rec = tmp_path / "ly", tmp_path / "rec"
    assert run_cli(["lyapunov", "--out", ly]) == 0
    assert (
        run_cli(["recurrence-scaling", "--out", rec, "--set", "x0=[0.0,0.0]", "--set", "T_max=50"]) == 0
    )
    rep = read_json(rec / "report.json")
    assert all(t == 1 for t in rep["results"]["tau"])
    cmp_out = tmp_path / "cmp"
    rc = run_cli(
        ["compare", "--recurrence", rec / "report.json", "--lyapunov", ly / "report.json", "--out", cmp_out]
    )
    assert rc == 0
    assert read_json(cmp_out / "summary.json")["pass"] is True


def test_gns_cli_round_trip(tmp_path, newton_solutions, cat_exact_distance):
    out = tmp_path / "gns"
    rc = run_cli(
        [
            "gns-cert",
            "--out",
            out,
            "--set",
            "sampling_orbit_length=150000",
            "--set",
            "block_samples=80",
            "--set",
            "spectrum_N=20000",
        ]
    )
    assert rc == 0
    rep = read_json(out / "report.json")
    cert = rep["results"]["certificate"]
    assert cert["all_in_ball"] is True
    assert cert["sum_gaps"] <= cert["gap_budget"]
    assert cat_exact_distance(newton_solutions[0]) < 1e-12


def test_report_json_is_rfc8259(tmp_path):
    # a profile whose bound vanished has an infinite ratio; strict JSON has
    # no Infinity or NaN, so non-finite floats are written as null
    margins = Margins(j=np.arange(3), distance=np.array([0.0, 1e-3, 2e-3]), allowance=np.array([1.0, 0.0, 1.0]))
    prof = ShadowingProfile(tau=0.5, epsilon=0.1, margins=margins)
    path = tmp_path / "report.json"
    _write_json(path, {"profile": prof.to_json(), "values": [np.float64(-math.inf), math.nan, 1.5]})

    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    rep = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    assert rep["profile"]["max_ratio"] is None
    assert rep["values"] == [None, None, 1.5]


def test_write_json_writes_records_as_fields(tmp_path):
    # plain records reach report.json as their fields through the one
    # serializer: non-finite floats as null, tuples and arrays as lists, and
    # int keys as strings in string order
    rec = RecurrenceScalingReport(
        radii=[0.5], tau=[None], ratios=[None], censored=[True], limsup_estimate=math.nan,
        bound=math.inf, grid=5, method="lattice", T_max=400, any_censored=True,
    )
    spec = LyapunovSpectrum.from_exponents([CAT_EXP, -CAT_EXP], horizon=100)
    dom = DominationReport(ok=True, margins={1: 0.5, 5: 0.25, 10: 0.125})
    path = tmp_path / "report.json"
    _write_json(path, {"rec": rec, "spec": spec, "dom": dom, "scalar": np.float64(2.5), "x": np.array([0.25, 0.75])})

    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    rep = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    assert rep["rec"] == {
        "radii": [0.5], "tau": [None], "ratios": [None], "censored": [True], "limsup_estimate": None,
        "bound": None, "grid": 5, "method": "lattice", "T_max": 400, "any_censored": True,
    }
    assert rep["spec"]["exponents"] == [-CAT_EXP, CAT_EXP]
    assert rep["spec"]["horizon"] == 100
    assert list(rep["dom"]["margins"]) == ["1", "10", "5"]
    assert rep["dom"] == {"ok": True, "margins": {"1": 0.5, "5": 0.25, "10": 0.125}}
    assert rep["scalar"] == 2.5
    assert rep["x"] == [0.25, 0.75]


PERTURBED_SEED0 = {"system": {"kind": "PerturbedCatMap", "params": {"kappa": 0.05}}, "seed": 0}


@pytest.fixture(scope="module")
def shadow_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("shadow")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(PERTURBED_SEED0))
    out = base / "run"
    return run_cli(["shadow", "--config", cfg, "--out", out]), out


def test_shadow_run(shadow_run):
    rc, out = shadow_run
    assert rc == 0
    res = read_json(out / "report.json")["results"]
    lengths = res["segment_lengths"]
    assert res["period"] == sum(lengths)
    assert res["concatenation_times"] == [0, lengths[0]]
    with open(out / "data.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "distance", "bound"]
    rows = rows[1:]
    assert res["profile"]["n_checked"] == len(rows)
    # each arc is checked at j = 0..n_i, so the junction indices appear twice
    assert len(rows) == res["period"] + len(lengths)
    assert res["profile"]["passed"] == all(float(d) < float(b) for _, d, b in rows)


def test_shadow_cat_exact_orbit(tmp_path, newton_solutions, cat_exact_distance):
    # on CatMap both refinements, the rational cycle and the shadow solution,
    # lie on their exact periodic orbits
    assert run_cli(["shadow", "--set", "spectrum_N=200", "--out", tmp_path / "shadow"]) == 0
    assert len(newton_solutions) == 2
    assert max(map(cat_exact_distance, newton_solutions)) < 1e-12


STANDARD6_SEED0 = {"system": {"kind": "StandardMap", "params": {"K_s": 6.0}}, "seed": 0}


@pytest.fixture(scope="module")
def standard_run(tmp_path_factory):
    # the non-uniform regime: block indices here spread over tens, where on
    # the cat maps they are 1 or 2
    base = tmp_path_factory.mktemp("standard")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(STANDARD6_SEED0))
    out = base / "run"
    args = ["--set", "sampling_orbit_length=100000", "--set", "block_samples=100"]
    return run_cli(["ns-cert", "--config", cfg, *args, "--out", out]), out


def test_ns_cert_standard_map(standard_run):
    rc, out = standard_run
    assert rc == 0
    cert = read_json(out / "report.json")["results"]["certificate"]
    assert cert["in_ball"] is True
    assert cert["period"] <= cert["m"] + cert["n"] + cert["K"]
    pinned = {"period": 257, "K": 61, "M_k": 7, "newton_iters": 4, "t_minus": -122, "t_plus": 132}
    assert {key: cert[key] for key in pinned} == pinned
    assert cert["indices"] == {"l1": 34, "l2": 37, "s1": 7, "s2": 10}


# sha256 of report.json for fast seed-0 runs, PerturbedCatMap(0.05) unless
# named; a change that is meant to keep reports byte-identical must keep these
REPORT_DIGESTS = {
    "shadow": "d3b2cdc269b056a8d1ccad15e6f3ad6881ff76385e0ec2cc2a36c055c746e72a",
    "ns-cert fixed_point": "d07afb6e13850da65a1a3bed9dc367b9655d92d569122ca9a4799446192ac7f4",
    # the full cover context: spectrum, block sweep, cover, sampling orbit and its events
    "ns-cert": "19eed13121b2910a97416939398caaad29f6cd028ecf81509937edf323c162d6",
    # the non-uniform regime: StandardMap(6) at a shorter sampling orbit and
    # fewer block samples, block indices in the tens
    "ns-cert StandardMap(6)": "15a06de10e62f459ac04ea046c085378a6918db59618aeffc600f642e6799d49",
    # multi-window records: three gns windows (CatMap defaults), two ns windows
    "gns-cert CatMap": "9f7ee580d1cedf5eaecf50b4a1fbddf65af337c730be62ec95262ff98c3053e7",
    "sublinearity": "3bb007acf6efe3f852de64d118f73a3f0b49b1a6dee624eee7702bdb98a6cf6e",
    # the diagnostics at their defaults on CatMap
    "lyapunov": "1070b873132a646780420f1b6400fb90b331aec14b554f8e9165f6e66d5fd201",
    "recurrence-scaling": "18d7a130e7c7ce47d6a4dd8e6e19bfae55d104221da27a6208f2528138ce3546",
    "nonlacunarity": "4879a305041bd53e90d6071549c8e450cec77f6591367f0242ed730dfaaab511",
    "domination": "8a4fb62e0b4bd844db078b0eb7b4b9e7a349cab7fd228c3a8948d16ebc2f9d46",
    # plane balls: Henon forward visits through the cell fold of the ball's candidate index
    "nonlacunarity Henon": "d21b82e9427bd367bf32558667d577b5ed5e7431a2a7a35be6458819fffc96d3",
    # count_bwd = 60 walks the scalar perturbed-cat inverse backward
    "nonlacunarity PerturbedCatMap": "ee6a8c254cbdf02cd343a89a7cf7412b6d53147d1c13668eae687476f8797d67",
    # the bench's diagnostics system; its margins read the block sweep's stretch logs
    "domination PerturbedCatMap": "ce04faf3b207cddd58cf58f4c9fd231724b34cc5ceb58a10683bd08277624b96",
    # ball-return lattices: the odd default grid, which holds the center, and
    # an even grid, which misses it and prepends it
    "recurrence-scaling PerturbedCatMap": "2b7d83d1bf114c66a059da963c73ac5c251092c1d38993e19e1929f47ddf8f8e",
    "recurrence-scaling CatMap lattice grid=4": "1034bac198c570e5f5bf8bd951b3eceb5fbd609a4532e7201c16912c0bbcb3bf",
    # the segment estimator at the smallest radii the CLI allows, 2^-19
    "recurrence-scaling CatMap radii_log2_max=19": "3d953711fd5fa3438ce3726efa89583b99eb74a7a5837d971f12fc90ccb3aa47",
}

# sha256 of data.csv for the first six runs above: the margin rows of
# shadow, ns-cert and gns-cert, and the sublinearity table
CSV_DIGESTS = {
    "shadow": "0a4d3d0305c94c2f766442105c694e664f1e2a9fd6b1736efcac11dbe0cee43d",
    "ns-cert fixed_point": "5ec3264fa8ba09ae883fd1142bbbc1ad41805543cf3d397b5926e2e4b4d72de7",
    "ns-cert": "b4c195b3f09a17c77bdbfbee9c3ef940394378100104e5540919f4978eafaabc",
    "gns-cert CatMap": "08d49d83768396f8067a41646875167421b8d7511936de64beae5e5378039c3d",
    "sublinearity": "75f47a331b3d6190c54eab5eb7807b6c171a32cfc7d951763e9306ffa6ae9cd5",
    "ns-cert StandardMap(6)": "0d947ee4989405f85fcd8c1cc5fcc88863ae7b599f332e456ee0d27b2bad4182",
}


def _moved(digests, pinned):
    """Names whose digest differs from its pin, or that only one side has."""
    return sorted(name for name in digests.keys() | pinned.keys() if digests.get(name) != pinned.get(name))


def test_report_digests_pinned(tmp_path, shadow_run, standard_run):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PERTURBED_SEED0))
    out = tmp_path / "ns"
    assert run_cli(["ns-cert", "--config", cfg, "--set", "fixed_point=true", "--out", out]) == 0
    full = tmp_path / "ns-full"
    assert run_cli(["ns-cert", "--config", cfg, "--out", full]) == 0
    gns = tmp_path / "gns"
    assert run_cli(["gns-cert", "--out", gns]) == 0
    sub = tmp_path / "sub"
    assert run_cli(["sublinearity", "--config", cfg, "--set", "mn_list=[[100,100],[200,200]]", "--out", sub]) == 0
    margin_runs = {
        "shadow": shadow_run[1],
        "ns-cert fixed_point": out,
        "ns-cert": full,
        "gns-cert CatMap": gns,
        "sublinearity": sub,
        "ns-cert StandardMap(6)": standard_run[1],
    }
    digests = {name: hashlib.sha256((d / "report.json").read_bytes()).hexdigest() for name, d in margin_runs.items()}
    csv_digests = {name: hashlib.sha256((d / "data.csv").read_bytes()).hexdigest() for name, d in margin_runs.items()}
    for exp in ("lyapunov", "recurrence-scaling", "nonlacunarity", "domination"):
        assert run_cli([exp, "--out", tmp_path / exp]) == 0
        digests[exp] = hashlib.sha256((tmp_path / exp / "report.json").read_bytes()).hexdigest()
    henon = tmp_path / "henon.json"
    henon.write_text(json.dumps({**HENON, "seed": 0}))
    hen = tmp_path / "nonlacunarity-henon"
    assert run_cli(["nonlacunarity", "--config", henon, "--set", "count_bwd=0", "--out", hen]) == 0
    digests["nonlacunarity Henon"] = hashlib.sha256((hen / "report.json").read_bytes()).hexdigest()
    pert = tmp_path / "nonlacunarity-perturbed"
    assert run_cli(["nonlacunarity", "--config", cfg, "--out", pert]) == 0
    digests["nonlacunarity PerturbedCatMap"] = hashlib.sha256((pert / "report.json").read_bytes()).hexdigest()
    dom = tmp_path / "domination-perturbed"
    assert run_cli(["domination", "--config", cfg, "--out", dom]) == 0
    digests["domination PerturbedCatMap"] = hashlib.sha256((dom / "report.json").read_bytes()).hexdigest()
    recurrence_runs = {
        "recurrence-scaling PerturbedCatMap": ["--config", cfg],
        "recurrence-scaling CatMap lattice grid=4": ["--set", "method=lattice", "--set", "grid=4"],
        "recurrence-scaling CatMap radii_log2_max=19": ["--set", "radii_log2_max=19"],
    }
    for i, (name, args) in enumerate(recurrence_runs.items()):
        rec = tmp_path / f"recurrence-{i}"
        assert run_cli(["recurrence-scaling", *args, "--out", rec]) == 0
        digests[name] = hashlib.sha256((rec / "report.json").read_bytes()).hexdigest()
    moved = {"report.json": _moved(digests, REPORT_DIGESTS), "data.csv": _moved(csv_digests, CSV_DIGESTS)}
    assert moved == {"report.json": [], "data.csv": []}, f"digests moved: {moved}"


# caps the child's address space before it imports anything, so that an
# oversized allocation fails in it and in it alone
_UNDER_3_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from nuspec.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(importlib.util.find_spec("resource") is None, reason="needs the POSIX resource module")
def test_oversized_sampling_orbit_ends_in_a_typed_report(tmp_path):
    # 10^12 rows: the shared mapping of the sampling orbit fails (ENOMEM),
    # the context falls back to the inline walk, and its allocation raises
    # MemoryError before any row is walked
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = tmp_path / "run"
    args = ["ns-cert", "--set", "sampling_orbit_length=1000000000000", "--set", "spectrum_N=2000"]
    args += ["--set", "block_samples=20", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_3_GIB, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    rep = read_json(out / "report.json")
    assert rep["partial"] is True and "results" not in rep
    assert rep["error"]["type"] == "MemoryError"


def test_cli_import_leaves_scipy_sparse_out():
    # the cyclic Newton step factors a banded matrix with LAPACK; loading
    # scipy.sparse as well would cost every run about 4 MiB of memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nuspec.cli; print('scipy.sparse' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_traced_layers_resolve():
    # a renamed layer would drop out of the benchmark's trace without an error
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {(mod, attr) for mod, attr, _ in tracing.TARGETS if not hasattr(importlib.import_module(mod), attr)}
    # the cycle-degeneracy layer is not split out of _solve_cyclic yet
    assert missing <= {("nuspec.shadowing", "_cycle_degeneracy")}
