import csv
import hashlib
import json
import math

import numpy as np
import pytest

from nuspec.cli import _write_json, compare_to_bound, main
from nuspec.errors import ConfigError
from nuspec.shadowing import ShadowingProfile

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
    assert run_cli(["ns-cert", "--config", cfg, "--out", out]) == 1
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
    ],
)
def test_out_of_range_cover_parameter_refused(tmp_path, monkeypatch, experiment, args, field):
    # these once failed only after work had started (spectrum, block sweep
    # or context, about 1.5 s; sampling_orbit_length=0 with an IndexError
    # traceback and no report), or, with fixed_point=true, ran with the value
    # ignored; now they are refused first
    import nuspec.cli

    def no_work(*a, **kw):
        raise AssertionError("a spectrum or a cover context was computed")

    for name in ("lyapunov_spectrum", "build_cover_context", "fixed_point_context"):
        monkeypatch.setattr(nuspec.cli, name, no_work)
    out = tmp_path / "run"
    assert run_cli([experiment] + args + ["--out", out]) == 2
    rep = read_json(out / "report.json")
    assert rep["partial"] is True
    assert rep["error"]["type"] == "ConfigError"
    assert rep["error"]["field"] == field


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


HENON = {"system": {"kind": "Henon", "params": {"a": 1.4, "b": 0.3}}}


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


def test_gns_cli_round_trip(tmp_path):
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


def test_report_json_is_rfc8259(tmp_path):
    # a profile whose bound vanished has an infinite ratio; strict JSON has
    # no Infinity or NaN, so non-finite floats are written as null
    prof = ShadowingProfile(
        indices=np.arange(3),
        distances=np.array([0.0, 1e-3, 2e-3]),
        bounds=np.array([1.0, 0.0, 1.0]),
        tau=0.5,
        epsilon=0.1,
        passed=False,
        first_fail_index=1,
        max_ratio=math.inf,
    )
    path = tmp_path / "report.json"
    _write_json(path, {"profile": prof.to_json(), "values": [np.float64(-math.inf), math.nan, 1.5]})

    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    rep = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    assert rep["profile"]["max_ratio"] is None
    assert rep["values"] == [None, None, 1.5]


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


# sha256 of report.json for fast seed-0 runs, PerturbedCatMap(0.05) unless
# named; a change that is meant to keep reports byte-identical must keep these
REPORT_DIGESTS = {
    "shadow": "fb45667aac1b296d51a120239ef7c562f182b7046bedf0169aac93f9f17610f3",
    "ns-cert fixed_point": "d98ec73c4b107efe6cab8b4576928218b565415457acab1e88822f688a824b99",
    # the full cover context: spectrum, block sweep, cover, sampling orbit and its events
    "ns-cert": "da2903008681d219d2bef588c990467e427056bf2ac1a3f5df0ff1771389faeb",
    # multi-window records: three gns windows (CatMap defaults), two ns windows
    "gns-cert CatMap": "35f00c5184a3bd5e7bd0c1f2b527e7b6cc21d3c9594d1f66edc5496def9d92fd",
    "sublinearity": "62ce628dbb84a8f87b4656ccdc109c09bf0691d99c563e5372367dbc609719e4",
}


def test_report_digests_pinned(tmp_path, shadow_run):
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
    digests = {
        "shadow": hashlib.sha256((shadow_run[1] / "report.json").read_bytes()).hexdigest(),
        "ns-cert fixed_point": hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
        "ns-cert": hashlib.sha256((full / "report.json").read_bytes()).hexdigest(),
        "gns-cert CatMap": hashlib.sha256((gns / "report.json").read_bytes()).hexdigest(),
        "sublinearity": hashlib.sha256((sub / "report.json").read_bytes()).hexdigest(),
    }
    assert digests == REPORT_DIGESTS
