"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer, layer_name, self_times  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_reference_check_flags_tampered_integer():
    ref = json.loads((HERE / "reference.json").read_text())
    want = ref["workloads"]["ns-context"]["ops"][0]["ns-cert"]["fields"]
    got = copy.deepcopy(want)
    assert checks.diff_fields(want, got) == []
    got["certificate.period"] += 1
    bad = checks.diff_fields(want, got)
    assert len(bad) == 1 and bad[0].startswith("certificate.period")
    # a flag turned into an integer of equal value is a change too
    got = copy.deepcopy(want)
    got["certificate.in_ball"] = int(got["certificate.in_ball"])
    assert checks.diff_fields(want, got)


def test_reference_check_ignores_added_fields_but_not_removed():
    want = {"a.b": 1, "c": True}
    assert checks.diff_fields(want, {"a.b": 1, "c": True, "new": 3}) == []
    assert checks.diff_fields(want, {"a.b": 1})


def test_int_bool_fields_skips_floats():
    obj = {"x": [0.5, 0.25], "period": 252, "in_ball": True, "first": None, "segs": [{"K": 3}]}
    assert checks.int_bool_fields(obj) == {"period": 252, "in_ball": True, "first": None, "segs.0.K": 3}


@pytest.mark.parametrize("text", ['{"a": Infinity}', '{"a": -Infinity}', '{"a": NaN}'])
def test_strict_parse_rejects_non_rfc_constants(text):
    with pytest.raises(ValueError):
        checks.strict_loads(text)
    assert json.loads(text)  # the stdlib parser alone would accept it


def _ns_cert(in_ball=True, first=None):
    cert = {"m": 2, "n": 2, "t_minus": -3, "t_plus": 3, "M_k": 4, "K": 6, "period": 10,
            "connector": {"N": 4}, "residual": 1e-15, "in_ball": in_ball, "first_violated_index": first}
    rows = [(j, 1e-3, 0.05) for j in range(-2, 3)]
    return cert, rows


def test_ns_invariants_hold_and_catch_violations():
    cert, rows = _ns_cert()
    assert checks.check_ns_certificate(cert, rows, 2, 2, 1e-11, 4) == []
    bad_rows = list(rows)
    bad_rows[1] = (-1, 0.06, 0.05)  # a margin fails but the certificate says in_ball
    assert checks.check_ns_certificate(cert, bad_rows, 2, 2, 1e-11, 4)
    cert2, _ = _ns_cert(in_ball=False, first=-1)
    assert checks.check_ns_certificate(cert2, bad_rows, 2, 2, 1e-11, 4) == []
    cert3 = dict(cert, period=11, connector={"N": 5})  # p > m + n + K and N > M_k
    assert len(checks.check_ns_certificate(cert3, rows, 2, 2, 1e-11, 4)) == 2
    cert4 = dict(cert, residual=1e-9)
    assert checks.check_ns_certificate(cert4, rows, 2, 2, 1e-11, 4)


def _span(name, start, end, parent):
    s = Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_on_nested_trace():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("specification.transition_scan", 1.0, 7.0, 0),
        _span("dynamics.orbit_array", 1.5, 3.5, 1),
        _span("specification.cover_events", 4.0, 5.0, 1),
        _span("shadowing.newton", 7.5, 9.0, 0),
        _span("shadowing.solve_cyclic", 8.0, 8.5, 4),
    ]
    own = self_times(spans)
    assert own == pytest.approx([10 - 6 - 1.5, 6 - 2 - 1, 2, 1, 1.5 - 0.5, 0.5])
    assert sum(own) == pytest.approx(10.0)  # self times partition the op
    assert layer_name(spans, 2) == "dynamics.sampling_orbit"
    spans[2].parent = 0
    assert layer_name(spans, 2) == "dynamics.orbit_array"


def test_tracer_wraps_every_binding_and_reports_absent_layers():
    import nuspec
    import nuspec.cli
    import nuspec.lyapunov
    import nuspec.specification

    orig = nuspec.lyapunov.lyapunov_spectrum
    tracer = Tracer(
        [
            ("nuspec.lyapunov", "lyapunov_spectrum", "lyapunov.spectrum"),
            ("nuspec.specification", "_no_such_stage", "specification.gone"),
        ]
    )
    tracer.install()
    try:
        for mod in (nuspec, nuspec.cli, nuspec.lyapunov):
            assert mod.lyapunov_spectrum is not orig
            assert mod.lyapunov_spectrum.__wrapped__ is orig
        assert tracer.absent == ["nuspec.specification._no_such_stage"]
        spec = nuspec.cli.lyapunov_spectrum(nuspec.SystemSpec.cat_map(), nuspec.Point2(0.3, 0.1), N=200)
    finally:
        tracer.uninstall()
    assert nuspec.cli.lyapunov_spectrum is orig and nuspec.lyapunov.lyapunov_spectrum is orig
    assert spec.lambda_u > 0
    assert [s.name for s in tracer.spans] == ["lyapunov.spectrum"]


def test_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {f"{s}.self_s" for s in worker.LAYER_STAGES} <= {name for name, _ in run.PER_LAYER}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _spec()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "diagnostics", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}


def _gns_cert():
    # two segments of m = n = 1 with M_k = 2, so K_i = (t_plus - t_minus) + 2 - 2
    segs = [
        {"m": 1, "n": 1, "t_minus": -2, "t_plus": 2, "K": 4, "offset": 0, "in_ball": True, "first_violated_index": None},
        {"m": 1, "n": 1, "t_minus": -2, "t_plus": 3, "K": 5, "offset": 5, "in_ball": True, "first_violated_index": None},
    ]
    cert = {"segments": segs, "gaps": [3, 4], "connectors": [{"N": 2}, {"N": 2}], "offsets": [0, 5],
            "period": 11, "gap_budget": 9, "sum_gaps": 7, "pair_bound_ok": True, "residual": 1e-15,
            "bookkeeping_ok": True, "all_in_ball": True}
    rows = [(si, j, 1e-3, 0.1) for si in range(2) for j in range(-1, 2)]
    return cert, rows


def test_gns_invariants_hold_and_catch_violations():
    cert, rows = _gns_cert()
    assert checks.check_gns_certificate(cert, rows, 2, 1e-11, 2) == []
    over = dict(cert, gaps=[3, 7], sum_gaps=10, period=14, offsets=[0, 5])  # sum of gaps above the budget
    assert any("gap_budget" in p for p in checks.check_gns_certificate(over, rows, 2, 1e-11, 2))
    shifted = dict(cert, offsets=[0, 6])
    assert any("offsets" in p for p in checks.check_gns_certificate(shifted, rows, 2, 1e-11, 2))
