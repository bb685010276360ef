"""Correctness checks applied to every benchmark op.

Each checker takes a parsed result and returns a list of problems; an empty
list means the op is correct.  The checks restate the invariants a
certificate claims about itself, so they hold for any seed.  For the
reference seed the integer, boolean and null fields are also compared
exactly against a stored run of the seed code (reference.json).
"""

from __future__ import annotations

import hashlib
import json
import math


def _reject_constant(name):
    raise ValueError(f"non-RFC 8259 JSON constant {name}")


def strict_loads(text: str):
    """Parse JSON as RFC 8259 allows it: NaN and +-Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def int_bool_fields(obj, prefix: str = "") -> dict:
    """Flatten obj to {path: value} over its int, bool and null leaves.

    Floats are left out: their last digits may move under a reordered sum,
    while every integer and flag of a certificate is exact."""
    out = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            out.update(int_bool_fields(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(int_bool_fields(v, f"{prefix}{i}."))
    elif obj is None or isinstance(obj, (bool, int)):
        out[prefix[:-1]] = obj
    return out


def diff_fields(reference: dict, got: dict) -> list:
    """Paths whose value differs from the reference or that went missing.

    Fields the reference does not hold are ignored, so a report may gain
    fields without failing the check."""
    bad = []
    for path, want in reference.items():
        if path not in got:
            bad.append(f"{path}: missing (want {want!r})")
        elif type(got[path]) is not type(want) or got[path] != want:
            bad.append(f"{path}: {got[path]!r} != reference {want!r}")
    return bad


def _finite_rows(rows, width):
    for row in rows:
        if len(row) != width or not all(math.isfinite(v) for v in row):
            return False
    return True


def _margin_problems(where, cert_in_ball, first_bad, rows, m, n):
    """rows: (j, distance, allowance) for j = -m..n, in order."""
    problems = []
    if [int(r[0]) for r in rows] != list(range(-m, n + 1)):
        return [f"{where}: margin rows do not cover j = {-m}..{n}"]
    holds = [d < a for _, d, a in rows]
    if cert_in_ball != all(holds):
        problems.append(f"{where}: in_ball={cert_in_ball} but margins say {all(holds)}")
    want_first = None if all(holds) else int(rows[holds.index(False)][0])
    if first_bad != want_first:
        problems.append(f"{where}: first_violated_index {first_bad} != {want_first}")
    return problems


def check_ns_certificate(cert: dict, rows, m: int, n: int, newton_tol: float, M_k: int) -> list:
    """Invariants of one ns certificate (minimal connector)."""
    p, K = cert["period"], cert["K"]
    t_minus, t_plus = cert["t_minus"], cert["t_plus"]
    N = cert["connector"]["N"]
    problems = []
    if cert["m"] != m or cert["n"] != n:
        problems.append(f"window ({cert['m']}, {cert['n']}) != requested ({m}, {n})")
    if not (t_minus <= -m and t_plus >= n):
        problems.append(f"window [{t_minus}, {t_plus}] does not contain [-{m}, {n}]")
    if cert["M_k"] != M_k:
        problems.append(f"M_k {cert['M_k']} != context M_k {M_k}")
    if K != (t_plus - t_minus) + M_k - m - n:
        problems.append("K != (t_plus - t_minus) + M_k - m - n")
    if not 1 <= N <= M_k:
        problems.append(f"connector N={N} outside [1, M_k={M_k}]")
    if p != (t_plus - t_minus) + N:
        problems.append(f"period {p} != window length + connector N")
    if p > m + n + K:
        problems.append(f"period {p} > m + n + K = {m + n + K}")
    if not cert["residual"] <= newton_tol:
        problems.append(f"residual {cert['residual']} > newton_tol {newton_tol}")
    if not _finite_rows(rows, 3):
        return problems + ["margin rows are not finite triples"]
    return problems + _margin_problems("ns", cert["in_ball"], cert["first_violated_index"], rows, m, n)


def check_ns_report(report: dict, csv_rows) -> list:
    res = report["results"]
    par = report["parameters"]
    rows = [tuple(float(v) for v in r) for r in csv_rows]
    return check_ns_certificate(
        res["certificate"], rows, par["m"], par["n"], par["newton_tol"], res["context"]["transitions"]["M_k"]
    )


def check_gns_certificate(cert: dict, rows, k: int, newton_tol: float, M_k: int) -> list:
    """Invariants of a gns certificate: gap budget and period bookkeeping.
    rows: (segment, j, distance, allowance)."""
    segs, gaps = cert["segments"], cert["gaps"]
    problems = []
    if len(segs) != k or len(gaps) != k or len(cert["connectors"]) != k:
        return [f"expected {k} segments, gaps and connectors"]
    Ks = [s["K"] for s in segs]
    for i, s in enumerate(segs):
        if s["K"] != (s["t_plus"] - s["t_minus"]) + M_k - s["m"] - s["n"]:
            problems.append(f"segment {i}: K != (t_plus - t_minus) + M_k - m - n")
    if cert["sum_gaps"] != sum(gaps):
        problems.append("sum_gaps != sum(gaps)")
    if cert["gap_budget"] != sum(Ks):
        problems.append("gap_budget != sum(K_i)")
    if cert["sum_gaps"] > cert["gap_budget"]:
        problems.append(f"sum_gaps {cert['sum_gaps']} > gap_budget {cert['gap_budget']}")
    if cert["period"] != sum(s["m"] + s["n"] for s in segs) + sum(gaps):
        problems.append("period != sum(m_i + n_i) + sum(gaps)")
    offsets = [sum(segs[j]["n"] + gaps[j] for j in range(i)) + sum(segs[j]["m"] for j in range(1, i + 1)) for i in range(k)]
    if cert["offsets"] != offsets:
        problems.append(f"offsets {cert['offsets']} != stated bookkeeping {offsets}")
    if not cert["bookkeeping_ok"]:
        problems.append("bookkeeping_ok is false")
    pair_ok = all(gaps[i] <= Ks[i] + Ks[(i + 1) % k] for i in range(k))
    if cert["pair_bound_ok"] != pair_ok:
        problems.append("pair_bound_ok disagrees with gaps and K_i")
    if not cert["residual"] <= newton_tol:
        problems.append(f"residual {cert['residual']} > newton_tol {newton_tol}")
    if not _finite_rows(rows, 4):
        return problems + ["margin rows are not finite"]
    for i, s in enumerate(segs):
        seg_rows = [r[1:] for r in rows if int(r[0]) == i]
        problems += _margin_problems(f"segment {i}", s["in_ball"], s["first_violated_index"], seg_rows, s["m"], s["n"])
    if cert["all_in_ball"] != all(s["in_ball"] for s in segs):
        problems.append("all_in_ball disagrees with the segments")
    return problems


def check_lyapunov_report(report: dict, csv_rows) -> list:
    res = report["results"]
    problems = []
    if not res["lambda_s"] < 0 < res["lambda_u"]:
        problems.append("spectrum is not hyperbolic")
    if abs(res["sum"]) > 1e-6:  # every benchmarked map preserves area
        problems.append(f"exponent sum {res['sum']} is not 0 for an area-preserving map")
    return problems


def check_recurrence_report(report: dict, csv_rows) -> list:
    res = report["results"]
    problems = []
    if not len(res["radii"]) == len(res["tau"]) == len(res["ratios"]) == len(res["censored"]) == len(csv_rows):
        problems.append("radii, tau, ratios, censored and data.csv differ in length")
    for c, ratio in zip(res["censored"], res["ratios"]):
        if c != (ratio is None):
            problems.append("a censored radius carries a ratio, or an uncensored one lacks it")
            break
    if res["any_censored"] != any(res["censored"]):
        problems.append("any_censored disagrees with censored")
    return problems


def check_nonlacunarity_report(report: dict, csv_rows) -> list:
    res = report["results"]
    par = report["parameters"]
    times = [int(r[1]) for r in csv_rows]
    problems = []
    if res["n_forward"] != len(times) or res["n_forward"] > par["count_fwd"]:
        problems.append("n_forward disagrees with data.csv or count_fwd")
    if any(b <= a for a, b in zip(times, times[1:])) or (times and times[0] < 1):
        problems.append("forward return times are not positive and increasing")
    if times and (res["t_first"] != times[0] or res["t_last"] != times[-1]):
        problems.append("t_first/t_last disagree with data.csv")
    if res["n_backward"] > par["count_bwd"]:
        problems.append("n_backward exceeds count_bwd")
    return problems


def check_shadow_report(report: dict, csv_rows) -> list:
    res = report["results"]
    par = report["parameters"]
    prof = res["profile"]
    rows = [tuple(float(v) for v in r) for r in csv_rows]
    problems = []
    if res["period"] != sum(res["segment_lengths"]):
        problems.append("period != sum of segment lengths")
    if not res["residual"] <= par["newton_tol"]:
        problems.append(f"residual {res['residual']} > newton_tol {par['newton_tol']}")
    if prof["n_checked"] != len(rows) or not _finite_rows(rows, 3):
        return problems + ["profile rows disagree with n_checked or are not finite"]
    if prof["passed"] != all(d < b for _, d, b in rows):
        problems.append("profile passed disagrees with its distance/bound rows")
    return problems


def check_domination_report(report: dict, csv_rows) -> list:
    res = report["results"]
    if res["ok"] != all(v >= 0 for v in res["margins"].values()):
        return ["ok disagrees with the sign of the margins"]
    return []


REPORT_CHECKS = {
    "ns-cert": check_ns_report,
    "lyapunov": check_lyapunov_report,
    "recurrence-scaling": check_recurrence_report,
    "nonlacunarity": check_nonlacunarity_report,
    "shadow": check_shadow_report,
    "domination": check_domination_report,
}


def certificate_outcome(experiment: str, report: dict):
    """Whether the op's certificate holds all its margins, or None when the
    experiment makes no certificate.  The shadowing profile is the
    certificate a diagnostics pass produces."""
    res = report["results"]
    if experiment == "ns-cert":
        return res["certificate"]["in_ball"]
    if experiment == "shadow":
        return res["profile"]["passed"]
    return None
