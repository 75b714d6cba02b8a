"""Correctness checks on the reports the CLI writes.

Every check is one (label, ok) pair; `run.py` counts them into `attempted`
and `failed`. Tolerances are those of the acceptance gate
(tests/test_acceptance.py, TOL), keyed by the identity they gate.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Tuple

from workloads import EPS, EXPECTED_IDENTITIES, PREC_BITS, QUAD_EPS

# criterion -> tolerance, as in tests/test_acceptance.py
ACCEPTANCE_TOL = {1: 1e-20, 2: 1e-20, 3: 1e-20, 5: 1e-8, 8: 1e-25, 10: 1e-20}

IDENTITY_TOL = {
    "mf5_matrix": ACCEPTANCE_TOL[1],
    "mf5_scalar_0": ACCEPTANCE_TOL[2],
    "mf5_scalar_1": ACCEPTANCE_TOL[2],
    "l_vector_consistency": ACCEPTANCE_TOL[3],
    "l_vector_fixed_point": ACCEPTANCE_TOL[3],
    "eta_T": ACCEPTANCE_TOL[8],
    "eta_S": ACCEPTANCE_TOL[8],
    "theta3_T": ACCEPTANCE_TOL[8],
    "theta3_S": ACCEPTANCE_TOL[8],
    "theta_chain": ACCEPTANCE_TOL[8],
    "theta3_lower": ACCEPTANCE_TOL[8],
    "wronskian_v_T": ACCEPTANCE_TOL[10],
    "wronskian_w_T": ACCEPTANCE_TOL[10],
    "g_T_invariance": ACCEPTANCE_TOL[10],
}
STOKES_TOL = ACCEPTANCE_TOL[5]

# The lateral sign both acceptance moduli (1 and pi) match at the reference
# configuration; criterion 5 requires one sign throughout.
STOKES_SIGN = -1

# A residual of exactly 0 (theta3_lower when the bound holds) is floored at
# the 256-bit unit roundoff so that its margin stays finite.
RESIDUAL_FLOOR = 2.0 ** -PREC_BITS

Checks = List[Tuple[str, bool]]


def margin(tol: float, residual: float) -> float:
    """Digits by which the residual clears its tolerance."""
    return math.log10(tol) - math.log10(max(residual, RESIDUAL_FLOOR))


def _load(data: bytes):
    try:
        return json.loads(data.decode())
    except (UnicodeDecodeError, ValueError):
        return None


def check_verify(data: bytes, suite: str, points: int) -> Tuple[Checks, Optional[float]]:
    """Checks on a `verify --format json` report, and its margin in digits."""
    doc = _load(data)
    if not isinstance(doc, dict):
        return [("%s.report_parses" % suite, False)], None
    checks: Checks = [
        ("%s.reference_config" % suite,
         doc.get("prec_bits") == PREC_BITS
         and math.isclose(float(doc.get("eps", "nan")), float(EPS), rel_tol=1e-9)
         and math.isclose(float(doc.get("quad_eps", "nan")), float(QUAD_EPS),
                          rel_tol=1e-9)),
        ("%s.all_pass" % suite, doc.get("all_pass") is True),
    ]
    reports = {r["identity"]: r for r in doc.get("identities", [])}
    checks.append(("%s.no_error_entries" % suite,
                   not any(name.endswith("_error") for name in reports)))
    checks.append(("%s.identities" % suite,
                   all(len(reports.get(name, {}).get("entries", [])) == points
                       for name in EXPECTED_IDENTITIES[suite])))
    margins = []
    for name, rep in sorted(reports.items()):
        tol = IDENTITY_TOL.get(name)
        for i, e in enumerate(rep["entries"]):
            res = float(e["abs_residual"])
            ok = e["pass"] is True and tol is not None and res < tol
            checks.append(("%s.%s[%d]" % (suite, name, i), ok))
            if tol is not None:
                margins.append(margin(tol, res))
    return checks, (min(margins) if margins else None)


def check_stokes(data: bytes) -> Tuple[Checks, Optional[float]]:
    """Checks on a `stokes --format json` report, and its margin in digits."""
    doc = _load(data)
    if not isinstance(doc, dict) or "summary" not in doc:
        return [("stokes.report_parses", False)], None
    s = doc["summary"]
    re_res = float(s["extrap_residual_real"])
    im_res = float(s["extrap_residual_imag"])
    cols = doc["header"].split(",")
    rows = [dict(zip(cols, r.split(","))) for r in doc["table"]]
    checks: Checks = [
        ("stokes.matched_sign", s.get("matched_sign") == STOKES_SIGN),
        ("stokes.extrap_residual_real", re_res < STOKES_TOL),
        ("stokes.extrap_residual_imag", im_res < STOKES_TOL),
        ("stokes.laterals", len(s["extension_eps"]) == 4 and len(rows) == 3),
    ]
    for col in ("re_residual", "im_residual"):
        seq = [float(r[col]) for r in rows]
        checks.append(("stokes.%s_decreasing" % col,
                       all(b < a for a, b in zip(seq, seq[1:]))))
    return checks, min(margin(STOKES_TOL, re_res), margin(STOKES_TOL, im_res))
