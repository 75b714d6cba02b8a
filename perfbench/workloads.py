"""Seeded inputs of the benchmark workloads.

A workload is a fixed list of `mocklab` CLI invocations. The seed picks the
points inside narrow bands; the program only ever sees the generated argv
and grid files. Bands are narrow so that the cost of a run hardly depends on
the seed: the run-to-run spread then measures the program and the host, not
the choice of point.
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

# Reference configuration: 256 bits, series eps 1e-40; the CLI derives
# quad_eps = eps * 1e10 = 1e-30 from it.
PREC_BITS = 256
EPS = "1e-40"
QUAD_EPS = "1e-30"
REF_ARGS = ["--prec", str(PREC_BITS), "--eps", EPS]

STOKES_EPS_SEQ = "0.016,0.008,0.004"  # extended by the program to 0.002

# (lo, hi) of every seeded coordinate; BENCHMARK.json quotes these.
BANDS = {
    "series_edge": {
        "mf5_alpha": (0.0039, 0.0041),    # real alpha, |q| ~ 0.996
        "tau_re_abs": (0.20, 0.30),       # one tau left of 0, one right
        "tau_im": (0.014, 0.016),
    },
    "mf5_complex": {
        "alpha_abs": (2.45, 2.55),
        "alpha_arg": (0.38, 0.42),
    },
    "stokes_lateral": {
        "abs_alpha": (0.29, 0.31),
    },
}
WORKLOADS = tuple(BANDS)

# identities every verify suite must report, one entry per grid point
EXPECTED_IDENTITIES = {
    "mf5": ("l_vector_consistency", "mf5_matrix", "mf5_scalar_0",
            "mf5_scalar_1"),
    "theta_eta": ("eta_S", "eta_T", "theta3_S", "theta3_T", "theta3_lower",
                  "theta_chain"),
    "wronskian": ("g_T_invariance", "wronskian_v_T", "wronskian_w_T"),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `mocklab <argv> --out <report>`."""

    tag: str
    argv: List[str]
    suite: Optional[str]  # verify suite, or None for `stokes`
    points: int  # entries expected per identity
    grid: Optional[list] = None  # contents of the --grid file


def _draw(rng: random.Random, band) -> float:
    lo, hi = band
    return round(rng.uniform(lo, hi), 6)


def _grid(path: Path, points) -> str:
    path.write_text(json.dumps(points))
    return str(path)


def invocations(workload: str, seed: int, workdir: Path) -> List[Invocation]:
    """The invocations of one iteration; grid files are written to workdir."""
    if workload not in BANDS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    band = BANDS[workload]
    rng = random.Random("%s:%d" % (workload, seed))

    def verify(tag, suite, points):
        argv = ["verify", "--suite", suite, "--format", "json"] + REF_ARGS
        if points:
            argv += ["--grid", _grid(workdir / ("%s.grid.json" % tag), points)]
        return Invocation(tag, argv, suite, max(1, len(points)), points or None)

    if workload == "series_edge":
        alpha = _draw(rng, band["mf5_alpha"])
        taus = [{"re": sign * _draw(rng, band["tau_re_abs"]),
                 "im": _draw(rng, band["tau_im"]), "as": "tau"}
                for sign in (-1, 1)]
        return [
            verify("mf5", "mf5", [{"re": alpha, "im": 0, "as": "alpha"}]),
            verify("theta_eta", "theta_eta", taus),
            verify("wronskian", "wronskian", []),
        ]
    if workload == "mf5_complex":
        z = cmath.rect(_draw(rng, band["alpha_abs"]), _draw(rng, band["alpha_arg"]))
        return [verify("mf5", "mf5", [{"re": round(z.real, 6),
                                       "im": round(z.imag, 6), "as": "alpha"}])]
    argv = (["stokes", "--abs-alpha", repr(_draw(rng, band["abs_alpha"])),
             "--eps-seq", STOKES_EPS_SEQ, "--format", "json"] + REF_ARGS)
    return [Invocation("stokes", argv, None, 1)]
