"""mocklab benchmark: cold-start verification runs through the CLI.

    python3 perfbench/run.py --workload series_edge --seed 1 --seconds 10 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its `src/`. Load model: closed loop, one
client. Every CLI call is a fresh interpreter (`python3 -m mocklab.cli`), so
each pays the cold start of the program's module-level caches, as a user's
call does. One iteration is the workload's list of CLI calls (workloads.py);
the run repeats iterations until --seconds have passed, at least once, and
reports medians over iterations.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
one extra traced iteration (tracer.py). Every report is checked
(checks.py); a failed check counts in `failed`, and no run is dropped. The
line before the result holds the environment, the points, the report
digests and the labels of failed checks. The last stdout line is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 8  # per gap between iterations
CALL_TIMEOUT_S = 150  # one CLI call; a run must end within 180 s
SETUP_CODE = "import mocklab; mocklab.reference_context()"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MOCKLAB_PREC", None)  # would override the reference precision
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, log: Path):
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def calibrate() -> float:
    """Seconds of a fixed pure-mpmath loop, to tell host drift from code change."""
    from mpmath import mp, mpc

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with mp.workprec(256):
            z, acc = mpc("0.3", "0.7"), mpc(0)
            for k in range(1500):
                acc += mp.exp(z * k / 1500) / mp.cosh(z + k)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """One benchmark run: its workload, scratch directory and check tally."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.calls = workloads.invocations(workload, seed, workdir)
        self.checks: list = []
        self.margins: list = []
        self.digests: dict = {}
        self.n = 0

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def iteration(self, traced: bool = False):
        """Run every CLI call once: (wall s, cpu s, peak RSS MB, span files)."""
        wall = cpu = rss = 0.0
        span_files = []
        self.n += 1
        for inv in self.calls:
            report = self.workdir / ("%s.%d.out" % (inv.tag, self.n))
            argv = inv.argv + ["--out", str(report)]
            if traced:
                spans = self.workdir / ("%s.spans.json" % inv.tag)
                span_files.append(spans)
                cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                       str(spans), "--"] + argv
            else:
                cmd = [sys.executable, "-m", "mocklab.cli"] + argv
            log = self.workdir / ("%s.%d.log" % (inv.tag, self.n))
            rc, w, c, r = spawn(cmd, self.env, log)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            self.check("%s.exit_status" % inv.tag, rc == 0)
            self.verify(inv, report)
        return wall, cpu, rss, span_files

    def verify(self, inv, report: Path):
        data = report.read_bytes() if report.is_file() else b""
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(inv.tag, digest)
        self.check("%s.report_repeats" % inv.tag, digest == first)
        if inv.suite is None:
            found, margin = checks.check_stokes(data)
        else:
            found, margin = checks.check_verify(data, inv.suite, inv.points)
        self.checks.extend(found)
        self.margins.append(margin)

    def repeat(self, seconds: float, with_setup: bool):
        """Iterations until `seconds` would be exceeded, at least one; with
        set-up samples before each iteration and after the last, so that they
        span the same stretch of host time as the iterations."""
        samples, setup = [], []
        t0 = time.perf_counter()
        while True:
            if with_setup:
                setup += self.setup_times()
            samples.append(self.iteration())
            if time.perf_counter() - t0 + samples[-1][0] > seconds:
                break
        if with_setup:
            setup += self.setup_times()
        return samples, setup

    def setup_times(self):
        cmd = [sys.executable, "-c", SETUP_CODE]
        out = []
        for _ in range(SETUP_SAMPLES):
            rc, w, _, _ = spawn(cmd, self.env, self.workdir / "setup.log")
            self.check("setup.exit_status", rc == 0)
            out.append(w)
        return out

    def points(self):
        """The seeded inputs, as the program receives them."""
        out = {}
        for inv in self.calls:
            args = list(inv.argv)
            if inv.grid is not None:
                args[args.index("--grid") + 1] = inv.grid
            out[inv.tag] = args
        return out


def environment(calib_s: float) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "prec_bits": workloads.PREC_BITS,
        "eps": workloads.EPS,
        "quad_eps": workloads.QUAD_EPS,
        "host.calib_s": calib_s,
    }


def measure(args, workdir: Path):
    run = Run(args.workload, args.seed, workdir)
    # first start compiles the sources to bytecode; later starts are timed
    rc, _, _, _ = spawn([sys.executable, "-c", SETUP_CODE], run.env,
                        workdir / "setup.log")
    if rc != 0:
        print("perfbench: cannot import mocklab from %s:\n%s"
              % (SRC, (workdir / "setup.log").read_text()), file=sys.stderr)
        return None
    calib_s = calibrate()
    samples, setup = run.repeat(args.seconds, with_setup=not args.trace)
    walls = [s[0] for s in samples]
    wall = statistics.median(walls)
    if args.trace:
        traced_wall, _, _, span_files = run.iteration(traced=True)
        summary = tracer.summarize(tracer.read_spans(span_files))
        values = tracer.layer_metrics(summary, traced_wall, wall)
        values["process.cpu_s"] = statistics.median(s[1] for s in samples)
        values["host.calib_s"] = calib_s
    else:
        margins = [m for m in run.margins if m is not None]
        failed = sum(1 for _, ok in run.checks if not ok)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s[2] for s in samples),
            "pass_frac": 1 - failed / len(run.checks),
            "margin_digits": min(margins) if margins else 0.0,
        }
    return run, values, walls, calib_s


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mocklab" / "__init__.py").is_file():
        print("perfbench: no mocklab sources at %s" % (SRC / "mocklab"),
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                                    dir=OUT))
    try:
        got = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if got is None:
        return 2
    run, values, walls, calib_s = got
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in units[kind]}
    failed = [label for label, ok in run.checks if not ok]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(calib_s),
        "iterations": len(walls),
        "iteration_wall_s": walls,
        "points": run.points(),
        "report_sha256": run.digests,
        "failed_checks": failed,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(run.checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
