"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-cold-reference --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced blocks of the same workload
and reports the per-layer metrics of the traced blocks, plus the tracing
overhead (traced minus untraced wall time).  Either way the outputs are
checked; a failed check voids the numbers and the exit code is 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result
file, with the machine it ran on, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SCALES = ("full", "tiny")

#: set-ups per measured run, each in a fresh interpreter (the run's own
#: and ``SETUP_SAMPLES - 1`` set-up-only child processes); ``setup_s``
#: reports the median of their calibrated times
SETUP_SAMPLES = 5
#: fewest sweep passes a measured run makes
MIN_PASSES = 3
#: client operations per traced/untraced block of the serve workload
SERVE_BLOCK_OPS = 50


def load_program(workload: str) -> None:
    """Import the program from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}\n")
        raise SystemExit(2)
    # the simulator stack a trial needs, so no import lands in a timed pass
    import repro.experiments.scenarios  # noqa: F401
    if workload != "sweep-cold-reference":
        import repro.radio.fastpath  # noqa: F401


def percentile(values: List[float], q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- peak RSS -----------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark to the current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- machine ------------------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD's commit read from ``.git`` without running git, if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256() -> str:
    """sha256 over the program's Python sources (identifies the code even
    where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_info(seed: int) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


# -- workloads ----------------------------------------------------------------


def recorded_digest(workload: str, scale: str, seed: int) -> Optional[str]:
    try:
        table = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(scale, {}).get(str(seed))


class Run:
    """One workload run: set-up, measurement, checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        from perfbench import workloads as wl

        self.wl = wl
        self.args = args
        self.workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
        self.outcome = wl.Outcome()
        self.sweep = args.workload != "serve-warm-store"

    def set_up(self):
        path = self.workdir / "setup"
        if self.sweep:
            return self.wl.SweepSession(self.args.workload, self.args.scale,
                                        self.args.seed, path)
        session = self.wl.ServeSession(self.wl.SERVE_SCALES[self.args.scale],
                                       self.args.seed, path)
        session.prime()
        return session

    def probe_setups(self, count: int) -> List[Tuple[float, float]]:
        """Set up ``count`` times more, each in a child interpreter that
        imports the program, sets up, and exits; each child's
        :meth:`setup_sample`."""
        args = self.args
        samples = []
        for _ in range(count):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--scale", args.scale, "--setup-only"],
                capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-500:]}")
            sample = json.loads(proc.stdout.splitlines()[-1])
            samples.append((sample["setup_s"], sample["calibrated_s"]))
        return samples

    def setup_sample(self) -> Tuple[float, float]:
        """Seconds from process start to now, as measured and calibrated
        by the machine's speed just after (see ``workloads.calibrate``)."""
        measured = time.perf_counter() - PROCESS_T0
        slowdown = self.wl.calibrate() / self.wl.CALIBRATION_REFERENCE_S
        return measured, measured / slowdown

    def block(self, session, tracer=None) -> float:
        """One block of work: a pass, or SERVE_BLOCK_OPS operations;
        returns its measured seconds (table executions, or round trips)."""
        if self.sweep:
            return session.run_pass(self.outcome)
        return sum(session.run_op(self.outcome, tracer)
                   for _ in range(SERVE_BLOCK_OPS))

    def measure(self, session) -> Dict[str, Tuple[float, str]]:
        """End-to-end metrics, tracing off.

        A sweep pass re-executes identical inputs, so each table's latency
        is its median calibrated latency over the run's passes (at least
        ``MIN_PASSES``; see ``workloads.calibrate``).  Throughput and
        percentiles derive from those per-table latencies.
        Serve operations are timed as client round trips, and throughput
        is over the sum of those round trips, so the client's own decoding
        and checks are not counted.
        """
        seconds = self.args.seconds
        out = self.outcome
        started = time.perf_counter()
        passes = 0
        while True:
            if self.sweep:
                session.run_pass(out)
                passes += 1
            else:
                session.run_op(out)
            elapsed = time.perf_counter() - started
            if self.sweep:
                # start another pass only if it should end near the limit
                if (passes >= MIN_PASSES
                        and elapsed + elapsed / passes > seconds * 1.15):
                    break
            elif elapsed >= seconds:
                break
        if self.sweep:
            latencies = [statistics.median(times)
                         for times in out.table_calibrated_s.values()]
            typical_pass = sum(latencies)
            trials_per_s = out.trials / passes / typical_pass
            submits_per_s = len(latencies) / typical_pass
        else:
            latencies = out.latencies_s
            busy = sum(latencies)
            trials_per_s = out.trials / busy
            submits_per_s = len(latencies) / busy
        if not latencies:  # every table failed; the run is void anyway
            return {}
        lat_ms = [s * 1000.0 for s in latencies]
        out.details.update({
            "passes": passes if self.sweep else None,
            "operations": len(out.latencies_s) if not self.sweep else None,
            "table_latencies_s": out.table_latencies_s or None,
            "table_calibrated_s": out.table_calibrated_s or None,
            "trials_computed": out.trials,
            "measured_s": elapsed,
        })
        return {
            "trials_per_s": (trials_per_s, "1/s"),
            "submit_p50_ms": (percentile(lat_ms, 0.50), "ms"),
            "submit_p99_ms": (percentile(lat_ms, 0.99), "ms"),
            "submits_per_s": (submits_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def measure_traced(self, session):
        """Alternate traced and untraced blocks; per-layer metrics.

        The first pair runs its traced block first, so the counts include
        the one-off work of a fresh process (such as a fastpath lattice
        build), and the overhead includes that work too.  Later pairs
        alternate which block runs first, so a slow drift of the machine
        does not bias the overhead either way.
        """
        from perfbench.tracer import Tracer

        tracer = Tracer()
        untraced = traced = 0.0
        pairs = 0
        started = time.perf_counter()
        while True:
            if pairs % 2:
                untraced += self.block(session)
            tracer.install()
            try:
                traced += self.block(session, tracer)
            finally:
                tracer.uninstall()
            if not pairs % 2:
                untraced += self.block(session)
            pairs += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / pairs > self.args.seconds * 1.15:
                break
        self.outcome.details.update({"trace_pairs": pairs,
                                     "untraced_wall_s": untraced})
        return tracer, tracer.per_layer(traced, untraced)

    def check(self) -> None:
        """Output-correctness gate beyond the per-operation checks."""
        out = self.outcome
        if not self.sweep:
            return
        distinct = sorted(set(out.digests))
        out.details["rows_sha256"] = distinct
        if len(distinct) > 1:
            out.error(f"passes of one seed gave {len(distinct)} distinct "
                      "row digests")
        expected = recorded_digest(self.args.workload, self.args.scale,
                                   self.args.seed)
        if expected is None:
            out.details["digest_check"] = "no digest recorded for this seed"
            sys.stderr.write(
                f"perfbench: no recorded digest for {self.args.workload} "
                f"seed {self.args.seed}; checked determinism and the "
                "theorem properties only\n")
        elif distinct != [expected]:
            out.details["digest_check"] = "mismatch"
            out.error(f"rows sha256 {distinct} != recorded {expected}")
        else:
            out.details["digest_check"] = "match"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cold-reference",
                                 "sweep-fastpath-side200",
                                 "serve-warm-store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input size; 'tiny' is for the benchmark's "
                             "own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    load_program(args.workload)

    run = Run(args)
    session = None
    tracer = None
    try:
        session = run.set_up()
        own = run.setup_sample()
        if args.setup_only:
            print(json.dumps({"setup_s": own[0], "calibrated_s": own[1]}))
            return 0
        if args.trace:
            tracer, metrics = run.measure_traced(session)
        else:
            samples = [own] + run.probe_setups(SETUP_SAMPLES - 1)
            run.outcome.details["setup_samples_s"] = [m for m, _ in samples]
            run.outcome.details["setup_samples_calibrated_s"] = [
                c for _, c in samples]
            reset_peak_rss()
            metrics = run.measure(session)
            setup_s = statistics.median(c for _, c in samples)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(run.workdir, ignore_errors=True)
    run.check()

    out = run.outcome
    correct = not out.errors and out.failed == 0
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    info = machine_info(args.seed)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio "
          f"({out.failed} failed of {out.attempted} attempted)")
    for message in out.errors:
        print(f"CHECK FAILED: {message}")
    print(f"machine python {info['python']} numpy {info['numpy']} "
          f"nproc {info['nproc']} commit {info['commit']}")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{stem}.jsonl")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "error_rate": error_rate,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": out.details,
        "errors": out.errors,
    }
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": result["metrics"] if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
