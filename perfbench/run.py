"""chebykit benchmark: one closed-loop client (one process, one thread).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chebykit checkout; the library is imported from its
`src/`.  The workload's inputs are made from --seed.  Operations run in whole
cycles (see workloads.py), as many as take about --seconds of operation time
on the reference machine; every result is checked.  The last line of stdout
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer breakdown.  The line before it holds the run's metadata.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it
THROUGHPUT_GROUPS = 32  # ops_per_s is the median over this many parts of a run

# Machine-speed calibration.  A fixed kernel that does not use chebykit is
# timed every CALIBRATE_EVERY_S of operation time (or every four times its own
# cost, if more), and reported times are scaled by
# (nominal kernel time) / (median kernel time in the run), i.e. to the speed
# of the reference machine (2 vCPU, Python 3.11.7).  The host's load moves
# allocation-heavy code far more than tight integer loops, so each workload
# names the kernel closest to its own instruction mix, and the power of that
# ratio it is scaled by (its calibration_strength).
CALIBRATE_EVERY_S = 0.25
_CAL_MODULUS = (1 << 521) - 1

IMPORT_PROBE = (
    "import time; t = time.process_time(); import chebykit.cli; "
    "print(repr(time.process_time() - t))"
)


def cpu_now():
    """CPU seconds used so far by this process and by its reaped children.

    Operations are timed in CPU time, not wall time: on a shared virtual
    machine the wall clock also counts time the host gave this CPU to
    someone else (steal time), which is not the program's cost.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def load_library():
    """Import chebykit from the checkout's src/, or exit without a result."""
    if not os.path.isdir(os.path.join(SRC, "chebykit")):
        sys.exit(f"no chebykit sources under {SRC}")
    sys.path.insert(0, SRC)
    import chebykit
    import chebykit.cli  # imports every module the workloads use

    if not os.path.abspath(chebykit.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported chebykit from {chebykit.__file__}, not from {SRC}")
    modules = {name: getattr(chebykit, name) for name in spans.MODULES}
    caches = [
        obj.cache_clear
        for mod in vars(chebykit).values()
        if isinstance(mod, types.ModuleType)
        for obj in list(vars(mod).values())
        if callable(getattr(obj, "cache_clear", None))
    ]

    def clear_caches():
        for clear in caches:
            clear()

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return types.SimpleNamespace(**modules, clear_caches=clear_caches, root=ROOT, child_env=env)


def _fraction_kernel():
    """Integer, Fraction and dict work with allocation, like most of chebykit."""
    q, n, counts = Fraction(2), 3, {}
    for i in range(1, 200):
        q = q * Fraction(i + 1, i) - Fraction(1, i * i + 1)
        n = (n * n + i) % _CAL_MODULUS
        counts[i % 31] = counts.get(i % 31, 0) + q.numerator % 1000


def _small_kernel():
    """Small-integer and small-Fraction work through many calls, like the
    cubic pipeline (the benchmark's own reference code)."""
    for b in range(-12, 13):
        for c in range(1, 8):
            reference.cubic_is_generic(b, c)
            reference.frac_mod(Fraction(c, b or 1) ** 3 - Fraction(b, c), reference.P)


def _interpreter_kernel():
    """Start and stop a bare interpreter: the process cost every CLI command pays."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


# name -> (kernel, its median CPU seconds on the reference machine)
CALIBRATION_KERNELS = {
    "fractions": (_fraction_kernel, 0.0025),
    "small": (_small_kernel, 0.003),
    "interpreter": (_interpreter_kernel, 0.06),  # the child's CPU time included
}


def calibration_kernel(name):
    """CPU seconds of one run of the named calibration kernel."""
    kernel = CALIBRATION_KERNELS[name][0]
    t0 = cpu_now()
    kernel()
    return cpu_now() - t0


def probe_import(env):
    """(interpreter start-up and exit, import of chebykit.cli), in CPU seconds of a fresh process."""
    t0 = cpu_now()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    total = cpu_now() - t0
    import_s = float(out.strip())
    return total - import_s, import_s


class Runner:
    """Runs operations with a deadline and keeps the tallies of one pass.

    Deadlines are CPU seconds on the reference machine: on this machine an
    operation gets `deadline / speed`, where `speed` is the running
    calibration estimate.  A missed deadline counts as exactly the deadline,
    because the caller has given up by then.  An in-process operation is
    interrupted by a wall-clock alarm at GUARD times its deadline (a CPU-time
    timer would make the kernel account CPU time in whole ticks).
    """

    GUARD = 1.5

    def __init__(self):
        self.armed = False
        self.speed = 1.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.reset()

    def reset(self):
        self.latencies = []
        self.ok = 0
        self.failures = {}
        self.wrong = []  # check failures outside the known defects
        self.by_kind = {}

    def _on_alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise workloads.Deadline()

    def run(self, op, deadline_s, arm_alarm):
        limit = (op.deadline_s or deadline_s) / self.speed
        if op.prepare is not None:
            op.prepare()
        t0 = cpu_now()
        try:
            if arm_alarm:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, self.GUARD * limit)
            try:
                result = op.call()
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = None
        except workloads.Deadline:
            outcome = "deadline"
        except Exception as e:  # any library error is a failed operation
            outcome = "error " + type(e).__name__
        dt = cpu_now() - t0
        if outcome == "deadline" or dt >= limit:
            outcome, dt = "deadline", limit
        if outcome is None:
            problem = op.check(result)
            if problem is not None:
                outcome = "wrong"
                if op.known_defect is None:
                    self.wrong.append(f"{op.kind}: {problem}")
        self.latencies.append(dt)
        count, seconds = self.by_kind.get(op.kind, (0, 0.0))
        self.by_kind[op.kind] = (count + 1, seconds + dt)
        if outcome is None:
            self.ok += 1
        else:
            key = f"{op.kind}: {outcome}"
            self.failures[key] = self.failures.get(key, 0) + 1
        return dt


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def throughput(per_cycle):
    """Median over THROUGHPUT_GROUPS parts of the run, each of consecutive
    cycles, of their correct operations per second of operation time.

    A median, not the whole run's ratio: on cubic_large one cubic in a
    hundred takes seconds to factor, and whether a seed draws none or three
    of them would otherwise move the figure by a quarter.  A part holds
    whole cycles, so it has the workload's mix of operations.
    """
    groups = min(THROUGHPUT_GROUPS, len(per_cycle))
    rates = []
    for g in range(groups):
        part = per_cycle[g * len(per_cycle) // groups : (g + 1) * len(per_cycle) // groups]
        rates.append(sum(ok for ok, _ in part) / sum(t for _, t in part))
    return statistics.median(rates)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit():
    try:
        # the ceiling keeps git from searching directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_start = os.getloadavg()
    lib = load_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    in_process = args.trace == 1 or cls is not workloads.Cli
    runner = Runner()

    nominal = CALIBRATION_KERNELS[cls.calibration][1]

    def speed_of(samples):
        return (nominal / statistics.median(samples)) ** cls.calibration_strength

    # Set-up: import (in a fresh process), input generation and a warm-up
    # cycle, repeated; the median is setup_s.
    setups, probes, calibration = [], [], []
    for _ in range(SETUP_REPEATS):
        calibration.append(calibration_kernel(cls.calibration))
        runner.speed = speed_of(calibration)
        interp_s, import_s = probe_import(lib.child_env)
        probes.append((interp_s, import_s))
        t0 = cpu_now()
        wl = cls(lib, args.seed)
        for op in wl.warmup_ops(in_process):
            runner.run(op, wl.deadline_s, in_process)
        setups.append(import_s + cpu_now() - t0)
    runner.reset()
    # Keep the benchmark's own inputs out of the cyclic collector's passes,
    # which would otherwise be charged to whichever operation triggers them.
    gc.collect()
    gc.freeze()

    tracer = spans.Tracer(lib) if args.trace else None
    busy = {False: 0.0, True: 0.0}  # operation time, untraced and traced
    traced_ops = 0
    cold_s = 0.0  # cold generation operations, traced passes
    scan_calls = scan_rows = 0
    per_cycle = []  # (correct operations, operation time) of each untraced pass
    since_calibration = 0.0
    # The traced run executes each cycle twice, untraced and traced, in
    # alternating order, so bench.trace_overhead compares equal work; it
    # runs half as many cycles.
    cycles = wl.cycle_count(args.seconds / 2 if tracer else args.seconds)
    wall0 = time.perf_counter()
    for i in range(cycles):
        ops = wl.cycle(i, in_process)
        passes = (i % 2 == 1, i % 2 == 0) if tracer else (False,)
        for traced in passes:
            if traced:
                tracer.install()
            ok0, busy0 = runner.ok, busy[False]
            try:
                for op in ops:
                    before = tracer.calls("unram.cubic_criterion") if traced else 0
                    dt = runner.run(op, wl.deadline_s, in_process)
                    busy[traced] += dt
                    since_calibration += dt
                    if since_calibration >= max(CALIBRATE_EVERY_S, 4 * nominal):
                        calibration.append(calibration_kernel(cls.calibration))
                        runner.speed = speed_of(calibration)
                        since_calibration = 0.0
                    if traced:
                        traced_ops += 1
                        if op.kind.startswith("gen_"):
                            cold_s += dt
                        if op.rows:
                            scan_calls += tracer.calls("unram.cubic_criterion") - before
                            scan_rows += op.rows
            finally:
                if traced:
                    tracer.uninstall()
            if not traced:
                per_cycle.append((runner.ok - ok0, busy[False] - busy0))
    wall = time.perf_counter() - wall0

    speed = runner.speed
    latencies = [t * speed for t in runner.latencies]
    attempted = len(latencies)
    failed = attempted - runner.ok
    tail_s, tail_pct = tail(latencies)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "commit": git_commit(),
        "cycles": cycles,
        "wall_s": wall,
        "operations": attempted,
        "operations_by_kind": {k: {"count": c, "seconds": t} for k, (c, t) in runner.by_kind.items()},
        "failures": runner.failures,
        "wrong_answers": runner.wrong[:20],
        "fail_rate": failed / attempted,
        "op_tail_percentile": tail_pct,
        "setup_samples_s": setups,
        "speed_factor": speed,
        "calibration_strength": cls.calibration_strength,
        "calibration_samples": len(calibration),
        "uncalibrated_ops_per_s": throughput(per_cycle),
        "mean_ops_per_s": runner.ok / ((busy[False] or busy[True]) * speed),
    }

    if not args.trace:
        metrics = {
            "ops_per_s": (throughput(per_cycle) / speed, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "success_rate": (runner.ok / attempted, "ratio"),
            "setup_s": (statistics.median(setups) * speed, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = per_layer(
            tracer, traced_ops, cold_s, probes, scan_calls / scan_rows if scan_rows else 0.0, busy, speed
        )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not runner.wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def per_layer(tracer, traced_ops, cold_s, probes, criterion_calls_per_row, busy, speed):
    """Per-layer metrics, per traced operation unless the unit says otherwise.

    Times are scaled by the run's speed factor like the end-to-end ones.
    """
    n = max(traced_ops, 1)
    per_op = speed / n
    out = {}
    for name, (calls, incl, own) in tracer.stats.items():
        if name.startswith("exactcore.ladder."):
            if not name.endswith(".other"):
                out[name + ".s"] = (incl * per_op, "s/op")
            continue
        out[name + ".calls"] = (calls / n, "1/op")
        out[name + ".s"] = (incl * per_op, "s/op")
        out[name + ".self_s"] = (own * per_op, "s/op")
    verdicts = tracer.calls("unram.cubic_report")  # one per cubic verdict, families included
    for name in ("unram.is_irreducible", "numtheory.factorize"):
        out[name + ".calls_per_verdict"] = (tracer.calls(name) / verdicts if verdicts else 0.0, "1/verdict")
    for name, count in tracer.counts.items():
        out[name] = (count / n, "1/op")
    series = tracer.stats["padic.padic_cheb_pow"][1] + tracer.stats["padic.padic_u"][1]
    out["padic.series.s"] = (series * per_op, "s/op")
    out["exactcore.generate.cold_s"] = (cold_s * per_op, "s/op")
    out["cli.interpreter_s"] = (statistics.median(p[0] for p in probes) * speed, "s")
    out["cli.import_s"] = (statistics.median(p[1] for p in probes) * speed, "s")
    out["cli.scan.criterion_calls_per_row"] = (criterion_calls_per_row, "1/row")
    out["bench.trace_overhead"] = (busy[True] / busy[False] - 1.0, "ratio")
    return out


if __name__ == "__main__":
    main()
