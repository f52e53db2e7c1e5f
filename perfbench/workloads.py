"""The four workloads: inputs made from a seed, operations, and their checks.

A workload hands the harness one *cycle* of operations at a time; every
cycle has the same mix of operation kinds, so a run of whole cycles has the
same mix however many cycles --seconds asks for.  Each operation carries a
check that does not trust the code under test (see reference.py).  A check
returns None when the result is right, otherwise a one-line reason.

`known_defect` marks inputs on which the library is known to give a wrong
answer (ROADMAP item 3, D4 detection at scale m > 1).  Such a wrong answer is
counted as a failure like any other, but does not make the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

P = ref.P
D4_DEFECT = "ROADMAP item 3: D4 detection depends on coefficient size"
PADIC_PRIMES = (5, 7, 11, 13)


class Deadline(BaseException):
    """An operation ran past its deadline (BaseException: library code must not swallow it)."""


class ExitStatus(Exception):
    """A command exited with a non-zero status where success was expected."""


@dataclass
class Op:
    kind: str
    call: Callable
    check: Callable
    prepare: Callable | None = None  # untimed, runs just before the call
    known_defect: str | None = None
    rows: int = 0  # rows of a serial scan, for criterion calls per row
    deadline_s: float | None = None  # overrides the workload's deadline


def _cubic_problem(entries, verdict):
    """Criterion and oracle agree at every decided prime, and a verdict was reached."""
    if verdict == "undecided":
        return "verdict undecided"
    if not entries:
        return "no primes examined"
    for e in entries:
        if e["oracle"] is None:
            return f"oracle did not run at {e['prime']}"
        if e["agree"] is False:
            return f"criterion and oracle disagree at {e['prime']}"
    return None


def check_report(rep):
    return _cubic_problem([e.to_json() for e in rep.entries], rep.verdict)


def check_reports(reps):
    return next(filter(None, map(check_report, reps)), None)


def _draw_generic_cubic(rng, b_range, c_draw):
    while True:
        b = rng.randint(*b_range)
        c = c_draw()
        if ref.cubic_is_generic(b, c):
            return b, c


def first_of_each_kind(ops):
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    return list(first.values())


class Workload:
    deadline_s: float  # CPU seconds per operation, unless the operation sets its own
    CYCLE_S: float  # mean CPU seconds of one cycle on a shared 2-vCPU Xeon VM, Python 3.11
    calibration = "fractions"  # the machine-speed kernel in run.py closest to the workload
    calibration_strength = 1.0  # times are scaled by the kernel's speed ratio to this power

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(seed)

    def cycle(self, i: int, in_process: bool) -> list:
        raise NotImplementedError

    def cycle_count(self, seconds: float) -> int:
        """How many cycles a run of about `seconds` of operation time executes.

        The count depends on `seconds` alone, not on how fast the run goes,
        so two runs of one seed attempt the same operations.
        """
        return max(1, round(seconds / self.CYCLE_S))

    def warmup_ops(self, in_process: bool) -> list:
        """The first operation of each kind in the first cycle."""
        return first_of_each_kind(self.cycle(0, in_process))


class CubicLarge(Workload):
    """cubic_report(b, c, oracle=True) with |b| <= 10^6, |c| ~ 10^12.

    One operation is a request of two verdicts, about 0.5 s.  Single
    verdicts have a heavy tail: about one cubic in ten has a discriminant
    that takes Pollard rho to factor (four times per verdict, ROADMAP
    item 2), and one in a hundred takes seconds.  The 11th-slowest of ~90
    single verdicts sat on that tail and moved by a fifth from seed to seed.
    """

    # The slowest requests take several seconds, over ten times the median
    # one.  The deadline lies well beyond that, so that host noise never
    # decides whether an operation fails.
    deadline_s = 30.0
    CYCLE_S = 0.6
    # Three quarters of the time is trial division in rational_roots, but a
    # tight integer loop tracked the host's speed worse than "small" did.
    # The kernel's time moves about twice as much as these operations' when
    # the host speeds up, so times are scaled by the square root of its
    # ratio (see README.md).
    calibration = "small"
    calibration_strength = 0.5
    PER_OP = 2
    POOL = 128  # operations

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rng = self.rng
        self.pool = [
            _draw_generic_cubic(
                rng, (-(10**6), 10**6), lambda: rng.choice((-1, 1)) * rng.randint(5 * 10**11, 10**12)
            )
            for _ in range(self.PER_OP * self.POOL)
        ]

    def cycle(self, i, in_process):
        k = self.PER_OP * (i % self.POOL)
        cubics = self.pool[k : k + self.PER_OP]
        unram = self.lib.unram
        return [Op("cubic_reports", lambda: [unram.cubic_report(b, c, oracle=True) for b, c in cubics], check_reports)]

    def warmup_ops(self, in_process):
        # A fixed small cubic: the first seeded ones can cost 0.2 s or 1 s
        # each, depending on how hard their discriminants are to factor.
        unram = self.lib.unram
        return [Op("cubic_reports", lambda: [unram.cubic_report(1, 1, oracle=True)], check_reports)]


def _ut_predicted_unramified(s, u, t):
    """The paper's closed form for x^3 + sux + tu^2, s in {1, 2}."""
    if s == 1:
        return True
    return u % 8 == 0 or (u % 2 == 0 and t % 2 == 0) or (u % 2 == 1 and t % 4 != 2)


class CubicSmall(Workload):
    """cubic_report with |b| <= 30, |c| <= 300, mixed with small family calls.

    One operation is a small request of three verdicts, about 7 ms: two
    cubic_report calls and one family call, family_b2t and cubic_ut_family
    in turn.
    """

    deadline_s = 1.0
    CYCLE_S = 0.013
    # Most requests follow the kernel's speed fully, but the slowest ones,
    # which set op_tail_ms, hardly move with the host (see README.md).
    calibration = "small"
    calibration_strength = 0.6
    POOL = 4096  # operations: about as many as a run executes, so few inputs repeat

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rng = self.rng
        self.reports = [
            _draw_generic_cubic(rng, (-30, 30), lambda: rng.randint(-300, 300)) for _ in range(2 * self.POOL)
        ]
        self.b2t = []
        while len(self.b2t) < self.POOL // 2:
            b, t = rng.randint(-6, 6), rng.randint(-6, 6)
            if ref.cubic_is_generic(b, b * b * t):
                self.b2t.append((b, t))
        self.ut = []
        while len(self.ut) < self.POOL // 2:
            s, u, t = rng.randint(1, 3), rng.randint(-6, 6), rng.randint(-9, 9)
            if ref.cubic_is_generic(s * u, t * u * u):
                self.ut.append((s, u, t))

    def cycle(self, i, in_process):
        unram = self.lib.unram
        k = i % (self.POOL // 2)
        (b1, c1), (b2, c2), (b3, c3), (b4, c4) = self.reports[4 * k : 4 * k + 4]
        b, t = self.b2t[k]
        s, u, tt = self.ut[k]

        def check_b2t(reps):
            problem = check_reports(reps)
            if problem is None and reps[2].verdict != "unramified":
                return f"b^2 t family gave {reps[2].verdict!r}, the family is always unramified"
            return problem

        def check_ut(reps):
            problem = check_reports(reps)
            if problem is None and s != 3:
                if (reps[2].verdict == "unramified") != _ut_predicted_unramified(s, u, tt):
                    return f"s={s} family closed form disagrees with verdict {reps[2].verdict!r}"
            return problem

        return [
            Op(
                "reports+b2t",
                lambda: (unram.cubic_report(b1, c1), unram.cubic_report(b2, c2), unram.family_b2t(b, t)),
                check_b2t,
            ),
            Op(
                "reports+ut",
                lambda: (unram.cubic_report(b3, c3), unram.cubic_report(b4, c4), unram.cubic_ut_family(s, u, tt)),
                check_ut,
            ),
        ]


def _padic_value(x):
    """(integer value, modulus) of a PAdicNumber known to its absolute precision."""
    mod = x.p ** (x.val + x.prec)
    return x.p**x.val * x.unit % mod, mod


class Kernels(Workload):
    """Exact kernels with no unram work: ladders, cold generation, factor
    identities, p-adic series and the D4 resolvent."""

    deadline_s = 2.0
    CYCLE_S = 1.0
    # A D4 classification that answers correctly spends O(m^2) in the
    # rational root search on the quartic scaled by m (ROADMAP item 2):
    # at most 0.06 s for m < 250, 0.2 s near m = 1000, and 3-15 s for m in
    # [5000, 9999].  The scales skip m in [250, 4999], where a correct
    # answer takes about as long as the deadline and host noise would
    # decide whether it fails.  The deadline stays far below the Fraction
    # ladder's ~0.3 s, so that misses, which count as exactly the deadline,
    # never become the 11th-slowest operation.
    D4_DEADLINE_S = 0.15
    POOL = 64  # cycles
    SCALES = ((1, 9), (10, 99), (100, 249), (5000, 9999))

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.params = [self._draw(self.rng) for _ in range(self.POOL)]
        # The warm-up runs on inputs that do not depend on the seed, so that
        # setup_s measures the same work on every seed.
        self.warmup_params = self._draw(random.Random(0))

    def _draw(self, rng):
        """The inputs of one cycle."""
        return {
            "x0": rng.randrange(3, P - 1),
            "y0": rng.randrange(3, P - 1),
            "gen_c": rng.randint(700, 900),
            "gen_s": rng.randint(700, 900),
            "int": (rng.randint(3, 40), rng.randint(90_000, 110_000)),
            "fraction": (2 + Fraction(rng.randint(1, 9), 10**10), rng.randint(9_000, 11_000)),
            "residue": (
                rng.getrandbits(2048) | (1 << 2047) | 1,
                rng.getrandbits(2000),
                rng.randint(5 * 10**8, 2 * 10**9),
                rng.randint(5 * 10**8, 2 * 10**9),
            ),
            "padic_ladder": (rng.choice(PADIC_PRIMES), rng.randint(1, 10**6), rng.randint(10**5, 10**6)),
            "diff": rng.randint(45, 60),
            "cyclotomic": rng.randint(150, 400),
            "series": (rng.choice(PADIC_PRIMES), rng.randint(1, 10**6)),
            "x4": [rng.randint(lo, hi) for lo, hi in self.SCALES],
            "biquadratic": [rng.randint(lo, hi) for lo, hi in self.SCALES],
            "cycle4": [(30 * rng.randint(-3, 3) + rng.choice((11, 17, 23)), rng.randint(lo, hi)) for lo, hi in self.SCALES],
        }

    def warmup_ops(self, in_process):
        return first_of_each_kind(self._ops(self.warmup_params))

    def cycle(self, i, in_process):
        return self._ops(self.params[i % self.POOL])

    def _ops(self, prm):
        lib = self.lib
        ex, fc, padic, solver, unram = lib.exactcore, lib.factorcyc, lib.padic, lib.solver, lib.unram
        x0, y0 = prm["x0"], prm["y0"]
        cold = lib.clear_caches

        def check_first(n):
            def check(poly):
                coeffs = poly.coeffs
                if len(coeffs) != n + 1 or coeffs[-1] != 1:
                    return f"C_{n} has degree {len(coeffs) - 1}"
                if ref.horner_mod(coeffs, x0, P) != ref.lucas_mod(x0, n, P):
                    return f"C_{n}(x0) wrong"
                return None

            return check

        def check_second(n):
            def check(poly):
                if len(poly.coeffs) != n:
                    return f"S_{n} has degree {len(poly.coeffs) - 1}"
                lhs = ref.horner_mod(poly.coeffs, x0, P) * (x0 * x0 - 4) % P
                if lhs != (ref.lucas_mod(x0, n + 1, P) - ref.lucas_mod(x0, n - 1, P)) % P:
                    return f"S_{n}(x0) wrong"
                return None

            return check

        ops = [
            Op("gen_first_1500", lambda: ex.cheb_first_kind(1500), check_first(1500), prepare=cold),
            Op("gen_second_1500", lambda: ex.cheb_second_kind(1500), check_second(1500), prepare=cold),
        ]
        nc, ns = prm["gen_c"], prm["gen_s"]
        ops.append(Op("gen_first", lambda: ex.cheb_first_kind(nc), check_first(nc), prepare=cold))
        ops.append(Op("gen_second", lambda: ex.cheb_second_kind(ns), check_second(ns), prepare=cold))

        xi, ni = prm["int"]
        ops.append(
            Op(
                "ladder_int",
                lambda: ex.cheb_pow_ladder(xi, ni),
                lambda v: None if v % P == ref.lucas_mod(xi, ni, P) else "int ladder disagrees mod P",
            )
        )
        xf, nf = prm["fraction"]
        ops.append(
            Op(
                "ladder_fraction",
                lambda: ex.cheb_pow_ladder(xf, nf),
                lambda v: None
                if ref.frac_mod(Fraction(v), P) == ref.lucas_mod(ref.frac_mod(xf, P), nf, P)
                else "Fraction ladder disagrees with the ladder mod P",
            )
        )
        m, xr, n1, n2 = prm["residue"]

        def check_residue(v):
            if v.modulus != m or v.value != ref.lucas_mod(ref.lucas_mod(xr, n2, m), n1, m):
                return "C_m(C_n(x)) != C_mn(x) in Z/mZ"
            return None

        ops.append(
            Op("ladder_residue", lambda: ex.cheb_pow_ladder(ex.ResidueElement(m, xr), n1 * n2), check_residue)
        )
        p, a, npd = prm["padic_ladder"]
        xp = padic.from_rational(a, p, 64)

        def check_padic_ladder(v):
            if v.is_zero_like():
                return "p-adic ladder lost all precision"
            value, mod = _padic_value(v)
            return None if value == ref.lucas_mod(a, npd, mod) else "p-adic ladder disagrees mod p^k"

        ops.append(Op("ladder_padic", lambda: ex.cheb_pow_ladder(xp, npd), check_padic_ladder))

        nd = prm["diff"]

        def check_diff(bi):
            acc = 0
            for i_, row in enumerate(bi.to_json()):
                for j, c in enumerate(row):
                    if c:
                        acc += c * pow(x0, i_, P) * pow(y0, j, P)
            if (x0 - y0) * acc % P != (ref.lucas_mod(x0, nd, P) - ref.lucas_mod(y0, nd, P)) % P:
                return f"(x - y) * diff_factor({nd}) != C_n(x) - C_n(y)"
            return None

        ops.append(Op("diff_factor", lambda: fc.diff_factor(nd), check_diff))

        ncy = prm["cyclotomic"]

        def check_cyclotomic(poly):
            half = ref.totient(ncy) // 2
            if len(poly.coeffs) != half + 1:
                return f"Psi_{ncy} has degree {len(poly.coeffs) - 1}, expected {half}"
            z = (x0 + pow(x0, -1, P)) % P
            if ref.horner_mod(poly.coeffs, z, P) * pow(x0, half, P) % P != ref.cyclotomic_mod(ncy, x0, P):
                return f"Psi_{ncy}(x + 1/x) x^(phi/2) != Phi_{ncy}(x)"
            return None

        ops.append(Op("cheb_cyclotomic", lambda: fc.cheb_cyclotomic(ncy), check_cyclotomic, prepare=cold))

        ps, r = prm["series"]
        xs = 2 + ps * r
        x_pad = padic.from_rational(xs, ps, 64)
        third = padic.from_rational(Fraction(1, 3), ps, 64)

        def check_series(pair):
            y, u = pair
            yv, ym = _padic_value(y)
            uv, um = _padic_value(u)
            if (yv**3 - 3 * yv - xs) % ym:
                return "C_3(x^(1/3)) != x"
            mod = min(ym, um)
            if ((yv + 1) * uv - 1) % mod:
                return "U_3(x^(1/3)) U_(1/3)(x) != 1"
            return None

        ops.append(
            Op("padic_series", lambda: (padic.padic_cheb_pow(x_pad, third), padic.padic_u(x_pad, third)), check_series)
        )

        def d4_check(expected):
            def check(rep):
                return None if rep.is_d4 == expected else f"is_d4 = {rep.is_d4}, expected {expected}"

            return check

        x4_d4 = ref.quartic_group(0, 0, 0, -2) == "D4"
        for s in prm["x4"]:
            ops.append(
                Op(
                    "d4_x4_minus_2m4",
                    lambda s=s: solver.d4_resolvent(0, 0, 0, -2 * s**4),
                    d4_check(x4_d4),
                    known_defect=D4_DEFECT if s > 1 else None,
                    deadline_s=self.D4_DEADLINE_S,
                )
            )
        # x^4 + 2m^2 x^2 - 2m^4: a biquadratic D4 quartic at every scale m
        for s in prm["biquadratic"]:
            b, c = 2 * s * s, -2 * s**4

            def check_biquadratic(rep, b=b, c=c):
                if rep.verdict == "undecided":
                    return "verdict undecided"
                real = (b < 0 and c > 0) or b * b - 4 * c < 0
                if rep.extra.get("real_place_unramified") != real:
                    return "real-place flag wrong"
                return None

            ops.append(
                Op(
                    "d4_criterion",
                    lambda b=b, c=c: unram.quartic_d4_criterion(b, c),
                    check_biquadratic,
                    known_defect=D4_DEFECT if s > 1 else None,
                    deadline_s=self.D4_DEADLINE_S,
                )
            )
        for t, s in prm["cycle4"]:
            expected = ref.quartic_group(-1, -t, -1, 1) == "D4"
            ops.append(
                Op(
                    "d4_cycle4",
                    lambda t=t, s=s: solver.d4_resolvent(-s, -t * s * s, -(s**3), s**4),
                    d4_check(expected),
                    known_defect=D4_DEFECT if s > 1 else None,
                    deadline_s=self.D4_DEADLINE_S,
                )
            )
        return ops


# ---------------------------------------------------------------------------
# The command line


def _json_is(expected):
    def check(out):
        return None if json.loads(out) == expected else f"stdout {out.strip()[:80]!r}"

    return check


def _json_has(**expected):
    def check(out):
        data = json.loads(out)
        bad = {k: data.get(k) for k, v in expected.items() if data.get(k) != v}
        return f"unexpected {bad}" if bad else None

    return check


def _second_kind_mod(k, x, m):
    """S_k(x) mod m from (x^2 - 4) S_k = C_{k+1} - C_{k-1}."""
    return (ref.lucas_mod(x, k + 1, m) - ref.lucas_mod(x, k - 1, m)) * pow(x * x - 4, -1, m) % m


def _check_psi9(out):
    data = json.loads(out)
    x0 = 10**9 + 7
    acc = data["scalar"] % P
    for coeffs, mult in data["factors"]:
        acc = acc * pow(ref.horner_mod(coeffs, x0, P), mult, P) % P
    u9 = (_second_kind_mod(5, x0, P) + _second_kind_mod(4, x0, P)) % P
    return None if acc == u9 else "factors of U_9 do not multiply to U_9"


def _complex_roots_of(poly_c, expect):
    def check(out):
        data = json.loads(out)
        vals = [data["value"]] if "value" in data else data["roots"]
        if len(vals) != expect:
            return f"{len(vals)} values, expected {expect}"
        for re_, im in vals:
            if abs(poly_c(complex(re_, im))) > 1e-9:
                return f"{complex(re_, im)} is not a root"
        return None

    return check


def _check_padic_cube_root(out):
    data = json.loads(out)
    p = data["p"]
    y = p ** data["val"] * sum(d * p**i for i, d in enumerate(data["digits"]))
    return None if (y**3 - 3 * y - 9) % p ** (data["val"] + data["prec"]) == 0 else "C_3(y) != 9"


def _check_scan(b, span):
    def check(out):
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["b", "c", "verdict"]:
            return f"header {rows[0]}"
        body = rows[1:]
        if [(int(r[0]), int(r[1])) for r in body] != [(b, c) for c in range(-span, span + 1)]:
            return "rows do not cover b, c in order"
        if any(not r[2] for r in body):
            return "empty verdict"
        return None

    return check


def _check_cubic_json(out):
    data = json.loads(out)
    return _cubic_problem(data["entries"], data["verdict"])


def _check_poly_1500(out):
    coeffs = json.loads(out)
    if len(coeffs) != 1501 or coeffs[-1] != 1:
        return "C_1500 has the wrong degree"
    x0 = 10**9 + 7
    return None if ref.horner_mod(coeffs, x0, P) == ref.lucas_mod(x0, 1500, P) else "C_1500(x0) wrong"


SCAN_200 = ["unram", "scan", "-b", "5", "--range", "200", "--csv"]

# The README's CLI examples, each with what its output must satisfy.
README_EXAMPLES = (
    (["cheb", "poly", "--kind", "first", "-n", "5"], _json_is([0, 5, 0, -5, 0, 1])),
    (["cheb", "ladder", "-x", "3", "-n", "10", "--mod", "1000"], _json_is({"modulus": 1000, "value": 127})),
    (["factor", "psi", "-n", "9"], _check_psi9),
    (["branch", "radical", "-t", "1", "-n", "3", "-l", "2"], _complex_roots_of(lambda z: z**3 - 3 * z - 1, 1)),
    (["solve", "cubic", "-b", "-3", "-c", "-1"], _complex_roots_of(lambda z: z**3 - 3 * z - 1, 3)),
    (["solve", "quartic-resolvent", "--a4", "-2"], _json_has(is_d4=True, biquadratic=["0", "-32"])),
    (["padic", "eval", "-p", "7", "-x", "9", "-k", "1/3"], _check_padic_cube_root),
    (["unram", "cubic", "-b", "1", "-c", "1"], _json_has(verdict="unramified", field="Q(sqrt(-31))")),
    (["unram", "scan", "-b", "5", "--modulus", "25", "--range", "60", "--csv"], _check_scan(5, 60)),
    (["unram", "cycle4", "-t", "11"], _json_has(d4=True, field="Q(sqrt(4081))")),
)

LAUNCH = "import sys; from chebykit.cli import main; main()"


class Cli(Workload):
    """Sequential `chebykit` processes, one command each."""

    deadline_s = 3.0
    CYCLE_S = 9.0
    calibration = "interpreter"
    calibration_strength = 0.5  # the kernel is noisier than the commands (see README.md)

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rng = self.rng
        self.orders = []
        for _ in range(16):
            order = list(range(len(README_EXAMPLES) + 4))
            rng.shuffle(order)
            self.orders.append(order)

    def _runner(self, argv, in_process):
        if in_process:
            run = self.lib.cli.run

            def call():
                res = run(argv)
                if res.exit_code:
                    raise ExitStatus(res.exit_code)
                return res.render()

            return call

        def call():
            # The harness applies the deadline in calibrated CPU time; the
            # kernel stops the process at 1.5 times it in this machine's CPU
            # time, and the wall-clock timeout guards against a command that
            # blocks.
            limit = math.ceil(1.5 * self.deadline_s)
            proc = subprocess.Popen(
                [sys.executable, "-c", LAUNCH, *argv],
                cwd=self.lib.root,
                env=self.lib.child_env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (limit, limit)),
            )
            try:
                out, _ = proc.communicate(timeout=4 * limit)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise Deadline() from None
            if proc.returncode in (-signal.SIGXCPU, -signal.SIGKILL):
                raise Deadline()
            if proc.returncode:
                raise ExitStatus(proc.returncode)
            return out

        return call

    def warmup_ops(self, in_process):
        argv, check = README_EXAMPLES[0]
        return [Op("cli warm-up", self._runner(argv, in_process), check)]

    def cycle(self, i, in_process):
        scans = {}

        def check_scan_200(kind):
            def check(out):
                problem = _check_scan(5, 200)(out)
                scans[kind] = out
                if problem is None and len(set(scans.values())) > 1:
                    return "--jobs 2 output differs from the serial scan"
                return problem

            return check

        commands = [("cli " + " ".join(argv[:2]), argv, check, 0) for argv, check in README_EXAMPLES]
        commands += [
            ("cli scan serial", SCAN_200, check_scan_200("serial"), 401),
            ("cli scan jobs2", ["--jobs", "2", *SCAN_200], check_scan_200("jobs2"), 0),
            ("cli poly 1500", ["cheb", "poly", "-n", "1500"], _check_poly_1500, 0),
            ("cli cubic 1e20", ["unram", "cubic", "-b", "1", "-c", str(10**20 + 39)], _check_cubic_json, 0),
        ]
        ops = []
        for k in self.orders[i % len(self.orders)]:
            kind, argv, check, rows = commands[k]
            prepare = self.lib.clear_caches if in_process else None
            ops.append(Op(kind, self._runner(argv, in_process), check, prepare=prepare, rows=rows))
        return ops


WORKLOADS = {
    "cubic_large": CubicLarge,
    "cubic_small": CubicSmall,
    "kernels": Kernels,
    "cli": Cli,
}
