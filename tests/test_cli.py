import json
import math
import os
import subprocess
import sys

import pytest

from chebykit import unram
from chebykit.cli import run


def test_cheb_poly():
    r = run(["cheb", "poly", "--kind", "first", "-n", "5"])
    assert r.status == "ok" and r.exit_code == 0
    assert r.payload == [0, 5, 0, -5, 0, 1]
    assert json.loads(r.render()) == [0, 5, 0, -5, 0, 1]


def test_unram_cubic():
    r = run(["unram", "cubic", "-b", "1", "-c", "1"])
    assert r.status == "ok"
    assert r.payload["verdict"] == "unramified"
    assert r.payload["field"] == "Q(sqrt(-31))"


def test_solve_cubic():
    r = run(["solve", "cubic", "-b", "-3", "-c", "-1"])
    roots = sorted(x[0] for x in r.payload["roots"])
    want = sorted(
        [2 * math.cos(math.pi / 9), 2 * math.cos(7 * math.pi / 9), 2 * math.cos(13 * math.pi / 9)]
    )
    assert all(abs(a - b) < 1e-9 for a, b in zip(roots, want))
    assert r.payload["delta"] == "81"


def test_ladder_and_transform():
    r = run(["cheb", "ladder", "-x", "3", "-n", "10", "--mod", "1000"])
    assert r.payload == {"value": 127, "modulus": 1000}
    r = run(["cheb", "transform", "--poly", "[-1,0,0,1]"])
    assert r.payload == [-1, -3, 0, 1]
    r = run(["cheb", "k", "-n", "4", "-m", "2"])
    assert r.payload == {"value": 9}


def test_padic_statuses():
    r = run(["padic", "eval", "-p", "7", "-x", "9", "-k", "5", "--prec", "16"])
    assert r.status == "ok"
    # out-of-radius probe: nonconvergence status, exit code 2
    r = run(["padic", "eval", "-p", "5", "-x", "27", "-k", "1/5"])
    assert r.status == "nonconvergence" and r.exit_code == 2
    r = run(["padic", "roots", "-p", "31", "--poly", "[1,1,0,1]"])
    assert r.status == "ok" and len(r.payload["roots"]) == 1
    r = run(["padic", "hensel", "-p", "31", "--poly", "[1,1,0,1]", "--r0", "14"])
    assert r.status == "domain-error" and r.exit_code == 1


def test_factor_and_branch():
    r = run(["factor", "psi", "-n", "9"])
    assert r.payload["factors"] == [[[1], 1], [[1, 1], 1], [[1, -3, 0, 1], 1]]
    r = run(["branch", "radical", "-t", "1", "-n", "3", "-l", "2"])
    assert abs(r.payload["value"][0] - 2 * math.cos(7 * math.pi / 9)) < 1e-9
    r = run(["branch", "equiv", "-i", "0", "-j", "5", "-n", "3"])
    assert r.payload == {"equivalent": True}


def test_solve_char2_and_resolvent():
    r = run(["solve", "char2", "--op2", "artin-schreier", "-m", "3", "--bits", "3"])
    assert r.status == "ok"
    r = run(["solve", "quartic-resolvent", "--a4", "-2"])
    assert r.payload["is_d4"] and r.payload["biquadratic"] == ["0", "-32"]
    # (x^2 - 2x - 2)(x^2 - 2x + 2) is reducible, so not D4
    r = run(["solve", "quartic-resolvent", "--a1", "-4", "--a2", "4", "--a4", "-4"])
    assert r.status == "ok" and r.payload["is_d4"] is False
    assert r.payload["detail"] == "no D4 split: factors into rational quadratics"
    assert json.loads(r.render())["is_d4"] is False


def test_scan_and_csv():
    r = run(["unram", "scan", "-b", "5", "--modulus", "25", "--range", "40"])
    assert r.payload["minimal_modulus"] == 25
    r = run(["unram", "scan", "-b", "5", "--modulus", "25", "--range", "20", "--csv"])
    assert r.payload.splitlines()[0] == "b,c,verdict"


def test_determinism():
    args = ["unram", "scan", "-b", "5", "--modulus", "25", "--range", "30", "--csv"]
    assert run(args).render() == run(args).render()
    # the scan has no randomized order left to seed
    assert run(["--seed", "7"] + args).status == "domain-error"


def test_domain_errors():
    assert run(["unram", "cubic", "-b", "0", "-c", "1"]).status == "domain-error"
    assert run(["bogus"]).status == "domain-error"
    assert run(["unram", "cubic", "-b", "-3", "-c", "-1"]).exit_code == 1


def test_tower_json_round_trip():
    r = run(["solve", "tower", "--direction", "radical-to-cheb", "-q", "3", "-t", "2"])
    assert r.status == "ok"
    data = json.loads(r.render())
    vals = [complex(re, im) for re, im in data["roots"]]
    assert any(abs(v - 2 ** (1 / 3)) < 1e-9 for v in vals)
    assert all(s["kind"] == "chebyshev-root" for s in data["steps"])


def test_cycle4():
    r = run(["unram", "cycle4", "-t", "11"])
    assert r.payload["qualifies_mod30"] and r.payload["field"] == "Q(sqrt(4081))"


def test_env_precision_override(monkeypatch):
    monkeypatch.setenv("CHEBYKIT_PREC", "9")
    r = run(["padic", "eval", "-p", "7", "-x", "9", "-k", "5"])
    assert r.status == "ok"
    assert r.payload["prec"] <= 9 + 1
    monkeypatch.delenv("CHEBYKIT_PREC")
    r = run(["padic", "eval", "-p", "7", "-x", "9", "-k", "5", "--prec", "20"])
    # C_5(9) = 55449; digits reconstruct it modulo 7^20
    acc = sum(d * 7**i for i, d in enumerate(r.payload["digits"]))
    assert (acc * 7 ** r.payload["val"] - 55449) % 7**20 == 0


def test_parallel_scan_merges_deterministically():
    args = ["unram", "scan", "-b", "5", "--modulus", "25", "--range", "15", "--csv"]
    serial = run(args).render()
    parallel = run(["--jobs", "2"] + args).render()
    assert serial == parallel


def test_scan_computes_each_verdict_once(monkeypatch):
    calls = []
    real = unram.cubic_criterion

    def counted(form):
        calls.append(form)
        return real(form)

    monkeypatch.setattr(unram, "cubic_criterion", counted)
    r = run(["unram", "scan", "-b", "5", "--modulus", "25", "--range", "20"])
    assert len(calls) == 41
    monkeypatch.setattr(unram, "cubic_criterion", real)
    assert r.payload == unram.congruence_scan(5, modulus=25, c_range=range(-20, 21))


def test_cheb_poly_1500_in_a_fresh_process():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", "from chebykit.cli import main; main()", "cheb", "poly", "-n", "1500"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    coeffs = json.loads(proc.stdout)
    assert len(coeffs) == 1501 and coeffs[-1] == 1


@pytest.mark.parametrize("p", ["1", "0", "4"])
def test_padic_commands_refuse_a_non_prime_p(p):
    for args in (
        ["padic", "eval", "-p", p, "-x", "9", "-k", "1/3"],
        ["padic", "roots", "-p", p, "--poly", "[1,1,0,1]"],
        ["padic", "hensel", "-p", p, "--poly", "[1,1,0,1]", "--r0", "14"],
    ):
        r = run(args)
        assert r.status == "domain-error" and r.exit_code == 1, args


def test_padic_p_one_exits_cleanly_in_a_fresh_process():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", "from chebykit.cli import main; main()", "padic", "eval", "-p", "1", "-x", "9", "-k", "1/3"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "not prime" in json.loads(proc.stderr)["error"]


def test_char2_rejects_a_negative_bit_pattern():
    r = run(["solve", "char2", "--op2", "quadratic", "-m", "4", "--bits", "-1"])
    assert r.status == "domain-error"


def test_scan_pool_is_bounded_by_rows_and_cores(monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = ["unram", "scan", "-b", "5", "--modulus", "25", "--range", "5", "--csv"]
    serial = run(args).render()
    for cores in (64, 3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert run(["--jobs", "100"] + args).render() == serial
    # 11 rows on 64 cores, 3 cores, and one worker (no pool) when the count is unknown
    assert sizes == [11, 3]
