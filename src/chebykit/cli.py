"""Batch command-line interface.

Subcommand families mirror the library modules: `cheb` (polynomials,
transforms, ladder evaluation), `factor` (difference/cyclotomic splits),
`branch` (radicals and branch combinations), `solve` (cubics, towers,
char-2, quartic resolvent), `padic` (series, Hensel, root search) and
`unram` (criteria, scans, families).  Output is JSON on stdout (CSV for
scans with --csv); errors go to stderr.  Exit codes: 0 ok, 1 domain error,
2 nonconvergence, 3 undecided.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import exactcore, factorcyc, analytic, solver, padic, unram
from .gf2m import GF2m

STATUS_CODES = {"ok": 0, "domain-error": 1, "nonconvergence": 2, "undecided": 3}


@dataclass
class CommandResult:
    status: str  # ok | domain-error | nonconvergence | undecided
    payload: object

    @property
    def exit_code(self) -> int:
        return STATUS_CODES[self.status]

    def render(self) -> str:
        if isinstance(self.payload, str):
            return self.payload
        return json.dumps(self.payload, sort_keys=True, default=str)


def _frac(text: str) -> Fraction:
    return Fraction(text)


def _cplx(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(text), 0.0)


def _poly_arg(text: str):
    return exactcore.IntPolynomial(tuple(json.loads(text)))


def _default_prec(args) -> int:
    if getattr(args, "prec", None):
        return args.prec
    env = os.environ.get("CHEBYKIT_PREC")
    return int(env) if env else padic.DEFAULT_PREC


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="chebykit")
    top.add_argument("--jobs", type=int, default=1, help="parallel workers for grid scans")
    sub = top.add_subparsers(dest="family", required=True)

    cheb = sub.add_parser("cheb").add_subparsers(dest="op", required=True)
    q = cheb.add_parser("poly")
    q.add_argument("--kind", choices=["first", "second", "u", "psi", "phi", "fib", "lucas"], default="first")
    q.add_argument("-n", type=int, required=True)
    q = cheb.add_parser("transform")
    q.add_argument("--poly", required=True, help="JSON integer array, ascending degree")
    q = cheb.add_parser("ladder")
    q.add_argument("-x", required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--mod", type=int)
    q = cheb.add_parser("eval")
    q.add_argument("--poly", required=True)
    q.add_argument("-x", required=True)
    q = cheb.add_parser("k")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-m", type=int, required=True)
    q = cheb.add_parser("basis")
    q.add_argument("--poly", required=True)
    q.add_argument("--direction", choices=["to-cheb", "to-pow"], default="to-cheb")

    fac = sub.add_parser("factor").add_subparsers(dest="op", required=True)
    q = fac.add_parser("diff")
    q.add_argument("-n", type=int, required=True)
    q = fac.add_parser("psi")
    q.add_argument("-n", type=int, required=True)
    q = fac.add_parser("u")
    q.add_argument("-n", type=int, required=True)
    q = fac.add_parser("structural")
    q.add_argument("-n", type=int, required=True)
    q = fac.add_parser("cofactor")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-a", type=int, required=True)
    q = fac.add_parser("roots2")
    q.add_argument("-n", type=int, required=True)

    br = sub.add_parser("branch").add_subparsers(dest="op", required=True)
    q = br.add_parser("principal")
    q.add_argument("-t", required=True)
    q.add_argument("-n", type=int, required=True)
    q = br.add_parser("radical")
    q.add_argument("-t", required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-l", type=int, required=True)
    q = br.add_parser("combination")
    q.add_argument("-t", required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-i", type=int, required=True)
    q = br.add_parser("equiv")
    q.add_argument("-i", type=int, required=True)
    q.add_argument("-j", type=int, required=True)
    q.add_argument("-n", type=int, required=True)

    so = sub.add_parser("solve").add_subparsers(dest="op", required=True)
    q = so.add_parser("cubic")
    q.add_argument("-b", required=True)
    q.add_argument("-c", required=True)
    q = so.add_parser("tower")
    q.add_argument("--direction", choices=["cheb-to-radical", "radical-to-cheb"], required=True)
    q.add_argument("-q", type=int, required=True, dest="order")
    q.add_argument("-t", required=True)
    q = so.add_parser("char2")
    q.add_argument("--op2", choices=["quadratic", "artin-schreier"], required=True)
    q.add_argument("-m", type=int, required=True)
    q.add_argument("--bits", type=int, required=True, help="element as bit-integer")
    q = so.add_parser("quartic-resolvent")
    q.add_argument("--a1", default="0")
    q.add_argument("--a2", default="0")
    q.add_argument("--a3", default="0")
    q.add_argument("--a4", default="0")

    pa = sub.add_parser("padic").add_subparsers(dest="op", required=True)
    q = pa.add_parser("eval")
    q.add_argument("-p", type=int, required=True)
    q.add_argument("-x", required=True)
    q.add_argument("-k", required=True)
    q.add_argument("--prec", type=int)
    q = pa.add_parser("u")
    q.add_argument("-p", type=int, required=True)
    q.add_argument("-x", required=True)
    q.add_argument("-k", required=True)
    q.add_argument("--prec", type=int)
    q = pa.add_parser("hensel")
    q.add_argument("-p", type=int, required=True)
    q.add_argument("--poly", required=True, help="JSON array of rationals, ascending")
    q.add_argument("--r0", required=True)
    q.add_argument("--prec", type=int)
    q = pa.add_parser("roots")
    q.add_argument("-p", type=int, required=True)
    q.add_argument("--poly", required=True)
    q.add_argument("--depth", type=int, default=24)
    q.add_argument("--prec", type=int)

    un = sub.add_parser("unram").add_subparsers(dest="op", required=True)
    q = un.add_parser("cubic")
    q.add_argument("-b", required=True)
    q.add_argument("-c", required=True)
    q.add_argument("--no-oracle", action="store_true")
    q = un.add_parser("scan")
    q.add_argument("-b", type=int, required=True)
    q.add_argument("--modulus", type=int)
    q.add_argument("--range", type=int, default=60, dest="span")
    q.add_argument("--csv", action="store_true")
    q = un.add_parser("family")
    q.add_argument("--kind", choices=["b2t", "ut"], default="b2t")
    q.add_argument("-b", type=int)
    q.add_argument("-s", type=int)
    q.add_argument("-u", type=int)
    q.add_argument("-t", type=int, required=True)
    q = un.add_parser("quartic")
    q.add_argument("-b", required=True)
    q.add_argument("-c", required=True)
    q = un.add_parser("cycle4")
    q.add_argument("-t", type=int, required=True)
    return top


def _dispatch(args) -> CommandResult:
    fam, op = args.family, args.op
    if fam == "cheb":
        return _run_cheb(args, op)
    if fam == "factor":
        return _run_factor(args, op)
    if fam == "branch":
        return _run_branch(args, op)
    if fam == "solve":
        return _run_solve(args, op)
    if fam == "padic":
        return _run_padic(args, op)
    if fam == "unram":
        return _run_unram(args, op)
    raise AssertionError(fam)


def _run_cheb(args, op) -> CommandResult:
    if op == "poly":
        n = args.n
        kind = args.kind
        if kind == "first":
            poly = exactcore.cheb_first_kind(n)
        elif kind == "second":
            poly = exactcore.cheb_second_kind(n)
        elif kind == "u":
            poly = exactcore.u_odd_poly(n)
        elif kind == "psi":
            poly = factorcyc.cheb_cyclotomic(n)
        elif kind == "phi":
            poly = factorcyc.cyclotomic(n)
        elif kind == "fib":
            poly = exactcore.fib_lucas_polys(n)[0]
        else:
            poly = exactcore.fib_lucas_polys(n)[1]
        return CommandResult("ok", poly.to_json())
    if op == "transform":
        return CommandResult("ok", exactcore.cheby_transform(_poly_arg(args.poly)).to_json())
    if op == "ladder":
        n = args.n
        if args.mod:
            out = exactcore.cheb_pow_ladder(exactcore.ResidueElement(args.mod, int(args.x)), n)
            return CommandResult("ok", {"value": out.value, "modulus": out.modulus})
        out = exactcore.cheb_pow_ladder(_frac(args.x), n)
        return CommandResult("ok", {"value": str(out)})
    if op == "eval":
        return CommandResult("ok", {"value": str(_poly_arg(args.poly)(_frac(args.x)))})
    if op == "k":
        return CommandResult("ok", {"value": exactcore.k_coeff(args.n, args.m)})
    if op == "basis":
        if args.direction == "to-cheb":
            return CommandResult("ok", exactcore.pow_to_cheb(_poly_arg(args.poly)).to_json())
        data = json.loads(args.poly)
        return CommandResult(
            "ok", exactcore.cheb_to_pow(exactcore.ChebExpansion.from_json(data)).to_json()
        )
    raise AssertionError(op)


def _run_factor(args, op) -> CommandResult:
    if op == "diff":
        return CommandResult("ok", factorcyc.diff_factor(args.n).to_json())
    if op == "psi":
        return CommandResult("ok", factorcyc.u_psi_factorization(args.n).to_json())
    if op == "u":
        return CommandResult("ok", exactcore.u_odd_poly(args.n).to_json())
    if op == "structural":
        bundle = factorcyc.structural_factorizations(args.n)
        return CommandResult("ok", {name: fl.to_json() for name, fl in bundle.items()})
    if op == "cofactor":
        return CommandResult("ok", factorcyc.cofactor_at(args.n, args.a).to_json())
    if op == "roots2":
        rs = factorcyc.chebroots_of_two(args.n)
        return CommandResult(
            "ok",
            {
                "n": rs.n,
                "values": [[v, d] for v, d in rs.values],
                "defining": {str(d): p.to_json() for d, p in rs.defining.items()},
            },
        )
    raise AssertionError(op)


def _run_branch(args, op) -> CommandResult:
    if op == "principal":
        return CommandResult("ok", {"value": solver._c2j(analytic.principal_radical(_cplx(args.t), args.n))})
    if op == "radical":
        return CommandResult("ok", {"value": solver._c2j(analytic.branch_radical(_cplx(args.t), args.n, args.l))})
    if op == "combination":
        return CommandResult("ok", {"value": solver._c2j(analytic.branch_combination(_cplx(args.t), args.n, args.i))})
    if op == "equiv":
        return CommandResult("ok", {"equivalent": analytic.branch_equiv(args.i, args.j, args.n)})
    raise AssertionError(op)


def _run_solve(args, op) -> CommandResult:
    if op == "cubic":
        roots = solver.cubic_cheb_solve(_frac(args.b), _frac(args.c))
        delta, eps = solver.cubic_eps(_frac(args.b), _frac(args.c))
        return CommandResult(
            "ok",
            {"roots": [solver._c2j(r) for r in roots], "delta": str(delta), "epsilon": str(eps)},
        )
    if op == "tower":
        if args.direction == "cheb-to-radical":
            wit = solver.cheb_to_radical_witness(args.order, _cplx(args.t))
        else:
            wit = solver.radical_to_cheb_witness(args.order, _cplx(args.t))
        return CommandResult("ok", wit.to_json())
    if op == "char2":
        field = GF2m(args.m)
        el = field(args.bits)
        if args.op2 == "quadratic":
            res = solver.char2_unit_quadratic(el)
        else:
            res = solver.char2_artin_schreier(el)
        return CommandResult(
            "ok",
            {
                "value_bits": res.value.bits,
                "field_degree": res.value.field.m,
                "modulus": res.value.field.modulus,
                "extended": res.extended,
            },
        )
    if op == "quartic-resolvent":
        rep = solver.d4_resolvent(_frac(args.a1), _frac(args.a2), _frac(args.a3), _frac(args.a4))
        return CommandResult("ok", rep.to_json())
    raise AssertionError(op)


def _run_padic(args, op) -> CommandResult:
    prec = _default_prec(args)
    p = args.p
    if op in ("eval", "u"):
        x = padic.from_rational(_frac(args.x), p, prec)
        k = padic.from_rational(_frac(args.k), p, prec)
        try:
            out = padic.padic_cheb_pow(x, k) if op == "eval" else padic.padic_u(x, k)
        except padic.PAdicConvergenceError as e:
            return CommandResult("nonconvergence", {"error": str(e)})
        return CommandResult("ok", out.to_json())
    coeffs = [Fraction(str(c)) for c in json.loads(args.poly)]
    f = padic.PAdicPoly.from_rationals(coeffs, p, prec)
    if op == "hensel":
        try:
            res = padic.hensel_root(f, padic.from_rational(_frac(args.r0), p, prec))
        except padic.HenselConditionError as e:
            return CommandResult("domain-error", {"error": str(e)})
        return CommandResult(
            "ok",
            {"root": res.root.to_json(), "residual_valuations": [str(v) for v in res.residual_valuations]},
        )
    if op == "roots":
        res = padic.padic_root_search(f, depth=args.depth, prec=prec)
        payload = {
            "roots": [r.to_json() for r in res.roots],
            "undecided": res.undecided,
            "complete": res.complete,
        }
        return CommandResult("ok" if res.complete else "undecided", payload)
    raise AssertionError(op)


def _run_unram(args, op) -> CommandResult:
    if op == "cubic":
        try:
            rep = unram.cubic_report(_frac(args.b), _frac(args.c), oracle=not args.no_oracle)
        except unram.DegenerateCubicError as e:
            return CommandResult("domain-error", {"error": str(e)})
        status = "undecided" if rep.verdict == "undecided" else "ok"
        return CommandResult(status, rep.to_json())
    if op == "scan":
        span = args.span
        cs = list(range(-span, span + 1))
        bs = [args.b] * len(cs)
        # the pool starts every worker up front, so never more than there are rows or cores
        workers = min(args.jobs, len(cs), os.cpu_count() or 1)
        if workers > 1:
            import concurrent.futures

            # one chunk per worker: pickling each row as its own task costs more than the row
            chunksize = -(-len(cs) // workers)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                rows = sorted(pool.map(unram.scan_row, bs, cs, chunksize=chunksize))
        else:
            rows = sorted(map(unram.scan_row, bs, cs))
        try:
            summary = unram.fold_scan(args.b, rows, modulus=args.modulus)
        except unram.DegenerateCubicError as e:
            return CommandResult("domain-error", {"error": str(e)})
        if args.csv:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["b", "c", "verdict"])
            for c, verdict in rows:
                writer.writerow([args.b, c, verdict])
            return CommandResult("ok", buf.getvalue().rstrip("\n"))
        return CommandResult("ok", summary)
    if op == "family":
        try:
            if args.kind == "b2t":
                if args.b is None:
                    return CommandResult("domain-error", {"error": "b2t family needs -b"})
                rep = unram.family_b2t(args.b, args.t)
            else:
                if args.s is None or args.u is None:
                    return CommandResult("domain-error", {"error": "ut family needs -s and -u"})
                rep = unram.cubic_ut_family(args.s, args.u, args.t)
        except unram.DegenerateCubicError as e:
            return CommandResult("domain-error", {"error": str(e)})
        status = "undecided" if rep.verdict == "undecided" else "ok"
        return CommandResult(status, rep.to_json())
    if op == "quartic":
        try:
            rep = unram.quartic_d4_criterion(_frac(args.b), _frac(args.c))
        except ValueError as e:
            return CommandResult("domain-error", {"error": str(e)})
        return CommandResult("ok", rep.to_json())
    if op == "cycle4":
        return CommandResult("ok", unram.quartic_cycle4_family(args.t))
    raise AssertionError(op)


def run(argv) -> CommandResult:
    """Entry point used by tests: parse, dispatch, and capture the result."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return CommandResult("domain-error", {"error": f"bad usage (argparse exit {e.code})"})
    try:
        return _dispatch(args)
    except (ValueError, AssertionError) as e:
        return CommandResult("domain-error", {"error": str(e)})


def main() -> None:
    result = run(sys.argv[1:])
    if result.status == "ok" or result.status == "undecided":
        print(result.render())
    else:
        print(result.render(), file=sys.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
