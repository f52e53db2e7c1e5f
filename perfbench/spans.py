"""Spans around calls into chebykit, installed from outside the library.

`Tracer.install()` replaces each target function by a wrapper at every
place a chebykit module binds it -- the defining module and every module
that imported the name -- so `unram.factorize` and `numtheory.factorize`
both report as `numtheory.factorize`.  `uninstall()` restores every
attribute.  Hot helpers (`valuation`, `is_prime`, polynomial evaluation)
are deliberately left alone.

Each span records calls, inclusive CPU time and self time (inclusive minus
the time covered by child spans).  Inclusive time of a recursive function is
counted once, at its outermost frame.
"""

from __future__ import annotations

import functools
import time

MODULES = ("exactcore", "numtheory", "factorcyc", "padic", "solver", "unram", "cli")

# (span name, defining module, attribute path in that module)
TARGETS = (
    ("exactcore.cheb_first_kind", "exactcore", "cheb_first_kind"),
    ("exactcore.cheb_second_kind", "exactcore", "cheb_second_kind"),
    ("exactcore.cheb_pow_ladder", "exactcore", "cheb_pow_ladder"),
    ("numtheory.factorize", "numtheory", "factorize"),
    ("numtheory.squarefree_kernel", "numtheory", "squarefree_kernel"),
    ("factorcyc.rational_roots", "factorcyc", "rational_roots"),
    ("factorcyc.diff_factor", "factorcyc", "diff_factor"),
    ("factorcyc.cheb_cyclotomic", "factorcyc", "cheb_cyclotomic"),
    ("padic.padic_root_search", "padic", "padic_root_search"),
    ("padic.roots_mod_p", "padic", "roots_mod_p"),
    ("padic.padic_cheb_pow", "padic", "padic_cheb_pow"),
    ("padic.padic_u", "padic", "padic_u"),
    ("solver.d4_resolvent", "solver", "d4_resolvent"),
    ("unram.cubic_report", "unram", "cubic_report"),
    ("unram.cubic_criterion", "unram", "cubic_criterion"),
    ("unram.cubic_oracle", "unram", "cubic_oracle"),
    ("unram.is_irreducible", "unram", "CubicForm.is_irreducible"),
    ("unram.globally_reduced", "unram", "globally_reduced"),
    ("unram.local_cubic_type", "unram", "local_cubic_type"),
    ("unram.family_b2t", "unram", "family_b2t"),
    ("unram.cubic_ut_family", "unram", "cubic_ut_family"),
    ("unram.quartic_d4_criterion", "unram", "quartic_d4_criterion"),
    ("unram.congruence_scan", "unram", "congruence_scan"),
    ("cli.run", "cli", "run"),
)

LADDER_RINGS = ("int", "fraction", "residue", "padic")


def _ladder_ring(args) -> str:
    kind = type(args[0]).__name__ if args else ""
    return {"int": "int", "Fraction": "fraction", "ResidueElement": "residue", "PAdicNumber": "padic"}.get(kind, "other")


def _count_incomplete_factorization(tracer, result):
    if result[1] != 1:
        tracer.counts["numtheory.factorize.incomplete"] += 1


def _count_undecided_search(tracer, result):
    if not result.complete:
        tracer.counts["padic.padic_root_search.undecided"] += 1


_POST = {
    "numtheory.factorize": _count_incomplete_factorization,
    "padic.padic_root_search": _count_undecided_search,
}


def _resolve(obj, path):
    owner = obj
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, path.split(".")[-1], None)


class Tracer:
    def __init__(self, lib):
        self.modules = {m: getattr(lib, m) for m in MODULES}
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}  # calls, inclusive_s, self_s
        for ring in LADDER_RINGS + ("other",):
            self.stats["exactcore.ladder." + ring] = [0, 0.0, 0.0]
        self.counts = {"numtheory.factorize.incomplete": 0, "padic.padic_root_search.undecided": 0}
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stack, post = self._stack, _POST.get(name)
        split = _ladder_ring if name == "exactcore.cheb_pow_ladder" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            outermost = all(f[0] != name for f in stack)
            stack.append(frame)
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(tracer, result)
                return result
            finally:
                dt = time.process_time() - t0
                stack.pop()
                rec = tracer.stats[name]
                rec[0] += 1
                rec[2] += dt - frame[1]
                if outermost:
                    rec[1] += dt
                    if split is not None:
                        ring = tracer.stats["exactcore.ladder." + split(args)]
                        ring[0] += 1
                        ring[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def install(self):
        """Wrap every binding of every target; missing targets are skipped."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, path in TARGETS:
            owner, original = _resolve(self.modules[module], path)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            attr = path.split(".")[-1]
            sites = [(owner, attr)]
            if owner is self.modules[module]:
                for mod in self.modules.values():
                    sites += [(mod, k) for k, v in vars(mod).items() if v is original and mod is not owner]
            for site, key in sites:
                self._saved.append((site, key, getattr(site, key)))
                setattr(site, key, wrapper)

    def uninstall(self):
        while self._saved:
            site, key, original = self._saved.pop()
            setattr(site, key, original)
        self._stack.clear()

    def calls(self, name) -> int:
        return self.stats[name][0]
