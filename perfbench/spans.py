"""Spans around the public functions of each plusforms layer, installed from
outside the package.

A span covers one call of a listed function; a generator such as `iter_gl`
gets one span whose busy time is the sum of its `next()` calls.  Spans nest:
a span's self time is its duration minus the durations of the spans it
directly encloses.  Each span name keeps running totals in memory (calls,
self time and its counters), read once at the end of the traced run.

The tracer replaces each listed name in every module that holds a reference
to it, so `hecke.cusp_plus_basis` is traced as well as
`qexp.cusp_plus_basis`.  A listed name that the package no longer defines is
reported as absent and its metrics read 0.

The per-layer metrics are "<span>.<field>" for every field of `summary()`:
`calls` and `self_s` for each span, plus the fields of its counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# span name -> functions it covers, as "module:qualified name"
LAYERS = {
    "intpoly.mul": ["intpoly:poly_mul_trunc", "intpoly:poly_pow_trunc"],
    "intpoly.series": [
        "intpoly:theta_int", "intpoly:sigma_odd_int", "intpoly:eta3_int",
        "intpoly:delta_int", "intpoly:eisenstein_int",
    ],
    "qexp.series": [
        "qexp:QExpansion.__mul__", "qexp:QExpansion.__add__",
        "qexp:QExpansion.pow", "qexp:QExpansion.scale",
    ],
    "qexp.basis": ["qexp:space_basis", "qexp:cusp_plus_basis"],
    "qexp.monomial": ["qexp:monomial_span", "qexp:monomial_expansion"],
    "qexp.frame": ["qexp:SpaceBasis.frame_series"],
    "linalg.rref": ["linalg:rref_exact"],
    "linalg.charpoly": ["linalg:charpoly_exact"],
    "hecke.eigen": ["hecke:eigenbasis_plus", "hecke:eigenforms_level1"],
    "hecke.matrix": ["hecke:hecke_matrix_plus", "hecke:hecke_matrix_level1"],
    "hecke.coeffs": ["hecke:HalfIntegralForm.coefficients_upto"],
    "hecke.verify": [
        "hecke:verify_sqrcoeff", "hecke:multiplicativity_check",
        "hecke:shimura_charpolys_match",
    ],
    "salie.h": ["salie:salie_h"],
    "salie.poincare": ["salie:poincare_coeff", "salie:spectral_average"],
    "numerics.bessel": ["numerics:bessel_j_half"],
    "lfunctions.central": ["lfunctions:central_value"],
    "lfunctions.sym2": ["lfunctions:sym2_at_1"],
    "lfunctions.quad": [
        "lfunctions:petersson_gram", "lfunctions:petersson_norm_integral",
        "lfunctions:petersson_norm_f",
    ],
    "supnorm.eval": [
        "supnorm:FormEvaluator.eval_frame", "supnorm:FormEvaluator.eval_frame_complex",
        "supnorm:FormEvaluator.eval_invariant",
    ],
    "supnorm.scan": ["supnorm:supnorm_scan"],
    "supnorm.frames": [
        "supnorm:FormEvaluator.from_plus_form", "supnorm:FormEvaluator.from_basis_element",
    ],
    "supnorm.lattice": ["supnorm:iter_gl", "supnorm:enumerate_gl", "supnorm:count_matrices"],
    "supnorm.kernel": ["supnorm:bergman_partial", "supnorm:bergman_spectral"],
    "supnorm.amplifier": ["supnorm:amplifier_inequality", "supnorm:amplified_rhs"],
}


def _mul_counts(args, result):
    a, b, prec = args
    return {"coeff_pairs": min(len(a), prec + 1) * min(len(b), prec + 1),
            "out_mbit": sum(abs(c).bit_length() for c in result) / 1e6}


# counters keyed like the LAYERS entries: (fields, function of a call's
# positional arguments and result giving their increments).  A generator's
# counter has no function: its one field counts the items it yields.
COUNTERS = {
    "intpoly:poly_mul_trunc": (("coeff_pairs", "out_mbit"), _mul_counts),
    "linalg:rref_exact": (("cells",), lambda args, res: {
        "cells": len(args[0]) * len(args[0][0]) if args[0] else 0}),
    "hecke:HalfIntegralForm.coefficients_upto": (("index",), lambda args, res: {"index": args[1]}),
    "hecke:verify_sqrcoeff": (("identities",), lambda args, res: {"identities": args[2]}),
    "hecke:multiplicativity_check": (("identities",), lambda args, res: {"identities": 1}),
    "hecke:shimura_charpolys_match": (("identities",), lambda args, res: {"identities": 1}),
    "salie:poincare_coeff": (("c_terms",), lambda args, res: {"c_terms": res.c_max}),
    "supnorm:iter_gl": (("points",), None),
}


class Tracer:
    """Keeps per-span totals; `install` patches the package so calls add to them."""

    def __init__(self):
        self.totals: dict[str, dict] = {}
        for name, specs in LAYERS.items():
            self.totals[name] = {"calls": 0, "self_s": 0.0}
            for spec in specs:
                for key in COUNTERS.get(spec, ((), None))[0]:
                    self.totals[name][key] = 0
        self.stack: list[list] = []  # open spans: [name, start, child time]
        self.absent: list[str] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> None:
        frame = [name, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = perf_counter()

    def _close(self, end: float, done: float) -> None:
        """end: when the call returned; done: after its counters were taken.
        The parent excludes the whole interval, so counter upkeep lands in
        no layer's self time."""
        name, start, child = self.stack.pop()
        if self.stack:
            self.stack[-1][2] += done - start
        self._add(name, {"calls": 1, "self_s": end - start - child})

    def _add(self, name: str, values: dict) -> None:
        agg = self.totals[name]
        for key, v in values.items():
            agg[key] += v

    def _wrap(self, name: str, fn, counter):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per generator, timed across its next() calls: each
            # next() is excluded from the consumer's self time as it happens
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                busy, points = 0.0, 0
                try:
                    while True:
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = perf_counter() - t0
                            busy += dt
                            if tracer.stack:
                                tracer.stack[-1][2] += dt
                        points += 1
                        yield item
                finally:
                    tracer._add(name, {"calls": 1, "self_s": busy, "points": points})

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t = perf_counter()
                tracer._close(t, t)
                raise
            end = perf_counter()
            if counter is not None:
                tracer._add(name, counter(args, result))
            tracer._close(end, perf_counter())
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every LAYERS function wherever the package refers to it."""
        holders = [m for n, m in list(sys.modules.items())
                   if n == "plusforms" or n.startswith("plusforms.")]
        for name, specs in LAYERS.items():
            for spec in specs:
                modname, qual = spec.split(":")
                try:
                    owner = importlib.import_module("plusforms." + modname)
                except ImportError:
                    self.absent.append(spec)
                    continue
                parts = qual.split(".")
                for p in parts[:-1]:
                    owner = getattr(owner, p, None)
                attr = parts[-1]
                if owner is None or not hasattr(owner, attr):
                    self.absent.append(spec)
                    continue
                counter = COUNTERS.get(spec, ((), None))[1]
                if isinstance(owner, type):
                    raw = inspect.getattr_static(owner, attr)
                    if isinstance(raw, staticmethod):
                        setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__, counter)))
                    else:
                        setattr(owner, attr, self._wrap(name, raw, counter))
                    continue
                raw = getattr(owner, attr)
                wrapped = self._wrap(name, raw, counter)
                for mod in holders:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    # -- summary --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_s, and each counter's total."""
        return {name: dict(agg) for name, agg in self.totals.items()}
