"""Command-line driver: constructs spaces, runs checks and sweeps, and emits
machine-readable tables (csv or json).

Half-integral weights are passed as strings like 13/2.  Exit code 0 means
every check the command ran passed; otherwise the first failing check is
named on stderr and the exit code is 1.  Output is deterministic: fixed
orders, no wall-clock anywhere.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction

from .arith import fundamental_discriminants, half_integer, plus_sign
from .hecke import (
    dim_cusp_level1,
    eigenbasis_plus,
    verify_sqrcoeff,
)
from .lfunctions import (
    central_value,
    kohnen_zagier_check,
    petersson_gram,
    petersson_norm_f,
    petersson_norm_integral,
    sym2_at_1,
)
from .qexp import cusp_plus_basis, space_basis
from .supnorm import (
    FormEvaluator,
    amplifier_inequality,
    bergman_partial,
    bergman_spectral,
    count_matrices,
    eq_sup_terms,
    plus_form_precision,
    scaling_experiment,
    supnorm_scan,
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(meta: dict, rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = json.dumps({"meta": meta, "rows": rows}, indent=1, default=_fmt)
        text = payload + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for r in rows:
                writer.writerow({k: _fmt(v) for k, v in r.items()})
        else:
            buf.write("empty\n")
        header = "# " + "; ".join(f"{k}={_fmt(v)}" for k, v in meta.items()) + "\n"
        text = header + buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_k(s: str) -> Fraction:
    try:
        k = half_integer(s)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"usage error: k must be a half-integer >= 5/2 (got {s})")
    if k.denominator != 2 or k < Fraction(5, 2):
        raise SystemExit(f"usage error: k must be a half-integer >= 5/2 (got {s})")
    return k


def _k_range(s: str) -> list[Fraction]:
    lo, _, hi = s.partition(":")
    klo, khi = _parse_k(lo), _parse_k(hi)
    out = []
    k = klo
    while k <= khi:
        out.append(k)
        k += 1
    return out


def _fail(name: str) -> int:
    print(f"FAILED check: {name}", file=sys.stderr)
    return 1


def cmd_basis(args) -> int:
    k = _parse_k(args.k)
    basis = cusp_plus_basis(k, prec=args.prec)
    meta = {"check": "plus-space-dimension", "k": str(k), "dim": basis.dimension}
    if args.format == "json":
        payload = json.loads(basis.to_json())
        _emit({**meta, **{kk: payload[kk] for kk in ("weight_num", "weight_den", "kind", "sturm")}},
              [{"form": i, "coeffs": payload["forms"][i]} for i in range(basis.dimension)],
              "json", args.out)
    else:
        rows = [
            {"form": i, "index": m, "numerator": v.numerator, "denominator": v.denominator}
            for i, f in enumerate(basis.forms)
            for m, v in sorted(f.coeffs.items())
        ]
        _emit(meta, rows, "csv", args.out)
    if basis.dimension != dim_cusp_level1(int(2 * k - 1)):
        return _fail("plus-space dimension vs level-one cusp dimension")
    return 0


def cmd_eigen(args) -> int:
    k = _parse_k(args.k)
    forms = eigenbasis_plus(k, prec=args.prec)
    rows = []
    for i, f in enumerate(forms):
        F = f.shimura_partner
        rows.append(
            {
                "k": str(k),
                "form": i,
                "coeffs": [str(f.coeff(n)) for n in range(0, 30)],
                "partner_w": F.weight,
                "partner_coeffs": [str(F.coeff(n)) for n in range(1, 16)],
                "eigenvalues": {str(p * p): str(f.eigenvalue(p * p)) for p in (3, 5, 7)},
                "charpoly": [str(c) for c in f.charpoly],
            }
        )
    _emit({"check": "eigenbasis-and-shimura-partner", "k": str(k), "count": len(forms)},
          rows, args.format, args.out)
    return 0


def cmd_shimura_check(args) -> int:
    k = _parse_k(args.k)
    forms = eigenbasis_plus(k, prec=args.prec)
    discs = fundamental_discriminants(args.D_max, plus_sign(k))
    rows = []
    ok_all = True
    for i, f in enumerate(forms):
        if discs:
            # one pass to the largest index any D needs, not one per D
            f.coefficients_upto(args.n_max**2 * max(abs(D) for D in discs))
        for D in discs:
            r = verify_sqrcoeff(f, D, args.n_max)
            rows.append({"k": str(k), "form": i, "D": D, "ok": r["ok"],
                         "first_failure": r["first_failure"]})
            ok_all = ok_all and r["ok"]
    _emit({"check": "square-index-coefficient-relation", "k": str(k)}, rows,
          args.format, args.out)
    return 0 if ok_all else _fail("square-index coefficient relation")


def cmd_kz(args) -> int:
    k = _parse_k(args.k)
    tol = 1e-3 if args.tol is None else args.tol
    d_list = [int(t) for t in args.D.split(",")]
    forms = eigenbasis_plus(k, prec=args.prec)
    rows = []
    ok_all = True
    for f in forms:
        if not isinstance(f.eigenvalue(9), Fraction):
            continue  # rational systems only on the command line
        F = f.shimura_partner
        F.coefficients_upto(max(4000, args.primes))
        f.coefficients_upto(max(abs(D) for D in d_list) + 1)
        norm_f = petersson_norm_f(f, "quadrature", prec=args.prec or 700)
        norm_F = petersson_norm_integral(F)
        s2 = sym2_at_1(F, prime_limit=args.primes)
        for D in d_list:
            lv = central_value(F, D)
            r = kohnen_zagier_check(f, F, D, norm_f, norm_F, lv)
            disc = r.get("discrepancy", "")
            rows.append(
                {
                    "k": str(k),
                    "D": D,
                    "L_central": lv.to_float(),
                    "L_err": lv.err,
                    "sym2": s2.to_float(),
                    "norm_F": norm_F.to_float(),
                    "norm_f": norm_f.to_float(),
                    "kz_discrepancy": disc if not r.get("skipped") else "skipped",
                }
            )
            if not r.get("skipped") and disc >= tol:
                ok_all = False
    _emit({"check": "coefficient-square-vs-central-value", "k": str(k)}, rows,
          args.format, args.out)
    return 0 if ok_all else _fail("coefficient-square vs central-value identity")


def cmd_supnorm(args) -> int:
    k = _parse_k(args.k)
    prec = args.prec or plus_form_precision(k)
    forms = eigenbasis_plus(k, prec=prec)
    rows = []
    for i, f in enumerate(forms):
        ev = FormEvaluator.from_plus_form(f, prec)
        res = supnorm_scan(ev)
        rows.append({"k": str(k), "form": i, "frame": res.frame,
                     "x": res.x, "y": res.y, "log_sup": res.sup.logm,
                     "near_cusp": res.near_cusp})
    _emit({"check": "three-frame-supnorm-scan", "k": str(k)}, rows, args.format, args.out)
    return 0


def cmd_counts(args) -> int:
    z = complex(args.z.replace("i", "j"))
    if not z.imag > 0:
        raise SystemExit(f"usage error: z must lie in the upper half-plane (got {args.z})")
    deltas = [float(t) for t in args.delta_grid.split(",")]
    rows = []
    for l in range(1, args.L + 1):
        if math.isqrt(l) ** 2 != l:
            continue
        for delta in deltas:
            rec = count_matrices(z, l, delta, keep_witnesses=False)
            rows.append({"y": z.imag, "l": l, "delta": delta, "M": rec.M,
                         "Mstar": rec.M_star, "Mu": rec.M_u, "Mp": rec.M_p})
    _emit({"check": "ball-count-classes", "z": args.z}, rows, args.format, args.out)
    return 0


def cmd_kernel_check(args) -> int:
    k = _parse_k(args.k)
    tol = 1e-3 if args.tol is None else args.tol
    prec = args.prec or 400
    basis = space_basis(k, prec, "full S")
    evs = [FormEvaluator.from_basis_element(basis, i, prec) for i in range(basis.dimension)]
    gram, _ = petersson_gram(evs)
    rng = random.Random(20)
    rows = []
    ok_all = True
    for _ in range(5 if evs else 0):  # an empty cusp space has no kernel
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.3))
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.3))
        geo, err = bergman_partial(z, w, k, tol=1e-5)
        spec = bergman_spectral(z, w, evs, gram.tolist())
        rel = abs(geo - spec) / abs(spec)
        rows.append({"k": str(k), "z": str(z), "w": str(w), "rel_err": rel})
        ok_all = ok_all and rel < tol
    _emit({"check": "kernel-spectral-vs-group-sum", "k": str(k)}, rows,
          args.format, args.out)
    return 0 if ok_all else _fail("kernel spectral vs group-sum agreement")


def cmd_amplify(args) -> int:
    k = _parse_k(args.k)
    lam = args.Lambda
    prec = args.prec or plus_form_precision(k)
    forms = eigenbasis_plus(k, prec=prec)
    rows = []
    ok_all = True
    for i, f in enumerate(forms):
        ev = FormEvaluator.from_plus_form(f, prec)
        res = supnorm_scan(ev, nx=16, ny=32, refine_rounds=2)
        nf = petersson_norm_f(f, "quadrature", prec=prec)
        sup_phi_sq = (res.sup * res.sup / nf.value).to_float()
        z = complex(res.x, res.y)
        for kind in ("M1", "M2"):
            rec = amplifier_inequality(f, lam, kind, sup_phi_sq, z, k)
            terms = eq_sup_terms(k, lam, res.y)
            rows.append(
                {
                    "k": str(k),
                    "form": i,
                    "kind": kind,
                    "Lambda": lam,
                    **{t: terms[t] for t in ("term1", "term2", "term3", "term4")},
                    "lhs": rec["lhs"],
                    "rhs": rec["rhs"],
                }
            )
            ok_all = ok_all and rec["ok"]
    _emit({"check": "amplified-pointwise-inequality", "k": str(k)}, rows,
          args.format, args.out)
    return 0 if ok_all else _fail("amplified pointwise inequality")


def cmd_scaling(args) -> int:
    report = scaling_experiment(_k_range(args.k_range))
    rows = report["rows"]
    if len(rows) < 2:
        print("FAILED check: scaling sweep needs at least two admissible weights",
              file=sys.stderr)
        return 1
    slope = report["slope"]
    out_rows = [
        {"k": str(r["k"]), "log_k": r["log_k"], "log_S": r["log_S"],
         "bessel_correction": r["bessel_correction"]}
        for r in rows
    ]
    out_rows.append({"k": "slope", "log_k": "", "log_S": slope, "bessel_correction": ""})
    _emit({"check": "weight-aspect-lower-bound-scaling", "slope": slope},
          out_rows, args.format, args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plusforms",
        description="Kohnen plus space of level 4: exact bases, Shimura lifts, "
        "L-values, sup-norm experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=True, tol=False):
        """--out and --format; --k and --prec unless k is False; --tol if tol."""
        if k:
            p.add_argument("--k", required=True, help="half-integral weight, e.g. 13/2")
            p.add_argument("--prec", type=int, default=None, help="coefficient precision override")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("basis", help="exact plus-space basis")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("eigen", help="Hecke eigenbasis and Shimura partners")
    common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("shimura-check", help="exact square-index coefficient relation")
    common(p)
    p.add_argument("--D-max", type=int, default=24, dest="D_max")
    p.add_argument("--n-max", type=int, default=20, dest="n_max")
    p.set_defaults(func=cmd_shimura_check)

    p = sub.add_parser("kz", help="coefficient-square vs central-value identity")
    common(p, tol=True)
    p.add_argument("--D", default="1,5", help="comma-separated fundamental discriminants")
    p.add_argument("--primes", type=int, default=100000, help="Euler product cutoff")
    p.set_defaults(func=cmd_kz)

    p = sub.add_parser("supnorm", help="three-frame sup-norm scan")
    common(p)
    p.set_defaults(func=cmd_supnorm)

    p = sub.add_parser("counts", help="ball counts of determinant-l matrices")
    common(p, k=False)
    p.add_argument("--z", default="0.3+2i")
    p.add_argument("--L", type=int, default=81)
    p.add_argument("--delta-grid", default="0.1,1,10", dest="delta_grid")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("kernel-check", help="kernel: spectral vs group-sum sides")
    common(p, tol=True)
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("amplify", help="amplified pointwise inequality at the scan argmax")
    common(p)
    p.add_argument("--Lambda", type=float, default=3.0)
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("scaling", help="weight-aspect scaling of the spectral average")
    common(p, k=False)
    p.add_argument("--k-range", required=True, dest="k_range", help="e.g. 13/2:61/2")
    p.set_defaults(func=cmd_scaling)

    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value like -3,-4 for an option: join --D to its value
    while "--D" in argv[:-1]:
        i = argv.index("--D")
        argv[i : i + 2] = [f"--D={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # name the failure instead of printing a traceback
        return _fail(f"{args.command}: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
