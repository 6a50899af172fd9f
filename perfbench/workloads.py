"""Seeded task lists for the benchmark workloads, and the code that runs them.

`task_list(workload, seed)` runs in the harness and needs no plusforms
import: it turns the seed into plain JSON task descriptions.  The child
process receives only those descriptions and calls `run_task` on each.

Every draw that would change a run's cost is stratified or fixed, so that
run length does not swing from seed to seed; see README.md for the cost
notes behind each choice.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("shimura", "sweep", "spectral", "geometry")

# shimura: criterion 02 and `shimura-check`, at one weight with a rational
# and one with a real-quadratic Hecke field.  The weights are fixed because
# their cost differs by up to 3x at this size (see README); the seed draws
# the discriminants checked, which leaves the cost unchanged.
SHIMURA_WEIGHTS = ("21/2", "29/2")
SHIMURA_N_MAX = 15
SHIMURA_D_LIMIT = 24
SHIMURA_DISCS = 4

# sweep: `basis`, criteria 01 and 03
SWEEP_WEIGHTS = tuple(f"{num}/2" for num in range(5, 62, 2))
SWEEP_EIGEN_MAX = Fraction(39, 2)  # rational/real-quadratic eigenform scope
SWEEP_ODD = (1, 3, 5, 7, 9, 11, 13, 15)
SWEEP_PAIRS = 5

# spectral: criterion 04 and `kz`, both at k = 13/2
SPECTRAL_K = "13/2"
SPECTRAL_TOL = 1e-7
# admissible m with fhat(m) != 0, in bands of similar cost (see README);
# each band contributes the given number of draws
SPECTRAL_STRATA = (((4, 5), 1), ((8, 12, 13), 2), ((21,), 1))
KZ_D_LIMIT = 400
KZ_DISCS = 6
# central_value at w = 12 reads Fhat(n) up to n = 5784 over the fundamental
# D with |D| <= 400 (its default target_err 1e-9)
KZ_PARTNER_PREC = 6000

# geometry: `supnorm`, `amplify`, `kernel-check`, `counts`
# dimension-1 weights whose scan, norm and amplifier cost about the same
SUPNORM_WEIGHTS = ("13/2", "17/2", "19/2")
SUPNORM_PREC = 900
AMPLIFY_LAMBDA = 3.0
KERNEL_K = "13/2"
KERNEL_PREC = 200
KERNEL_PAIRS = 5
COUNT_X = (0.0, 0.1, 0.2, 0.3, 0.4)
COUNT_Y_BANDS = ((1.0, 1.25, 1.5), (1.75, 2.0, 2.25), (2.5, 2.75, 3.0))
COUNT_L = tuple(j * j for j in range(1, 13))
COUNT_DELTAS = (0.1, 1.0, 10.0)
ORACLE_L = (1, 4, 9)
ORACLE_DELTAS = (0.1, 1.0)

# acceptance tolerances on float outputs, checked by the harness
TOLERANCES = {"spectral_rel": 1e-6, "kz_log_discrepancy": 1e-3, "kernel_rel": 1e-3}


# ---------------------------------------------------------------------------
# Task lists (harness side)
# ---------------------------------------------------------------------------


def _fundamental(limit: int, sign: int) -> list[int]:
    """Fundamental discriminants D with sign*D > 0 and |D| <= limit."""

    def squarefree(n: int) -> bool:
        return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))

    out = []
    for m in range(1, limit + 1):
        D = sign * m
        if D == 1 or (D % 4 == 1 and squarefree(m)):
            out.append(D)
        elif D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree(m // 4):
            out.append(D)
    return out


def _sign(k: str) -> int:
    """(-1)^(k-1/2): the plus-space parity, which fixes the sign of D."""
    return 1 if int(Fraction(k) - Fraction(1, 2)) % 2 == 0 else -1


def _dim_level1(w: int) -> int:
    if w < 12 or w % 2:
        return 0
    return w // 12 - (1 if w % 12 == 2 else 0)


def _shimura(rng: random.Random) -> list[dict]:
    ks = list(SHIMURA_WEIGHTS)
    rng.shuffle(ks)
    return [
        {"op": "shimura", "k": k, "n_max": SHIMURA_N_MAX, "d_limit": SHIMURA_D_LIMIT,
         "discs": sorted(rng.sample(_fundamental(SHIMURA_D_LIMIT, _sign(k)), SHIMURA_DISCS))}
        for k in ks
    ]


def _sweep(rng: random.Random) -> list[dict]:
    ks = list(SWEEP_WEIGHTS)
    rng.shuffle(ks)
    tasks = []
    for k in ks:
        pairs = []
        if Fraction(k) <= SWEEP_EIGEN_MAX and _dim_level1(int(2 * Fraction(k) - 1)) in (1, 2):
            pairs = [[rng.choice(SWEEP_ODD), rng.choice(SWEEP_ODD)] for _ in range(SWEEP_PAIRS)]
        tasks.append({"op": "sweep", "k": k, "pairs": pairs})
    return tasks


def _spectral(rng: random.Random) -> list[dict]:
    ms = [1]
    for band, n in SPECTRAL_STRATA:
        ms += sorted(rng.sample(band, n))
    tasks = [{"op": "spectral", "k": SPECTRAL_K, "m": m} for m in ms]
    discs = sorted(rng.sample(_fundamental(KZ_D_LIMIT, _sign(SPECTRAL_K)), KZ_DISCS), key=abs)
    tasks.append({"op": "kz", "k": SPECTRAL_K, "discs": discs, "prec": KZ_PARTNER_PREC})
    return tasks


def _geometry(rng: random.Random) -> list[dict]:
    pairs = [[[rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.3)],
              [rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.3)]] for _ in range(KERNEL_PAIRS)]
    zs = [[rng.choice(COUNT_X), rng.choice(band)] for band in COUNT_Y_BANDS]
    return [
        {"op": "supnorm", "k": rng.choice(SUPNORM_WEIGHTS), "prec": SUPNORM_PREC,
         "lam": AMPLIFY_LAMBDA},
        {"op": "kernel", "k": KERNEL_K, "prec": KERNEL_PREC, "pairs": pairs},
        *({"op": "counts", "z": z, "ls": list(COUNT_L), "deltas": list(COUNT_DELTAS)}
          for z in zs),
    ]


_TASK_LISTS = {"shimura": _shimura, "sweep": _sweep, "spectral": _spectral,
               "geometry": _geometry}


def task_list(workload: str, seed: int) -> list[dict]:
    """The workload's tasks for this seed; the same seed gives the same list."""
    return _TASK_LISTS[workload](random.Random(f"{workload}:{seed}"))


def reference_tasks(workload: str) -> list[dict]:
    """Tasks whose exact outputs cover every key any seed can produce."""
    if workload == "shimura":
        return [{"op": "shimura", "k": k, "n_max": SHIMURA_N_MAX, "d_limit": SHIMURA_D_LIMIT,
                 "discs": []} for k in SHIMURA_WEIGHTS]
    if workload == "sweep":
        return task_list(workload, 0)
    if workload == "geometry":
        return [
            *({"op": "supnorm", "k": k, "prec": SUPNORM_PREC, "lam": AMPLIFY_LAMBDA}
              for k in SUPNORM_WEIGHTS),
            *({"op": "counts", "z": [x, y], "ls": list(COUNT_L), "deltas": list(COUNT_DELTAS)}
              for x in COUNT_X for band in COUNT_Y_BANDS for y in band),
        ]
    return []


def oracle_cases(tasks: list[dict]) -> list[dict]:
    """Small count cases for the exhaustive-box oracle, at the tasks' points."""
    return [{"z": t["z"], "l": l, "delta": d}
            for t in tasks if t["op"] == "counts" for l in ORACLE_L for d in ORACLE_DELTAS]


# ---------------------------------------------------------------------------
# Running tasks (child side)
# ---------------------------------------------------------------------------


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:32]


@dataclass
class Outcome:
    """What one task produced: its own exact checks, float errors for the
    harness to hold against TOLERANCES, and the reference key of its exact
    outputs with a callable that returns them (digested after the timed
    region)."""

    ok: bool
    errs: dict = field(default_factory=dict)
    key: str | None = None
    exact: Callable[[], object] | None = None


def _coeff_strs(form, n_max: int) -> list[str]:
    return [str(c) for c in form.coefficients_upto(n_max)]


def _run_shimura(pf, t, state) -> Outcome:
    forms = pf.hecke.eigenbasis_plus(t["k"])
    bound = t["n_max"] ** 2 * t["d_limit"]
    ok = bool(forms)
    for f in forms:
        f.coefficients_upto(bound)
        for D in t["discs"]:
            ok = pf.hecke.verify_sqrcoeff(f, D, t["n_max"])["ok"] and ok
    return Outcome(ok, key=f"shimura|{t['k']}|{bound}", exact=lambda: [
        [_coeff_strs(f, bound), [str(c) for c in f.charpoly]] for f in forms])


def _run_sweep(pf, t, state) -> Outcome:
    k = t["k"]
    w = int(2 * Fraction(k) - 1)
    basis = pf.qexp.cusp_plus_basis(k)
    ok = pf.hecke.shimura_charpolys_match(k)
    forms = pf.hecke.eigenbasis_plus(k) if t["pairs"] else []
    for f in forms:
        for m, n in t["pairs"]:
            ok = pf.hecke.multiplicativity_check(f, m, n)["ok"] and ok

    def exact():
        cp = pf.linalg.charpoly_exact(pf.hecke.hecke_matrix_level1(w, 3)) if basis.dimension else []
        return [basis.to_json(), [str(c) for c in cp],
                [[str(f.eigenvalue(p * p)) for p in (3, 5, 7)] for f in forms]]

    return Outcome(ok, key=f"sweep|{k}", exact=exact)


def _eigenform(pf, state, k: str):
    if ("form", k) not in state:
        state[("form", k)] = pf.hecke.eigenbasis_plus(k)[0]
    return state[("form", k)]


def _run_spectral(pf, t, state) -> Outcome:
    k, m = t["k"], t["m"]
    f = _eigenform(pf, state, k)
    s = pf.salie.spectral_average(k, m, rel_tol=SPECTRAL_TOL)
    if m == 1:
        state[("s1", k)] = s
        return Outcome(s.value.to_float() > 0)
    ratio = (s.value / state[("s1", k)].value).to_float()
    exact = float(f.coeff(m)) ** 2 / float(f.coeff(1)) ** 2
    return Outcome(exact != 0, {"spectral_rel": abs(ratio - exact) / exact})


def _run_kz(pf, t, state) -> Outcome:
    k, discs = t["k"], t["discs"]
    f = _eigenform(pf, state, k)
    w = int(2 * Fraction(k) - 1)
    F = pf.hecke.eigenforms_level1(w, prec=t["prec"])[0]
    f.coefficients_upto(max(abs(D) for D in discs) + 1)
    norm_f = pf.lfunctions.petersson_norm_f(f, "quadrature", prec=700)
    norm_F = pf.lfunctions.petersson_norm_integral(F)
    worst, checked, ok = 0.0, 0, True
    for D in discs:
        lv = pf.lfunctions.central_value(F, D)
        r = pf.lfunctions.kohnen_zagier_check(f, F, D, norm_f, norm_F, lv)
        if not r.get("skipped"):
            worst = max(worst, r["discrepancy"])
            checked += 1
        elif r.get("reason"):
            # skipped for a nonpositive central value although fhat(|D|) != 0
            ok = False
    return Outcome(ok and checked > 0, {"kz_log_discrepancy": worst})


def _run_supnorm(pf, t, state) -> Outcome:
    k, prec = t["k"], t["prec"]
    f = pf.hecke.eigenbasis_plus(k, prec=prec)[0]
    f.coefficients_upto(prec)
    ev = pf.supnorm.FormEvaluator.from_plus_form(f, prec)
    res = pf.supnorm.supnorm_scan(ev)
    nf = pf.lfunctions.petersson_norm_f(f, "quadrature", prec=prec)
    sup_phi_sq = (res.sup * res.sup / nf.value).to_float()
    ok = True
    for kind in ("M1", "M2"):
        rec = pf.supnorm.amplifier_inequality(f, t["lam"], kind, sup_phi_sq,
                                              complex(res.x, res.y), k)
        ok = rec["ok"] and ok
    return Outcome(ok, key=f"supnorm|{k}|{prec}", exact=lambda: _coeff_strs(f, prec))


def _run_kernel(pf, t, state) -> Outcome:
    k, prec = t["k"], t["prec"]
    basis = pf.qexp.space_basis(k, prec, "full S")
    evs = [pf.supnorm.FormEvaluator.from_basis_element(basis, i, prec)
           for i in range(basis.dimension)]
    gram, _ = pf.lfunctions.petersson_gram(evs)
    worst = 0.0
    for (zx, zy), (wx, wy) in t["pairs"]:
        z, w = complex(zx, zy), complex(wx, wy)
        geo, _err = pf.supnorm.bergman_partial(z, w, k, tol=1e-5)
        spec = pf.supnorm.bergman_spectral(z, w, evs, gram.tolist())
        worst = max(worst, abs(geo - spec) / abs(spec))
    return Outcome(basis.dimension > 0, {"kernel_rel": worst})


def _run_counts(pf, t, state) -> Outcome:
    z = complex(*t["z"])
    rows = []
    for l in t["ls"]:
        for delta in t["deltas"]:
            rec = pf.supnorm.count_matrices(z, l, delta, keep_witnesses=False)
            rows.append([l, delta, rec.M, rec.M_star, rec.M_u, rec.M_p])
    ok = all(r[2] >= max(r[3], r[4], r[5]) for r in rows)
    key = f"counts|{t['z'][0]!r}|{t['z'][1]!r}|{t['ls']}|{t['deltas']}"
    return Outcome(ok, key=key, exact=lambda: rows)


_RUNNERS = {"shimura": _run_shimura, "sweep": _run_sweep, "spectral": _run_spectral,
            "kz": _run_kz, "supnorm": _run_supnorm, "kernel": _run_kernel,
            "counts": _run_counts}


def run_task(pf, task: dict, state: dict) -> Outcome:
    """Run one task; `pf` is the plusforms package, `state` is shared by the
    tasks of one run (the spectral ratios need the m = 1 average)."""
    return _RUNNERS[task["op"]](pf, task, state)


def run_oracle(pf, case: dict) -> bool:
    """Fast enumerator against the exhaustive box enumerator."""
    z = complex(*case["z"])
    fast = pf.supnorm.enumerate_gl(case["l"], z, case["delta"])
    return fast == pf.supnorm.enumerate_box(case["l"], z, case["delta"])
