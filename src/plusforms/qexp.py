"""Exact q-expansion spaces on Gamma_0(4) at half-integral weight.

Every exact series is a list of integer numerators over one common
denominator.  Series are built and combined with the integer products of
`intpoly`.  A QExpansion is the exact container for exact readers, sum_m
a(m) e((m + param) z / width) with rational a(m) and a weight tag; it does
no arithmetic and holds no floats, and `from_int_series` makes its
Fractions.  Float readers take a FloatView: the floats, log|a| and signs of
one series, made from its integer rows without an exact scalar.

The spaces M_k(Gamma_0(4)) are spanned by monomials Theta^a G^b where Theta
is the standard theta series (weight 1/2) and G = sum_{n odd} sigma_1(n) q^n
is a weight-2 holomorphic form on Gamma_0(4).  Expansions at the cusps 0 and
1/2 are exact as well.  Both generators have explicit Fricke and V-frame
series, derived from the theta transformation law and the quasi-modularity
of E_2: Theta is Fricke-invariant and 16 G|W = Theta^4 - 16 G = Theta(-q)^4,
while Theta|V = 2 e(1/8) q^(1/4) sum_{t >= 0} q^(t(t+1)) and 16 G|V is an
integer series.  So every monomial is an integer series over 16^b in all three
frames.  The monomials of one weight r/2 are built together, from one chain
of powers of G and one of Theta^(r mod 4) times powers of Theta^4:
intpoly.descending_walk, which the Miller monomials of hecke share, after the
products Theta^2, Theta^4 and Theta^3 (_walk_ladder).  intpoly.chain_products
runs it and ends it with an integer map: the combinations that make the forms
of a basis, whose denominators 16^b, V-frame scale 2^a, shift and phase sign
are folded into the map.  A monomial is the identity combination of its
weight, so the monomials are the basis of the full space M_k.  Long chains
run on float majorants, which size the primes, then on residues modulo those
primes, with the map applied to the residues and one CRT per row; short
chains run on integers, and so does a chain whose rounding check fails.  One
store (_spaces) holds every basis, once per weight and kind, with its rows
per frame at the largest precision built so far; smaller precisions are
their prefixes.

Cusp and plus-space conditions are imposed by exact row reduction on
integer rows, once per weight and kind, giving exact bases of S_k, M_k^+
and the Kohnen plus space S_k^+; one object holds each basis's vectors
(integer numerators over one denominator per vector), its forms' rows and
values derived from them, such as the Hecke matrix of T(9).  M_k^+ is free
over the level-1 forms in q^4 on two generators g (Kohnen), so the frame-I
rows of a plus space are sum_j c_j g_j L_j(4z): one product per key, the
c_j solved once per space (_kohnen_rows), the L_j the Miller monomials of
M_w from a chain to a quarter of the precision: _walk_miller, hecke's walk.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from . import intpoly
from .arith import admissible, half_integer, sigma_table
from .linalg import rref_exact
from .numerics import NEG_INF, log_abs_int


class PrecisionError(Exception):
    """A computation needed series coefficients beyond the stored precision."""


# ---------------------------------------------------------------------------
# QExpansion
# ---------------------------------------------------------------------------


@dataclass
class QExpansion:
    """Truncated Fourier series sum a(m) e((m+param) z / width), exact coefficients."""

    weight: Fraction
    width: int
    param: Fraction
    prec: int
    coeffs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.weight = Fraction(self.weight)
        self.param = Fraction(self.param)
        if not (0 <= self.param < 1):
            raise ValueError("cusp parameter must lie in [0, 1)")
        if any(m < 0 or m > self.prec for m in self.coeffs):
            raise ValueError("stored index outside [0, precision]")

    def coeff(self, m: int) -> Fraction:
        if m > self.prec:
            raise PrecisionError(f"coefficient {m} beyond stored precision {self.prec}")
        return self.coeffs.get(m, Fraction(0))


def from_int_series(weight, series, prec: int, den: int = 1, width: int = 1,
                    param=Fraction(0)) -> QExpansion:
    coeffs = {
        m: Fraction(c, den) for m, c in enumerate(series[: prec + 1]) if c != 0
    }
    return QExpansion(Fraction(weight), width, Fraction(param), prec, coeffs)


def combine_int_rows(rows, vectors, n: int) -> tuple[list[list[int]], int]:
    """sum_j v[j] * rows[j] on indices 0..n-1 for each vector v of rational
    coefficients, for integer rows, as integer numerators over one common
    denominator: the lcm of all the coefficients' denominators."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    return [intpoly._map_row(rows, [int(c * den) for c in v], [0] * len(rows), n)
            for v in vectors], den


class FloatView:
    """The correctly rounded floats of one exact series from its integer rows
    over den: one row, or one per power-basis coordinate of the NumberField
    field (NumberField.embed).  Floats, log|a| (of a rational a from its
    reduced pair) and signs (0 where a = 0) are made as far as read and
    held; the owner may replace rows and den by longer rows of the series.
    Past the rows, floats takes float(past(i)) if a callable past is given."""

    def __init__(self, rows, den: int, field=None, past=None):
        self.rows, self.den, self.field, self.past = rows, den, field, past
        self._floats, self._logs, self._signs = [], [], []  # made so far

    def floats(self, n: int) -> list[float]:
        """The floats of coefficients 0..n; the rows must reach n unless the
        view has past."""
        made, num = self._floats, self.rows[0]
        if n >= len(made):
            stop = min(n + 1, len(num))
            made += ([num[i] / self.den for i in range(len(made), stop)] if self.field is None
                     else self.field.embed(self.rows, self.den, len(made), stop))
            made += [float(self.past(i)) for i in range(len(made), n + 1)]
        return made[: n + 1]

    def terms(self, n: int) -> tuple[list[float], list[float]]:
        """(log|a|, sign) of coefficients 0..n; the rows must reach n."""
        logs, signs, num, den = self._logs, self._signs, self.rows[0], self.den
        floats = self.floats(n) if self.field is not None else None
        for i in range(len(logs), n + 1):
            if any(row[i] for row in self.rows[1:]):  # an irrational coefficient
                logs.append(math.log(abs(floats[i])))
                signs.append(1.0 if floats[i] > 0 else -1.0)
            elif num[i]:
                g = math.gcd(num[i], den)
                logs.append(log_abs_int(num[i] // g) - log_abs_int(den // g))
                signs.append(1.0 if (num[i] > 0) == (den > 0) else -1.0)
            else:
                logs.append(NEG_INF)
                signs.append(0.0)
        return logs[: n + 1], signs[: n + 1]


# ---------------------------------------------------------------------------
# Generators and their cusp expansions
# ---------------------------------------------------------------------------


def _g16_frame_w(prec: int) -> list[int]:
    """16 G|W = Theta^4 - 16 G = Theta(-q)^4: (-1)^n r_4(n) at q^n, with
    r_4(0) = 1 and r_4(n) = 8 sigma(n) - 32 sigma(n/4)."""
    sig = sigma_table(1, prec)
    return [1] + [
        (-1) ** n * (8 * sig[n] - (32 * sig[n // 4] if n % 4 == 0 else 0))
        for n in range(1, prec + 1)
    ]


def _g16_frame_v(prec: int) -> list[int]:
    """16 G|V: -1 at q^0, -8 sigma(n) for odd n, 48 sigma(n/2) - 24 sigma(n) for even n."""
    sig = sigma_table(1, prec)
    return [-1] + [
        -8 * sig[n] if n % 2 else 48 * sig[n // 2] - 24 * sig[n] for n in range(1, prec + 1)
    ]


def _theta_v_core(prec: int) -> list[int]:
    """sum_{t >= 0} q^(t(t+1)), so that Theta|V = 2 e(1/8) q^(1/4) times it."""
    out = [0] * (prec + 1)
    t = 0
    while t * (t + 1) <= prec:
        out[t * (t + 1)] = 1
        t += 1
    return out


# ---------------------------------------------------------------------------
# Monomial spans and cusp/plus bases
# ---------------------------------------------------------------------------


def sturm_index(k) -> int:
    """Coefficient range used for all exact linear algebra at weight k."""
    return math.ceil(float(half_integer(k))) + 10


def weight_monomials(k) -> list[tuple[int, int]]:
    """All (a, b) with Theta^a G^b of weight k = a/2 + 2b, a, b >= 0."""
    k = half_integer(k)
    r = int(2 * k)
    if r < 0:
        return []
    out = []
    b = 0
    while 4 * b <= r:
        a = r - 4 * b
        out.append((a, b))
        b += 1
    return out


class _Prefixes:
    """Values built per key at the largest precision asked for so far.  A
    smaller precision reads the held value as a prefix, which is exact: a
    truncated product is the prefix of a longer one, and the V-frame scale
    and shift act index by index.  The check-then-store runs under a lock."""

    def __init__(self, build, held: dict | None = None):
        self._build = build  # build(key, prec)
        self._held: dict = {} if held is None else held  # key -> (prec, value)
        self._lock = threading.Lock()

    def get(self, key, prec: int):
        entry = self._held.get(key)
        if entry is None or entry[0] < prec:
            built = (prec, self._build(key, prec))
            with self._lock:
                entry = self._held.get(key)
                if entry is None or entry[0] < prec:
                    entry = self._held[key] = built
        return entry[1]

    def cache_clear(self) -> None:
        with self._lock:
            self._held.clear()


def _frame_generators(prec: int, frame: str) -> tuple:
    """(Theta, G) in frame 'I', 'W4' or 'V4' as integer series to index prec:
    in the Fricke and V frames 16 G, and in the V frame the core of Theta|V."""
    if frame == "I":
        return intpoly.theta_int(prec), intpoly.sigma_odd_int(prec)
    if frame == "W4":
        return intpoly.theta_int(prec), _g16_frame_w(prec)
    if frame == "V4":
        return _theta_v_core(prec), _g16_frame_v(prec)
    raise ValueError(f"unknown frame {frame!r}")


def _walk_ladder(r: int, inputs, mul, wanted):
    """(b, Theta^(r - 4b) G^b) for each b in wanted, b descending, from
    inputs = (Theta, G) and products mul(x, y) of any kind of series; r >= 1:
    intpoly.descending_walk of the powers of G, from Theta^(r mod 4) times
    powers of Theta^4, after the products Theta^2, Theta^4 and Theta^3 that
    the weight needs."""
    theta, g = inputs
    top = r // 4
    theta2 = mul(theta, theta) if top or r % 4 >= 2 else None
    theta4 = mul(theta2, theta2) if top else None
    # Theta^(r mod 4), None standing for 1
    head = (None, theta, theta2)[r % 4] if r % 4 < 3 else mul(theta2, theta)
    return intpoly.descending_walk(g, head, theta4, top, wanted, mul)


def _combined_rows(r: int, vectors, prec: int, frame: str) -> tuple:
    """sum_b v[b] Theta^(r - 4b) G^b in the frame to index prec, for each
    vector v, as (integer numerators, common denominator): one ladder chain
    with the map of _combination_map at its end."""
    generators = _frame_generators(prec, frame)
    matrix, shifts, dens = _combination_map(r, vectors, frame)
    if r < 2:  # the one monomial is 1 or Theta: no product to make
        monomial = generators[0] if r else [1]
        rows = [intpoly._map_row([monomial], row, shifts, prec + 1) for row in matrix]
    else:
        rows = intpoly.chain_products(partial(_walk_ladder, r), generators, prec,
                                      range(r // 4 + 1), matrix, shifts)
    return tuple((tuple(row), den) for row, den in zip(rows, dens))


def _combination_map(r: int, vectors, frame: str) -> tuple[list, list[int], list[int]]:
    """(matrix, shifts, dens) with sum_b v[b] Theta^(r - 4b) G^b =
    sum_b matrix[i][b] q^shifts[b] P_b / dens[i] in the frame for the i-th
    vector (numerators, den), v = numerators / den, P_b the ladder's product
    of the frame generators (in the Fricke and V frames 16 G, and in the V
    frame the core of Theta|V).

    dens[i] is the lcm of the reduced denominators of the v[b] (-1)^b / 16^b:
    the frame's 16^b, and in the V frame the phase sign, since the phase
    e(a/8) of each monomial is (-1)^b e(r/8).  The V-frame scale 2^a
    (a = r - 4b) joins the integer multiples, and its shift a // 4 is applied
    before the map."""
    unit = {"I": 1, "W4": 16, "V4": -16}[frame]  # v[b] is divided by unit^b
    top = r // 4
    bs = range(top + 1)
    scales = [2 ** (r - 4 * b) if frame == "V4" else 1 for b in bs]
    shifts = [(r - 4 * b) // 4 if frame == "V4" else 0 for b in bs]
    matrix, dens = [], []
    for nums, den in vectors:
        full = den * unit**top  # v[b] / unit^b = scaled[b] / full
        scaled = [c * unit ** (top - b) for b, c in enumerate(nums)]
        g = math.gcd(full, *scaled) * (1 if full > 0 else -1)  # full / g > 0
        matrix.append([c // g * scale for c, scale in zip(scaled, scales)])
        dens.append(full // g)
    return matrix, shifts, dens


class _FormRows(_Prefixes):
    """Fixed combinations of the weight-r/2 monomials, each a vector over b
    as (integer numerators, denominator): their integer rows per frame at
    the largest precision asked for, and values derived from them (cached);
    a plus space's (plus) frame-I rows off the generator weights by _kohnen_rows."""

    def __init__(self, r: int, vectors, held: dict | None = None, plus: bool = False):
        super().__init__(self._build_rows, held)
        self.r, self.vectors = r, vectors
        self.kohnen = plus and bool(vectors) and r % 2 == 1 and r not in _GENERATORS
        self._values: dict = {}

    def _build_rows(self, frame: str, prec: int) -> tuple:
        if frame == "I" and self.kohnen:
            return _kohnen_rows(self, prec)
        return _combined_rows(self.r, self.vectors, prec, frame)

    def cached(self, name: str, build):
        """build(), computed once for these combinations."""
        if name not in self._values:
            value = build()
            with self._lock:
                self._values.setdefault(name, value)
        return self._values[name]


def dim_cusp_level1(w: int) -> int:
    """dim S_w(SL(2,Z)) for even w >= 0."""
    if w < 12 or w % 2:
        return 0
    return w // 12 - (1 if w % 12 == 2 else 0)


def _miller_shape(w: int) -> tuple[int, int, int]:
    """(d, alpha, beta): the Miller monomials of M_w (w != 2) are Delta^i
    E4^(alpha + 3(d - i)) E6^beta, i = 0..d, d = dim S_w; i >= 1 span S_w."""
    d = dim_cusp_level1(w)
    rem = w - 12 * d  # 0, 4, 6, 8, 10 or 14
    beta = rem % 4 // 2
    return d, (rem - 6 * beta) // 4, beta


def _walk_miller(w: int, inputs, mul, wanted):
    """(i, (Delta/q)^i E4^(alpha + 3(d - i)) E6^beta) for each i in wanted, a
    nonempty subset of 0..d, i descending, from inputs (the core of eta^3,
    E4 unless unread, E6 if beta) and products mul(x, y) of any kind of
    series: intpoly.descending_walk of the powers of Delta/q, from the head
    E6^beta E4^alpha times powers of E4^3 (see _miller_shape)."""
    d, alpha, beta = _miller_shape(w)
    eta3, *eisenstein = inputs
    e4 = eisenstein[0] if alpha or d > min(wanted) else None
    core = eta3  # Delta/q = (q^(-1/8) eta^3)^8, made if some i >= 1 is wanted
    for _ in range(3 if max(wanted) else 0):
        core = mul(core, core)
    head = eisenstein[-1] if beta else None  # None standing for 1
    for _ in range(alpha):
        head = e4 if head is None else mul(head, e4)
    e12 = mul(mul(e4, e4), e4) if d > min(wanted) else None
    return intpoly.descending_walk(core, head, e12, d, wanted, mul)


# 2k of the generators of M_k^+ over the level-1 forms in q^4: Theta, H_(5/2)
# for even k - 1/2, H_(7/2), H_(11/2) for odd (Eichler-Zagier, The Theory of
# Jacobi Forms (1985), Thms 3.5, 5.4; Kohnen, Math. Ann. 248 (1980))
_GENERATORS = (1, 5, 7, 11)


def _kohnen_keys(r: int) -> list[tuple[int, int]]:
    """The keys (s, i) of M_(r/2)^+, r odd: the generator of weight s/2 times
    Miller monomial i of M_w in q^4, w = (r - s)/2 != 2, i = 0..dim S_w."""
    gens = _GENERATORS[:2] if r % 4 == 1 else _GENERATORS[2:]
    return [(s, i) for s in gens if r - s >= 0 and r - s != 4
            for i in range(dim_cusp_level1((r - s) // 2) + 1)]


def _walk_level1(inputs, mul, wanted):
    """((w, i), monomial i of _walk_miller(w)) for each (w, i) in wanted, inputs (eta3, E4, E6)."""
    for w in sorted({w for w, _ in wanted}, reverse=True):
        for i, x in _walk_miller(w, inputs, mul, {i for v, i in wanted if v == w}):
            yield (w, i), x


def _walk_kohnen(gens, inputs, mul, wanted):
    """(j, L g) for each key j in wanted, one product each, from inputs: the
    generator rows, then the level-1 series L; gens[j] indexes key j's g."""
    for j in wanted:
        yield j, mul(inputs[len(inputs) - len(gens) + j], inputs[gens[j]])


def _kohnen_rows(rows: _FormRows, prec: int) -> tuple:
    """The frame-I rows of a plus-space basis to index prec, as _combined_rows
    gives them: a chain to prec // 4 for the level-1 factors, then one product
    per key, its map the forms' coordinates (_kohnen_map) over exact scales."""
    keys, short = _kohnen_keys(rows.r), prec // 4
    gens = sorted({s for s, _ in keys})
    level1 = [intpoly.eta3_int(short)] + [intpoly.eisenstein_int(w, short) for w in (4, 6)]
    inputs = [_spaces.get((Fraction(s, 2), "plus M"), 0).get("I", prec)[0][0][: prec + 1]
              for s in gens] + intpoly.chain_products(
        _walk_level1, level1, short, [((rows.r - s) // 2, i) for s, i in keys],
        _identity(len(keys)), [i for _, i in keys])
    strides = [1] * len(gens) + [4] * len(keys)
    walk = partial(_walk_kohnen, [gens.index(s) for s, _ in keys])
    matrix, scales = rows.cached("Kohnen map", lambda: _kohnen_map(rows, walk, inputs, strides))
    out = intpoly.chain_products(walk, inputs, prec, range(len(keys)), matrix,
                                 [0] * len(keys), strides)
    if any(c % scale for row, scale in zip(out, scales) for c in row):
        raise RuntimeError(f"plus-space row at k={Fraction(rows.r, 2)} not divisible by its scale")
    return tuple((tuple(c // scale for c in row), den)
                 for row, scale, (_, den) in zip(out, scales, rows.get("I", 0)))


def _kohnen_map(rows: _FormRows, walk, inputs, strides) -> tuple[list, list[int]]:
    """(matrix, scales): form i is sum_j matrix[i][j] K_j / scales[i], K_j
    key j's product in walk(inputs), by the kernel of the keys' and forms'
    Sturm rows; RuntimeError, naming k, unless the keys' rank is full there."""
    st, n = sturm_index(Fraction(rows.r, 2)), strides.count(4)
    cols = intpoly.chain_products(walk, [x[: st // t + 1] for x, t in zip(inputs, strides)],
                                  st, range(n), _identity(n), [0] * n, strides)
    cols += [b[: st + 1] for b, _ in rows.get("I", st)]
    rank, reduced, kernel = rref_exact([list(c) for c in zip(*cols)])
    if [next(c for c, x in enumerate(row) if x) for row in reduced] != list(range(n)):
        raise RuntimeError(f"Kohnen generators at k={Fraction(rows.r, 2)}: keys and basis"
                           f" have rank {rank} at the Sturm index {st}, not the {n} keys'")
    gs = [math.gcd(*v) for v in kernel]
    return ([[-c // g for c in v[:n]] for v, g in zip(kernel, gs)],
            [v[n + i] // g for i, (v, g) in enumerate(zip(kernel, gs))])


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass
class SpaceBasis:
    """Exact basis of a space of forms at one weight.

    kind is one of 'full M', 'full S', 'plus M', 'plus S'.  Each basis form
    is an exact coefficient vector over the generating monomials Theta^a
    G^b, integer numerators over one denominator, which is what makes exact
    cusp expansions and lazy high-precision coefficients possible.  The forms' integer rows in every frame are held
    by one _FormRows, which space_basis shares between all the bases of one
    weight and kind; the forms as QExpansions to index prec are made from
    those rows when they are first read.
    """

    weight: Fraction
    kind: str
    sturm: int
    monomials: list[tuple[int, int]]
    vectors: list[tuple[list[int], int]]  # (numerators, denominator) per form
    prec: int  # the precision of forms
    _rows: _FormRows = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @cached_property
    def forms(self) -> list[QExpansion]:
        """The basis forms to index prec, echelonized: form i is 1 at the
        pivot i and 0 at every other pivot."""
        return [from_int_series(self.weight, row, self.prec, den)
                for row, den in self.int_rows("I", self.prec)]

    def pivots(self) -> tuple[int, ...]:
        """The first nonzero index of each basis form, at most the Sturm
        index; computed once per space (cached)."""
        return self.cached("pivots", lambda: tuple(
            next(m for m, c in enumerate(row) if c) for row, _ in self.int_rows("I", self.sturm)))

    def int_rows(self, frame: str, prec: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(integer numerators, common denominator) of each basis form in
        frame 'I', 'W4' or 'V4', to index prec or beyond; built to prec if
        they are held to less."""
        return self._rows.get(frame, prec)

    def cached(self, name: str, build):
        """build(), computed once and shared by every basis that space_basis
        returns for this weight and kind: for values that do not depend on
        the precision of the forms, such as a Hecke matrix."""
        return self._rows.cached(name, build)

    def to_json(self) -> str:
        payload = {
            "weight_num": self.weight.numerator,
            "weight_den": self.weight.denominator,
            "kind": self.kind,
            "sturm": self.sturm,
            "forms": [
                sorted(
                    [m, v.numerator, v.denominator] for m, v in f.coeffs.items()
                )
                for f in self.forms
            ],
        }
        return json.dumps(payload, indent=1)


def space_basis(k, prec: int, kind: str) -> SpaceBasis:
    """Exact basis of the requested subspace of M_k(Gamma_0(4)).

    Conditions imposed by exact row reduction on the monomial span:
      'full M': none.
      'full S': a(0) = 0 and vanishing constant term of the Fricke expansion
                (the V-frame expansion has positive exponents automatically).
      'plus M': a(n) = 0 for all n <= sturm with (-1)^(k-1/2) n = 2, 3 mod 4.
      'plus S': both.

    The reduction runs once per weight and kind (_solve_space); the forms are
    read from the rows held for that weight and kind, built to prec if they
    are held to less, and made into QExpansions when first read.
    """
    if kind not in ("full M", "full S", "plus M", "plus S"):
        raise ValueError(f"unknown space kind {kind!r}: 'full M', 'full S', 'plus M' or 'plus S'")
    k = half_integer(k)
    st = sturm_index(k)
    if prec < st:
        raise PrecisionError(f"precision {prec} below the Sturm index {st}")
    if not weight_monomials(k):
        return SpaceBasis(k, kind, st, [], [], prec, _FormRows(int(2 * k), []))
    rows = _spaces.get((k, kind), 0)
    rows.get("I", prec)
    return SpaceBasis(k, kind, st, weight_monomials(k), rows.vectors, prec, rows)


def _solve_space(k: Fraction, kind: str) -> _FormRows:
    """The subspace `kind` of M_k (see space_basis) from the monomials to the
    Sturm index: the kernel of the conditions, then its combinations
    echelonized by their q-expansions, which also gives the forms' frame-I
    rows to the Sturm index, all on integer rows.  The full space 'full M' has the identity
    combinations, which are the monomials themselves, and no reduction."""
    monos = weight_monomials(k)
    r, bmax = monos[0][0], monos[-1][1]  # Theta^r and G^bmax Theta^(r - 4 bmax)
    identity = _identity(len(monos))
    if kind == "full M":
        return _FormRows(r, [(row, 1) for row in identity])
    st = sturm_index(k)
    rows = [row[: st + 1] for row, _ in _spaces.get((k, "full M"), 0).get("I", st)]
    conditions: list[list[int]] = []
    if kind in ("full S", "plus S"):
        conditions.append([row[0] for row in rows])
        conditions.append([16 ** (bmax - b) for (_, b) in monos])  # Fricke constant
    if kind in ("plus M", "plus S"):
        for n in range(1, st + 1):
            if not admissible(k, n):
                conditions.append([row[n] for row in rows])
    kernel = rref_exact(conditions)[2] if conditions else identity
    vectors, held = _echelonize(kernel, rows, st)
    return _FormRows(r, vectors, {"I": (st, held)}, kind in ("plus M", "plus S"))


def _echelonize(
    kernel: list[list[int]], rows: list[tuple[int, ...]], st: int
) -> tuple[list[tuple[list[int], int]], tuple]:
    """Echelonize integer kernel combinations of the monomial rows by their
    q-expansions up to the Sturm index: the vectors, and the rows of their
    forms to there, each as (integer numerators, lcm denominator)."""
    ncoe = st + 1
    mat = [row + vec for row, vec in zip(combine_int_rows(rows, kernel, ncoe)[0], kernel)]
    vectors, held = [], []
    for row in rref_exact(mat)[1]:
        if not any(row[:ncoe]):
            continue  # dependent combination: zero form
        pivot = next(c for c in row if c)  # the row stands for row / pivot
        g = math.gcd(pivot, *row[ncoe:])
        vectors.append(([c // g for c in row[ncoe:]], pivot // g))
        held.append((tuple(c // g for c in row[:ncoe]), pivot // g))
    return vectors, tuple(held)


# the spaces solved so far, one per (k, kind), 'full M' holding the
# monomials; the precision plays no part
_spaces = _Prefixes(lambda key, _prec: _solve_space(*key))


def cusp_plus_basis(k, prec: int | None = None, expected_dim: int | None = None) -> SpaceBasis:
    """Exact basis of the Kohnen plus space S_k^+(Gamma_0(4)).

    When expected_dim is given (from an independent dimension computation)
    a mismatch aborts with a diagnostic instead of silently proceeding.
    """
    k = half_integer(k)
    if k < Fraction(5, 2):
        raise ValueError("cusp_plus_basis needs k >= 5/2")
    st = sturm_index(k)
    prec = st if prec is None else max(prec, st)
    basis = space_basis(k, prec, "plus S")
    if expected_dim is not None and basis.dimension != expected_dim:
        raise RuntimeError(
            f"plus-space dimension mismatch at k={k}: monomial construction"
            f" gives {basis.dimension}, independent target is {expected_dim};"
            " the monomial span is incomplete or the conditions are wrong"
        )
    return basis
