"""Polynomial approximation engines for the transcendental activations.

Three schemes back the TANH / SIGMOID / GELU / EXP kinds:

* a rational [7/8] approximant for tanh (odd numerator, even denominator,
  coefficients matched against the leading Taylor terms),
* piecewise cubic least-max fits over 16 half-binade intervals indexed by
  the exponent and mantissa MSB of the input,
* a cubic for 2^y combined with exact power-of-two scaling for exp.

Error budgets are module constants so a regression in any fit or in the
interval indexing is immediately visible to the verification suite.

The three engines (``tanh_pade78``, ``minimax_eval``, ``exp_taylor``) run
an FP32 array as one C call (``native.c``) wherever ``native.run`` can read
it in place, and that call performs the numpy code's operations in the
same order and gives its bits.  The numpy code is the reference path; it
runs FP64 and every call ``native.run`` declines (another layout, no
library, or a verify fault set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from . import native
from .dtypes import IdentityEnum

# acceptance budgets, measured on dense grids by the verification suite
PADE_TANH_MAX_ABS_ERR = 1e-5      # on [-5, 5]
MINIMAX_TANH_MAX_ABS_ERR = 2e-3   # on [-4, 4]
EXP_MAX_REL_ERR = 3e-4            # on [-10, 10]
SIGMOID_BUDGET_FACTOR = 1.1       # sigmoid inherits 1.1x the tanh budget


class Approx(IdentityEnum):
    """Approximation selector for the transcendental kinds."""
    PADE78 = "pade78"
    MINIMAX16 = "minimax16"
    TAYLOR2 = "taylor2"
    EXACT = "exact"


@dataclass(frozen=True)
class PadeRational:
    """Odd/even rational approximant evaluated as num(|x|)/den(|x|) with the
    sign reapplied, saturating to +-1 strictly beyond ``clamp``."""

    p_coeffs: tuple[float, ...]  # ascending odd powers: x, x^3, x^5, x^7
    q_coeffs: tuple[float, ...]  # ascending even powers: 1, x^2, ..., x^8
    clamp: float


# [7/8] approximant of tanh: num/den * 2027025 with integer coefficients
TANH_PADE78 = PadeRational(
    p_coeffs=(2027025.0, 270270.0, 6930.0, 36.0),
    q_coeffs=(2027025.0, 945945.0, 51975.0, 630.0, 1.0),
    clamp=5.0,
)

# cubic for 2^y on [-1/2, 1/2], constant pinned at 1 so exp(0) == 1 exactly;
# remaining coefficients are a least-max fit (bit patterns fixed for
# reproducibility: 0x3f316f7d, 0x3e781eee, 0x3d656460)
EXP_LOG2E = np.uint32(0x3FB8AA3B)  # float32 log2(e)
EXP_C1 = np.uint32(0x3F316F7D)
EXP_C2 = np.uint32(0x3E781EEE)
EXP_C3 = np.uint32(0x3D656460)
EXP_LO_BAND = -87.0
EXP_HI_BAND = 88.0


@dataclass(frozen=True)
class ExpDecomposition:
    log2e: float
    cubic: tuple[float, float, float, float]  # 1, c1, c2, c3
    lo: float
    hi: float


def exp_decomposition() -> ExpDecomposition:
    c = [float(np.uint32(u).view(np.float32)) for u in (EXP_C1, EXP_C2, EXP_C3)]
    return ExpDecomposition(float(EXP_LOG2E.view(np.float32)), (1.0, *c),
                            EXP_LO_BAND, EXP_HI_BAND)


def _native_f32(name: str, x: np.ndarray, *scalars) -> np.ndarray | None:
    """``x`` mapped by the C engine ``name`` of ``native.c``, or None for the
    numpy reference path, which gives the same bits: ``x`` is not FP32, or
    ``native.run`` declines it (a 1-D ``x`` is one column)."""
    if x.dtype != np.float32:
        return None
    out = np.empty(x.shape, np.float32, order="F")
    rows, cols = x.shape if x.ndim == 2 else (x.size, 1)
    return out if native.run(name, rows, cols, (x,), (out,), *scalars) else None


def tanh_pade78(x: np.ndarray) -> np.ndarray:
    """Rational [7/8] tanh; |x| > clamp saturates to +-1.

    Numerator and denominator are evaluated by Horner's rule in x*x on |x|
    and the sign is reapplied, which makes f(-x) == -f(x) bitwise.  FP32
    blocks run in C (``tanh_pade78_f32``), the rest in numpy.
    """
    x = np.asarray(x)
    r = _native_f32("tanh_pade78_f32", x)
    return _tanh_pade78_numpy(x) if r is None else r


def _tanh_pade78_numpy(x: np.ndarray) -> np.ndarray:
    dt = x.dtype.type
    with np.errstate(all="ignore"):  # the saturation branch covers |x| where
        ax = np.abs(x)               # the rational itself would overflow
        t = ax * ax
        p, q = TANH_PADE78.p_coeffs, TANH_PADE78.q_coeffs
        num = dt(p[3])
        for c in (p[2], p[1], p[0]):
            num = num * t + dt(c)
        num = num * ax
        den = dt(q[4])
        for c in (q[3], q[2], q[1], q[0]):
            den = den * t + dt(c)
        r = num / den
        r = np.where(ax > dt(TANH_PADE78.clamp), dt(1.0), r)
    return np.copysign(r, x)


# ---------------------------------------------------------------------------
# piecewise minimax cubics, 16 half-binade intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimaxTable:
    """16 cubics over half-binade intervals of |x| starting at 2^emin.

    The interval index is the exponent field plus the mantissa MSB of |x|
    (the 9 bits below the sign), offset by ``base`` and clamped to [0, 15];
    interval 0 extends down to 0 and |x| beyond the covered range returns
    ``saturation`` (sign reapplied).  The coefficients are copied once, at
    construction, into the read-only FP32 (4, 16) C-ordered array C reads,
    whose address is read then too (``coeffs_address``).
    """

    name: str
    emin: int
    coeffs: np.ndarray   # (4, 16) float32, monomial c0..c3 per interval
    range_max: float     # first |x| that saturates
    saturation: float
    coeffs_address: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.float32, order="C")
        if c.shape != (4, 16):
            raise ValueError(f"a minimax table has (4, 16) coefficients, got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "coeffs_address", native.address(c.reshape(-1)))

    @property
    def base(self) -> int:
        return (127 + self.emin) << 1

    def interval_bounds(self, i: int) -> tuple[float, float]:
        e = self.emin + i // 2
        lo = 2.0 ** e if i % 2 == 0 else 1.5 * 2.0 ** e
        hi = 1.5 * 2.0 ** e if i % 2 == 0 else 2.0 ** (e + 1)
        return (0.0 if i == 0 else lo), hi


def _cheb_nodes_fit(f, a: float, b: float, n: int = 64) -> np.ndarray:
    """Degree-3 Chebyshev projection of f on [a, b] in monomial form."""
    k = np.arange(n)
    t = np.cos(np.pi * (k + 0.5) / n)
    x = 0.5 * (b - a) * t + 0.5 * (b + a)
    fx = f(x)
    cs = []
    for j in range(4):
        tj = np.cos(j * np.pi * (k + 0.5) / n)
        cs.append((2.0 - (j == 0)) / n * np.sum(fx * tj))
    poly = np.polynomial.chebyshev.Chebyshev(cs, domain=[a, b]).convert(
        kind=np.polynomial.Polynomial)
    c = np.zeros(4)
    c[:poly.coef.size] = poly.coef
    return c


def _fit_table(name: str, f, emin: int) -> MinimaxTable:
    bounds = MinimaxTable(name, emin, np.zeros((4, 16)), 0.0, 1.0).interval_bounds
    coeffs = np.stack([_cheb_nodes_fit(f, *bounds(i)) for i in range(16)], axis=1)
    return MinimaxTable(name, emin, coeffs, bounds(15)[1], 1.0)


_erf_scaled = np.vectorize(lambda v: math.erf(v / math.sqrt(2.0)), otypes=[np.float64])

TANH_MINIMAX = _fit_table("tanh", np.tanh, emin=-6)          # covers [0, 4)
GELU_ERF_MINIMAX = _fit_table("gelu_erf", _erf_scaled, emin=-5)  # covers [0, 8)


def minimax_eval(table: MinimaxTable, x: np.ndarray) -> np.ndarray:
    """Piecewise cubic via exponent/MSB interval lookup, sign reapplied.
    FP32 blocks run in C (``minimax_f32``), the rest in numpy."""
    x = np.asarray(x)
    r = _native_f32("minimax_f32", x, table.coeffs_address, table.base, table.range_max,
                    table.saturation)
    return _minimax_numpy(table, x) if r is None else r


def _minimax_numpy(table: MinimaxTable, x: np.ndarray) -> np.ndarray:
    dt = x.dtype.type
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        bits = ax.astype(np.float32).view(np.uint32)
        idx = np.clip((bits >> np.uint32(22)).astype(np.int32) - table.base, 0, 15)
        c0, c1, c2, c3 = (table.coeffs[j][idx].astype(x.dtype) for j in range(4))
        p = ((c3 * ax + c2) * ax + c1) * ax + c0
        p = np.where(ax >= dt(table.range_max), dt(table.saturation), p)
    return np.copysign(p, x)


def minimax_grad(table: MinimaxTable, x: np.ndarray) -> np.ndarray:
    """Derivative of the fitted piecewise cubic (an even function)."""
    x = np.asarray(x)
    dt = x.dtype.type
    ax = np.abs(x)
    with np.errstate(all="ignore"):  # huge and infinite |x| are masked to 0 below
        bits = ax.astype(np.float32).view(np.uint32)
        idx = np.clip((bits >> np.uint32(22)).astype(np.int32) - table.base, 0, 15)
        c1, c2, c3 = (table.coeffs[j][idx].astype(x.dtype) for j in (1, 2, 3))
        g = (dt(3.0) * c3 * ax + dt(2.0) * c2) * ax + c1
    return np.where(ax >= dt(table.range_max), dt(0.0), g)


# ---------------------------------------------------------------------------
# exp via 2^n * 2^y
# ---------------------------------------------------------------------------

def _exp_constants(dt) -> tuple:
    """log2(e), c1, c2, c3, 1, the two band edges, +inf and 0 as ``dt``."""
    bits = (EXP_LOG2E, EXP_C1, EXP_C2, EXP_C3)
    return (*(dt(float(u.view(np.float32))) for u in bits),
            dt(1.0), dt(EXP_HI_BAND), dt(EXP_LO_BAND), dt(np.inf), dt(0.0))


_EXP_CONSTANTS = {np.dtype(t): _exp_constants(t) for t in (np.float32, np.float64)}


def exp_taylor(x: np.ndarray) -> np.ndarray:
    """exp(x) = 2^n * 2^y with n = round(x*log2 e) and a cubic for 2^y.

    The power-of-two factor is built directly in the exponent field, so the
    final scaling is exact.  Outside [-87, 88] the result saturates to
    0 / +inf by sign.  FP32 blocks run in C (``exp_taylor_f32``), the rest
    in numpy.
    """
    x = np.asarray(x)
    r = _native_f32("exp_taylor_f32", x)
    return _exp_taylor_numpy(x) if r is None else r


def _exp_taylor_numpy(x: np.ndarray) -> np.ndarray:
    log2e, c1, c2, c3, one, hi, lo, inf, zero = (
        _EXP_CONSTANTS.get(x.dtype) or _exp_constants(x.dtype.type))
    with np.errstate(all="ignore"):  # out-of-band inputs saturate below
        r = x * log2e
        n = np.rint(r)
        y = r - n
        q = ((c3 * y + c2) * y + c1) * y + one
        if x.dtype == np.float64:
            ni = np.clip(n, -1022, 1023).astype(np.int64)
            pow2 = ((ni + np.int64(1023)) << np.int64(52)).view(np.float64)
        else:
            ni = np.clip(n, -126, 127).astype(np.int32)
            pow2 = ((ni + np.int32(127)) << np.int32(23)).view(np.float32)
        out = q * pow2
        out = np.where(x > hi, inf, out)
        out = np.where(x < lo, zero, out)
    return out


# ---------------------------------------------------------------------------
# the activations behind the unary kinds; ``flag`` is an Approx or None
# ---------------------------------------------------------------------------

_erf_vec = np.vectorize(math.erf, otypes=[np.float64])


def tanh(x: np.ndarray, flag: Approx | None = None) -> np.ndarray:
    if flag is Approx.MINIMAX16:
        return minimax_eval(TANH_MINIMAX, x)
    if flag is Approx.EXACT:
        return np.tanh(x)
    return tanh_pade78(x)


def tanh_grad(x: np.ndarray, flag: Approx | None = None) -> np.ndarray:
    f = tanh(x, flag)
    return np.asarray(x).dtype.type(1.0) - f * f


def sigmoid_via_tanh(x: np.ndarray, flag: Approx | None = None) -> np.ndarray:
    """sigmoid(x) = (tanh(x/2) + 1) / 2 applied to the selected tanh."""
    x = np.asarray(x)
    dt = x.dtype.type
    return (tanh(x * dt(0.5), flag) + dt(1.0)) * dt(0.5)


def sigmoid_grad(x: np.ndarray, flag: Approx | None = None) -> np.ndarray:
    s = sigmoid_via_tanh(x, flag)
    return s * (np.asarray(x).dtype.type(1.0) - s)


def gelu(x: np.ndarray, flag: Approx | None = None) -> np.ndarray:
    """GELU(x) = 0.5 x (1 + erf(x / sqrt 2)); the erf factor comes from the
    16-interval table unless the exact path is selected."""
    x = np.asarray(x)
    dt = x.dtype.type
    if flag is Approx.EXACT:
        h = _erf_vec(x / dt(math.sqrt(2.0))).astype(x.dtype)
    else:
        h = minimax_eval(GELU_ERF_MINIMAX, x)
    with np.errstate(all="ignore"):  # -inf * 0 is a NaN, silently
        return dt(0.5) * x * (dt(1.0) + h)


def gelu_grad(x: np.ndarray, flag: Approx | None = None) -> np.ndarray:
    x = np.asarray(x)
    dt = x.dtype.type
    with np.errstate(all="ignore"):  # x * x overflows and ±inf * 0 is a NaN, silently
        if flag is Approx.EXACT:
            h = _erf_vec(x / dt(math.sqrt(2.0))).astype(x.dtype)
            hp = (np.sqrt(dt(2.0 / math.pi)) * np.exp(dt(-0.5) * x * x)).astype(x.dtype)
        else:
            h = minimax_eval(GELU_ERF_MINIMAX, x)
            hp = minimax_grad(GELU_ERF_MINIMAX, x)
        return dt(0.5) * (dt(1.0) + h) + dt(0.5) * x * hp


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------

def coefficient_tables() -> dict:
    """All fitted coefficients in JSON-serialisable form."""
    def table_dict(t: MinimaxTable) -> dict:
        return {
            "name": t.name,
            "emin": t.emin,
            "base": t.base,
            "range_max": t.range_max,
            "saturation": t.saturation,
            "intervals": [
                {"bounds": list(t.interval_bounds(i)),
                 "coeffs": [float(t.coeffs[j, i]) for j in range(4)]}
                for i in range(16)
            ],
        }

    e = exp_decomposition()
    return {
        "tanh_pade78": {
            "numerator_odd": list(TANH_PADE78.p_coeffs),
            "denominator_even": list(TANH_PADE78.q_coeffs),
            "clamp": TANH_PADE78.clamp,
        },
        "exp": {"log2e": e.log2e, "cubic": list(e.cubic),
                "band": [e.lo, e.hi]},
        "minimax": [table_dict(TANH_MINIMAX), table_dict(GELU_ERF_MINIMAX)],
        "budgets": {
            "pade_tanh_max_abs": PADE_TANH_MAX_ABS_ERR,
            "minimax_tanh_max_abs": MINIMAX_TANH_MAX_ABS_ERR,
            "exp_max_rel": EXP_MAX_REL_ERR,
            "sigmoid_factor": SIGMOID_BUDGET_FACTOR,
        },
    }
