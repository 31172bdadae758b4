import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from tensorprim import UnaryKind, alloc, apply_unary, approx, from_array, native, to_array

from util import bits_equal


def test_tanh_pade_zero_and_odd_symmetry():
    assert float(approx.tanh_pade78(np.float32(0.0))) == 0.0
    xs = np.linspace(0.01, 6.0, 5000).astype(np.float32)
    pos = approx.tanh_pade78(xs)
    neg = approx.tanh_pade78(-xs)
    assert bits_equal(neg, -pos)  # enforced by |x| evaluation plus sign


def test_tanh_pade_budget_dense_grid():
    g = np.linspace(-5, 5, 200_001).astype(np.float32)
    err = np.max(np.abs(approx.tanh_pade78(g).astype(np.float64) - np.tanh(g.astype(np.float64))))
    assert err <= approx.PADE_TANH_MAX_ABS_ERR


def test_tanh_pade_saturates_beyond_clamp():
    for x in (5.5, 20.0, 1e30):
        assert float(approx.tanh_pade78(np.float32(x))) == 1.0
        assert float(approx.tanh_pade78(np.float32(-x))) == -1.0


def test_pade_coefficients_match_taylor_conditions():
    """The rational must reproduce tanh's Taylor series through x^15."""
    p = approx.TANH_PADE78.p_coeffs
    q = approx.TANH_PADE78.q_coeffs
    # tanh series coefficients for x, x^3, ..., x^15
    series = [1.0, -1 / 3, 2 / 15, -17 / 315, 62 / 2835, -1382 / 155925,
              21844 / 6081075, -929569 / 638512875]
    # num(x) - series(x) * den(x) must vanish through x^15
    num = {2 * i + 1: c for i, c in enumerate(p)}
    den = {2 * i: c for i, c in enumerate(q)}
    for power in range(1, 16, 2):
        acc = num.get(power, 0.0)
        for dp, dc in den.items():
            sp = power - dp
            if sp >= 1 and sp % 2 == 1:
                acc -= series[(sp - 1) // 2] * dc
        assert abs(acc) < 1e-6 * max(p)


def test_minimax_tanh_budget_and_zero():
    g = np.linspace(-4, 4, 200_001).astype(np.float32)
    err = np.max(np.abs(approx.minimax_eval(approx.TANH_MINIMAX, g).astype(np.float64)
                        - np.tanh(g.astype(np.float64))))
    assert err <= approx.MINIMAX_TANH_MAX_ABS_ERR
    assert abs(float(approx.minimax_eval(approx.TANH_MINIMAX, np.float32(0.0)))) <= 1e-4


def test_minimax_interval_indexing_covers_range():
    t = approx.TANH_MINIMAX
    assert t.base == (127 - 6) << 1
    lo0, hi0 = t.interval_bounds(0)
    assert lo0 == 0.0 and hi0 == 1.5 * 2.0 ** -6
    lo15, hi15 = t.interval_bounds(15)
    assert (lo15, hi15) == (3.0, 4.0)
    # contiguous tiling
    for i in range(15):
        assert t.interval_bounds(i)[1] == t.interval_bounds(i + 1)[0] or i == 0


def test_minimax_tables_hold_read_only_fp32_coefficients():
    """A table's coefficients are checked once, at construction: a copy in
    the FP32 (4, 16) C-ordered layout the C engine reads, read-only, in a
    table whose fields cannot be rebound."""
    for t in (approx.TANH_MINIMAX, approx.GELU_ERF_MINIMAX):
        c = t.coeffs
        assert c.dtype == np.float32 and c.shape == (4, 16) and c.flags.c_contiguous
        with pytest.raises(ValueError):
            c[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.range_max = 1.0
    src = np.asfortranarray(np.arange(64.0).reshape(4, 16))
    t = approx.MinimaxTable("t", -6, src, 4.0, 1.0)
    assert t.coeffs.dtype == np.float32 and t.coeffs.flags.c_contiguous
    assert np.array_equal(t.coeffs, src) and not np.shares_memory(t.coeffs, src)
    with pytest.raises(ValueError):
        approx.MinimaxTable("t", -6, src.T, 4.0, 1.0)


def test_gelu_examples():
    assert float(approx.gelu(np.float32(0.0))) == 0.0
    for x in (6.0, 10.0, 30.0):
        assert abs(float(approx.gelu(np.float32(x))) / x - 1.0) <= 1e-3
    g = np.linspace(-6, 6, 100_001).astype(np.float32)
    ref = 0.5 * g.astype(np.float64) * (1 + np.vectorize(math.erf)(g.astype(np.float64) / math.sqrt(2)))
    assert np.max(np.abs(approx.gelu(g).astype(np.float64) - ref)) <= 1e-3


def test_exp_exact_at_zero_and_ln2():
    assert float(approx.exp_taylor(np.float32(0.0))) == 1.0
    assert abs(float(approx.exp_taylor(np.float32(math.log(2.0)))) / 2.0 - 1.0) <= 1e-4


def test_exp_special_inputs_golden_bits():
    """NaN (sign and payload kept), +-Inf, +-0, subnormal and out-of-band
    inputs give frozen output bits in FP32 and FP64."""
    x32 = np.array([0x7FC00000, 0xFFC00000, 0x7F800000, 0xFF800000, 0x0, 0x80000000,
                    0x1, 0x800116C2, 0x3F000000, 0xC0500000, 0x42B00000, 0x42B10000,
                    0xC2AE0000, 0xC2AF0000, 0x7149F2CA, 0xF149F2CA], np.uint32)
    y32 = [0x7FC00000, 0xFFC00000, 0x7F800000, 0x0, 0x3F800000, 0x3F800000,
           0x3F800000, 0x3F800000, 0x3FD3103D, 0x3D1ED54D, 0x7EF882F4, 0x7F800000,
           0xB3352B, 0x0, 0x7F800000, 0x0]
    assert approx.exp_taylor(x32.view(np.float32)).view(np.uint32).tolist() == y32
    x64 = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000000,
                    0xFFF0000000000000, 0x0, 0x8000000000000000, 0x1, 0x800012688B70E62B,
                    0x3FE0000000000000, 0xC00A000000000000, 0x4056000000000000,
                    0x4056200000000000, 0xC055C00000000000, 0xC055E00000000000,
                    0x46293E5939A08CEA, 0xC6293E5939A08CEA], np.uint64)
    y64 = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000000, 0x0,
           0x3FF0000000000000, 0x3FF0000000000000, 0x3FF0000000000000, 0x3FF0000000000000,
           0x3FFA620792914D01, 0x3FA3DAA9B43D6C7B, 0x47DF105FE461BB08, 0x7FF0000000000000,
           0x381666A3C8C92812, 0x0, 0x7FF0000000000000, 0x0]
    assert approx.exp_taylor(x64.view(np.float64)).view(np.uint64).tolist() == y64


def test_exp_budget_and_saturation():
    g = np.linspace(-10, 10, 200_001).astype(np.float32)
    rel = np.max(np.abs(approx.exp_taylor(g).astype(np.float64)
                        / np.exp(g.astype(np.float64)) - 1.0))
    assert rel <= approx.EXP_MAX_REL_ERR
    assert float(approx.exp_taylor(np.float32(-100.0))) == 0.0
    assert np.isposinf(approx.exp_taylor(np.float32(100.0)))


def test_sigmoid_identity_examples():
    assert float(approx.sigmoid_via_tanh(np.float32(0.0))) == 0.5
    assert float(approx.sigmoid_via_tanh(np.float32(50.0))) == 1.0
    g = np.linspace(-10, 10, 100_001).astype(np.float32)
    ref = 1.0 / (1.0 + np.exp(-g.astype(np.float64)))
    err = np.max(np.abs(approx.sigmoid_via_tanh(g).astype(np.float64) - ref))
    assert err <= approx.SIGMOID_BUDGET_FACTOR * approx.PADE_TANH_MAX_ABS_ERR


def test_bounds_on_grid():
    g = np.linspace(-9, 9, 50_001).astype(np.float32)
    t = approx.tanh_pade78(g)
    assert np.all(t >= -1.0) and np.all(t <= 1.0)
    s = approx.sigmoid_via_tanh(g)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(approx.exp_taylor(g) > 0.0)


def test_grad_consistency_probes():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.5, 2.5, 500)
    h = 1e-3
    fd = (approx.tanh_pade78(pts + h) - approx.tanh_pade78(pts - h)) / (2 * h)
    got = approx.tanh_grad(pts)
    assert np.max(np.abs(got - fd) / np.maximum(np.abs(fd), 1e-2)) <= 1e-3


def test_coefficient_tables_serialisable_and_golden():
    doc = approx.coefficient_tables()
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["tanh_pade78"]["numerator_odd"] == [2027025.0, 270270.0, 6930.0, 36.0]
    assert back["tanh_pade78"]["denominator_even"] == [2027025.0, 945945.0, 51975.0, 630.0, 1.0]
    assert back["exp"]["cubic"][0] == 1.0
    # frozen bit patterns of the fitted exp cubic
    c1, c2, c3 = (np.float32(v) for v in back["exp"]["cubic"][1:])
    assert [hex(v.view(np.uint32)) for v in (c1, c2, c3)] == [
        "0x3f316f7d", "0x3e781eee", "0x3d656460"]
    assert len(back["minimax"]) == 2
    for tab in back["minimax"]:
        assert len(tab["intervals"]) == 16


@pytest.mark.parametrize("name, range_max, digest", [
    ("TANH_MINIMAX", 4.0, "ea9ac2f96e45268a3693cb471210541305a2ab6bbc668200315f0b2898c478d8"),
    ("GELU_ERF_MINIMAX", 8.0, "e7d5877a53f2868c047d5f268f6bda093d3520a18aef48818e827fa79f9b9584"),
])
def test_minimax_table_bits_are_golden(name, range_max, digest):
    """The FP32 bits of each minimax table, fitted at import from numpy's
    sums and Chebyshev conversion, match a recorded digest: a fit that moves
    fails here by name, not through the outputs that read the table."""
    import hashlib
    t = getattr(approx, name)
    assert t.coeffs.shape == (4, 16)
    bits = np.ascontiguousarray(t.coeffs, "<f4").tobytes()
    assert hashlib.sha256(bits).hexdigest() == digest
    assert (t.range_max, t.saturation) == (range_max, 1.0)


# ---------------------------------------------------------------------------
# the C engines against their numpy reference paths
# ---------------------------------------------------------------------------

def _neighbours(values, ulps: int = 2) -> np.ndarray:
    """Each FP32 value, both signs, and its ``ulps`` nearest FP32 neighbours
    on either side."""
    v = np.asarray(values, np.float32)
    out = [v]
    for direction in (np.inf, -np.inf):
        w = v
        for _ in range(ulps):
            w = np.nextafter(w, np.float32(direction))
            out.append(w)
    a = np.concatenate(out)
    return np.concatenate([a, -a])


def _rint_ties() -> np.ndarray:
    """FP32 inputs whose x * log2(e), rounded to FP32, is k + 1/2 exactly:
    where ``rint`` rounds a tie to even."""
    log2e = approx.EXP_LOG2E.view(np.float32)
    k = np.arange(-126, 127)
    x = _neighbours(((k + 0.5) / float(log2e)).astype(np.float32), ulps=4)
    r = x * log2e
    return x[r - np.floor(r) == np.float32(0.5)]


def _engine_inputs() -> np.ndarray:
    specials = np.array([0x0, 0x80000000, 0x7F800000, 0xFF800000,          # +-0, +-Inf
                         0x7FC00000, 0xFFC00000, 0x7FC12345, 0xFFD54321,   # quiet NaNs
                         0x7F800001, 0xFF800001, 0x7FA00000, 0xFFBFFFFF,   # signalling NaNs
                         0x7FFFFFFF, 0xFFFFFFFF,
                         0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF,   # subnormals
                         0x00400000, 0x80012345], np.uint32).view(np.float32)
    bounds = [approx.TANH_PADE78.clamp, approx.EXP_LO_BAND, approx.EXP_HI_BAND]
    for t in (approx.TANH_MINIMAX, approx.GELU_ERF_MINIMAX):
        bounds += [b for i in range(16) for b in t.interval_bounds(i)] + [t.range_max]
    ties = _rint_ties()
    assert ties.size >= 100
    # |x * log2(e)| at 2^22, 2^23 and 2^24: the edges of exp's rint, which
    # adds and subtracts 1.5 * 2^23
    log2e = float(approx.EXP_LOG2E.view(np.float32))
    rint_edges = _neighbours([2.0 ** k / log2e for k in (22, 23, 24)])
    rng = np.random.default_rng(2024)
    random_bits = rng.integers(0, 2 ** 32, 100_000, dtype=np.uint64).astype(np.uint32)
    return np.concatenate([specials, _neighbours(bounds), ties, rint_edges,
                           random_bits.view(np.float32)])


_ENGINES = {
    "tanh_pade78": approx.tanh_pade78,
    "minimax_tanh": lambda x: approx.minimax_eval(approx.TANH_MINIMAX, x),
    "minimax_gelu_erf": lambda x: approx.minimax_eval(approx.GELU_ERF_MINIMAX, x),
    "exp_taylor": approx.exp_taylor,
    "tanh": approx.tanh,
    "tanh_minimax": lambda x: approx.tanh(x, approx.Approx.MINIMAX16),
    "sigmoid_via_tanh": approx.sigmoid_via_tanh,
    "sigmoid_minimax": lambda x: approx.sigmoid_via_tanh(x, approx.Approx.MINIMAX16),
    "gelu": approx.gelu,
}


def _columns(values: np.ndarray, rows: int) -> np.ndarray:
    """The values as a dense column-major block of ``rows`` rows, the last
    ``values.size % rows`` dropped."""
    n = values.size - values.size % rows
    return np.asfortranarray(values[:n].reshape(rows, -1, order="F"))


def _layouts(values: np.ndarray) -> list[np.ndarray]:
    """The values as a 1-D array, a dense column-major block, a padded-ld
    view (17 of every 24 rows), a tiled column slice, a C-ordered array, a
    broadcast column, and dense blocks with columns of 1 to 9, 16, 31 and
    33 elements, so that each C loop runs both its vector body and its
    scalar tail."""
    dense = _columns(values, 17)
    padded = np.zeros((24, dense.shape[1]), np.float32, order="F")
    padded[:17] = dense
    return [values, dense, padded[:17], dense[3:15, 5:40], np.ascontiguousarray(dense),
            np.broadcast_to(dense[:, :1], (17, 9)),
            *(_columns(values, rows) for rows in (*range(1, 10), 16, 31, 33))]


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_engines_match_the_numpy_path_bitwise(engine, native_backend, monkeypatch):
    """Every FP32 engine gives the numpy path's bits (as uint32, NaN
    payloads included) on special values, range and band edges and their
    neighbours, rint ties and edges, 1e5 random bit patterns, and in every
    layout."""
    f = _ENGINES[engine]
    xs = _layouts(_engine_inputs())
    with np.errstate(all="ignore"):  # the numpy paths meet Inf and NaN
        got = [np.asarray(f(x)) for x in xs]
        with monkeypatch.context() as mp:
            mp.setattr(native, "_lib", False)
            want = [np.asarray(f(x)) for x in xs]
    for x, g, w in zip(xs, got, want):
        assert g.shape == x.shape and g.dtype == np.float32
        assert np.array_equal(g.view(np.uint32), w.view(np.uint32))


def test_elementwise_kernel_calls_reach_the_c_engines(native_backend, monkeypatch):
    """A 16x16 FP32 TANH, GELU and EXP kernel call runs its engine in C on
    a native backend: none of them enters a numpy reference path."""
    x = from_array(np.random.default_rng(5).uniform(-4, 4, (16, 16)).astype(np.float32))
    kinds = (UnaryKind.TANH, UnaryKind.GELU, UnaryKind.EXP)

    def run():
        outs = [alloc(x.desc) for _ in kinds]
        for kind, out in zip(kinds, outs):
            apply_unary(kind, x, out)
        return [to_array(o) for o in outs]

    with monkeypatch.context() as mp:
        mp.setattr(native, "_lib", False)
        want = run()
    entered = []
    for name in ("_tanh_pade78_numpy", "_minimax_numpy", "_exp_taylor_numpy"):
        numpy_path = getattr(approx, name)

        def counted(*args, _name=name, _f=numpy_path):
            entered.append(_name)
            return _f(*args)

        monkeypatch.setattr(approx, name, counted)
    got = run()
    assert all(bits_equal(g, w) for g, w in zip(got, want))
    assert len(entered) == (3 if native_backend == "numpy" else 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f", [lambda x: approx.minimax_eval(approx.TANH_MINIMAX, x),
                               lambda x: approx.minimax_eval(approx.GELU_ERF_MINIMAX, x),
                               approx.gelu], ids=["minimax_tanh", "minimax_gelu_erf", "gelu"])
def test_minimax_and_gelu_are_silent_on_every_backend(f, dtype, native_backend):
    """±Inf, NaN and ±3e38 run silently, on the C engine and on the numpy
    path alike (FP64 always takes the numpy path)."""
    x = np.array([np.inf, -np.inf, np.nan, -np.nan, 3e38, -3e38, 0.5, -2.0], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(f(x))
    assert got.dtype == dtype and np.array_equal(np.isnan(got[2:4]), [True, True])


_GRADS = {"minimax_grad": lambda x: approx.minimax_grad(approx.GELU_ERF_MINIMAX, x),
          "gelu_grad": approx.gelu_grad,
          "gelu_grad_minimax16": lambda x: approx.gelu_grad(x, approx.Approx.MINIMAX16),
          "gelu_grad_exact": lambda x: approx.gelu_grad(x, approx.Approx.EXACT)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad", sorted(_GRADS))
def test_gelu_gradients_are_silent_on_every_backend(grad, dtype, native_backend):
    """±Inf, NaN and ±3e38 run silently through the gradients too."""
    x = np.array([np.inf, -np.inf, np.nan, -np.nan, 3e38, -3e38, 0.5, -2.0], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(_GRADS[grad](x))
    assert got.dtype == dtype and np.array_equal(np.isnan(got[2:4]), [True, True])


def test_gelu_gradient_bits_are_golden(native_backend):
    """The gradients' output bits on FP32 and FP64 specials, huge values
    and ordinary points match a recorded digest on every backend."""
    import hashlib
    vals = [0.0, -0.0, 1e-40, -1e-40, 0.3, -0.3, 1.0, -1.0, 2.5, -2.5, 4.0, -4.0, 7.0, -7.0,
            1e10, -1e10, 3e38, -3e38, np.inf, -np.inf, np.nan]
    h = hashlib.sha256()
    for dtype, extra in ((np.float32, []), (np.float64, [1e300, -1e300])):
        x = np.array(vals + extra, dtype).reshape(1, -1)
        for grad in ("minimax_grad", "gelu_grad", "gelu_grad_exact", "gelu_grad_minimax16"):
            r = np.asarray(_GRADS[grad](x))
            assert r.dtype == dtype
            h.update(r.tobytes())
    assert h.hexdigest() == "c7968e2f9e031c58a5bd001c02f6144d03180e6415ce701e11bb5fa456f82379"
