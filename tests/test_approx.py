import json
import math

import numpy as np

from tensorprim import approx

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
