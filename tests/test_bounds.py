"""Golden values and structural properties of the bound calculators."""

import math

import pytest

from qx2src.bounds import (ParamSet, composed_output_len, ip_bias_bound,
                           knowledge_transfer, one_bit_condition,
                           storage_transfer, strong_output_len,
                           transmission_guess_bound)
from qx2src.errors import ParameterError


# --------------------------------------------------------------------------
# one-bit bias bound


def test_ip_bias_bound_golden():
    p = ParamSet(n=8, k1=8, k2=8)
    assert ip_bias_bound(p, 0, entangled=False) == 2.0 ** (-(8 + 2) / 2)
    assert ip_bias_bound(p, 2, entangled=True) == 2.0 ** -3


def test_ip_bias_bound_clamps_vacuous():
    p = ParamSet(n=8, k1=3, k2=3)  # exponent (3+3-8+2)/2 = 0 -> raw bound 1
    assert ip_bias_bound(p, 0, entangled=False, clamp=False) == 1.0
    assert ip_bias_bound(p, 0, entangled=False) == 0.5


def test_ip_bias_bound_clamps_past_the_float_range():
    # exponents from -1 to 2.5 by halves: the clamp is min(2^-exponent, 1/2)
    for k in range(1, 9):
        p = ParamSet(n=8, k1=k, k2=3)
        raw = ip_bias_bound(p, 0, entangled=False, clamp=False)
        assert ip_bias_bound(p, 0, entangled=False) == min(raw, 0.5)
    huge = ParamSet(n=10 ** 20, k1=5, k2=5)
    assert ip_bias_bound(huge, 0, entangled=True) == 0.5
    with pytest.raises(OverflowError):
        ip_bias_bound(huge, 0, entangled=True, clamp=False)


def test_one_bit_condition_golden():
    p = ParamSet(n=100, k1=80, k2=80, b1=20, b2=20, eps=2.0 ** -11)
    rep = one_bit_condition(p, "weak-min", entangled=True)
    assert rep.satisfied
    assert rep.slack == 0  # 160 - 40 = 120 equals 98 + 22 exactly
    assert rep.value == 2.0 ** -11
    tighter = ParamSet(n=100, k1=80, k2=80, b1=20, b2=20, eps=2.0 ** -12)
    assert not one_bit_condition(tighter, "weak-min", entangled=True).satisfied


def test_one_bit_condition_zero_storage_coincidence():
    p = ParamSet(n=20, k1=15, k2=14, eps=2.0 ** -3)
    ent = one_bit_condition(p, "weak-min", entangled=True)
    non = one_bit_condition(p, "weak-min", entangled=False)
    assert ent.slack == non.slack and ent.value == non.value


def test_one_bit_min_max_coincide_on_equal_budgets():
    p = ParamSet(n=30, k1=20, k2=22, b1=4, b2=4, eps=2.0 ** -2)
    weak = one_bit_condition(p, "weak-min", entangled=False)
    sup = one_bit_condition(p, "superstrong-max", entangled=False)
    assert weak.slack == sup.slack


def test_one_bit_consistency_with_bias_bound():
    # condition satisfied exactly when the bias bound is within eps
    for k in range(4, 9):
        for b in range(0, 3):
            for log_eps in range(1, 8):
                p = ParamSet(n=8, k1=k, k2=k, b1=b, b2=b, eps=2.0 ** -log_eps)
                rep = one_bit_condition(p, "weak-min", entangled=False)
                bias = ip_bias_bound(p, b, entangled=False, clamp=False)
                assert rep.satisfied == (bias <= p.eps)


def test_transmission_guess_bound_golden():
    assert transmission_guess_bound(8, 2, entangled=False) == 2.0 ** -6
    assert transmission_guess_bound(8, 2, entangled=True) == 2.0 ** -4
    assert transmission_guess_bound(3, 5, entangled=False) == 1.0


# --------------------------------------------------------------------------
# strong multi-bit output length


def test_strong_output_len_golden():
    p = ParamSet(n=100, k1=100, k2=100, b1=0, b2=0, eps=2.0 ** -10)
    assert strong_output_len(p, "X", entangled=True) == 41
    assert strong_output_len(p, "X", entangled=False, knowledge=True) == 7


def test_strong_output_len_opposite_budget():
    p = ParamSet(n=100, k1=100, k2=100, b1=20, b2=0, eps=2.0 ** -10)
    # X-side only pays for the y-side budget and vice versa
    assert strong_output_len(p, "X", entangled=True) == 41
    assert strong_output_len(p, "Y", entangled=True) == (200 - 40 - 100 + 2 - 20) // 2
    clipped = ParamSet(n=100, k1=100, k2=100, b1=50, b2=0, eps=2.0 ** -10)
    assert strong_output_len(clipped, "Y", entangled=True) == 0


def test_strong_output_len_infeasible():
    p = ParamSet(n=100, k1=30, k2=30, eps=2.0 ** -10)
    assert strong_output_len(p, "X", entangled=False) == 0


def test_strong_output_len_monotone_in_entropy():
    prev = -1
    for k in range(50, 101, 10):
        p = ParamSet(n=100, k1=k, k2=k, eps=2.0 ** -5)
        m = strong_output_len(p, "X", entangled=False)
        assert m >= prev
        prev = m


# --------------------------------------------------------------------------
# composed output length


def _params(**kw):
    base = dict(n=1024, k1=1024, k2=1024, b1=0, b2=0, eps=2.0 ** -20,
                c_poly=0.001, c_o1=0.0)
    base.update(kw)
    return ParamSet(**base)


def test_composed_storage_free_golden():
    # with no storage: m = (n - 2L)/2 + n - 8 log n - 8L - c_o1
    p = _params()
    rep = composed_output_len(p, "storage")
    assert rep.satisfied
    expected = 0.5 * (1024 - 40) + 1024 - 8 * 10 - 8 * 20
    assert rep.value == math.floor(expected)


def test_composed_entangled_equals_storage_without_budgets():
    p = _params()
    assert (composed_output_len(p, "entangled").value
            == composed_output_len(p, "storage").value)


def test_composed_infeasible_is_report_not_error():
    p = ParamSet(n=1024, k1=400, k2=400, eps=2.0 ** -20, c_poly=0.001)
    rep = composed_output_len(p, "storage")
    assert not rep.satisfied
    assert rep.value == 0
    assert rep.slack < 0


def test_composed_picks_better_side():
    p = _params(k1=600, k2=1024, b1=0, b2=0)
    rep = composed_output_len(p, "storage")
    assert rep.side == "Y"


def test_composed_crossover_near_one_nineteenth():
    # the classical-reduction route wins for small opposite-side storage and
    # loses once b2 grows to roughly k2/19
    k2 = 512
    p0 = _params(k1=1024, k2=k2)
    crossings = []
    prev_sign = None
    for b2 in range(0, 80):
        p = _params(k1=1024, k2=k2, b2=b2, b1=0)
        cla = composed_output_len(p, "classical-reduction")
        sto = composed_output_len(p, "storage")
        assert cla.satisfied and sto.satisfied
        sign = cla.value > sto.value
        if prev_sign is not None and sign != prev_sign:
            crossings.append(b2)
        prev_sign = sign
    assert len(crossings) == 1
    ratio = crossings[0] / k2
    assert 1 / 30 <= ratio <= 1 / 12  # consistent with b2 ~ k2/19


def test_composed_unknown_setting():
    with pytest.raises(ParameterError):
        composed_output_len(_params(), "nope")


# --------------------------------------------------------------------------
# parameter transfers


def test_storage_transfer_golden():
    got = storage_transfer(40, 40, 0, 2.0 ** -8)
    assert (got.k1, got.k2, got.eps) == (40, 48, 4 * 2.0 ** -8)
    got = storage_transfer(40, 40, 3, 2.0 ** -20)
    assert got.eps == 2.0 ** -9
    assert got.k2 == 40 + 3 + 20


def test_storage_transfer_vacuous_flag():
    got = storage_transfer(10, 10, 2, 1.0)
    assert got.vacuous
    assert got.eps == 4 * 2.0 ** 6
    assert got.k2 == 12


def test_knowledge_transfer_golden():
    weak = knowledge_transfer(30, 30, 2.0 ** -8, "weak")
    assert weak.k1 == 38 and weak.k2 == 38
    assert abs(weak.eps - math.sqrt(3 * 2.0 ** -8 / 2)) <= 1e-15
    strong = knowledge_transfer(30, 30, 2.0 ** -8, "x-strong")
    assert strong.k1 == 30 and strong.k2 == 38
    assert strong.eps == 2.0 ** -4


def test_knowledge_transfer_vanishes_with_eps():
    prev = 1.0
    for log_eps in range(2, 40, 4):
        got = knowledge_transfer(30, 30, 2.0 ** -log_eps, "weak")
        assert got.eps < prev
        prev = got.eps
    assert prev < 1e-5


# --------------------------------------------------------------------------
# structural properties


def test_bias_bound_monotonicity():
    for entangled in (False, True):
        prev = math.inf
        for k in range(2, 9):
            p = ParamSet(n=8, k1=k, k2=k)
            val = ip_bias_bound(p, 1, entangled, clamp=False)
            assert val <= prev
            prev = val
        grow = [ip_bias_bound(ParamSet(n=8, k1=8, k2=8), b, entangled, clamp=False)
                for b in range(0, 4)]
        assert grow == sorted(grow)


def test_param_set_validation():
    with pytest.raises(ParameterError):
        ParamSet(n=4, k1=5, k2=4)
    with pytest.raises(ParameterError):
        ParamSet(n=4, k1=4, k2=4, eps=0.7)
    with pytest.raises(ParameterError):
        ParamSet(n=4, k1=4, k2=4, m=0)
