import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_ppo.schedule import (MomentumCycle, OptionError, SchedulePolicy, bounds_at_cycle,
                                 check_cycling, cycle_index, lr_at, momentum_at,
                                 schedule_values)

GENERAL = SchedulePolicy.triangular(1e-4, 1e-2, 2000)


def test_cycle_index_first_cycle():
    assert cycle_index(0, 2000) == 0


def test_cycle_index_boundary():
    assert cycle_index(3999, 2000) == 0
    assert cycle_index(4000, 2000) == 1


def test_cycle_index_direct_evaluation():
    # floor(10000 / (2 * 2000))
    assert cycle_index(10000, 2000) == 2


def test_cycle_index_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cycle_index(-1, 2000)
    with pytest.raises(ValueError):
        cycle_index(0, 0)
    with pytest.raises(ValueError, match="k_cycle must be non-negative"):
        bounds_at_cycle(SchedulePolicy.exp_range(1e-4, 1e-2, 4, 0.5), -1)


def test_bounds_exp_range_cycle_zero():
    policy = SchedulePolicy.exp_range(1e-4, 1e-3, 2000, 0.99)
    assert bounds_at_cycle(policy, 0) == (1e-4, 1e-3)


def test_bounds_exp_range_one_decay():
    policy = SchedulePolicy.exp_range(1e-4, 1e-3, 2000, 0.99)
    # each bound multiplied by the decay exactly once
    assert bounds_at_cycle(policy, 1) == (1e-4 * 0.99, 1e-3 * 0.99)


def test_bounds_triangular_fixed():
    for k in (0, 1, 7, 100):
        assert bounds_at_cycle(GENERAL, k) == (1e-4, 1e-2)


def test_constant_is_the_wave_with_equal_bounds():
    policy = SchedulePolicy.constant(1e-3)
    for k in (0, 1, 7, 100):
        assert bounds_at_cycle(policy, k) == (1e-3, 1e-3)
    for step in (0, 1, 2, 3, 12345):
        assert lr_at(policy, step) == 1e-3


def test_bounds_decay_is_exactly_multiplicative():
    policy = SchedulePolicy.exp_range(1e-4, 1e-2, 2000, 0.99)
    for k in range(1, 101):
        lo_prev, hi_prev = bounds_at_cycle(policy, k - 1)
        assert bounds_at_cycle(policy, k) == (lo_prev * 0.99, hi_prev * 0.99)


def test_lr_constant():
    assert lr_at(SchedulePolicy.constant(1e-3), 0) == 1e-3
    assert lr_at(SchedulePolicy.constant(1e-3), 12345) == 1e-3


def test_lr_triangular_key_steps():
    midpoint = 1e-4 + (1e-2 - 1e-4) * 0.5
    assert lr_at(GENERAL, 0) == 1e-4
    assert lr_at(GENERAL, 1000) == midpoint
    assert lr_at(GENERAL, 2000) == 1e-2
    assert lr_at(GENERAL, 3000) == midpoint
    assert lr_at(GENERAL, 4000) == 1e-4
    assert midpoint == pytest.approx(5.05e-3)


def test_lr_rejects_negative_step():
    with pytest.raises(ValueError):
        lr_at(GENERAL, -1)


def test_momentum_endpoints():
    cycle = MomentumCycle()
    assert momentum_at(GENERAL, cycle, 0) == 1.0
    assert momentum_at(GENERAL, cycle, 2000) == 0.8
    assert momentum_at(GENERAL, cycle, 1000) == pytest.approx(0.9, rel=1e-12)


def test_momentum_rejects_constant_policy():
    with pytest.raises(ValueError):
        momentum_at(SchedulePolicy.constant(1e-3), MomentumCycle(), 0)


def test_momentum_rejects_degenerate_bounds():
    flat = SchedulePolicy.triangular(1e-3, 1e-3, 100)
    with pytest.raises(ValueError):
        momentum_at(flat, MomentumCycle(), 0)
    for updates in (0, 1, 100):
        with pytest.raises(ValueError) as err:
            check_cycling(flat, updates)
        assert str(err.value) == ("momentum cycling needs a cyclical schedule with "
                                  "lr_min < lr_max")


@pytest.mark.parametrize("stepsize, decay", [(1, 1e-300), (3, 1e-300), (2, 1e-100), (1, 0.5)])
def test_check_cycling_passes_exactly_the_runs_whose_momentum_is_defined(stepsize, decay):
    """A run of n updates passes iff ``momentum_at`` is defined at every update below n, and
    the message names the first update where it is not."""
    policy = SchedulePolicy.exp_range(1e-4, 1e-2, stepsize, decay)
    first = 0
    while first < 10_000:
        try:
            momentum_at(policy, MomentumCycle(), first)
        except ValueError:
            break
        first += 1
    for updates in (0, 1, first, first + 1, first + 2 * stepsize):
        if updates <= first:
            check_cycling(policy, updates)
        else:
            with pytest.raises(ValueError) as err:
                check_cycling(policy, updates)
            assert str(err.value) == (f"momentum cycling needs lr_min < lr_max in every cycle, "
                                      f"but with decay {decay:g} they are equal from "
                                      f"update {first}")


def test_triangular_check_does_not_grow_with_the_run():
    check_cycling(SchedulePolicy.triangular(1e-4, 1e-2, 1), 10**12)


def _formula_values(policy, cycle, n):
    """``(lr, momentum)`` for updates ``0..n-1`` from the waveform's formulas: bounds by
    repeated multiplication from cycle 0, the clamped triangle, and momentum linear in the
    LR. The momentum is None without ``cycle`` and where the bounds are equal."""
    s, lo, hi = policy.stepsize, policy.eta_min_0, policy.eta_max_0
    values = []
    for step in range(n):
        if step > 0 and step % (2 * s) == 0:
            lo, hi = lo * policy.decay, hi * policy.decay
        p = (step % (2 * s)) / s
        frac = p if p <= 1.0 else 2.0 - p
        lr = min(max(lo + (hi - lo) * frac, lo), hi)
        if cycle is None or lo == hi:
            values.append((lr, None))
        else:
            frac = (lr - lo) / (hi - lo)
            values.append((lr, cycle.m_max - (cycle.m_max - cycle.m_min) * frac))
    return values


def _first_equal_cycle(policy):
    """The first cycle whose bounds, multiplied down from cycle 0, are equal; None at decay 1."""
    if policy.decay == 1.0:
        return None
    lo, hi, k = policy.eta_min_0, policy.eta_max_0, 0
    while lo != hi:
        lo, hi, k = lo * policy.decay, hi * policy.decay, k + 1
    return k


@pytest.mark.parametrize("stepsize", [1, 2, 7])
@pytest.mark.parametrize("decay", [1.0, 0.99, 0.5, 1e-3, 1e-300])
def test_schedule_values_match_the_formulas_bit_for_bit(decay, stepsize):
    """Without a cycle the stream equals the formulas exactly until two cycles past the one
    where the decayed bounds meet; with a cycle it does until that cycle, and there raises,
    naming the cycle's first update. Each window equals the slice of the whole stream.

    Bounds near the bottom of the normal range meet within 5,500 cycles even at decay 0.99
    (bounds of 1e-4 and 1e-2 take 73,000), so the runs stay short.
    """
    policy = SchedulePolicy.exp_range(1e-300, 1e-298, stepsize, decay)
    cycle = MomentumCycle(0.85, 0.95)
    period = 2 * stepsize
    met = _first_equal_cycle(policy)
    last = met if met is not None else 3
    n = (last + 2) * period
    plain = list(schedule_values(policy, None, 0, n))
    assert plain == _formula_values(policy, None, n)
    met_at = n if met is None else met * period
    cycled = list(schedule_values(policy, cycle, 0, met_at))
    assert cycled == _formula_values(policy, cycle, met_at)
    assert all(m is not None for _, m in cycled)

    starts = {k * period + d for k in (0, 1, last - 1, last, last + 1)
              for d in (0, 1, stepsize, period - 1)}
    for a in sorted(starts):
        for b in {a, a + 1, a + stepsize + 1, a + period + 1}:
            b = min(b, n)
            assert list(schedule_values(policy, None, a, b)) == plain[a:b]
            if b <= max(a, met_at):
                assert list(schedule_values(policy, cycle, a, b)) == cycled[a:b]
            else:
                first = max(met_at, a - a % period)
                with pytest.raises(ValueError, match=f"they are equal from update {first}$"):
                    list(schedule_values(policy, cycle, a, b))


def test_policy_validation():
    with pytest.raises(ValueError):
        SchedulePolicy.triangular(1e-2, 1e-4, 100)  # min > max
    with pytest.raises(ValueError):
        SchedulePolicy.triangular(0.0, 1e-2, 100)
    with pytest.raises(ValueError):
        SchedulePolicy.triangular(1e-4, 1e-2, 0)
    with pytest.raises(ValueError):
        SchedulePolicy.exp_range(1e-4, 1e-2, 100, 0.0)
    with pytest.raises(ValueError):
        SchedulePolicy.exp_range(1e-4, 1e-2, 100, 1.5)
    with pytest.raises(ValueError):
        SchedulePolicy.constant(0.0)
    with pytest.raises(ValueError):
        SchedulePolicy(kind="cosine")
    with pytest.raises(ValueError):
        MomentumCycle(m_min=0.9, m_max=0.8)


@pytest.mark.parametrize("make, option", [
    (lambda: SchedulePolicy.constant(math.inf), "lr"),
    (lambda: SchedulePolicy.triangular(1e-3, math.inf, 4), "lr_max"),
    (lambda: SchedulePolicy.triangular(math.inf, math.inf, 4), "lr_max"),
    (lambda: SchedulePolicy.exp_range(1e-3, math.nan, 4, 0.9), "lr_max"),
], ids=["constant", "triangular", "triangular_both", "exp_range_nan"])
def test_policy_rejects_a_non_finite_upper_bound_at_its_option(make, option):
    with pytest.raises(OptionError) as err:
        make()
    assert (err.value.option, err.value.reason) == (option, "must be finite")


# ---------------------------------------------------------------------------
# invariants

bounds_strategy = st.tuples(
    st.floats(min_value=1e-5, max_value=1e-1),
    st.floats(min_value=1.5, max_value=100.0),  # hi = lo * ratio keeps bounds apart
    st.integers(min_value=1, max_value=64),
)


@given(bounds_strategy, st.integers(min_value=0, max_value=2000))
@settings(max_examples=200)
def test_lr_within_cycle_bounds_exact(params, step):
    lo, ratio, stepsize = params
    policy = SchedulePolicy.triangular(lo, lo * ratio, stepsize)
    low, high = bounds_at_cycle(policy, cycle_index(step, stepsize))
    assert low <= lr_at(policy, step) <= high


@given(bounds_strategy, st.integers(min_value=0, max_value=2000))
@settings(max_examples=200)
def test_triangular_periodicity_exact(params, step):
    lo, ratio, stepsize = params
    policy = SchedulePolicy.triangular(lo, lo * ratio, stepsize)
    assert lr_at(policy, step) == lr_at(policy, step + 2 * stepsize)


@given(bounds_strategy, st.floats(min_value=0.5, max_value=1.0),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=200)
def test_exp_range_is_scaled_triangular(params, decay, step):
    lo, ratio, stepsize = params
    tri = SchedulePolicy.triangular(lo, lo * ratio, stepsize)
    exp = SchedulePolicy.exp_range(lo, lo * ratio, stepsize, decay)
    scale = decay ** cycle_index(step, stepsize)
    assert lr_at(exp, step) == pytest.approx(scale * lr_at(tri, step), rel=1e-14)


@given(bounds_strategy, st.integers(min_value=0, max_value=500))
@settings(max_examples=200)
def test_exp_range_with_decay_one_is_triangular_bit_for_bit(params, step):
    lo, ratio, stepsize = params
    tri = SchedulePolicy.triangular(lo, lo * ratio, stepsize)
    exp = SchedulePolicy.exp_range(lo, lo * ratio, stepsize, 1.0)
    assert lr_at(exp, step) == lr_at(tri, step)
    k = cycle_index(step, stepsize)
    assert bounds_at_cycle(exp, k) == bounds_at_cycle(tri, k)


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       st.integers(min_value=0, max_value=10**12))
@settings(max_examples=200)
def test_constant_lr_is_its_rate_at_every_step(eta, step):
    assert lr_at(SchedulePolicy.constant(eta), step) == eta


def test_piecewise_linearity_dyadic_exact():
    # with dyadic bounds and a power-of-two stepsize every value is exact,
    # so second differences within a leg vanish identically
    policy = SchedulePolicy.triangular(0.25, 0.75, 8)
    values = [lr_at(policy, s) for s in range(33)]
    kink_steps = {8, 16, 24, 32}
    for i in range(31):
        if {i, i + 1, i + 2} & kink_steps:
            continue
        assert values[i + 2] - 2 * values[i + 1] + values[i] == 0.0


def test_piecewise_linearity_general_within_ulp():
    values = [lr_at(GENERAL, s) for s in range(4001)]
    kink_steps = {2000, 4000}
    ulp = math.ulp(1e-2)
    for i in range(3999):
        if {i, i + 1, i + 2} & kink_steps:
            continue
        assert abs(values[i + 2] - 2 * values[i + 1] + values[i]) <= 4 * ulp


def test_lr_peak_and_momentum_trough_coincide():
    cycle = MomentumCycle()
    for policy in (GENERAL, SchedulePolicy.exp_range(1e-4, 1e-2, 50, 0.99)):
        s = policy.stepsize
        for k in range(3):
            steps = range(k * 2 * s, (k + 1) * 2 * s)
            lrs = {step: lr_at(policy, step) for step in steps}
            moms = {step: momentum_at(policy, cycle, step) for step in steps}
            lr_max, lr_min = max(lrs.values()), min(lrs.values())
            m_max, m_min = max(moms.values()), min(moms.values())
            lr_peak = {step for step, v in lrs.items() if v == lr_max}
            m_trough = {step for step, v in moms.items() if v == m_min}
            assert lr_peak == m_trough == {k * 2 * s + s}
            lr_trough = {step for step, v in lrs.items() if v == lr_min}
            m_peak = {step for step, v in moms.items() if v == m_max}
            assert lr_trough == m_peak == {k * 2 * s}


def test_schedule_functions_are_pure():
    cycle = MomentumCycle()
    assert lr_at(GENERAL, 777) == lr_at(GENERAL, 777)
    assert momentum_at(GENERAL, cycle, 777) == momentum_at(GENERAL, cycle, 777)
