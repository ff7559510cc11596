"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion. The training criteria (6, 7) take a few minutes of CPU.
"""
import itertools
import math

import numpy as np
import pytest
from gradcheck import central_diff, max_rel_err, mlp_grad
from trajectory_oracle import trajectory_probability

from cyclic_ppo.envs import ChainMdp
from cyclic_ppo.harness import default_ppo_config, lr_find
from cyclic_ppo.nn import (categorical_log_probs, flatten_mlp, flatten_policy, forward,
                           gaussian_log_probs, mlp_init, policy_init, unflatten_mlp,
                           unflatten_policy, value_init)
from cyclic_ppo.ppo import (Gradients, RolloutBuffer, compute_gae, ppo_loss_and_grads, train)
from cyclic_ppo.runlog import dump_runlog
from cyclic_ppo.schedule import (MomentumCycle, SchedulePolicy, bounds_at_cycle,
                                 cycle_index, lr_at, momentum_at)

ETA_MIN, ETA_MAX, STEPSIZE, DECAY, FIXED_LR = 1e-4, 1e-2, 2000, 0.99, 1e-3
TRIANGULAR = SchedulePolicy.triangular(ETA_MIN, ETA_MAX, STEPSIZE)
EXP_RANGE = SchedulePolicy.exp_range(ETA_MIN, ETA_MAX, STEPSIZE, DECAY)
SEEDS = (1, 2, 3)
SOLVE_THRESHOLD = 195.0
SOLVE_WINDOW = 100


def _report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


def first_solved_step(log, threshold=SOLVE_THRESHOLD, window=SOLVE_WINDOW):
    """env_step at which the trailing-`window`-episode mean first reaches threshold."""
    episodes = log.episode_rewards()
    rewards = [r for _, r in episodes]
    for i in range(window - 1, len(rewards)):
        if sum(rewards[i - window + 1:i + 1]) / window >= threshold:
            return episodes[i][0]
    return None


def test_criterion_1_schedule_exactness():
    midpoint = ETA_MIN + (ETA_MAX - ETA_MIN) * 0.5  # the defining interpolation
    expected = [ETA_MIN, midpoint, ETA_MAX, midpoint, ETA_MIN]
    got = [lr_at(TRIANGULAR, step) for step in (0, 1000, 2000, 3000, 4000)]
    assert got == expected
    assert midpoint == pytest.approx(5.05e-3, abs=1e-17)
    _report(1, "triangular lr at steps 0/1000/2000/3000/4000 is exact")


def test_criterion_2_exp_range_envelope():
    # per-cycle decay: each cycle's bounds are exactly the previous times 0.99
    for k in range(1, 101):
        lo_prev, hi_prev = bounds_at_cycle(EXP_RANGE, k - 1)
        lo, hi = bounds_at_cycle(EXP_RANGE, k)
        assert (lo, hi) == (lo_prev * DECAY, hi_prev * DECAY)
        # the quotient itself reproduces the decay to the last ulp
        assert lo / lo_prev == pytest.approx(DECAY, rel=5e-16)
        assert hi / hi_prev == pytest.approx(DECAY, rel=5e-16)
    # scaled-waveform identity across 10 full cycles
    for step in range(10 * 2 * STEPSIZE):
        scale = DECAY ** cycle_index(step, STEPSIZE)
        assert lr_at(EXP_RANGE, step) == pytest.approx(
            scale * lr_at(TRIANGULAR, step), rel=1e-15)
    _report(2, "exp_range bounds decay exactly per cycle; waveform is the "
               "decay-scaled triangular waveform within 1e-15 relative")


def test_criterion_3_momentum_anti_cycling():
    cycle = MomentumCycle(m_min=0.8, m_max=1.0)
    for policy in (TRIANGULAR, EXP_RANGE):
        s = policy.stepsize
        for k in range(3):
            steps = range(k * 2 * s, (k + 1) * 2 * s)
            lrs = {step: lr_at(policy, step) for step in steps}
            moms = {step: momentum_at(policy, cycle, step) for step in steps}
            lr_max, lr_min = max(lrs.values()), min(lrs.values())
            mom_max, mom_min = max(moms.values()), min(moms.values())
            lr_max_steps = {st for st, v in lrs.items() if v == lr_max}
            mom_min_steps = {st for st, v in moms.items() if v == mom_min}
            assert lr_max_steps == mom_min_steps
            lr_min_steps = {st for st, v in lrs.items() if v == lr_min}
            mom_max_steps = {st for st, v in moms.items() if v == mom_max}
            assert lr_min_steps == mom_max_steps
            assert moms[k * 2 * s] == 1.0
            assert moms[k * 2 * s + s] == 0.8
    _report(3, "lr-peak and momentum-trough step sets coincide over 3 cycles; "
               "momentum endpoints are exactly 1.0 and 0.8")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(2024)
    cases = 0

    # plain networks: random shapes up to 3 hidden layers of width <= 16
    for _ in range(60):
        depth = int(rng.integers(0, 4))
        sizes = (int(rng.integers(2, 9)),
                 *(int(rng.integers(2, 17)) for _ in range(depth)),
                 int(rng.integers(1, 5)))
        net = mlp_init(sizes, rng)
        x = rng.standard_normal((int(rng.integers(1, 5)), sizes[0]))
        upstream = rng.standard_normal((x.shape[0], sizes[-1]))
        analytic = mlp_grad(net, x, upstream)

        def net_scalar(vec, net=net, x=x, upstream=upstream):
            return float((forward(unflatten_mlp(net, vec), x) * upstream).sum())

        numeric = central_diff(net_scalar, flatten_mlp(net), h=1e-5)
        assert max_rel_err(analytic, numeric) < 1e-4
        cases += 1

    # composite PPO loss, both action distributions
    for discrete in (True, False):
        for trial in range(20):
            seed = 1000 + trial + (0 if discrete else 500)
            case_rng = np.random.default_rng(seed)
            obs_dim, act_dim, n = 4, 2, 8
            policy = policy_init(obs_dim, act_dim, discrete, case_rng, hidden=(16, 16))
            value_net = value_init(obs_dim, case_rng, hidden=(16, 16))
            obs = case_rng.standard_normal((n, obs_dim))
            head = forward(policy.mlp, obs)
            if discrete:
                actions = case_rng.integers(0, act_dim, size=n)
                log_probs = categorical_log_probs(head, actions)
            else:
                actions = head + np.exp(policy.log_std) * case_rng.standard_normal(
                    (n, act_dim))
                log_probs = gaussian_log_probs(head, policy.log_std, actions)
            while True:  # keep every ratio clear of the clip kinks
                shift = case_rng.uniform(-0.25, 0.25, n)
                ratios = np.exp(shift)
                if (np.all(np.abs(ratios - 0.8) > 0.02)
                        and np.all(np.abs(ratios - 1.2) > 0.02)):
                    break
            old_log_probs = log_probs - shift
            advantages = case_rng.standard_normal(n)
            returns = case_rng.standard_normal(n)

            grads = Gradients.like(policy, value_net)
            ppo_loss_and_grads(policy, value_net, obs, actions, old_log_probs, advantages,
                               returns, 0.2, 0.5, 0.01, grads)
            n_pol = policy.n_params

            def loss_of(vec):
                pol = unflatten_policy(policy, vec[:n_pol])
                val = unflatten_mlp(value_net, vec[n_pol:])
                return ppo_loss_and_grads(pol, val, obs, actions, old_log_probs,
                                          advantages, returns, 0.2, 0.5, 0.01,
                                          Gradients.like(pol, val))[0]

            vec = np.concatenate([flatten_policy(policy), flatten_mlp(value_net)])
            numeric = central_diff(loss_of, vec, h=1e-5)
            assert max_rel_err(grads.vec, numeric) < 1e-4
            cases += 1

    assert cases >= 100
    _report(4, f"analytic gradients match central differences (h=1e-5) within "
               f"1e-4 relative over {cases} randomized cases")


def _gae_bruteforce(rewards, values, dones, gamma, lam, bootstrap):
    t_len = len(rewards)
    next_values = np.append(values[1:], bootstrap)
    deltas = rewards + gamma * next_values * (1 - dones) - values
    adv = np.zeros(t_len)
    for t in range(t_len):
        factor, total = 1.0, 0.0
        for l in range(t, t_len):
            if l > t:
                factor *= gamma * lam * (1 - dones[l - 1])
                if factor == 0.0:
                    break
            total += factor * deltas[l]
        adv[t] = total
    return adv


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(55)
    for t_len in range(1, 17):
        for _ in range(5):
            rewards = rng.standard_normal(t_len)
            values = rng.standard_normal(t_len)
            dones = (rng.random(t_len) < 0.3).astype(float)
            bootstrap = float(rng.standard_normal())
            gamma = float(rng.uniform(0.8, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            buf = RolloutBuffer(obs=np.zeros((t_len, 1, 1)),
                                actions=np.zeros((t_len, 1), dtype=int),
                                rewards=rewards[:, None], values=values[:, None],
                                log_probs=np.zeros((t_len, 1)), dones=dones[:, None])
            adv, _ = compute_gae(buf, gamma, lam, bootstrap)
            brute = _gae_bruteforce(rewards, values, dones, gamma, lam, bootstrap)
            assert np.max(np.abs(adv[:, 0] - brute)) < 1e-10

    for n_states, n_actions, horizon in itertools.product((2, 3), (1, 2), (2, 3, 4)):
        mdp_rng = np.random.default_rng(n_states * 100 + n_actions * 10 + horizon)
        p = mdp_rng.random((n_states, n_actions, n_states))
        p /= p.sum(axis=2, keepdims=True)
        rho = mdp_rng.random(n_states)
        rho /= rho.sum()
        mdp = ChainMdp(transitions=p, rewards=mdp_rng.random((n_states, n_actions)),
                       initial_dist=rho, horizon=horizon)
        policy = mdp_rng.random((n_states, n_actions))
        policy /= policy.sum(axis=1, keepdims=True)
        total = sum(
            trajectory_probability(mdp, policy, list(states), list(actions))
            for states in itertools.product(range(n_states), repeat=horizon + 1)
            for actions in itertools.product(range(n_actions), repeat=horizon))
        assert abs(total - 1.0) < 1e-10
    _report(5, "GAE matches brute-force expansion (len <= 16, 1e-10); trajectory "
               "probabilities sum to 1 over exhaustive enumeration (1e-10)")


def test_criterion_6_cartpole_fixed_lr():
    config = default_ppo_config("cartpole")
    solves = {}
    for seed in SEEDS:
        log = train("cartpole", SchedulePolicy.constant(FIXED_LR),
                    None, config, seed=seed, total_steps=200_000)
        solves[seed] = first_solved_step(log)
        print(f"  fixed lr={FIXED_LR} seed {seed}: "
              f"solved at {solves[seed]} (diverged={log.diverged})")
    solved = [s for s in solves.values() if s is not None and s <= 200_000]
    assert len(solved) >= 2, f"solved on {len(solved)}/3 seeds: {solves}"
    _report(6, f"fixed lr 0.001 reaches trailing-100 mean >= 195 within 200k steps "
               f"on {len(solved)}/3 seeds")


def test_criterion_7_cartpole_cyclical_untuned():
    config = default_ppo_config("cartpole")
    cycle = MomentumCycle(m_min=0.8, m_max=1.0)
    solves = {}
    for seed in SEEDS:
        log = train("cartpole", TRIANGULAR, cycle, config, seed=seed,
                    total_steps=400_000)
        solves[seed] = first_solved_step(log)
        print(f"  triangular general seed {seed}: "
              f"solved at {solves[seed]} (diverged={log.diverged})")
    solved = [s for s in solves.values() if s is not None and s <= 400_000]
    assert len(solved) >= 2, f"solved on {len(solved)}/3 seeds: {solves}"
    _report(7, f"untuned triangular cycling reaches trailing-100 mean >= 195 within "
               f"400k steps on {len(solved)}/3 seeds")


def test_criterion_8_high_lr_divergence():
    result = lr_find("cartpole", 1e-5, 1e-1, 200, seed=0)
    assert result.diverged, "sweep to lr=0.1 must trip the divergence flag"
    assert len(result.points) < 200  # terminated early
    _report(8, f"lr sweep toward 0.1 tripped the divergence flag after "
               f"{len(result.points)} updates (lr {result.points[-1][0]:.4f})")


def test_criterion_9_determinism():
    config = default_ppo_config("cartpole")
    cycle = MomentumCycle(m_min=0.8, m_max=1.0)
    dumps = [dump_runlog(train("cartpole", TRIANGULAR, cycle, config, seed=11,
                               total_steps=16_384)) for _ in range(2)]
    assert dumps[0].encode() == dumps[1].encode()
    _report(9, "two identical (config, seed) runs emit byte-identical run logs")
