"""Exact trajectory probabilities on a tabular MDP, independent of the trainer."""
import numpy as np

from cyclic_ppo.envs import ChainMdp


def trajectory_probability(mdp: ChainMdp, policy: np.ndarray,
                           states, actions) -> float:
    """Probability of a trajectory under the MDP dynamics and a tabular policy.

    The trajectory is ``states[0], actions[0], states[1], ..., states[-1]``;
    ``policy[s, a]`` gives the action probabilities per state. Returns the
    product of the initial-state probability with every transition and
    action probability along the trajectory.
    """
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"policy must have shape {(mdp.n_states, mdp.n_actions)}")
    if np.any(np.abs(policy.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("policy rows must sum to 1")
    states = [int(s) for s in states]
    actions = [int(a) for a in actions]
    if len(states) != len(actions) + 1:
        raise ValueError("need exactly one more state than actions")
    if not all(0 <= s < mdp.n_states for s in states):
        raise ValueError("state index out of range")
    if not all(0 <= a < mdp.n_actions for a in actions):
        raise ValueError("action index out of range")

    prob = float(mdp.initial_dist[states[0]])
    for t, a in enumerate(actions):
        s, s_next = states[t], states[t + 1]
        prob *= float(policy[s, a]) * float(mdp.transitions[s, a, s_next])
    return prob
