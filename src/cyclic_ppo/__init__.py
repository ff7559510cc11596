"""Cyclical learning-rate schedules with counter-cycled momentum, applied to
a from-scratch clipped-PPO trainer on natively implemented control tasks."""

from .envs import CartPole, ChainEnv, ChainMdp, Pendulum, Transition, make_env
from .harness import (Arm, ExperimentConfig, default_ppo_config, load_config, lr_find,
                      paper_general_config, run_experiment)
from .nn import Mlp, Policy, backward, forward
from .optimize import AdamState, SgdMomentumState, adam_step, clip_global_norm, sgd_momentum_step
from .plots import emit_plot
from .ppo import DivergenceError, PpoConfig, RolloutBuffer, compute_gae, ppo_update, train
from .runlog import LogRow, LrFindResult, RunLog, read_runlog, write_runlog
from .schedule import MomentumCycle, SchedulePolicy, bounds_at_cycle, cycle_index, lr_at, momentum_at

__version__ = "0.1.0"
