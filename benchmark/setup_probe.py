"""Time ``train()``'s set-up in a fresh process: import, envs, agent, rollout worker.

Started by ``run.py`` once per probe. Only the standard library is imported
before the clock starts, so the import of ``cyclic_ppo`` (numpy included)
is part of the figure. The reference loop runs right after it, and
``scaled_setup_s`` is the set-up time scaled by the loop's speed to a host of
the reference speed. Prints ``{"setup_s": ..., "scaled_setup_s": ...}``.
"""
import json
import sys
import time

t0 = time.perf_counter()
import numpy as np  # noqa: E402

from cyclic_ppo.envs import make_env  # noqa: E402
from cyclic_ppo.ppo import RolloutWorker, build_agent  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
config = workload.config()
children = np.random.SeedSequence(seed).spawn(3 + config.n_envs)
envs = [make_env(workload.env_id) for _ in range(config.n_envs)]
build_agent(envs[0], config, np.random.default_rng(children[0]))
RolloutWorker(envs, [int(c.generate_state(1)[0]) for c in children[3:]],
              np.random.default_rng(children[1]))
setup_s = time.perf_counter() - t0

from reference import REFERENCE_LOOPS_PER_S, reference_loop  # noqa: E402

loops_per_s, _ = reference_loop(600)
print(json.dumps({"setup_s": setup_s,
                  "scaled_setup_s": setup_s * loops_per_s / REFERENCE_LOOPS_PER_S}))
