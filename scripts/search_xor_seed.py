"""Search for seeds where pure swarm training fits XOR perfectly.

Records the witness frozen into tests/test_mlp.py (XOR_SEED). With the
settings below (arch [2,4,1], bounds [-5,5], 60 agents, 300 iterations)
every small seed passes; seed 0 is recorded.

Run: python3 scripts/search_xor_seed.py [n_seeds]
"""

import sys

import numpy as np

from lupus import mlp
from lupus.optimizer import GwoConfig

X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
Y = np.array([0, 1, 1, 0])


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    arch = mlp.MlpArchitecture((2, 4, 1))
    hits = []
    for seed in range(n_seeds):
        cfg = GwoConfig(variant="acgwo", n_agents=60, max_iter=300, seed=seed)
        params, _ = mlp.train(arch, X, Y, cfg, (-5.0, 5.0), 0, 0.1, 0)
        labels = mlp.forward_batch(arch, params, X) >= 0.5
        accuracy = float((labels == Y).mean())
        print(f"seed {seed}: training accuracy {accuracy:.2f}")
        if accuracy == 1.0:
            hits.append(seed)
    print(f"perfect seeds: {hits}")


if __name__ == "__main__":
    main()
