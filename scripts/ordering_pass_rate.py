"""Measure how often the ranking-direction checks hold across base seeds.

The curve variants beat the plain optimizer decisively, but the adaptive
weight variants are statistically tied with their non-adaptive counterparts
at dim=30 (the weights differ only in the third decimal through most of a
run), so the pairwise mean comparisons on those pairs amount to coin flips.
This script quantifies the pass rate of the full conjunction over many base
seeds; the suite's documented default (base seed 42) passes.

Run: python3 scripts/ordering_pass_rate.py [n_bases]
"""

import sys

from lupus import harness


def check_base(base_seed, n_runs=10, n_agents=40, max_iter=500):
    plan = harness.ExperimentPlan(
        algorithms=("gwo", "cgwo", "agwo", "acgwo", "pso"),
        functions=("f1", "f6"), dims=(30,),
        n_runs=n_runs, base_seed=base_seed, n_agents=n_agents, max_iter=max_iter,
    )
    finals = harness.cell_finals(harness.run_plan(plan))
    means = {(alg, fn): x.mean() for (alg, fn, _), x in finals.items()}
    return all(
        means[("acgwo", fn)] <= means[("cgwo", fn)]
        and means[("agwo", fn)] <= means[("gwo", fn)]
        and means[("gwo", fn)] <= means[("pso", fn)]
        for fn in ("f1", "f6"))


def main():
    n_bases = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    bases = [42] + [b for b in range(1, n_bases)]
    passing = []
    for base in bases:
        ok = check_base(base)
        if ok:
            passing.append(base)
        print(f"base {base}: {'pass' if ok else 'fail'}", flush=True)
    print(f"pass rate {len(passing)}/{len(bases)}; passing bases: {passing}")


if __name__ == "__main__":
    main()
