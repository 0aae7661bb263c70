"""DeGroot belief diffusion on a star network.

Seeds the hub with a hateful belief, runs the averaging process to a fixed
point, and prints the convergence trace. The closed-form limit on an
undirected star is a degree-weighted average, which the run reproduces.
"""

import numpy as np

from hateagg import (
    DiffusionConfig,
    SocialGraph,
    build_graph,
    degroot_classify,
    degroot_run,
    degroot_step,
)


def star(leaves: int) -> SocialGraph:
    hub = "hub"
    return build_graph([(hub, f"leaf{i}") for i in range(leaves)])


def main() -> None:
    g = star(10)
    b0 = np.zeros(g.node_count)
    b0[0] = 1.0  # node 0 is the hub (first id seen)

    config = DiffusionConfig(direction="undirected", max_iters=200, tol=1e-12)
    final, log = degroot_run(g, b0, config)
    print(f"converged after {len(log)} iterations")
    for entry in log[:5]:
        print(f"  iter {entry['iteration']}: max change {entry['max_change']:.2e}")
    print("  ...")

    # limit = sum((1+deg_u) * b_u) / sum(1+deg_u); hub deg 10, leaves deg 1
    expected = 11.0 / (11 + 10 * 2)
    print(f"hub belief at fixed point:  {final[0]:.6f}")
    print(f"leaf belief at fixed point: {final[1]:.6f}")
    print(f"degree-weighted average:    {expected:.6f}")

    labels = degroot_classify(final, threshold=0.5)
    print(f"users classified hateful at 0.5: {int(labels.sum())}")

    # direction matters: with "out" averaging the hub pulls from its leaves
    one_step = degroot_step(g, b0, direction="out")
    print(f"hub after one out-direction step: {one_step[0]:.4f}")


if __name__ == "__main__":
    main()
