"""Walk through the user-level feature blocks on a six-user toy network.

Shows how per-post hate scores roll up into fixed-count, relational, and
distributional features, and how the multimodal block concatenation that the
classifier consumes is laid out.
"""

import io

import numpy as np

from hateagg import (
    AggregationConfig,
    BindPolicy,
    ScoreTable,
    bind_dataset,
    build_features,
    build_graph,
)

EDGES = [
    ("ana", "bo"),
    ("bo", "ana"),
    ("cam", "ana"),
    ("dee", "ana"),
    ("dee", "bo"),
    ("eli", "dee"),
]

# (user, post scores); ana posts a lot of high-scoring content, eli is clean
SCORES = {
    "ana": [0.92, 0.88, 0.97, 0.71, 0.64],
    "bo": [0.55, 0.08],
    "cam": [0.61, 0.49, 0.52],
    "dee": [0.12, 0.33],
    "eli": [0.02, 0.05, 0.01],
    "fay": [0.44],
}


def main() -> None:
    table = ScoreTable.from_mapping(SCORES)
    # fay is in no edge: binding adds every scored user off the graph as an isolated node
    dataset = bind_dataset(
        build_graph(EDGES),
        table,
        policy=BindPolicy(allow_zero_post_users=True),
    )

    config = AggregationConfig(tau_t=0.5, tau_fixed=4, k_bins=4)

    for mode in ("fixed", "relational", "bins", "quantiles"):
        fm = build_features(dataset, mode, config)
        print(f"--- {mode}: columns {fm.schema}")
        for uid, row in zip(fm.user_ids, fm.values):
            print(f"  {uid:>4} {np.round(row, 3)}")

    # the multimodal matrix is just the relational + bins + quantiles blocks
    multi = build_features(dataset, "multimodal", config)
    print(f"--- multimodal: {multi.values.shape[1]} columns")
    print("    " + ", ".join(multi.schema))

    buf = io.StringIO()
    multi.to_csv(buf)
    print("first two CSV lines:")
    for line in buf.getvalue().splitlines()[:2]:
        print("  " + line)


if __name__ == "__main__":
    main()
