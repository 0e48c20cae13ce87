"""Write a wide-node market and a claim on it, for running the bounds at scale.

    python tests/wide_book.py OUT_DIR [CHILDREN]

``OUT_DIR/wide.market`` is a two-period tree with CHILDREN (default 20)
children per node and equal leaf weights, three assets that are martingales
under one kernel near P at every node (``gen.martingale_assets``, seed 11)
and one quote; ``OUT_DIR/wide.claim`` is a claim at the horizon.  A node has
C(CHILDREN, 4) + C(CHILDREN, 3) + C(CHILDREN, 2) + CHILDREN kernel supports
(6195 at 20 children), so this market exercises the vertex-kernel menus
of the bounds without caps.  The seed is fixed, so the files are the same
on every run.
"""
import os
import sys

import numpy as np

from gen import martingale_assets, random_claim
from tcpp.market import QuotedOption
from tcpp.marketfile import MarketData, serialize_market
from tcpp.tree import FiltrationTree

ASSETS = 3


def main(out_dir: str, k: int = 20) -> None:
    tree = FiltrationTree([0] + [1] * k + [2] * k * k,
                          [None] + [0] * k + [1 + i // k for i in range(k * k)],
                          {b: 1.0 / k ** 2 for b in range(1 + k, 1 + k + k * k)})
    rng = np.random.default_rng(11)
    assets = martingale_assets(rng, tree, ASSETS)
    quote = QuotedOption("Y", random_claim(rng, tree),
                         *(float(b) for b in sorted(rng.uniform(-0.5, 1.5, 2))))
    x = random_claim(rng, tree)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "wide.market"), "w", encoding="utf-8") as fh:
        fh.write(serialize_market(MarketData(tree, assets=assets, quotes=[quote])))
    with open(os.path.join(out_dir, "wide.claim"), "w", encoding="utf-8") as fh:
        fh.writelines(f"value {b} {x.values[b]!r}\n" for b in tree.leaves)


if __name__ == "__main__":
    main(sys.argv[1], *map(int, sys.argv[2:3]))
