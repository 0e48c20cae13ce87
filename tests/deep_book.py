"""Write a deep-book market and a call on it, for running the CLI at scale.

    python tests/deep_book.py OUT_DIR

``OUT_DIR/deep.market`` is a binomial tree of 12 periods (8191 nodes) with
one asset, up and down factors drawn per node, three menu entries per node
on the asset's martingale kernel (penalties 0 and two drawn ones) and hedge
vertices -1 and 1; ``OUT_DIR/deep.claim`` is a call struck at 1, and
``OUT_DIR/deep.process`` a put on the asset struck at 1 at every node, the
payoff process of ``tcpp american``.  The seed is fixed, so the files are the
same on every run.
"""
import os
import sys

import numpy as np

from tcpp.market import AssetProcess, ConstraintSet
from tcpp.marketfile import MarketData, serialize_market
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.tree import FiltrationTree

PERIODS, ENTRIES = 12, 3


def main(out_dir: str) -> None:
    rng = np.random.default_rng(12)
    tree = FiltrationTree.binomial(PERIODS)
    s = {tree.root: 1.0}
    menus = {}
    for v in tree.internal_nodes():       # in time order: a parent before its children
        up, down = rng.uniform(1.05, 1.3), rng.uniform(0.75, 0.95)
        c_up, c_down = tree.children[v]
        s[c_up], s[c_down] = s[v] * float(up), s[v] * float(down)
        q = float((1.0 - down) / (up - down))
        pens = [0.0] + rng.exponential(0.2, ENTRIES - 1).tolist()
        menus[v] = [MenuEntry((q, 1.0 - q), p) for p in pens]
    md = MarketData(tree, ScenarioModel(tree, menus), [AssetProcess("S", s)],
                    constraint_set=ConstraintSet([(-1.0,), (1.0,)]))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "deep.market"), "w", encoding="utf-8") as fh:
        fh.write(serialize_market(md))
    with open(os.path.join(out_dir, "deep.claim"), "w", encoding="utf-8") as fh:
        fh.writelines(f"value {b} {max(s[b] - 1.0, 0.0)!r}\n" for b in tree.leaves)
    with open(os.path.join(out_dir, "deep.process"), "w", encoding="utf-8") as fh:
        fh.writelines(f"value {v} {max(1.0 - s[v], 0.0)!r}\n" for v in range(tree.n_nodes))


if __name__ == "__main__":
    main(sys.argv[1])
