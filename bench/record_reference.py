"""Record the bound values the benchmark checks ``bounds`` answers against.

    python3 bench/record_reference.py

Runs ``tcpp bounds`` for every payoff in ``gen.GRID`` and every kind on
the three trinomial shapes the workloads use, and writes reference.json.
The bound inputs (tree, asset, quote band, caps) do not depend on the seed;
the script builds each shape from two seeds and refuses to write when the
answers differ.  The values in the committed file come from the library as
it stood when the benchmark was added; rerun only to re-baseline on purpose.
"""
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from tcpp.cli import main  # noqa: E402

SHAPES = {"small": 2, "tri4": 4, "spread": 5}
KINDS = ("mme", "calibrated", "good-deal")


def bounds(root: str, shape: str, periods: int, seed: int) -> dict[str, list[float]]:
    market = gen.trinomial_market(np.random.default_rng(seed), periods, 2)
    mfile = gen.write_market(os.path.join(root, f"{shape}.market"), market)
    out = {}
    for name in gen.GRID:
        claim = gen.grid_claim(market.tree, market.asset, name)
        cfile = gen.write_values(os.path.join(root, "x.claim"), claim.values)
        for kind in KINDS:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["bounds", "--market", mfile, "--claim", cfile, "--kind", kind,
                             "--format", "machine"])
            rec = checks.parse_output(buf.getvalue())
            if code != 0:
                raise SystemExit(f"{shape}/{name}/{kind}: exit {code}")
            out[f"{shape}/{name}/{kind}"] = [float(rec["lower"]), float(rec["upper"])]
    return out


def record() -> dict[str, list[float]]:
    values = {}
    with tempfile.TemporaryDirectory() as root:
        for shape, periods in SHAPES.items():
            first, second = (bounds(root, shape, periods, s) for s in (1, 2))
            if first != second:
                raise SystemExit(f"{shape}: bounds depend on the seed")
            values.update(first)
    return values


if __name__ == "__main__":
    doc = {"note": "tcpp bounds --format machine on gen.trinomial_market shapes; "
                   "recorded with bench/record_reference.py",
           "bounds": record()}
    with open(checks.References.PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
