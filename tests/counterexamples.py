"""The paper's two time-inconsistent families, as test fixtures.

A :class:`TabularEvaluator` tabulates penalties per stopping-time pair, so
nothing forces the penalty cocycle on it; the library's
``check_time_consistency`` takes it through its per-claim ``Evaluator``
branch.
"""
from __future__ import annotations

from oracles import forward_mass
from tcpp.errors import TcppError
from tcpp.scenario import (MeasureSelection, MenuEntry, PenaltyProcess,
                           ScenarioModel)
from tcpp.tree import Claim, FiltrationTree, StoppingTime


class TabularEvaluator:
    """Family of measures with penalties tabulated per stopping-time pair.

    Nothing forces the table to satisfy the penalty cocycle, so this is the
    vehicle for non-rectangular (time-inconsistent) counterexamples.
    """

    def __init__(self, tree: FiltrationTree, kernels: list[dict[int, tuple[float, ...]]],
                 table: dict[tuple[frozenset, frozenset], list[Claim]]):
        self.tree = tree
        self.kernels = kernels
        self.table = table

    def price(self, x: Claim, sigma: StoppingTime) -> Claim:
        key = (sigma.cut, x.at.cut)
        if key not in self.table:
            raise TcppError("no penalty tabulated for this stopping-time pair")
        pens = self.table[key]
        vals = {}
        for a in sigma.cut:
            best = None
            for i in range(len(self.kernels)):
                mass = forward_mass(self.tree, a, x.at.cut, self.kernels[i].__getitem__)
                v = sum(mass.get(b, 0.0) * x.values[b] for b in x.at.cut)
                v -= pens[i].values[a]
                best = v if best is None else max(best, v)
            vals[a] = best
        return Claim(sigma, vals)


def non_rectangular_counterexample() -> tuple[TabularEvaluator, ScenarioModel, PenaltyProcess]:
    """Two-period family whose direct and two-step prices disagree at the root.

    Returns the tabular evaluator, the rectangular model carrying the same
    kernels and one-step penalties, and the tabulated cumulative penalty as
    a penalty process; the latter breaks the cocycle at the root, which is
    also where the time-consistency witness sits.
    """
    tree = FiltrationTree.binomial(2)
    k1 = {0: (0.5, 0.5), 1: (0.5, 0.5), 2: (0.5, 0.5)}
    k2 = {0: (0.9, 0.1), 1: (0.9, 0.1), 2: (0.1, 0.9)}
    t0 = StoppingTime.at_root(tree)
    t1 = StoppingTime.at_time(tree, 1)
    t2 = StoppingTime.at_horizon(tree)
    zero = Claim.constant
    table = {
        (t0.cut, t1.cut): [zero(t0, 0.0), zero(t0, 0.10)],
        (t1.cut, t2.cut): [zero(t1, 0.0), zero(t1, 0.05)],
        (t0.cut, t2.cut): [zero(t0, 0.0), zero(t0, 0.30)],
        (t0.cut, t0.cut): [zero(t0, 0.0), zero(t0, 0.0)],
    }
    evaluator = TabularEvaluator(tree, [k1, k2], table)
    menus = {
        v: [MenuEntry(k1[v], 0.0), MenuEntry(k2[v], 0.10 if v == 0 else 0.05)]
        for v in tree.internal_nodes()
    }
    model = ScenarioModel(tree, menus)
    sel = MeasureSelection.of({0: 1, 1: 1, 2: 1})
    supplied = {v: 0.0 for v in range(tree.n_nodes)}
    supplied[0] = 0.30        # tabulated alpha_{0,2}; cocycle demands 0.15
    supplied[1] = supplied[2] = 0.05
    penalty = PenaltyProcess(sel, supplied)
    return evaluator, model, penalty


def deterministic_vs_stopping_counterexample() -> tuple[TabularEvaluator, StoppingTime]:
    """Family consistent across every deterministic chain yet inconsistent
    across one genuinely random stopping time.

    A single reference kernel drives every evaluation, except that pricing
    from the mixed cut {up, down-down, down-up} back to time zero unlocks a
    second scenario (its penalty is infinite for every other pair).  Each
    member of the family satisfies the pricing axioms on its own, and no
    chain of deterministic cuts ever sees the extra scenario.
    """
    inf = float("inf")
    tree = FiltrationTree.binomial(2)
    base = {0: (0.5, 0.5), 1: (0.5, 0.5), 2: (0.5, 0.5)}
    extra = {0: (0.2, 0.8), 1: (0.5, 0.5), 2: (0.5, 0.5)}
    t0 = StoppingTime.at_root(tree)
    t1 = StoppingTime.at_time(tree, 1)
    t2 = StoppingTime.at_horizon(tree)
    mixed = StoppingTime.of([1, 5, 6])

    def pens(sigma: StoppingTime, extra_pen: float) -> list[Claim]:
        return [Claim.constant(sigma, 0.0), Claim.constant(sigma, extra_pen)]

    table = {
        (t0.cut, t1.cut): pens(t0, inf),
        (t1.cut, t2.cut): pens(t1, inf),
        (t0.cut, t2.cut): pens(t0, inf),
        (mixed.cut, t2.cut): pens(mixed, inf),
        (t0.cut, mixed.cut): pens(t0, 0.0),
    }
    return TabularEvaluator(tree, [base, extra], table), mixed
