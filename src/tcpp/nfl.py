"""No-free-lunch verdicts from the zero-penalty family and its certificates.

Menus chosen independently per node make the scenario family stable under
pasting and its penalties additive, so with nonnegative penalties the
verdict is decided edge by edge, without enumerating selections or solving
a global LP: the model has no free lunch exactly when every internal node
has a zero-penalty entry and those entries together charge every child.
The free-lunch certificate is a scaled indicator of the leaves below the
first uncharged edge; the measure certificate is the product of each
node's uniform mixture of zero-penalty kernels, carried down the level
groups in one top-down product.  Both cost O(nodes x menu x arity) and
read one computation of the zero-penalty mixtures and their uncharged
edges.  :func:`nfl_verdict` requires the two searches to agree and checks
the certificate exactly: the claim's sign and root ask, or the measure's
minimal penalty (one support search per stack of level groups of one menu
width and arity, no LP).  A zero minimal penalty puts E_R X between bid
and ask for every claim and stopping time (the conjugate duality of convex
risk measures) and gives every zero-cost strategy a nonpositive
R-expectation (the paper's theorem, after Jouini and Kallal), so the
verdict samples neither.  A model with a negative penalty is rejected with
:class:`NegativePenalty`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentVerdicts, NegativePenalty, TcppError
from .pricing import price, zero_slack
from .report import CheckReport
from .scenario import ScenarioModel, minimal_penalty, uncharged_edges
from .settings import DEFAULT, Settings
from .tree import Claim, FiltrationTree, Measure, StoppingTime


@dataclass
class FreeLunchCertificate:
    """Witness for one side of the verdict.

    kind 'static-arbitrage-claim': a nonnegative nonzero claim with
    nonpositive root ask price.  kind 'zero-penalty-equivalent-measure': an
    equivalent measure with zero minimal penalty.
    """

    kind: str
    claim: Claim | None = None
    measure: Measure | None = None

    def __post_init__(self):
        if self.kind == "static-arbitrage-claim" and (self.claim is None or self.measure is not None):
            raise TcppError("a static certificate must carry exactly a claim")
        if self.kind == "zero-penalty-equivalent-measure" and (self.measure is None or self.claim is not None):
            raise TcppError("a measure certificate must carry exactly a measure")


def _zero_penalty_family(model: ScenarioModel, settings: Settings
                         ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Each node's uniform mixture of its entries of penalty at most
    ``feasibility_tol``, its row of packed penalties (padding repeats one),
    and the edges that the mixture leaves uncharged (see
    :func:`uncharged_edges`): what both searches below read.

    The node-local criteria below hold for nonnegative penalties only, so a
    negative one is rejected here, naming its node.
    """
    pens = np.full((model.tree.n_nodes, model.menu_sizes.max()), np.nan)
    for nodes, _, _, penalties in model.steps(model.tree.leaves):
        pens[nodes, :penalties.shape[1]] = penalties
    for node, idx in np.argwhere(pens < 0.0)[:1].tolist():
        raise NegativePenalty(
            f"menu entry {idx} at node {node} has negative penalty "
            f"{pens[node, idx].item()!r}; no-free-lunch needs nonnegative penalties")
    mix = model.mixture(settings.feasibility_tol)
    return mix, pens, uncharged_edges(model, mix, settings.equivalence_floor)


def find_static_free_lunch(model: ScenarioModel,
                           settings: Settings = DEFAULT) -> FreeLunchCertificate | None:
    """A nonnegative nonzero claim with nonpositive root ask, or None.

    Take the first edge (v, c) in preorder that the zero-penalty entries at
    v leave uncharged (see :func:`uncharged_edges`).  With eps the smallest
    positive penalty at v (1 if there is none), eps times the indicator of
    the leaves below c costs nothing: zero-penalty entries give it no
    weight, and every other entry pays at least eps to charge it.  Where v
    has no zero-penalty entry at all, the claim covers every leaf below v.
    """
    return _static_free_lunch(model, settings, *_zero_penalty_family(model, settings))[0]


def _static_free_lunch(model: ScenarioModel, settings: Settings, mix: np.ndarray,
                       pens: np.ndarray, edges: list[tuple[int, int]]
                       ) -> tuple[FreeLunchCertificate | None, float | None]:
    """The certificate of :func:`find_static_free_lunch`, or None, and the
    root ask of the claim that decided it (None without an uncharged edge)."""
    tree = model.tree
    tol = settings.feasibility_tol
    if not edges:
        return None, None
    v, c = edges[0]
    top = c if mix[v].any() else v      # a kept entry's kernel puts weight somewhere
    eps = min(pens[v][pens[v] > tol].tolist(), default=1.0)
    below = tree.owner_index([top], tree.leaves) == 0
    claim = Claim(StoppingTime.at_horizon(tree), np.where(below, eps, 0.0))
    root_price = price(model, claim, StoppingTime.at_root(tree)).values[tree.root]
    if root_price <= tol:
        return FreeLunchCertificate("static-arbitrage-claim", claim=claim), root_price
    return None, root_price


def find_zero_penalty_equivalent_measure(model: ScenarioModel,
                                         settings: Settings = DEFAULT) -> Measure | None:
    """Product over nodes of each node's uniform mixture of its zero-penalty
    kernels, or None when that mixture leaves some edge uncharged.

    Each one-step conjugate vanishes at such a mixture by convexity, so the
    minimal penalty, their R-expectation, does too.  Charging is decided per
    edge against ``equivalence_floor``, the same test the static search
    makes, so the two cannot disagree on deep trees whose leaf masses, as
    products of many edge weights, fall below the floor.
    """
    mix, _, edges = _zero_penalty_family(model, settings)
    return _zero_penalty_measure(model.tree, mix, edges)


def _zero_penalty_measure(tree: FiltrationTree, mix: np.ndarray,
                          edges: list[tuple[int, int]]) -> Measure | None:
    if edges:
        return None
    return Measure.from_leaf_masses(tree, tree.product_down(mix)[list(tree.leaves)])


@dataclass
class NflReport:
    no_free_lunch: bool
    certificate: FreeLunchCertificate
    checks: CheckReport

    def __bool__(self) -> bool:
        return self.no_free_lunch


def nfl_verdict(model: ScenarioModel, settings: Settings = DEFAULT) -> NflReport:
    """Decide no free lunch by both certificate searches, check the
    certificate exactly, and return the joint verdict with it.

    With no free lunch the certificate is the zero-penalty equivalent
    measure R, and its minimal penalty must be at most ``feasibility_tol``
    widened by :func:`tcpp.pricing.zero_slack` (penalties counted as zero
    add up along a path).  The ask is the supremum of E_Q X less the
    minimal penalty of Q, so that check puts E_R X between bid and ask for
    every claim and stopping time, and gives every zero-cost strategy a
    nonpositive R-expectation; nothing is sampled.  With a free lunch the
    certificate is a nonnegative nonzero claim of root ask at most
    ``feasibility_tol``.

    Disagreement, or a certificate that fails its check, raises
    :class:`InconsistentVerdicts`: the equivalence is a theorem, so either
    can only mean an implementation bug.  A negative penalty raises
    :class:`NegativePenalty`.
    """
    tree = model.tree
    tol = settings.feasibility_tol
    checks = CheckReport(check="no free lunch", passed=True)

    family = _zero_penalty_family(model, settings)
    static, p = _static_free_lunch(model, settings, *family)        # condition ii
    measure = _zero_penalty_measure(tree, family[0], family[2])     # iii
    verdict_ii = static is None
    verdict_iii = measure is not None
    if verdict_ii != verdict_iii:
        raise InconsistentVerdicts(
            f"static search says {'NFL' if verdict_ii else 'free lunch'} but "
            f"measure search says {'NFL' if verdict_iii else 'free lunch'}")

    if measure is not None:
        pen = minimal_penalty(model, measure, StoppingTime.at_root(tree),
                              StoppingTime.at_horizon(tree), settings).values[tree.root]
        if pen > tol + zero_slack(model, tol):
            raise InconsistentVerdicts(f"certificate measure has penalty {pen!r}")
        checks.info["certificate_penalty"] = pen
        checks.info["min_density"] = min(measure.density.values())
        cert = FreeLunchCertificate("zero-penalty-equivalent-measure", measure=measure)
    else:
        vals = static.claim.array
        if np.any(vals < -tol) or vals.max() <= tol:
            raise InconsistentVerdicts("static certificate is not a free lunch claim")
        checks.info["certificate_price"] = p      # <= tol, or there is no certificate
        # iv refuted: any equivalent measure would satisfy E_R(X*) <= price <= 0,
        # impossible for a nonnegative nonzero claim; i refuted by X* in K_0.
        checks.info["iv_refuted_by"] = "certificate claim"
        cert = static
    return NflReport(no_free_lunch=verdict_ii, certificate=cert, checks=checks)
