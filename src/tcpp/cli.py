"""Command-line interface: file ingestion, dispatch, report emission.

Exit codes: 0 pass/success, 1 check failure (witnesses printed), 2 input
error.  ``--format machine`` emits one ``key<TAB>value`` record per line.
All randomized checks honor ``--seed``.  ``TCPP_MAX_ENUM`` caps the kernel
and support enumerations per node (``constrained``, ``bounds``,
``calibrate``, and the menu-entry supports of the minimal penalty that
``nfl`` checks), and the reference enumerators.  ``--tol`` sets the
feasibility tolerance at which ``nfl``, ``calibrate`` and ``extends``
compare their verdicts.  ``bounds`` and ``constrained`` print numbers,
computed at no looser a tolerance than the default
(:func:`tcpp.settings.pinned`), so they refuse ``--tol`` as ``price`` does.

``check-tcpp`` draws its samples as one array and hands it to the checks as
a :class:`~tcpp.tree.ClaimStack`, with no claim object each: the axioms
price each cut's property families as the columns of one backward pass,
chunked by a fixed node x column cell budget (``scenario._CELLS``); the
time-consistency chains share one direct pass and take one per distinct
intermediate time.  ``--samples`` must be at least 1, and its samples x 2
x leaves draws must fit one LP's tableau cap (``scenario._TABLEAU_CELLS``).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from .errors import TcppError
from .market import (GoodDealCaps, calibrated_bounds, calibration_feasible,
                     check_extends_dynamics, constrained_price,
                     good_deal_bounds, mme_bounds)
from .marketfile import MarketData, parse_claim_file, parse_market_file
from .nfl import nfl_verdict
from .pricing import (american_price, bid_ask, check_axioms, check_sublinear,
                      check_time_consistency, random_stopping_time)
from .report import CheckReport
from .scenario import _TABLEAU_CELLS, check_nondegenerate
from .tree import ClaimStack, FiltrationTree, StoppingTime, validate_stopping_time


class Output:
    def __init__(self, machine: bool):
        self.machine = machine

    def emit(self, key: str, value) -> None:
        if self.machine:
            print(f"{key}\t{value}")
        else:
            print(f"{key}: {value}")

    def report(self, rep: CheckReport) -> None:
        self.emit(f"check.{rep.check.replace(' ', '-')}",
                  "pass" if rep.passed else "FAIL")
        for f in rep.findings:
            self.emit("witness", f"{f.where} -- {f.message}")


def _load(args) -> MarketData:
    md = parse_market_file(args.market)
    settings = md.settings
    if getattr(args, "tol", None) is not None:
        settings = dataclasses.replace(settings, feasibility_tol=args.tol)
    env_cap = os.environ.get("TCPP_MAX_ENUM")
    if env_cap is not None:
        try:
            max_enum = int(env_cap)
        except ValueError:
            raise TcppError(f"TCPP_MAX_ENUM sets max_enum and must be an integer, "
                            f"got {env_cap!r}") from None
        settings = dataclasses.replace(settings, max_enum=max_enum)
    md.settings = settings
    return md


def _need_model(md: MarketData):
    if md.model is None:
        raise TcppError("this command needs a scenario model (menu lines) in the market file")
    return md.model


def _parse_cut(tree: FiltrationTree, text: str) -> StoppingTime:
    if text == "root":
        return StoppingTime.at_root(tree)
    if text == "horizon":
        return StoppingTime.at_horizon(tree)
    if text.startswith("t:"):
        return StoppingTime.at_time(tree, int(text[2:]))
    cut = StoppingTime.of(int(tok) for tok in text.split(","))
    validate_stopping_time(tree, cut)
    return cut


def cmd_price(args, out: Output) -> int:
    md = _load(args)
    model = _need_model(md)
    claim = parse_claim_file(args.claim, md.tree)
    sigma = _parse_cut(md.tree, args.at)
    bid, ask = bid_ask(model, claim, sigma)
    for a in sigma.sorted():
        out.emit(f"bid.{a}", repr(bid.values[a]))
        out.emit(f"ask.{a}", repr(ask.values[a]))
    return 0


def cmd_check_tcpp(args, out: Output) -> int:
    if args.samples < 1:
        raise TcppError(f"--samples must be at least 1, got {args.samples}")
    md = _load(args)
    model = _need_model(md)
    tree = md.tree
    if (cells := args.samples * 2 * len(tree.leaves)) > _TABLEAU_CELLS:
        raise TcppError(f"--samples {args.samples} draws {cells / 2**17:.1f} MiB on "
                        f"{len(tree.leaves)} leaves, above the cap of {_TABLEAU_CELLS / 2**17:.1f} MiB")
    rng = np.random.default_rng(args.seed)
    horizon = StoppingTime.at_horizon(tree)
    draws = rng.uniform(-2, 2, size=(args.samples, 2, len(tree.leaves)))
    axioms = check_axioms(model, ClaimStack(horizon, draws), seed=args.seed)
    out.report(axioms)

    chains = []
    for _ in range(5):
        sigma = random_stopping_time(tree, rng)
        chains.append((StoppingTime.at_root(tree), sigma, horizon))
    tc = check_time_consistency(model, chains, ClaimStack(horizon, draws[:50, 0]))
    out.report(tc)

    nd = check_nondegenerate(model)
    out.report(nd)

    sub = check_sublinear(model, seed=args.seed)
    out.emit("sublinear", str(bool(sub)).lower())
    return 0 if (axioms.passed and tc.passed and nd.passed) else 1


def cmd_nfl(args, out: Output) -> int:
    md = _load(args)
    model = _need_model(md)
    rep = nfl_verdict(model, seed=args.seed, settings=md.settings)
    out.emit("verdict", "no-free-lunch" if rep.no_free_lunch else "free-lunch")
    out.emit("certificate", rep.certificate.kind)
    if rep.certificate.measure is not None:
        for leaf in sorted(rep.certificate.measure.density):
            out.emit(f"density.{leaf}", repr(rep.certificate.measure.density[leaf]))
    if rep.certificate.claim is not None:
        for leaf in rep.certificate.claim.at.sorted():
            out.emit(f"claim.{leaf}", repr(rep.certificate.claim.values[leaf]))
    return 0 if rep.no_free_lunch else 1


def cmd_bounds(args, out: Output) -> int:
    md = _load(args)
    claim = parse_claim_file(args.claim, md.tree)
    if not md.assets:
        raise TcppError("bounds need reference assets in the market file")
    if args.kind == "mme":
        b = mme_bounds(md.tree, md.assets, claim, md.settings)
        out.emit("lower", repr(b.lower))
        out.emit("upper", repr(b.upper))
        out.emit("equivalent", str(b.has_equivalent).lower())
    elif args.kind == "calibrated":
        lo, hi = calibrated_bounds(md.tree, md.assets, md.quotes, claim, md.settings)
        out.emit("lower", repr(lo))
        out.emit("upper", repr(hi))
    else:
        caps = md.caps
        if args.good_deal_cap is not None:
            caps = GoodDealCaps.uniform(args.good_deal_cap)
        if caps is None:
            raise TcppError("good-deal bounds need caps (cap lines or --good-deal-cap)")
        lo, hi = good_deal_bounds(md.tree, md.assets, caps, claim, md.settings)
        out.emit("lower", repr(lo))
        out.emit("upper", repr(hi))
    return 0


def cmd_calibrate(args, out: Output) -> int:
    md = _load(args)
    if not md.assets:
        raise TcppError("calibration needs reference assets in the market file")
    q0 = calibration_feasible(md.tree, md.assets, md.quotes, md.settings)
    if q0 is None:
        out.emit("calibration", "infeasible")
        return 1
    out.emit("calibration", "feasible")
    for leaf in sorted(q0.density):
        out.emit(f"density.{leaf}", repr(q0.density[leaf]))
    return 0


def cmd_extends(args, out: Output) -> int:
    md = _load(args)
    model = _need_model(md)
    rep = check_extends_dynamics(model, md.assets, seed=args.seed,
                                 settings=md.settings)
    out.report(rep)
    return 0 if rep.passed else 1


def cmd_constrained(args, out: Output) -> int:
    md = _load(args)
    if md.constraint_set is None:
        raise TcppError("constrained pricing needs vertex lines in the market file")
    claim = parse_claim_file(args.claim, md.tree)
    value = constrained_price(md.tree, md.assets, md.constraint_set, claim,
                              md.settings)
    out.emit("value", repr(value.values[md.tree.root]))
    return 0


def cmd_american(args, out: Output) -> int:
    md = _load(args)
    model = _need_model(md)
    payoff = parse_claim_file(args.claim, md.tree, full_process=True)
    nu = _parse_cut(md.tree, args.at)
    tau = StoppingTime.at_horizon(md.tree)
    res = american_price(model, payoff, nu, tau)
    # induction.* and induction-agrees keep the machine format's keys
    for a in nu.sorted():
        out.emit(f"value.{a}", repr(res.value.values[a]))
        out.emit(f"induction.{a}", repr(res.value.values[a]))
    out.emit("induction-agrees", "true")
    return 0


_COMMANDS = {
    "price": cmd_price,
    "check-tcpp": cmd_check_tcpp,
    "nfl": cmd_nfl,
    "bounds": cmd_bounds,
    "calibrate": cmd_calibrate,
    "extends": cmd_extends,
    "constrained": cmd_constrained,
    "american": cmd_american,
}

# the options besides --market and --format, each with the commands that
# read it; --claim stays optional, so that main names the command that
# misses it
_OPTIONS = {
    "claim": (("price", "bounds", "constrained", "american"),
              dict(help="claim or payoff-process file")),
    "at": (("price", "american"),
           dict(default="root", help="cut: root, horizon, t:<k>, or node ids 'a,b,c'")),
    "seed": (("check-tcpp", "nfl", "extends"), dict(type=int, default=20240101)),
    "samples": (("check-tcpp",), dict(type=int, default=200)),
    "kind": (("bounds",), dict(choices=["mme", "calibrated", "good-deal"], default="mme")),
    "good-deal-cap": (("bounds",), dict(type=float, default=None)),
    "tol": (("nfl", "calibrate", "extends"),
            dict(type=float, default=None, help="override the feasibility tolerance of "
                 "verdicts; printed numbers are computed at no looser than the default")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, so each call of :func:`main` reuses it."""
    p = argparse.ArgumentParser(
        prog="tcpp",
        description="Time-consistent bid-ask pricing on finite event trees.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--market", required=True, help="market document")
        for option, (commands, spec) in _OPTIONS.items():
            if name in commands:
                sp.add_argument(f"--{option}", **spec)
        sp.add_argument("--format", choices=["text", "machine"], default="text")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = Output(machine=args.format == "machine")
    needs_claim = args.command in _OPTIONS["claim"][0]
    try:
        if needs_claim and not args.claim:
            raise TcppError(f"{args.command} requires --claim")
        return _COMMANDS[args.command](args, out)
    except (TcppError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
