"""Market and claim files read in blocks, against the line-by-line parsers
they replaced (``oracles.parse_market_text`` and ``oracles.parse_claim_text``):
the same documents, or the same error at the same line."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

import oracles
from gen import (martingale_assets, random_claim, random_irregular_tree,
                 random_model, random_tree, relabelled)
from tcpp.market import ConstraintSet, GoodDealCaps, QuotedOption
from tcpp.marketfile import (MarketData, parse_claim_text, parse_market_text,
                             serialize_market)
from tcpp.pricing import random_stopping_time
from tcpp.settings import Settings


def random_market(rng: np.random.Generator) -> MarketData:
    """A market of every record kind on a regular or irregular tree (mixed
    arities, one-child nodes), its ids shuffled half of the time."""
    tree = (random_tree if rng.random() < 0.5 else random_irregular_tree)(rng)
    if rng.random() < 0.5:
        tree = relabelled(tree, rng)
    quotes = []
    for j in range(int(rng.integers(0, 3))):
        at = random_stopping_time(tree, rng)
        bid, ask = np.sort(rng.uniform(-1.0, 1.0, 2)).tolist()
        quotes.append(QuotedOption(f"q{j}", random_claim(rng, tree, at), bid, ask))
    internal = tree.internal_nodes()
    caps = None
    if rng.random() < 0.7:
        default = float(rng.uniform(1.0, 2.0)) if rng.random() < 0.5 else None
        size = int(rng.integers(default is None, len(internal) + 1))    # a cap line at least
        nodes = rng.choice(internal, size=size, replace=False)
        caps = GoodDealCaps(default, {int(v): float(rng.uniform(1.0, 3.0)) for v in nodes})
    h_set = None
    if rng.random() < 0.7:
        dim = int(rng.integers(1, 3))
        h_set = ConstraintSet(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), dim)).tolist())
    changed = {"feasibility_tol": float(rng.uniform(1e-10, 1e-8)),
               "max_enum": int(rng.integers(10, 10**6))}
    settings = Settings(**{k: v for k, v in changed.items() if rng.random() < 0.5})
    assets = martingale_assets(rng, tree, int(rng.integers(0, 3)))
    return MarketData(tree, random_model(rng, tree), assets, quotes, caps, h_set, settings)


ROUND_TRIP = hsettings(derandomize=True, database=None, max_examples=60, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


@ROUND_TRIP
@given(seed=st.integers(0, 2**32 - 1))
def test_serialized_markets_parse_back(seed):
    md = random_market(np.random.default_rng(seed))
    text = serialize_market(md)
    again = parse_market_text(text)
    assert again == md
    assert list(again.model.menus) == list(md.model.menus)
    assert serialize_market(again) == text


def outcome(parse, *args):
    """What a parser makes of a document: the result, or the error's type,
    text and line."""
    try:
        out = parse(*args)
    except Exception as exc:         # the two parsers must fail alike
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    if isinstance(out, MarketData):
        return out, None if out.model is None else list(out.model.menus)
    return out


ODD_TOKENS = ("1_000", "+.5", "1e400", "nan", "inf", "-inf", "-", "0x10", "١٢",
              "٣.٥", "99999999999999999999999", "-1", "", "1.5")
ODD_LINES = ("menu 0 kernel penalty 0", "menu 0 kernel 0.5 penalty 0.5 penalty 0",
             "menu 0 kernel 0.5 0.5 penalty", "menu penalty kernel 0.5 0.5 penalty 0",
             "set verify_lp garbage", "set max_enum 1.5", "set max_enum 10", "set rank_tol nan",
             "set colour 1", "cap * 0.5", "cap x 1.5", "cap * nan", "vertex", "quote q bid 1 ask",
             "quote q ask 1 bid 2", "payoff q 0 1", "horizon 7", "horizon", "weight 0 0.5",
             "node 99999999999999999999 1 0", "asset S 0", "kernel 0 0.5")


def corrupt(rng: np.random.Generator, lines: list[str], fault: str) -> None:
    """One fault of the named kind on one line, in place."""
    i = int(rng.integers(len(lines)))
    parts = lines[i].split()
    if fault == "token":
        j = int(rng.integers(len(parts)))
        parts[j] = ODD_TOKENS[int(rng.integers(len(ODD_TOKENS)))]
    elif fault == "tokens":          # two arguments of one line
        for j in rng.choice(range(1, len(parts)), size=min(2, len(parts) - 1), replace=False):
            parts[j] = ODD_TOKENS[int(rng.integers(len(ODD_TOKENS)))]
    elif fault == "word":
        menus = [k for k, line in enumerate(lines) if line.startswith("menu")]
        i = menus[int(rng.integers(len(menus)))]
        parts = lines[i].split()
        word = ("kernel", "penalty")[int(rng.integers(2))]
        parts[parts.index(word)] = ("kernal", "penalties", "bid", "Kernel")[int(rng.integers(4))]
    elif fault == "duplicate":
        nodes = [k for k, line in enumerate(lines) if line.startswith("node")] or [i]
        src = lines[nodes[int(rng.integers(len(nodes)))]] if rng.random() < 0.7 else lines[i]
        lines.insert(int(rng.integers(len(lines) + 1)), src)
        return
    elif fault == "missing":
        del parts[int(rng.integers(len(parts)))]
    elif fault == "extra":
        extra = ("0.5", "x", "penalty")[int(rng.integers(3))]
        parts.insert(int(rng.integers(len(parts) + 1)), extra)
    elif fault == "record":
        parts[0] = ("nodes", "frobnicate", "Node", "value")[int(rng.integers(4))]
    elif fault == "odd line":
        lines.insert(i, ODD_LINES[int(rng.integers(len(ODD_LINES)))])
        return
    elif fault == "layout":
        how = int(rng.integers(4))
        if how == 0:
            lines[i] += "  # a comment"
        elif how == 1:
            lines[i] = " ".join(parts[:2]) + " #" + " ".join(parts[2:])
        elif how == 2:
            lines.insert(i, "" if rng.random() < 0.5 else "   # comment only")
        else:
            lines[i] = "\t" + "\t ".join(parts) + "\t"
        return
    elif fault == "shuffle":
        rng.shuffle(lines)
        return
    lines[i] = " ".join(parts)


FAULTS = ("token", "tokens", "word", "duplicate", "missing", "extra", "record", "odd line",
          "layout", "shuffle")


@pytest.mark.parametrize("fault", FAULTS + ("two faults",))
def test_block_parser_agrees_with_the_line_parser(fault):
    rng = np.random.default_rng(FAULTS.index(fault) if fault in FAULTS else 99)
    failed = 0
    for _ in range(60):
        lines = serialize_market(random_market(rng)).splitlines()
        if fault == "two faults":
            for kind in rng.choice(FAULTS[:-1], size=2):
                corrupt(rng, lines, kind)
        else:
            corrupt(rng, lines, fault)
        text = "\n".join(lines) + "\n"
        got = outcome(parse_market_text, text)
        assert got == outcome(oracles.parse_market_text, text), text
        failed += isinstance(got[0], str)
    assert failed > 0 or fault in ("layout", "shuffle")


@pytest.mark.parametrize("full_process", [False, True])
def test_block_claim_parser_agrees_with_the_line_parser(full_process):
    rng = np.random.default_rng(7 + full_process)
    for _ in range(150):
        tree = random_irregular_tree(rng)
        cut = range(tree.n_nodes) if full_process else sorted(random_stopping_time(tree, rng).cut)
        lines = [f"value {v} {float(rng.normal())!r}" for v in cut]
        for _ in range(int(rng.integers(0, 3))):
            fault = FAULTS[int(rng.integers(len(FAULTS)))]
            if fault != "word":
                corrupt(rng, lines, fault)
        text = "\n".join(lines) + "\n"
        assert (outcome(parse_claim_text, text, tree, full_process)
                == outcome(oracles.parse_claim_text, text, tree, full_process)), text
