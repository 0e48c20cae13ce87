"""Market and claim files read in blocks, against the line-by-line parsers
they replaced (``oracles.parse_market_text`` and ``oracles.parse_claim_text``):
the same documents, or the same error at the same line."""
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

import deep_book
import oracles
from gen import (martingale_assets, random_claim, random_irregular_tree,
                 random_model, random_tree, relabelled)
from tcpp import marketfile
from tcpp.errors import MarketFileError
from tcpp.market import ConstraintSet, GoodDealCaps, QuotedOption
from tcpp.marketfile import (MarketData, parse_claim_file, parse_claim_text,
                             parse_market_text, serialize_market)
from tcpp.pricing import random_stopping_time
from tcpp.settings import Settings
from tcpp.tree import FiltrationTree


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


# -- layouts a run reader could misread -------------------------------------------
# A run is a span of lines that share a first word; the reader must find the
# same lines, tokens and line numbers as the line-by-line parser whatever the
# line breaks, spaces, names and comments.

BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028")
LAYOUTS = ("line breaks", "no-break space", "record word names", "no final newline",
           "mixed arities", "comment line in a run")


def mixed_arity_market(rng: np.random.Generator) -> MarketData:
    while True:
        md = random_market(rng)
        arity = md.tree.arity[md.tree.arity > 0]
        if arity.min() < arity.max():
            return md


def laid_out(rng: np.random.Generator, lines: list[str], layout: str) -> str:
    """The document of ``lines`` in the named layout."""
    end = "\n"
    if layout == "no-break space":
        for i in rng.choice(len(lines), size=min(3, len(lines)), replace=False):
            parts = lines[i].split(" ")
            j = int(rng.integers(1, len(parts))) if len(parts) > 1 else 0
            lines[i] = " ".join(parts[:j]) + "\xa0" + " ".join(parts[j:])
    elif layout == "record word names":      # asset asset 0 1.0, payoff node 3 1.0
        word = ("asset", "node", "payoff", "quote", "menu")[int(rng.integers(5))]
        lines[:] = [line.replace("asset S0 ", "asset asset ").replace(" q0 ", f" {word} ")
                    for line in lines]
    elif layout == "no final newline":
        end = ""
    elif layout == "comment line in a run":
        for _ in range(3):
            i = int(rng.integers(1, max(2, len(lines))))
            lines.insert(i, ("# a comment", "   # indented", "#", "\t#\tx")[int(rng.integers(4))])
    if layout == "line breaks":
        if rng.random() < 0.5:
            brk = BREAKS[int(rng.integers(len(BREAKS)))]
            return brk.join(lines) + brk
        return "".join(line + BREAKS[int(rng.integers(len(BREAKS)))] for line in lines)
    return "\n".join(lines) + end


@pytest.mark.parametrize("layout", LAYOUTS)
def test_run_reader_layouts_agree_with_the_line_parser(layout):
    rng = np.random.default_rng(40 + LAYOUTS.index(layout))
    failed = 0
    for i in range(40):
        md = (mixed_arity_market if layout == "mixed arities" else random_market)(rng)
        lines = serialize_market(md).splitlines()
        if i % 2:
            corrupt(rng, lines, FAULTS[int(rng.integers(len(FAULTS) - 1))])
        text = laid_out(rng, lines, layout)
        got = outcome(parse_market_text, text)
        assert got == outcome(oracles.parse_market_text, text), text
        failed += isinstance(got[0], str)
    assert 0 < failed < 40


@pytest.mark.parametrize("layout", ("line breaks", "no-break space", "no final newline",
                                    "comment line in a run"))
def test_run_reader_claim_layouts_agree_with_the_line_parser(layout):
    rng = np.random.default_rng(50 + LAYOUTS.index(layout))
    for i in range(60):
        tree = random_irregular_tree(rng)
        cut = sorted(random_stopping_time(tree, rng).cut)
        lines = [f"value {v} {float(rng.normal())!r}" for v in cut] + ["value 0 1.0"] * (i % 2)
        text = laid_out(rng, lines, layout)
        assert (outcome(parse_claim_text, text, tree, False)
                == outcome(oracles.parse_claim_text, text, tree, False)), text


def test_record_words_as_names_read_line_by_line():
    md = parse_market_text("node 0 0 -\nnode 1 1 0\nnode 2 1 0\nweight 1 0.5\nweight 2 0.5\n"
                           "asset asset 0 1.0\nasset asset 1 2.0\nasset asset 2 0.5\n"
                           "quote node bid 0 ask 1\npayoff node 1 1.0\npayoff node 2 0.0\n")
    assert md.assets[0].name == "asset" and md.assets[0].values == {0: 1.0, 1: 2.0, 2: 0.5}
    assert md.quotes[0].name == "node" and md.quotes[0].payoff.values == {1: 1.0, 2: 0.0}


# runs whose token count is a multiple of their line count and whose every
# w-th token is the first word, though their lines differ in length
SEEMING_RUNS = ("node 0 0 -\nasset x y asset\nasset z\n",
                "node 0 0 -\nquote a bid quote\nquote 1 ask 2\n",
                "value 0 value\nvalue 1\nvalue 2 1.0 value 3 2.0\n")


@pytest.mark.parametrize("text", SEEMING_RUNS)
def test_runs_that_only_seem_aligned_read_as_the_line_parser(text):
    tree = FiltrationTree.binomial(2)
    if text.startswith("value"):
        assert (outcome(parse_claim_text, text, tree, False)
                == outcome(oracles.parse_claim_text, text, tree, False))
    else:
        assert outcome(parse_market_text, text) == outcome(oracles.parse_market_text, text)


def test_a_later_asset_line_wins_and_names_read_apart():
    text = ("node 0 0 -\nnode 1 1 0\nnode 2 1 0\nweight 1 0.5\nweight 2 0.5\n"
            "asset T 0 1.0\nasset S 0 1.0\nasset S 1 2.0\nasset T 1 3.0\nasset S 2 0.5\n"
            "asset T 2 4.0\nasset S 1 7.0\nasset T 0 5.0\n")
    md = parse_market_text(text)
    assert outcome(parse_market_text, text) == outcome(oracles.parse_market_text, text)
    assert [(a.name, a.array.tolist()) for a in md.assets] == \
        [("S", [1.0, 7.0, 0.5]), ("T", [5.0, 3.0, 4.0])]


def test_the_run_pattern_splits_on_the_whitespace_of_str_split():
    # the alignment rule counts tokens of str.split within lines found by
    # the pattern; the two must agree on what is whitespace
    space = re.compile(r"\s")
    assert all(bool(space.match(chr(c))) == chr(c).isspace() for c in range(0x3001))
    assert all(("a" + chr(c) + "b").split() == ["a", "b"]
               for c in range(0x3001) if chr(c).isspace())


def test_deep_book_reads_without_the_line_by_line_split(tmp_path, monkeypatch):
    deep_book.main(str(tmp_path))

    def refuse(*args):
        raise AssertionError("the line-by-line split ran")

    monkeypatch.setattr(marketfile, "_split_lines", refuse)
    with open(tmp_path / "deep.market", encoding="utf-8") as fh:
        text = fh.read()
    md = parse_market_text(text)
    assert serialize_market(md) == text
    claim = parse_claim_file(str(tmp_path / "deep.claim"), md.tree)
    assert len(claim.at.cut) == len(md.tree.leaves)
    process = parse_claim_file(str(tmp_path / "deep.process"), md.tree, full_process=True)
    assert len(process) == md.tree.n_nodes
    with pytest.raises(AssertionError, match="line-by-line"):
        parse_market_text(text.replace("node 1 1 0\n", "node 1 1 0 0\n"))
    # a first word that extends the one before starts a run of its own
    with pytest.raises(MarketFileError, match="unknown record 'vertexes'"):
        parse_market_text(text + "vertexes 1\n")
