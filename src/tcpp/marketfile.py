"""Market document format: one self-describing text file per market.

Line-oriented records, ``#`` comments, order-insensitive:

    horizon 2
    node <id> <time> <parent|->        one per node, root parent is '-'
    weight <leaf> <w>                  reference weight per leaf
    menu <node> kernel <p...> penalty <a>
    asset <name> <node> <value>
    quote <name> bid <b> ask <a>
    payoff <name> <node> <value>       payoff nodes define the maturity cut
    cap <node|*> <A>                   good-deal cap, '*' for the default
    vertex <h1> [h2 ...]               constraint-set vertex
    set <key> <value>                  numeric-settings override

A per-node cap must name an internal node, and a setting must be finite and
nonnegative.  ``set`` lines for retired settings (``_IGNORED_SETTINGS``;
every LP solve is verified) are ignored.
Where a record repeats, the later line wins; menu lines add entries.

Parsing is in blocks.  One pass over the lines sorts every record into a
block by its first word and token count, keeping only its line number and
text.  Each block is then split into one flat token list and read as
columns: numbers are converted a column at a time, and the fixed words,
finiteness and the other checks of single lines run over whole columns; a
block's tokens are released once it is read.  The tree and the scenario
model are built from the resulting arrays (the menus as a
:class:`~tcpp.scenario.MenuTable`).

Errors name a line where one is to blame.  A block whose column checks fail
is checked again line by line, in the order the format applies the checks,
to name its first fault; among the faults of all blocks the earliest line
wins, as if the file were read line by line.  Faults of the document as a
whole follow, in this order: no nodes, node ids not contiguous, the tree,
the declared horizon, the menus, the assets, the quotes, the caps.

The serializer emits a canonical ordering, and parsing its output
reproduces the same objects.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import Callable

import numpy as np

from .errors import MarketFileError, TcppError
from .market import AssetProcess, ConstraintSet, GoodDealCaps, QuotedOption
from .scenario import MenuTable, ScenarioModel
from .settings import Settings
from .tree import Claim, FiltrationTree, StoppingTime, validate_stopping_time

_SETTING_FIELDS = {f.name: f.type for f in dataclasses.fields(Settings)}
_IGNORED_SETTINGS = ("cut_tol", "max_cut_rounds", "verify_lp")    # accepted and ignored


@dataclass
class MarketData:
    tree: FiltrationTree
    model: ScenarioModel | None = None
    assets: list[AssetProcess] = field(default_factory=list)
    quotes: list[QuotedOption] = field(default_factory=list)
    caps: GoodDealCaps | None = None
    constraint_set: ConstraintSet | None = None
    settings: Settings = Settings()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarketData):
            return NotImplemented
        same_model = (self.model is None) == (other.model is None) and (
            self.model is None or (self.model.tree == other.model.tree
                                   and self.model.menus == other.model.menus))
        same_caps = (self.caps is None) == (other.caps is None) and (
            self.caps is None or (self.caps.default == other.caps.default
                                  and self.caps.per_node == other.caps.per_node))
        same_h = (self.constraint_set is None) == (other.constraint_set is None) and (
            self.constraint_set is None
            or self.constraint_set.vertices == other.constraint_set.vertices)
        return (self.tree == other.tree and same_model
                and self.assets == other.assets and self.quotes == other.quotes
                and same_caps and same_h and self.settings == other.settings)


def _num(token: str, line: int, what: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise MarketFileError(f"{what}: {token!r} is not a number", line)
    if not math.isfinite(x):
        raise MarketFileError(f"{what}: {token!r} is not a finite number", line)
    return x


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MarketFileError(f"{what}: {token!r} is not an integer", line)


_ARGS = {"horizon": 1, "node": 3, "weight": 2, "asset": 3, "quote": 5, "payoff": 3,
         "cap": 2, "set": 2}     # arguments per line; menu takes 4 or more, vertex 1 or more

_Blocks = dict[tuple[str, int], tuple[list[int], list[str]]]


def _blocks(text: str) -> _Blocks:
    """The non-blank lines by (first word, token count): their line numbers
    and their text, comments cut off."""
    blocks: _Blocks = {}
    kind, width = None, 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        parts = line.split()
        if not parts:
            continue
        if parts[0] != kind or len(parts) != width:     # else the block of the line before
            kind, width = parts[0], len(parts)
            lines, texts = blocks.setdefault((kind, width), ([], []))
        lines.append(ln)
        texts.append(line)
    return blocks


def _floats(toks: list[str], width: int, cols: list[int]) -> np.ndarray:
    """Columns ``cols`` of a block of ``width`` tokens per line as finite
    floats, one row per column, converted at once."""
    n = len(toks) // width
    x = np.fromiter(map(float, chain.from_iterable(toks[j::width] for j in cols)), float,
                    n * len(cols))
    if not np.isfinite(x).all():
        raise ValueError("not a finite number")
    return x.reshape(len(cols), n)


def _finite(tokens: list[str]) -> list[float]:
    """A column as finite floats, for the values that end as Python floats
    (all but the menus' and the claims'): an array would cost numpy calls
    per block and a conversion back."""
    x = list(map(float, tokens))
    if not all(map(math.isfinite, x)):
        raise ValueError("not a finite number")
    return x


def _read_block(kind: str, width: int, toks: list[str]):
    """The columns of one block of ``width`` tokens per line, converted;
    ValueError where any of its lines is at fault."""
    n = len(toks) // width

    def col(j: int) -> list[str]:
        return toks[j::width]

    if kind == "menu" and width >= 5:
        if col(2).count("kernel") != n or col(width - 2).count("penalty") != n:
            raise ValueError("menu words")
        x = _floats(toks, width, [*range(3, width - 2), width - 1])
        return list(map(int, col(1))), x[:-1].T, x[-1]
    if kind == "vertex" and width >= 2:
        return list(zip(*(_finite(col(j)) for j in range(1, width))))
    if width != _ARGS.get(kind, -1) + 1:
        raise ValueError("unknown record or token count")
    if kind == "horizon":
        return list(map(int, col(1)))
    if kind == "node":
        ids = list(map(int, col(1)))
        if len(set(ids)) != n:
            raise ValueError("node defined twice")
        return ids, list(map(int, col(2))), [None if tok == "-" else int(tok) for tok in col(3)]
    if kind == "weight":
        return list(map(int, col(1))), _finite(col(2))
    if kind in ("asset", "payoff"):
        return col(1), list(map(int, col(2))), _finite(col(3))
    if kind == "quote":
        if col(2).count("bid") != n or col(4).count("ask") != n:
            raise ValueError("quote words")
        return col(1), _finite(col(3)), _finite(col(5))
    if kind == "cap":
        caps = _finite(col(2))
        if not min(caps) >= 1.0:
            raise ValueError("cap below 1")
        return [None if tok == "*" else int(tok) for tok in col(1)], caps
    overrides: dict[str, float | int] = {}           # set
    for key, tok in zip(col(1), col(2)):
        if key in _IGNORED_SETTINGS:
            continue
        if key not in _SETTING_FIELDS:
            raise ValueError("unknown setting")
        overrides[key] = int(tok) if key == "max_enum" else _finite([tok])[0]
        if overrides[key] < 0:
            raise ValueError("negative setting")
    return overrides


def _check_line(kind: str, args: list[str], ln: int, seen: set[int]) -> None:
    """The checks of one market line, in the order the format applies them;
    ``seen`` collects the node ids of earlier node lines.  A cap's and a
    setting's own checks raise without a line, which the caller adds."""
    if kind == "horizon":
        if len(args) != 1:
            raise MarketFileError("horizon takes one integer", ln)
        _int(args[0], ln, "horizon")
    elif kind == "node":
        if len(args) != 3:
            raise MarketFileError("node takes: id time parent", ln)
        nid = _int(args[0], ln, "node id")
        _int(args[1], ln, "node time")
        if args[2] != "-":
            _int(args[2], ln, "node parent")
        if nid in seen:
            raise MarketFileError(f"node {nid} defined twice", ln)
        seen.add(nid)
    elif kind == "weight":
        if len(args) != 2:
            raise MarketFileError("weight takes: leaf value", ln)
        _num(args[1], ln, "weight")
        _int(args[0], ln, "leaf id")
    elif kind == "menu":
        if len(args) < 4 or args[1] != "kernel" or "penalty" not in args:
            raise MarketFileError("menu takes: node kernel <p...> penalty <a>", ln)
        _int(args[0], ln, "menu node")
        pidx = args.index("penalty")
        for tok in args[2:pidx]:
            _num(tok, ln, "kernel weight")
        if len(args) != pidx + 2:
            raise MarketFileError("menu needs exactly one penalty value", ln)
        _num(args[pidx + 1], ln, "penalty")
    elif kind in ("asset", "payoff"):
        if len(args) != 3:
            raise MarketFileError(f"{kind} takes: name node value", ln)
        _num(args[2], ln, f"{kind} value")
        _int(args[1], ln, f"{kind} node")
    elif kind == "quote":
        if len(args) != 5 or args[1] != "bid" or args[3] != "ask":
            raise MarketFileError("quote takes: name bid <b> ask <a>", ln)
        _num(args[2], ln, "bid")
        _num(args[4], ln, "ask")
    elif kind == "cap":
        if len(args) != 2:
            raise MarketFileError("cap takes: node|* value", ln)
        GoodDealCaps(_num(args[1], ln, "cap"))
        if args[0] != "*":
            _int(args[0], ln, "cap node")
    elif kind == "vertex":
        if not args:
            raise MarketFileError("vertex needs at least one coordinate", ln)
        for tok in args:
            _num(tok, ln, "vertex coordinate")
    elif kind == "set":
        if len(args) != 2:
            raise MarketFileError("set takes: key value", ln)
        key = args[0]
        if key in _IGNORED_SETTINGS:
            return
        if key not in _SETTING_FIELDS:
            raise MarketFileError(f"unknown setting {key!r}", ln)
        Settings(**{key: (_int if key == "max_enum" else _num)(args[1], ln, key)})
    else:
        raise MarketFileError(f"unknown record {kind!r}", ln)


def _read_blocks(blocks: _Blocks, read: Callable[[str, int, list[str]], object],
                 check: Callable[[str, list[str], int, set[int]], None]) -> dict[str, list]:
    """``read(kind, width, toks)`` of every block, as ``(lines, columns)``
    per kind, each block's tokens released once read.  Where blocks are at
    fault, raise the fault of the earliest line, named by ``check``."""
    out: dict[str, list] = {}
    faults: list[MarketFileError] = []
    while blocks:
        (kind, width), (lines, text) = blocks.popitem()
        toks = " ".join(text).split()       # the block's tokens, first words included
        del text
        try:
            out.setdefault(kind, []).append((lines, read(kind, width, toks)))
        except ValueError:
            seen: set[int] = set()
            for i, ln in enumerate(lines):
                try:
                    check(kind, toks[i * width + 1:(i + 1) * width], ln, seen)
                except TcppError as exc:    # a record's own check names no line: name it here
                    faults.append(exc if isinstance(exc, MarketFileError)
                                  else MarketFileError(str(exc), ln))
                    break
            else:
                raise      # the column checks rejected a block that no line check does
        del toks
    if faults:
        raise min(faults, key=lambda exc: exc.line)
    return out


def _by_name(names: list[str], nodes: list[int], vals: list[float]
             ) -> dict[str, dict[int, float]]:
    """Values per name and node, a later line overriding an earlier one."""
    out = {}
    for name, rows in groupby(sorted(range(len(names)), key=names.__getitem__),
                              names.__getitem__):               # sorted is stable: by line
        rows = list(rows)
        out[name] = dict(zip(map(nodes.__getitem__, rows), map(vals.__getitem__, rows)))
    return out


def _menu_table(blocks: list) -> MenuTable:
    """The menu lines' entries in menu order: nodes by their first line,
    each node's entries by line."""
    lines = list(chain.from_iterable(ls for ls, _ in blocks))
    nodes = list(chain.from_iterable(cols[0] for _, cols in blocks))
    arity = np.repeat([cols[1].shape[1] for _, cols in blocks], [len(ls) for ls, _ in blocks])
    weights = np.concatenate([cols[1].ravel() for _, cols in blocks])
    penalties = np.concatenate([cols[2] for _, cols in blocks])
    by_line = sorted(range(len(lines)), key=lines.__getitem__)
    keys = list(dict.fromkeys(map(nodes.__getitem__, by_line)))
    rank = list(map(dict(zip(keys, range(len(keys)))).__getitem__, nodes))
    entry = sorted(by_line, key=rank.__getitem__)           # stable: by line
    if entry != list(range(len(entry))):                    # not yet in menu order
        entry = np.array(entry)
        start = np.cumsum(arity) - arity
        arity, penalties = arity[entry], penalties[entry]
        weights = weights[np.repeat(start[entry] - (np.cumsum(arity) - arity), arity)
                          + np.arange(len(weights))]
    return MenuTable(keys, np.bincount(rank), arity, weights, penalties)


def parse_market_text(text: str) -> MarketData:
    read = _read_blocks(_blocks(text), _read_block, _check_line)

    if "node" not in read:
        raise MarketFileError("document defines no nodes")
    [(lines, (ids, times, parents))] = read["node"]
    nid_line = lines[0]
    if sorted(ids) != list(range(len(ids))):
        raise MarketFileError("node ids must be contiguous from 0", nid_line)
    row = sorted(range(len(ids)), key=ids.__getitem__)     # the row of each node id
    weights = {}
    for _, (leaves, w) in read.get("weight", ()):
        weights.update(zip(leaves, w))
    try:
        tree = FiltrationTree(list(map(times.__getitem__, row)),
                              list(map(parents.__getitem__, row)), weights)
    except TcppError as exc:
        raise MarketFileError(f"invalid tree: {exc}", nid_line)
    for lines, horizons in read.get("horizon", ()):
        if horizons[-1] != tree.horizon:
            raise MarketFileError(f"declared horizon {horizons[-1]} but leaves sit at "
                                  f"{tree.horizon}", lines[-1])

    model = None
    if "menu" in read:
        first_ln = min(lines[0] for lines, _ in read["menu"])
        try:
            model = ScenarioModel(tree, _menu_table(read["menu"]))
        except TcppError as exc:
            raise MarketFileError(f"invalid scenario model: {exc}", first_ln)

    assets: dict[str, dict[int, float]] = {}
    for _, cols in read.get("asset", ()):
        assets = _by_name(*cols)
    asset_list = []
    for name in sorted(assets):
        ap = AssetProcess(name, assets[name])
        try:
            ap.validate(tree)
        except TcppError as exc:
            raise MarketFileError(f"asset {name}: {exc}")
        asset_list.append(ap)

    quote_heads: dict[str, tuple[float, float, int]] = {}
    for lines, (names, bids, asks) in read.get("quote", ()):
        quote_heads = dict(zip(names, zip(bids, asks, lines)))
    payoffs: dict[str, dict[int, float]] = {}
    for _, cols in read.get("payoff", ()):
        payoffs = _by_name(*cols)
    quotes = []
    for name in sorted(set(quote_heads) | set(payoffs)):
        if name not in quote_heads:
            raise MarketFileError(f"payoff {name!r} has no quote line")
        if name not in payoffs:
            raise MarketFileError(f"quote {name!r} has no payoff values")
        bid, ask, ln = quote_heads[name]
        cut = StoppingTime.of(payoffs[name])
        try:
            validate_stopping_time(tree, cut)
            claim = Claim(cut, payoffs[name])
            quotes.append(QuotedOption(name, claim, bid, ask))
        except TcppError as exc:
            raise MarketFileError(f"quote {name}: {exc}", ln)

    caps = None
    for lines, (nodes, values) in read.get("cap", ()):
        default = None
        per_node: dict[int, tuple[float, int]] = {}
        for node, cap, ln in zip(nodes, values, lines):
            if node is None:
                default = cap
            else:
                per_node[node] = (cap, ln)
        for node, (_, ln) in per_node.items():
            if not (0 <= node < tree.n_nodes and tree.children[node]):
                raise MarketFileError(f"cap node {node} is not an internal node of the tree",
                                      ln)
        caps = GoodDealCaps(default, {v: c for v, (c, _) in per_node.items()})
    vertices = sorted((ln, v) for lines, coords in read.get("vertex", ())
                      for ln, v in zip(lines, coords))
    h_set = ConstraintSet([v for _, v in vertices]) if vertices else None
    overrides = {}
    for _, values in read.get("set", ()):
        overrides = values
    settings = dataclasses.replace(Settings(), **overrides) if overrides else Settings()
    return MarketData(tree, model, asset_list, quotes, caps, h_set, settings)


def parse_market_file(path: str) -> MarketData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_market_text(fh.read())


def serialize_market(md: MarketData) -> str:
    tree = md.tree
    out = [f"horizon {tree.horizon}"]
    for v in range(tree.n_nodes):
        par = tree.parents[v]
        out.append(f"node {v} {tree.times[v]} {'-' if par is None else par}")
    for leaf in tree.leaves:
        out.append(f"weight {leaf} {float(tree.leaf_weights[leaf])!r}")
    if md.model is not None:
        for node in sorted(md.model.menus):
            for e in md.model.menus[node]:
                ker = " ".join(repr(float(p)) for p in e.kernel)
                out.append(f"menu {node} kernel {ker} penalty {float(e.penalty)!r}")
    for asset in md.assets:
        for v in range(tree.n_nodes):
            out.append(f"asset {asset.name} {v} {float(asset.values[v])!r}")
    for q in md.quotes:
        out.append(f"quote {q.name} bid {float(q.bid)!r} ask {float(q.ask)!r}")
        for v in q.payoff.at.sorted():
            out.append(f"payoff {q.name} {v} {float(q.payoff.values[v])!r}")
    if md.caps is not None:
        if md.caps.default is not None:
            out.append(f"cap * {float(md.caps.default)!r}")
        for node in sorted(md.caps.per_node):
            out.append(f"cap {node} {float(md.caps.per_node[node])!r}")
    if md.constraint_set is not None:
        for vert in md.constraint_set.vertices:
            out.append("vertex " + " ".join(repr(float(x)) for x in vert))
    default = Settings()
    for f in dataclasses.fields(Settings):
        val = getattr(md.settings, f.name)
        if val != getattr(default, f.name):
            out.append(f"set {f.name} {val!r}")
    return "\n".join(out) + "\n"


def _read_claim_block(kind: str, width: int, toks: list[str]) -> tuple[list[int], np.ndarray]:
    if (kind, width) != ("value", 3):
        raise ValueError("not a value line")
    return list(map(int, toks[1::3])), _floats(toks, 3, [2])[0]


def _check_claim_line(kind: str, args: list[str], ln: int, seen: set[int]) -> None:
    if kind != "value" or len(args) != 2:
        raise MarketFileError("claim lines read: value <node> <x>", ln)
    _num(args[1], ln, "value")
    _int(args[0], ln, "node")


def parse_claim_text(text: str, tree: FiltrationTree,
                     full_process: bool = False) -> Claim | dict[int, float]:
    """Claim file: ``value <node> <x>`` lines, read in blocks as market
    files are.

    With ``full_process`` the values must cover every node (an adapted
    payoff process); otherwise the nodes must form a stopping time.
    """
    read = _read_blocks(_blocks(text), _read_claim_block, _check_claim_line)
    nodes, values = [], np.zeros(0)
    for _, block in read.get("value", ()):
        nodes, values = block
    if full_process:
        process = dict(zip(nodes, values.tolist()))
        missing = [v for v in range(tree.n_nodes) if v not in process]
        if missing:
            raise MarketFileError(f"payoff process misses nodes {missing}")
        return process
    at = StoppingTime.of(nodes)
    try:
        validate_stopping_time(tree, at)
    except TcppError as exc:
        raise MarketFileError(f"claim nodes are not a stopping time: {exc}")
    # the nodes ascending, as the claim holds them, each with its last line's value
    _, last = np.unique(np.array(nodes)[::-1], return_index=True)
    return Claim(at, values[::-1][last])


def parse_claim_file(path: str, tree: FiltrationTree,
                     full_process: bool = False) -> Claim | dict[int, float]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_claim_text(fh.read(), tree, full_process)
