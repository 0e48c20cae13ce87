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

A per-node cap must name an internal node.  ``set`` lines for retired
settings (``_IGNORED_SETTINGS``; every LP solve is verified) are ignored.

The serializer emits a canonical ordering, and parsing its output
reproduces the same objects.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import MarketFileError, TcppError
from .market import AssetProcess, ConstraintSet, GoodDealCaps, QuotedOption
from .scenario import MenuEntry, ScenarioModel
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


def parse_market_text(text: str) -> MarketData:
    horizon: tuple[int, int] | None = None
    nodes: dict[int, tuple[int, int | None, int]] = {}   # id -> (time, parent, line)
    weights: dict[int, tuple[float, int]] = {}
    menus: dict[int, list[tuple[tuple[float, ...], float, int]]] = {}
    assets: dict[str, dict[int, float]] = {}
    quote_heads: dict[str, tuple[float, float, int]] = {}
    payoffs: dict[str, dict[int, float]] = {}
    caps_default: float | None = None
    caps_nodes: dict[int, tuple[float, int]] = {}
    vertices: list[tuple[float, ...]] = []
    overrides: dict[str, float | int | bool] = {}
    any_cap = False

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "horizon":
            if len(args) != 1:
                raise MarketFileError("horizon takes one integer", ln)
            horizon = (_int(args[0], ln, "horizon"), ln)
        elif kind == "node":
            if len(args) != 3:
                raise MarketFileError("node takes: id time parent", ln)
            nid = _int(args[0], ln, "node id")
            t = _int(args[1], ln, "node time")
            par = None if args[2] == "-" else _int(args[2], ln, "node parent")
            if nid in nodes:
                raise MarketFileError(f"node {nid} defined twice", ln)
            nodes[nid] = (t, par, ln)
        elif kind == "weight":
            if len(args) != 2:
                raise MarketFileError("weight takes: leaf value", ln)
            weights[_int(args[0], ln, "leaf id")] = (_num(args[1], ln, "weight"), ln)
        elif kind == "menu":
            if len(args) < 4 or args[1] != "kernel" or "penalty" not in args:
                raise MarketFileError("menu takes: node kernel <p...> penalty <a>", ln)
            node = _int(args[0], ln, "menu node")
            pidx = args.index("penalty")
            kernel = tuple(_num(tok, ln, "kernel weight") for tok in args[2:pidx])
            if len(args) != pidx + 2:
                raise MarketFileError("menu needs exactly one penalty value", ln)
            pen = _num(args[pidx + 1], ln, "penalty")
            menus.setdefault(node, []).append((kernel, pen, ln))
        elif kind == "asset":
            if len(args) != 3:
                raise MarketFileError("asset takes: name node value", ln)
            assets.setdefault(args[0], {})[_int(args[1], ln, "asset node")] = \
                _num(args[2], ln, "asset value")
        elif kind == "quote":
            if len(args) != 5 or args[1] != "bid" or args[3] != "ask":
                raise MarketFileError("quote takes: name bid <b> ask <a>", ln)
            quote_heads[args[0]] = (_num(args[2], ln, "bid"), _num(args[4], ln, "ask"), ln)
        elif kind == "payoff":
            if len(args) != 3:
                raise MarketFileError("payoff takes: name node value", ln)
            payoffs.setdefault(args[0], {})[_int(args[1], ln, "payoff node")] = \
                _num(args[2], ln, "payoff value")
        elif kind == "cap":
            if len(args) != 2:
                raise MarketFileError("cap takes: node|* value", ln)
            any_cap = True
            cap = _num(args[1], ln, "cap")
            try:
                GoodDealCaps(cap)    # its own check, here to name the line
            except TcppError as exc:
                raise MarketFileError(str(exc), ln)
            if args[0] == "*":
                caps_default = cap
            else:
                caps_nodes[_int(args[0], ln, "cap node")] = (cap, ln)
        elif kind == "vertex":
            if not args:
                raise MarketFileError("vertex needs at least one coordinate", ln)
            vertices.append(tuple(_num(tok, ln, "vertex coordinate") for tok in args))
        elif kind == "set":
            if len(args) != 2:
                raise MarketFileError("set takes: key value", ln)
            key = args[0]
            if key in _IGNORED_SETTINGS:
                continue
            if key not in _SETTING_FIELDS:
                raise MarketFileError(f"unknown setting {key!r}", ln)
            if key == "max_enum":
                overrides[key] = _int(args[1], ln, key)
            else:
                overrides[key] = _num(args[1], ln, key)
        else:
            raise MarketFileError(f"unknown record {kind!r}", ln)

    if not nodes:
        raise MarketFileError("document defines no nodes")
    nid_line = min(ln for _, _, ln in nodes.values())
    if sorted(nodes) != list(range(len(nodes))):
        raise MarketFileError("node ids must be contiguous from 0", nid_line)
    times = [nodes[i][0] for i in range(len(nodes))]
    parents = [nodes[i][1] for i in range(len(nodes))]
    try:
        tree = FiltrationTree(times, parents, {v: w for v, (w, _) in weights.items()})
    except TcppError as exc:
        raise MarketFileError(f"invalid tree: {exc}", nid_line)
    if horizon is not None and horizon[0] != tree.horizon:
        raise MarketFileError(
            f"declared horizon {horizon[0]} but leaves sit at {tree.horizon}", horizon[1])

    model = None
    if menus:
        first_ln = min(ln for entries in menus.values() for _, _, ln in entries)
        try:
            model = ScenarioModel(tree, {
                node: [MenuEntry(k, p) for k, p, _ in entries]
                for node, entries in menus.items()})
        except TcppError as exc:
            raise MarketFileError(f"invalid scenario model: {exc}", first_ln)

    asset_list = []
    for name in sorted(assets):
        ap = AssetProcess(name, assets[name])
        try:
            ap.validate(tree)
        except TcppError as exc:
            raise MarketFileError(f"asset {name}: {exc}")
        asset_list.append(ap)

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

    for node, (_, ln) in caps_nodes.items():
        if not (0 <= node < tree.n_nodes and tree.children[node]):
            raise MarketFileError(f"cap node {node} is not an internal node of the tree", ln)
    caps = (GoodDealCaps(caps_default, {v: c for v, (c, _) in caps_nodes.items()})
            if any_cap else None)
    h_set = ConstraintSet(vertices) if vertices else None
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


def parse_claim_text(text: str, tree: FiltrationTree,
                     full_process: bool = False) -> Claim | dict[int, float]:
    """Claim file: ``value <node> <x>`` lines.

    With ``full_process`` the values must cover every node (an adapted
    payoff process); otherwise the nodes must form a stopping time.
    """
    values: dict[int, float] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "value" or len(parts) != 3:
            raise MarketFileError("claim lines read: value <node> <x>", ln)
        values[_int(parts[1], ln, "node")] = _num(parts[2], ln, "value")
    if full_process:
        missing = [v for v in range(tree.n_nodes) if v not in values]
        if missing:
            raise MarketFileError(f"payoff process misses nodes {missing}")
        return values
    cut = StoppingTime.of(values)
    try:
        validate_stopping_time(tree, cut)
    except TcppError as exc:
        raise MarketFileError(f"claim nodes are not a stopping time: {exc}")
    return Claim(cut, values)


def parse_claim_file(path: str, tree: FiltrationTree,
                     full_process: bool = False) -> Claim | dict[int, float]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_claim_text(fh.read(), tree, full_process)
