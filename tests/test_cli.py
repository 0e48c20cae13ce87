"""Market-file parsing, serializer round trip, and command dispatch."""
import math
import os

import numpy as np
import pytest

import oracles
import tcpp.pricing
import tcpp.scenario
from gen import (deep_chain_model, killed_leaf_model, random_claim, random_model,
                 random_tree)
from tcpp.cli import main
from tcpp.errors import MarketFileError, TcppError
from tcpp.market import AssetProcess, GoodDealCaps, QuotedOption
from tcpp.marketfile import (MarketData, parse_claim_text, parse_market_file,
                             parse_market_text, serialize_market)
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.settings import Settings
from tcpp.tree import FiltrationTree

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
BINOMIAL = os.path.join(DEMOS, "binomial.market")
TRINOMIAL = os.path.join(DEMOS, "trinomial.market")
CALL = os.path.join(DEMOS, "binomial_call.claim")
DIGITAL = os.path.join(DEMOS, "trinomial_digital.claim")
PUT = os.path.join(DEMOS, "binomial_put_process.claim")

MINIMAL = """
horizon 1
node 0 0 -
node 1 1 0
node 2 1 0
weight 1 0.5
weight 2 0.5
"""


def test_minimal_file_tree_only():
    md = parse_market_text(MINIMAL)
    assert md.tree.horizon == 1
    assert md.model is None and not md.assets and not md.quotes


def test_kernel_sum_violation_names_the_node():
    bad = MINIMAL + "menu 0 kernel 0.5 0.4 penalty 0\n"
    with pytest.raises(MarketFileError) as err:
        parse_market_text(bad)
    assert "node 0" in str(err.value)


def test_bid_above_ask_rejected():
    bad = MINIMAL + "quote C bid 0.5 ask 0.2\npayoff C 1 1\npayoff C 2 0\n"
    with pytest.raises(MarketFileError) as err:
        parse_market_text(bad)
    assert "bid" in str(err.value)


def test_parse_error_carries_line_number():
    bad = MINIMAL + "node x y z\n"
    with pytest.raises(MarketFileError) as err:
        parse_market_text(bad)
    assert "line 8" in str(err.value)


def test_unknown_record_rejected():
    with pytest.raises(MarketFileError):
        parse_market_text(MINIMAL + "frobnicate 1\n")


def test_round_trip_is_identity_on_demo_files():
    for path in (BINOMIAL, TRINOMIAL):
        md = parse_market_file(path)
        text = serialize_market(md)
        again = parse_market_text(text)
        assert again == md
        assert serialize_market(again) == text


def test_round_trip_of_models_built_from_numpy_values():
    rng = np.random.default_rng(23)
    for _ in range(20):
        tree = random_tree(rng)
        asset = AssetProcess("S", dict(enumerate(rng.uniform(0.5, 2.0, tree.n_nodes))))
        payoff = random_claim(rng, tree)
        bid, ask = np.sort(rng.uniform(-1.0, 1.0, 2))
        md = MarketData(tree, random_model(rng, tree), [asset],
                        [QuotedOption("q", payoff, bid, ask)],
                        GoodDealCaps(np.float64(1.5), {tree.root: np.float64(2.0)}))
        text = serialize_market(md)
        again = parse_market_text(text)
        assert again == md
        assert serialize_market(again) == text


def test_settings_override_round_trip():
    md = parse_market_text(MINIMAL + "set feasibility_tol 1e-8\nset max_enum 5000\n")
    assert md.settings.feasibility_tol == 1e-8
    assert md.settings.max_enum == 5000
    assert parse_market_text(serialize_market(md)) == md


def test_retired_rank_and_duality_settings_are_read_and_ignored():
    # the rank and duality tolerances are constants of tcpp.settings now:
    # their set lines parse, in both parsers, to the default settings and
    # are not written back
    text = MINIMAL + "set rank_tol 1e-3\nset duality_tol 0.5\nset max_enum 5000\n"
    md = parse_market_text(text)
    assert md.settings == Settings(max_enum=5000)
    assert oracles.parse_market_text(text) == md
    again = serialize_market(md)
    assert "rank_tol" not in again and "duality_tol" not in again
    assert parse_market_text(again) == md


def test_claim_file_stopping_time_checked():
    md = parse_market_text(MINIMAL)
    claim = parse_claim_text("value 1 1\nvalue 2 0\n", md.tree)
    assert claim.values == {1: 1.0, 2: 0.0}
    with pytest.raises(MarketFileError):
        parse_claim_text("value 1 1\n", md.tree)   # misses the down path
    with pytest.raises(MarketFileError):
        parse_claim_text("value 1 1\n", md.tree, full_process=True)


def test_price_command_unique_mme(capsys):
    code = main(["price", "--market", BINOMIAL, "--claim", CALL, "--at", "root"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bid.0: 0.3333333333333333" in out
    assert "ask.0: 0.3333333333333333" in out


def test_nfl_command_prints_densities(capsys):
    code = main(["nfl", "--market", BINOMIAL])
    out = capsys.readouterr().out
    assert code == 0
    assert "no-free-lunch" in out
    assert "density.3" in out


def test_nfl_command_free_lunch_exits_one(capsys):
    text = MINIMAL + "menu 0 kernel 1 0 penalty 0\n"
    path = os.path.join(DEMOS, "..", "build_test_freelunch.market")
    try:
        with open(path, "w") as fh:
            fh.write(text)
        code = main(["nfl", "--market", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "free-lunch" in out
    finally:
        os.unlink(path)


def test_check_tcpp_negative_penalty_witness(capsys, tmp_path):
    bad = MINIMAL + "menu 0 kernel 0.5 0.5 penalty -0.1\n"
    path = tmp_path / "bad.market"
    path.write_text(bad)
    code = main(["check-tcpp", "--market", str(path), "--samples", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "normalization" in out


def test_check_tcpp_demo_passes(capsys):
    code = main(["check-tcpp", "--market", TRINOMIAL, "--samples", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check.pricing-axioms: pass" in out


def test_bounds_kinds(capsys):
    assert main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL]) == 0
    assert main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL,
                 "--kind", "calibrated"]) == 0
    assert main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL,
                 "--kind", "good-deal"]) == 0
    out = capsys.readouterr().out
    assert "lower" in out and "upper" in out


def test_machine_format_tab_separated(capsys):
    main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL,
          "--format", "machine"])
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert "\t" in line


def test_calibrate_extends_constrained_american(capsys):
    assert main(["calibrate", "--market", TRINOMIAL]) == 0
    assert main(["extends", "--market", TRINOMIAL]) == 0
    assert main(["constrained", "--market", BINOMIAL, "--claim", CALL]) == 0
    assert main(["american", "--market", BINOMIAL, "--claim", PUT]) == 0
    out = capsys.readouterr().out
    assert "induction-agrees: true" in out


def test_input_errors_exit_two(capsys):
    assert main(["price", "--market", "/no/such/file", "--claim", CALL]) == 2
    assert main(["price", "--market", BINOMIAL]) == 2  # missing --claim
    assert main(["bounds", "--market", BINOMIAL, "--claim", CALL,
                 "--kind", "good-deal"]) == 2          # no caps anywhere


def test_reports_deterministic_given_seed(capsys):
    main(["check-tcpp", "--market", TRINOMIAL, "--samples", "10", "--seed", "7"])
    first = capsys.readouterr().out
    main(["check-tcpp", "--market", TRINOMIAL, "--samples", "10", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_check_tcpp_enumerates_nothing(monkeypatch, capsys, tmp_path):
    # binomial H=6 with 2 entries has 2^63 selections; the cocycle samples
    # are drawn, so neither the default cap nor a cap of 1 is reached
    model = _binomial_two_entries(periods=6)
    path = tmp_path / "model.market"
    path.write_text(serialize_market(MarketData(model.tree, model)))
    for cap in (None, "1"):
        if cap is not None:
            monkeypatch.setenv("TCPP_MAX_ENUM", cap)
        code = main(["check-tcpp", "--market", str(path), "--format", "machine"])
        out, err = capsys.readouterr()
        assert code == 0 and not err
        records = dict(line.split("\t") for line in out.strip().splitlines())
        checks = {k: v for k, v in records.items() if k.startswith("check.")}
        assert sorted(checks) == ["check.cocycle", "check.non-degeneracy",
                                  "check.pricing-axioms", "check.time-consistency"]
        assert set(checks.values()) == {"pass"}


def test_american_enumerates_nothing(monkeypatch, capsys):
    # with the enumeration cap at 1 any enumeration would exit 2
    monkeypatch.setenv("TCPP_MAX_ENUM", "1")
    code = main(["american", "--market", BINOMIAL, "--claim", PUT,
                 "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    records = dict(line.split("\t") for line in out.strip().splitlines())
    assert records["value.0"] == records["induction.0"]
    assert records["induction-agrees"] == "true"


def test_nfl_negative_penalty_exits_two(capsys, tmp_path):
    path = tmp_path / "negative.market"
    path.write_text(MINIMAL + "menu 0 kernel 0.5 0.5 penalty 0\n"
                    "menu 0 kernel 0.2 0.8 penalty -0.1\n")
    code = main(["nfl", "--market", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "node 0" in err and "-0.1" in err


def _binomial_two_entries(periods: int = 4) -> ScenarioModel:
    rng = np.random.default_rng(5)
    tree = FiltrationTree.binomial(periods)
    return ScenarioModel(tree, {v: [MenuEntry(tuple(rng.dirichlet([2.0, 2.0])), 0.0),
                                    MenuEntry(tuple(rng.dirichlet([2.0, 2.0])),
                                              float(rng.exponential(0.2)))]
                                for v in tree.internal_nodes()})


@pytest.mark.parametrize("case", ["demo", "binomial H=4", "chain H=1201"])
def test_nfl_enumerates_nothing(case, monkeypatch, capsys, tmp_path):
    # the reference enumerators raise, and the cap is the minimal penalty's
    # own search: at most 2 + 1 menu supports per node (2 entries at arity 2)
    def refuse(*args, **kwargs):
        raise AssertionError("enumerator called")
    for module, name in [(tcpp.scenario, "enumerate_selections"),
                         (tcpp.scenario, "subtree_duals"),
                         (tcpp.pricing, "enumerate_stop_sets")]:
        monkeypatch.setattr(module, name, refuse)
    if case == "demo":
        path = BINOMIAL
    else:
        model = _binomial_two_entries() if case == "binomial H=4" else deep_chain_model()
        path = tmp_path / "model.market"
        path.write_text(serialize_market(MarketData(model.tree, model)))
    tree = parse_market_file(str(path)).tree
    monkeypatch.setenv("TCPP_MAX_ENUM", "3")
    code = main(["nfl", "--market", str(path), "--format", "machine"])
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert code == 0
    assert out["verdict"] == "no-free-lunch"
    assert out["certificate"] == "zero-penalty-equivalent-measure"
    density = np.array([float(out[f"density.{leaf}"]) for leaf in tree.leaves])
    weights = np.array([tree.leaf_weights[leaf] for leaf in tree.leaves])
    assert density.min() > 0.0 and abs(density @ weights - 1.0) <= 1e-9


MENU_1 = "menu 1 kernel 0.3333333333333333 0.6666666666666667 penalty 0"
QUOTE = "quote C bid 0.1 ask 0.9\npayoff C 1 1\npayoff C 2 0"


@pytest.mark.parametrize("what,command,old,new", [
    pytest.param("weight", "bounds", "weight 3 0.25", "weight 3 nan", id="weight"),
    pytest.param("kernel weight", "price", MENU_1,
                 MENU_1.replace("0.3333333333333333", "nan"), id="kernel"),
    pytest.param("penalty", "price", MENU_1, MENU_1[:-1] + "nan", id="penalty-nan"),
    pytest.param("penalty", "price", MENU_1, MENU_1[:-1] + "inf", id="penalty-inf"),
    pytest.param("asset value", "constrained", "asset S 4 1", "asset S 4 inf", id="asset"),
    pytest.param("vertex coordinate", "constrained", "vertex 100", "vertex inf",
                 id="vertex-inf"),
    pytest.param("vertex coordinate", "constrained", "vertex 100", "vertex nan",
                 id="vertex-nan"),
    pytest.param("bid", "calibrate", "vertex 100",
                 "vertex 100\n" + QUOTE.replace("0.1", "-inf"), id="bid"),
    pytest.param("ask", "calibrate", "vertex 100",
                 "vertex 100\n" + QUOTE.replace("0.9", "inf"), id="ask"),
    pytest.param("payoff value", "calibrate", "vertex 100",
                 "vertex 100\n" + QUOTE.replace("C 2 0", "C 2 nan"), id="payoff"),
    pytest.param("cap", "bounds", "vertex 100", "vertex 100\ncap * inf", id="cap"),
    pytest.param("feasibility_tol", "price", "vertex 100",
                 "vertex 100\nset feasibility_tol nan", id="setting"),
])
def test_non_finite_market_numbers_exit_two(what, command, old, new, capsys, tmp_path):
    with open(BINOMIAL, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    text = text.replace(old, new)
    bad = next(tok for tok in ("-inf", "inf", "nan") if tok in new)
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if bad in ln.split())
    path = tmp_path / "bad.market"
    path.write_text(text)
    argv = [command, "--market", str(path)]
    argv += [] if command == "calibrate" else ["--claim", CALL]
    if command == "bounds":
        argv += ["--kind", "good-deal" if what == "cap" else "mme"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {line}: {what}: '{bad}' is not a finite number" in err


def test_non_finite_claim_value_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.claim"
    path.write_text("value 3 1\nvalue 4 inf\nvalue 5 0\nvalue 6 0\n")
    code = main(["price", "--market", BINOMIAL, "--claim", str(path)])
    assert code == 2
    assert "line 2: value: 'inf' is not a finite number" in capsys.readouterr().err


def test_constrained_kernel_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("TCPP_MAX_ENUM", "1")
    code = main(["constrained", "--market", BINOMIAL, "--claim", CALL])
    assert code == 2
    assert "exceed" in capsys.readouterr().err


def test_good_deal_cap_on_a_leaf_exits_two(capsys, tmp_path):
    with open(TRINOMIAL, encoding="utf-8") as fh:
        text = fh.read().rstrip("\n") + "\ncap 99 1.2\n"
    line = len(text.splitlines())
    path = tmp_path / "stray.market"
    path.write_text(text)
    code = main(["bounds", "--market", str(path), "--claim", DIGITAL, "--kind", "good-deal"])
    assert code == 2
    assert f"line {line}: cap node 99 is not an internal node" in capsys.readouterr().err


def test_good_deal_cap_nan_exits_two(capsys):
    code = main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL,
                 "--kind", "good-deal", "--good-deal-cap", "nan"])
    assert code == 2
    assert "good-deal cap nan" in capsys.readouterr().err


def test_infinite_good_deal_cap_prints_the_martingale_bounds(capsys):
    def bounds(*extra):
        assert main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL,
                     "--format", "machine", *extra]) == 0
        return capsys.readouterr().out.splitlines()[:2]
    assert bounds("--kind", "good-deal", "--good-deal-cap", "inf") == bounds("--kind", "mme")


def test_cutting_plane_settings_are_accepted_and_ignored():
    md = parse_market_text(MINIMAL + "set cut_tol 1e-6\nset max_cut_rounds 5\n")
    assert md.settings == parse_market_text(MINIMAL).settings
    assert "cut" not in serialize_market(md)


def test_verify_lp_setting_is_accepted_and_ignored():
    md = parse_market_text(MINIMAL + "set verify_lp false\n")
    assert md.settings == parse_market_text(MINIMAL).settings
    assert "verify_lp" not in serialize_market(md)


@pytest.mark.parametrize("node", ["*", "0"])
def test_cap_below_one_names_its_line(node, capsys, tmp_path):
    with open(TRINOMIAL, encoding="utf-8") as fh:
        text = fh.read().replace("cap * 1.2", f"cap {node} 0.5")
    line = text.splitlines().index(f"cap {node} 0.5") + 1
    with pytest.raises(MarketFileError) as exc:
        parse_market_text(text)
    assert exc.value.line == line
    path = tmp_path / "low.market"
    path.write_text(text)
    code = main(["bounds", "--market", str(path), "--claim", DIGITAL, "--kind", "good-deal"])
    assert code == 2
    assert (f"line {line}: good-deal cap 0.5 is not a number of at least 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, value", [("feasibility_tol", -1.0), ("feasibility_tol", math.nan),
                                          ("equivalence_floor", math.inf),
                                          ("equivalence_floor", -1e-12), ("max_enum", -3)])
def test_settings_check_their_values(field, value):
    with pytest.raises(TcppError, match=f"setting {field} must be finite and at least 0"):
        Settings(**{field: value})
    assert getattr(Settings(**{field: 0}), field) == 0


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [["nfl", "--market", BINOMIAL],
                                  ["calibrate", "--market", TRINOMIAL],
                                  ["bounds", "--market", TRINOMIAL, "--claim", DIGITAL],
                                  ["extends", "--market", BINOMIAL],
                                  ["constrained", "--market", BINOMIAL, "--claim", CALL]])
def test_tol_flag_out_of_range_exits_two(argv, tol, capsys):
    assert main([*argv, "--tol", tol]) == 2
    assert "setting feasibility_tol must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["price", "--market", BINOMIAL, "--claim", CALL],
                                  ["american", "--market", BINOMIAL, "--claim", PUT],
                                  ["check-tcpp", "--market", BINOMIAL]])
def test_commands_without_a_verdict_tolerance_reject_the_tol_flag(argv, capsys):
    # price, american and check-tcpp compare at no tolerance --tol sets
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-2"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_max_enum_env_out_of_range_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("TCPP_MAX_ENUM", "-3")
    assert main(["nfl", "--market", BINOMIAL]) == 2
    assert "setting max_enum must be finite and at least 0, got -3" in capsys.readouterr().err
    monkeypatch.setenv("TCPP_MAX_ENUM", "abc")
    assert main(["nfl", "--market", BINOMIAL]) == 2
    err = capsys.readouterr().err
    assert "TCPP_MAX_ENUM" in err and "max_enum" in err and "'abc'" in err


# the README's worked examples, every command and every bounds kind; each
# printed value is a repr, so these pin their digits and their type
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
README_EXAMPLES = {
    "price": ["price", "--market", BINOMIAL, "--claim", CALL],
    "nfl": ["nfl", "--market", BINOMIAL],
    "check-tcpp": ["check-tcpp", "--market", TRINOMIAL],
    "bounds-calibrated": ["bounds", "--market", TRINOMIAL, "--claim", DIGITAL,
                          "--kind", "calibrated"],
    "bounds-mme": ["bounds", "--market", TRINOMIAL, "--claim", DIGITAL, "--kind", "mme"],
    "bounds-good-deal": ["bounds", "--market", TRINOMIAL, "--claim", DIGITAL,
                         "--kind", "good-deal"],
    "calibrate": ["calibrate", "--market", TRINOMIAL],
    "extends": ["extends", "--market", BINOMIAL],
    "constrained": ["constrained", "--market", BINOMIAL, "--claim", CALL],
    "american": ["american", "--market", BINOMIAL, "--claim", PUT],
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_examples_print_their_golden_machine_output(name, capsys):
    assert main(README_EXAMPLES[name] + ["--format", "machine"]) == 0
    with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize("line", ["set feasibility_tol -1", "set equivalence_floor -0.5",
                                  "set max_enum -5"])
def test_setting_out_of_range_names_its_line(line, capsys, tmp_path):
    with open(BINOMIAL, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines.insert(3, line)
    text = "\n".join(lines) + "\n"
    with pytest.raises(MarketFileError) as exc:
        parse_market_text(text)
    assert exc.value.line == 4
    with pytest.raises(MarketFileError) as oracle_exc:
        oracles.parse_market_text(text)
    assert str(oracle_exc.value) == str(exc.value)
    path = tmp_path / "neg.market"
    path.write_text(text)
    assert main(["nfl", "--market", str(path)]) == 2
    key = line.split()[1]
    assert f"line 4: setting {key} must be finite and at least 0" in capsys.readouterr().err


def test_an_option_the_command_does_not_read_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nfl", "--market", BINOMIAL, "--samples", "3"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_main_builds_the_parser_once_and_a_usage_error_leaves_it_unchanged(capsys, monkeypatch):
    import tcpp.cli
    built = []
    parse = tcpp.cli.argparse.ArgumentParser.parse_args
    monkeypatch.setattr(tcpp.cli.argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: built.append(self) or parse(self, *a, **k))
    argv = ["price", "--market", BINOMIAL, "--claim", CALL, "--format", "machine"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["price", "--market", BINOMIAL, "--claim", CALL, "--no-such-option"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert len(built) == 3 and built[0] is built[1] is built[2] is tcpp.cli.build_parser()


def test_one_integers_call_draws_one_scalar_call_per_node():
    # check-tcpp draws a cocycle selection's entries with one call
    rng = np.random.default_rng(5)
    for i in range(200):
        sizes = rng.integers(1, 2 if i % 10 == 0 else 6, int(rng.integers(1, 80)))
        seed = int(rng.integers(1 << 30))
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        assert one.integers(sizes).tolist() == [int(each.integers(s)) for s in sizes.tolist()]
        assert one.random() == each.random()


def _write_market(tmp_path, name: str, model: ScenarioModel, rng) -> tuple[str, str, str]:
    """A market file with the model, a claim at the horizon and a payoff
    process on every node."""
    tree = model.tree
    paths = [str(tmp_path / f"{name}.{ext}") for ext in ("market", "claim", "process")]
    with open(paths[0], "w") as fh:
        fh.write(serialize_market(MarketData(tree, model)))
    for path, nodes in zip(paths[1:], (tree.leaves, range(tree.n_nodes))):
        with open(path, "w") as fh:
            fh.writelines(f"value {v} {rng.uniform(-1.0, 2.0)!r}\n" for v in nodes)
    return tuple(paths)


def test_no_command_reads_the_menu_entry_view(monkeypatch, capsys, tmp_path):
    """All eight commands print the same with ``ScenarioModel.menus``
    raising: on the demos and on a free-lunch, a degenerate (killed leaf)
    and a negative-penalty market."""
    rng = np.random.default_rng(83)
    tree = random_tree(rng, max_periods=2)
    menus = dict(random_model(rng, tree).menus)
    k = len(tree.children[tree.root])
    menus[tree.root] = [MenuEntry((0.0,) + (1.0 / (k - 1),) * (k - 1), 0.0),
                        MenuEntry((1.0 / k,) * k, 0.25)]
    free_lunch = ScenarioModel(tree, menus)
    degenerate = killed_leaf_model(rng, random_tree(rng, max_periods=2))[0]
    menus = dict(random_model(rng, tree).menus)
    v = tree.internal_nodes()[-1]
    menus[v] = menus[v] + (MenuEntry(menus[v][0].kernel, -0.1),)
    negative = ScenarioModel(tree, menus)
    markets = [(BINOMIAL, CALL, PUT), (TRINOMIAL, DIGITAL, DIGITAL)] + [
        _write_market(tmp_path, name, model, rng) for name, model in
        (("free", free_lunch), ("degenerate", degenerate), ("negative", negative))]
    argvs = []
    for market, claim, process in markets:
        m = ["--market", market]
        argvs += [["price", *m, "--claim", claim], ["price", *m, "--claim", claim, "--at", "t:1"],
                  ["check-tcpp", *m, "--samples", "20"], ["nfl", *m],
                  ["bounds", *m, "--claim", claim], ["calibrate", *m], ["extends", *m],
                  ["constrained", *m, "--claim", claim], ["american", *m, "--claim", process]]

    def run(argv):
        code = main(argv + ["--format", "machine"])
        return code, capsys.readouterr()

    want = [run(argv) for argv in argvs]
    def refuse(self):
        raise AssertionError("a command read ScenarioModel.menus")
    monkeypatch.setattr(ScenarioModel, "menus", property(refuse))
    assert [run(argv) for argv in argvs] == want
    assert {code for code, _ in want} == {0, 1, 2}
