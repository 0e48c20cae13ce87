"""Market-file parsing, serializer round trip, and command dispatch."""
import os

import numpy as np
import pytest

from gen import random_claim, random_model, random_tree
from tcpp.cli import main
from tcpp.errors import MarketFileError
from tcpp.market import AssetProcess, GoodDealCaps, QuotedOption
from tcpp.marketfile import (MarketData, parse_claim_text, parse_market_file,
                             parse_market_text, serialize_market)

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


def test_max_enum_env_override(monkeypatch, capsys):
    monkeypatch.setenv("TCPP_MAX_ENUM", "1")
    code = main(["nfl", "--market", TRINOMIAL])
    err = capsys.readouterr()
    assert code == 2
    assert "exceed" in err.err
