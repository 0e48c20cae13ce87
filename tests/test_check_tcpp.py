"""check-tcpp's stacked checks against the per-family oracle: the axiom
families as columns of one pass per cut, the chains' shared direct pass and
the cocycle selections as columns of one induction; then the command's
output, its pass count, its memory budget and its failing golden output."""
import os

import numpy as np
import pytest

import oracles
import tcpp.pricing
from counterexamples import (deterministic_vs_stopping_counterexample,
                             non_rectangular_counterexample)
from gen import (killed_leaf_model, random_claim, random_irregular_tree, random_model,
                 random_tree)
from tcpp.cli import main
from tcpp.errors import TcppError
from tcpp.marketfile import MarketData, parse_market_file, serialize_market
from tcpp.pricing import (chain_prices, check_axioms, check_time_consistency,
                          random_stopping_time)
from tcpp.scenario import (MeasureSelection, MenuEntry, PenaltyProcess, ScenarioModel,
                           check_cocycle, check_cocycle_batch, cumulative_penalties,
                           cumulative_penalties_batch)
from tcpp.tree import Claim, ClaimStack, FiltrationTree, StoppingTime

HERE = os.path.dirname(__file__)
BINOMIAL = os.path.join(HERE, "..", "demos", "binomial.market")
BROKEN = os.path.join(HERE, "markets", "broken_menus.market")


def _instance(i: int) -> tuple[np.random.Generator, ScenarioModel]:
    """A seeded model on a regular or an irregular tree; every third one
    with negative penalties on its odd nodes, so that normalization fails."""
    rng = np.random.default_rng(9000 + i)
    tree = random_irregular_tree(rng) if i % 2 else random_tree(rng, max_periods=3)
    model = random_model(rng, tree)
    if i % 3 == 2:
        model = ScenarioModel(tree, {v: [MenuEntry(e.kernel, e.penalty - 0.3 * (v % 2))
                                         for e in entries]
                                     for v, entries in model.menus.items()})
    return rng, model


def _same(got, want) -> None:
    assert (got.passed, got.findings, got.info) == (want.passed, want.findings, want.info)


@pytest.mark.parametrize("block", range(4))
def test_axioms_match_the_per_family_oracle(block):
    """120 models, samples at up to three cuts interleaved (mixed cuts
    included), findings, order and text equal.  At tol 0 rounding shows as
    findings, which match exactly where every cut has two samples or more:
    the oracle priced a lone sample's families in one-column passes, which
    numpy's einsum sums in another order than a stack of columns, so there
    the last bit, and with it a rounding finding, can differ."""
    kinds = set()
    for i in range(30 * block, 30 * block + 30):
        rng, model = _instance(i)
        tree = model.tree
        cuts = [random_stopping_time(tree, rng) for _ in range(1 + i % 3)]
        sizes = [1 + (i + c) % 4 for c in range(len(cuts))]
        order = [c for c in range(len(cuts)) for _ in range(sizes[c])]
        rng.shuffle(order)
        samples = [(random_claim(rng, tree, cuts[c]), random_claim(rng, tree, cuts[c]))
                   for c in order]
        lone = any(order.count(c) == 1 for c in set(order))
        for tol in (1e-12,) if lone else (0.0, 1e-12):
            got = check_axioms(model, samples, seed=i, tol=tol)
            _same(got, oracles.check_axioms_per_family(model, samples, seed=i, tol=tol))
            kinds |= {f.message.split(" ")[0] for f in got.findings}
    assert {"normalization:", "translation", "convexity"} <= kinds, kinds


def test_a_stack_of_pairs_is_checked_as_its_claims():
    for i in range(20):
        rng, model = _instance(i)
        tau = random_stopping_time(model.tree, rng)
        stack = ClaimStack(tau, rng.uniform(-2.0, 2.0, (2 + i % 5, 2, len(tau.cut))))
        for tol in (0.0, 1e-12):
            got = check_axioms(model, stack, seed=i, tol=tol)
            _same(got, check_axioms(model, [stack[k] for k in range(len(stack))],
                                    seed=i, tol=tol))
            _same(got, oracles.check_axioms_per_family(model, list(stack), seed=i, tol=tol))


def test_the_cell_budget_splits_the_axiom_pass_into_chunks(monkeypatch):
    """A budget of one cell prices one sample per pass, a budget of three
    samples' cells three per pass; the report is the same, to the bit."""
    rng, model = _instance(2)
    tau = StoppingTime.at_horizon(model.tree)
    stack = ClaimStack(tau, rng.uniform(-2.0, 2.0, (7, 2, len(tau.cut))))
    whole = check_axioms(model, stack, tol=0.0)
    calls = []
    backward_pass = tcpp.pricing.backward_pass
    monkeypatch.setattr(tcpp.pricing, "backward_pass",
                        lambda m, at, values, floor=None: calls.append(values.shape[1])
                        or backward_pass(m, at, values, floor))
    width = 3 + 4 + model.tree.horizon + 1      # X, Y, min, 4 lambdas, a shift per time
    for cells, chunks in [(1, [width] * 7), (model.tree.n_nodes * width * 3,
                                             [3 * width, 3 * width, width])]:
        monkeypatch.setattr(tcpp.pricing, "_CELLS", cells)
        calls.clear()
        _same(check_axioms(model, stack, tol=0.0), whole)
        assert calls == [1] + chunks        # the zero claim first


@pytest.mark.parametrize("block", range(2))
def test_chains_match_the_per_chain_oracle(block):
    """Chains over random and repeated cuts, samples at several of them and
    at none; at tol 0 every rounding difference is a finding."""
    for i in range(50 * block, 50 * block + 50):
        rng, model = _instance(i)
        tree = model.tree
        taus = [random_stopping_time(tree, rng) for _ in range(2)]
        chains = []
        for k in range(4):
            sigma = random_stopping_time(tree, rng, hi=taus[k % 2])
            chains.append((random_stopping_time(tree, rng, hi=sigma), sigma, taus[k % 2]))
        # a fifth chain shares the first one's sigma and tau
        chains.append((random_stopping_time(tree, rng, hi=chains[0][1]), *chains[0][1:]))
        samples = [random_claim(rng, tree, taus[k % 3] if k % 3 < 2 else
                                StoppingTime.at_root(tree)) for k in range(7)]
        for tol in (0.0, 1e-9):
            got = check_time_consistency(model, chains, samples, tol)
            _same(got, oracles.check_time_consistency_per_chain(model, chains, samples, tol))
        nu, sigma, tau = chains[1]
        xs = [x for x in samples if x.at == tau]
        got = chain_prices(model, nu, sigma, tau, xs)
        want = oracles.chain_prices_per_chain(model, nu, sigma, tau, xs)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_stack_of_claims_is_checked_as_its_claims():
    rng, model = _instance(4)
    tree = model.tree
    horizon = StoppingTime.at_horizon(tree)
    chains = [(StoppingTime.at_root(tree), random_stopping_time(tree, rng), horizon)
              for _ in range(4)]
    chains.append((StoppingTime.at_root(tree), StoppingTime.at_root(tree),
                   StoppingTime.at_root(tree)))
    stack = ClaimStack(horizon, rng.uniform(-2.0, 2.0, (9, len(horizon.cut))))
    got = check_time_consistency(model, chains, stack, 0.0)
    _same(got, check_time_consistency(model, chains, list(stack), 0.0))
    _same(got, oracles.check_time_consistency_per_chain(model, chains, list(stack), 0.0))
    bad = stack.array.copy()
    bad[4, 2], bad[6, 0] = np.nan, np.inf
    with pytest.raises(TcppError) as stacked:
        check_time_consistency(model, chains, ClaimStack(horizon, bad))
    with pytest.raises(TcppError) as claims:
        oracles.check_time_consistency_per_chain(model, chains, list(ClaimStack(horizon, bad)))
    assert str(stacked.value) == str(claims.value)


def test_time_inconsistent_evaluators_match_the_oracle():
    evaluator, _, _ = non_rectangular_counterexample()
    tree = evaluator.tree
    rng = np.random.default_rng(17)
    root, t1 = StoppingTime.at_root(tree), StoppingTime.at_time(tree, 1)
    horizon = StoppingTime.at_horizon(tree)
    samples = [random_claim(rng, tree) for _ in range(12)]
    chains = [(root, t1, horizon), (root, root, horizon), (t1, t1, horizon)]
    got = check_time_consistency(evaluator, chains[:1], samples)
    assert not got.passed and got.info["witness_node"] == tree.root
    _same(got, oracles.check_time_consistency_per_chain(evaluator, chains[:1], samples))
    evaluator, mixed = deterministic_vs_stopping_counterexample()
    for chain in [(root, t1, horizon), (root, mixed, horizon)]:
        got = check_time_consistency(evaluator, [chain], samples)
        _same(got, oracles.check_time_consistency_per_chain(evaluator, [chain], samples))
    assert not got.passed


@pytest.mark.parametrize("block", range(2))
def test_cocycle_selections_match_the_per_selection_oracle(block):
    """Processes from their selections, and the same processes broken: a
    node's value moved, the children of a node moved up and down in turn, a
    nonzero horizon value; reports and ``info`` equal, the values bit for
    bit."""
    for i in range(50 * block, 50 * block + 50):
        rng, model = _instance(i)
        tree = model.tree
        internal = np.flatnonzero(model.menu_sizes)
        sels = [MeasureSelection(tuple(zip(internal.tolist(),
                                           rng.integers(model.menu_sizes[internal]).tolist())))
                for _ in range(4)]
        tau = random_stopping_time(tree, rng)
        stacked = cumulative_penalties_batch(model, sels, tau)
        for k, sel in enumerate(sels):
            want = oracles.cumulative_penalties_per_selection(model, sel, tau)
            assert np.array_equal(stacked[:, k], want)
            assert np.array_equal(cumulative_penalties(model, sel, tau), want)
        procs = PenaltyProcess.from_selections(model, sels)
        broken = []
        for k, proc in enumerate(procs):
            values = proc.values.copy()
            v = int(rng.choice(internal))
            if k == 1:
                values[v] += 0.01
            elif k == 2:
                values[list(tree.children[v])] += 0.05 * (-1.0) ** np.arange(tree.arity[v])
            elif k == 3:
                values[tree.leaves[0]] = 0.5
            broken.append(PenaltyProcess(proc.selection, values))
        for tol in (0.0, 1e-12):
            reports = check_cocycle_batch(procs + broken, model, tol)
            for proc, rep in zip(procs + broken, reports):
                _same(rep, oracles.check_cocycle_per_selection(proc, model, tol))
                _same(check_cocycle(proc, model, tol), rep)
            assert all(rep.passed for rep in reports[:len(procs)])


def test_cocycle_batch_names_the_first_bad_selection():
    rng, model = _instance(0)
    internal = np.flatnonzero(model.menu_sizes).tolist()
    good = MeasureSelection(tuple((v, 0) for v in internal))
    short = MeasureSelection(tuple((v, 0) for v in internal[1:]))
    wide = MeasureSelection(tuple((v, 7 if v == internal[-1] else 0) for v in internal))
    with pytest.raises(TcppError, match=f"^selection misses internal node {internal[0]}$"):
        PenaltyProcess.from_selections(model, [good, short, wide])
    with pytest.raises(TcppError, match=f"^selection index 7 out of range at node "
                                        f"{internal[-1]}$"):
        PenaltyProcess.from_selections(model, [good, wide, short])
    proc = PenaltyProcess.from_selection(model, good)
    with pytest.raises(TcppError, match="penalty process needs"):
        check_cocycle_batch([proc, PenaltyProcess(good, proc.values[:2])], model)


def _market(tmp_path, i: int) -> tuple[str, ScenarioModel]:
    rng, model = _instance(i)
    if i % 4 == 3:
        model, _ = killed_leaf_model(rng, model.tree)
    path = tmp_path / f"m{i}.market"
    path.write_text(serialize_market(MarketData(model.tree, model)))
    return str(path), model


@pytest.mark.parametrize("i", range(16))
def test_the_command_prints_what_the_per_family_checks_printed(tmp_path, capsys, i):
    path, model = _market(tmp_path, i)
    samples = (2, 5, 60, 200)[i % 4]
    code = main(["check-tcpp", "--market", path, "--format", "machine",
                 "--samples", str(samples), "--seed", str(31 + i)])
    out = capsys.readouterr().out
    want = oracles.check_tcpp_per_family(model, 31 + i, samples)
    assert out == "".join(line + "\n" for line in want)
    assert code == (0 if all(line.endswith("pass") for line in want
                             if line.startswith("check.")) else 1)


def test_a_small_check_costs_one_axiom_pass_and_one_per_chain_cut(monkeypatch, capsys):
    """On the binomial demo: the axioms' stack and the zero claim, the
    chains' direct pass and one per distinct sigma, and the sublinearity
    scan; no pass for the cocycle selections."""
    calls = []
    backward_pass = tcpp.pricing.backward_pass
    monkeypatch.setattr(tcpp.pricing, "backward_pass",
                        lambda model, at, values, floor=None: calls.append(at)
                        or backward_pass(model, at, values, floor))
    assert main(["check-tcpp", "--market", BINOMIAL, "--seed", "5"]) == 0
    capsys.readouterr()
    tree = parse_market_file(BINOMIAL).tree
    rng = np.random.default_rng(5)
    rng.uniform(-2, 2, size=(200, 2, len(tree.leaves)))
    sigmas = {random_stopping_time(tree, rng) for _ in range(5)}
    assert len(calls) == 2 + (1 + len(sigmas)) + 1 == 4 + len(sigmas)
    assert len(sigmas) < 5      # chains that share a sigma share its pass


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_are_an_input_error(capsys, samples):
    assert main(["check-tcpp", "--market", BINOMIAL, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("samples, mib", [("4194305", "256.0"), ("100000000000", "6103515.6")])
def test_samples_beyond_the_tableau_budget_are_an_input_error(capsys, monkeypatch, samples, mib):
    # the demo has 4 leaves: 2^25 cells hold the draws of 2^22 samples, and
    # one more is refused before any draw
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew samples"))
    assert main(["check-tcpp", "--market", BINOMIAL, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --samples {samples} draws {mib} MiB on 4 leaves, "
                            "above the cap of 256.0 MiB\n")


def test_one_sample_is_enough(capsys):
    assert main(["check-tcpp", "--market", BINOMIAL, "--samples", "1"]) == 0
    assert "check.pricing-axioms: pass" in capsys.readouterr().out


def test_a_failing_market_prints_its_golden_witnesses(capsys):
    """Negative penalties, a least penalty above zero and a menu that kills
    an edge: the machine output, witness order included, as recorded
    before the checks were stacked."""
    assert main(["check-tcpp", "--market", BROKEN, "--samples", "5",
                 "--format", "machine"]) == 1
    with open(os.path.join(HERE, "golden", "check-tcpp-fail.out"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


def test_a_claim_stack_is_a_sequence_of_claims():
    tree = FiltrationTree.binomial(2)
    horizon = StoppingTime.at_horizon(tree)
    values = np.arange(24.0).reshape(3, 2, 4)
    pairs = ClaimStack(horizon, values)
    assert len(pairs) == 3
    assert pairs[1] == (Claim(horizon, values[1, 0]), Claim(horizon, values[1, 1]))
    xs = ClaimStack(horizon, values[:, 0])
    assert list(xs) == [Claim(horizon, row) for row in values[:, 0]]
    assert isinstance(xs[1:], ClaimStack) and xs[1:][0] == xs[1]
    for shape in [(4,), (3, 5), (3, 2, 2, 4)]:
        with pytest.raises(TcppError, match="claim stack"):
            ClaimStack(horizon, np.zeros(shape))


def test_ancestors_by_time_are_the_owners_at_each_time():
    rng = np.random.default_rng(5)
    for _ in range(30):
        tree = random_irregular_tree(rng, max_periods=4)
        cut = random_stopping_time(tree, rng)
        table = tree.ancestors_by_time(cut.index)
        assert len(table) == min(tree.times[v] for v in cut.cut) + 1
        for t, row in enumerate(table):
            atoms = np.array(tree.nodes_at(t))
            assert np.array_equal(row, atoms[tree.owner_index(atoms, cut.index)])
