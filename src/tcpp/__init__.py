"""Time-consistent bid-ask pricing procedures on finite event trees."""

from .settings import DEFAULT, Settings
from .tree import (Claim, ClaimStack, FiltrationTree, Measure, StoppingTime,
                   conditional_expectation, essential_supremum, lift,
                   paste_measures, precedes, sigma_algebra_nodes)
from .scenario import (MeasureSelection, MenuEntry, MenuTable, PenaltyProcess,
                       ScenarioModel, aggregate_penalty, check_cocycle,
                       check_nondegenerate, minimal_penalty,
                       selection_to_measure)
from .pricing import (AmericanResult, american_price, bid_ask, check_axioms,
                      check_sublinear, check_supermartingale,
                      check_time_consistency, price, price_process)
from .nfl import (FreeLunchCertificate, find_static_free_lunch,
                  find_zero_penalty_equivalent_measure, nfl_verdict)
from .market import (AssetProcess, ConstraintSet, GoodDealCaps, QuotedOption,
                     calibrated_bounds, calibration_feasible,
                     check_extends_dynamics, check_price_in_mme_bounds,
                     check_strong_admissibility, constrained_price,
                     good_deal_bounds, mme_bounds)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT", "Settings",
    "Claim", "ClaimStack", "FiltrationTree", "Measure", "StoppingTime",
    "conditional_expectation", "essential_supremum", "lift", "paste_measures",
    "precedes", "sigma_algebra_nodes",
    "MeasureSelection", "MenuEntry", "MenuTable", "PenaltyProcess", "ScenarioModel",
    "aggregate_penalty", "check_cocycle", "check_nondegenerate",
    "minimal_penalty", "selection_to_measure",
    "AmericanResult", "american_price", "bid_ask", "check_axioms",
    "check_sublinear", "check_supermartingale", "check_time_consistency",
    "price", "price_process",
    "FreeLunchCertificate", "find_static_free_lunch",
    "find_zero_penalty_equivalent_measure", "nfl_verdict",
    "AssetProcess", "ConstraintSet", "GoodDealCaps", "QuotedOption",
    "calibrated_bounds", "calibration_feasible", "check_extends_dynamics",
    "check_price_in_mme_bounds", "check_strong_admissibility",
    "constrained_price", "good_deal_bounds", "mme_bounds",
]
