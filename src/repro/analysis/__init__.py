"""Analysis layer: complexity models, calibrated timing, security games.

* :mod:`repro.analysis.complexity` — the one cost model: the
  closed-form operation/round/bit counts of paper Section VI-B, for the
  framework, the SS baseline and the hierarchical (sharded)
  composition, whose flat-vs-sharded crossover it locates with
  :func:`~repro.analysis.tradeoff.find_crossover`.
* :mod:`repro.analysis.counting` — counting runs: the real protocol on
  an inert group that counts operations and measures wire bytes.
* :mod:`repro.analysis.costmodel` — converts operation counts (measured
  from counting runs or from the complexity formulas) into seconds
  using per-operation costs calibrated on this machine at the true group
  sizes.
* :mod:`repro.analysis.games` — executable versions of the paper's
  security definitions (IND-CPA, gain hiding, identity unlinkability) as
  statistical experiments, including the concrete attacks that succeed
  when the shuffle or the rerandomization is ablated.

The protocol code (core, runtime, sharding) never imports this
package; the CLI's analysis commands, the benches and the tests do.
"""

from repro.analysis.complexity import (
    framework_participant_cost,
    framework_round_count,
    initiator_cost,
    sharded_aggregation_bits,
    sharded_participant_bits,
    sharded_participant_cost,
    sharding_crossover,
    sharding_totals,
    ss_framework_participant_cost,
    ss_framework_round_count,
)
from repro.analysis.costmodel import CostModel, calibrate_dl, calibrate_ecc, calibrate_field
from repro.analysis.counting import CountedRun, CountingGroup, counted_run
from repro.analysis.leakage import (
    consistent_gain_count,
    deniability_series,
    is_consistent,
    run_masking_experiment,
)
from repro.analysis.planner import DeploymentEstimate, estimate_deployment
from repro.analysis.tradeoff import Crossover, crossover_ratio_curve, find_crossover
from repro.analysis.stats import (
    binomial_advantage_interval,
    chi_square_uniformity,
    position_uniformity_experiment,
)
from repro.analysis.games import (
    estimate_advantage,
    ind_cpa_game,
    tau_dictionary_attack,
    zero_position_attack,
)

__all__ = [
    "CostModel",
    "Crossover",
    "DeploymentEstimate",
    "estimate_deployment",
    "binomial_advantage_interval",
    "chi_square_uniformity",
    "crossover_ratio_curve",
    "find_crossover",
    "position_uniformity_experiment",
    "CountedRun",
    "CountingGroup",
    "counted_run",
    "consistent_gain_count",
    "deniability_series",
    "is_consistent",
    "run_masking_experiment",
    "calibrate_dl",
    "calibrate_ecc",
    "calibrate_field",
    "estimate_advantage",
    "framework_participant_cost",
    "framework_round_count",
    "ind_cpa_game",
    "initiator_cost",
    "sharded_aggregation_bits",
    "sharded_participant_bits",
    "sharded_participant_cost",
    "sharding_crossover",
    "sharding_totals",
    "ss_framework_participant_cost",
    "ss_framework_round_count",
    "tau_dictionary_attack",
    "zero_position_attack",
]
