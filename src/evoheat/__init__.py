"""Implicit-Euler heat flow on graphs whose weights and conductances move in time.

The step sequence, its shifted-chain interpolation, and checks for the discrete
estimates that make the construction work: energy bound with a constant that only
sees volume growth, maximum principle, contraction, weak-form residual, and
attainment of the initial value.
"""

from .geometry import (SCENARIO_KINDS, Scenario, ScenarioError, TimeWeightedGraph,
                       build_scenario, conductance_table, dirichlet_energy, edge_conductances,
                       vertex_weights, weight_table)
from .linalg import (SolverError, SpdOperator, StencilOperator, cg_solve, half_edge_layout,
                     rcm_ordering, solve_plan, spd_prepare, spd_solve_prepared, stiffness_apply)
from .profiles import make_initial_data
from .scheme import ChainFamily, run_sweep, steps_within_horizon, truncate
from .verify import (AttainmentReport, ContractionReport, ConvergenceRow, EnergyReport,
                     ExtremumReport, OracleError, OracleResult, TestFunction, WeakResidualRow,
                     chain_error_vs_oracle, contraction_report, convergence_table,
                     default_test_catalog, degiorgi_family, energy_estimate, extremum_check,
                     fit_order, initial_attainment_check, l2h1_interp_norm, oracle_value_at,
                     report_json, semidiscrete_oracle, weak_residual, weighted_l2,
                     weighted_l2_sq)

__version__ = "0.1.0"
