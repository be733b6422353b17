"""Command line front end.

One JSON config drives every subcommand; flags override single fields.  Exit
codes: 0 all checks passed, 1 a check failed (reports are still written),
2 config error, 3 solver or reference-flow (oracle) failure, 4 an artifact
could not be written (``I/O error:``).  Identical configs
produce byte-identical artifacts: the solvers are deterministic and floats are
written with shortest round-trip formatting.  Artifacts are written after the
checks, each moved into place whole with the mode ``open`` would give it.

``run`` and ``verify`` format samples.csv, the largest artifact, in a writer
process forked before the run: the parent sends each finished sample row down
a pipe and goes on solving while the child formats it, and after the checks
moves the file into place once the child has exited 0.  Where ``os.fork`` is
missing, the samples are formatted in-process after the checks.  Both paths
use the same formatter, so the bytes are the same (see ``artifacts``).  A
failed run or writer removes the temporary file, so samples.csv is never
partial, and a parent killed before the file is published leaves none either;
a failed writer exits 4.

Config schema (all keys optional, defaults shown by --help):

    {
      "scenario": {"kind": "conformal_circle", "n": 64, "T": 1.0, ...} | "path.json",
      "initial":  {"profile": "harmonic", "k": 1},
      "h": 0.1, "m": 4, "rel_tol": 1e-10, "slack": 1e-8,
      "c0": null,                  # override the certified growth bound
      "seed": 0, "out": "out",
      "h_list": [0.1, 0.05, 0.025, 0.0125],
      "truncation_levels": [1, 2, 4, 8, 16],
      "test_functions": null,      # e.g. ["k1_sin", "k2_poly"]; null = full catalog
      "oracle_steps": 4096
    }
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .artifacts import SamplesWriter, write_csv, write_json
from .geometry import (JSON_TYPES, Scenario, ScenarioError, TimeWeightedGraph,
                       build_scenario, check_type, is_finite_real, vertex_weights)
from .linalg import SolverError
from .profiles import make_initial_data
from .scheme import (ChainFamily, run_families, run_interpolated, steps_within_horizon,
                     truncate)
from .verify import (EnergyReport, ExtremumReport, OracleError, contraction_report,
                     default_test_catalog, degiorgi_family, energy_estimate,
                     extremum_check, fit_order, initial_attainment_check,
                     l2h1_interp_norm, convergence_table, report_json, weak_residual,
                     weighted_l2_sq)

__all__ = ["RunConfig", "ConfigError", "main",
           "cmd_run", "cmd_converge", "cmd_compare_interp", "cmd_l2_limit", "cmd_verify"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


_DEFAULT_SCENARIO = {"kind": "static_circle", "n": 64, "T": 1.0}
_DEFAULT_INITIAL = {"profile": "harmonic", "k": 1}


@dataclass
class RunConfig:
    scenario: dict | str = field(default_factory=lambda: dict(_DEFAULT_SCENARIO))
    initial: dict = field(default_factory=lambda: dict(_DEFAULT_INITIAL))
    h: float = 0.1
    m: int = 4
    rel_tol: float = 1e-10
    slack: float = 1e-8
    c0: Optional[float] = None
    seed: int = 0
    out: str = "out"
    h_list: list = field(default_factory=lambda: [0.1, 0.05, 0.025, 0.0125])
    truncation_levels: list = field(default_factory=lambda: [1, 2, 4, 8, 16])
    test_functions: Optional[list] = None
    oracle_steps: int = 4096

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        _check_types(raw)
        cfg = cls(**raw)
        if cfg.h <= 0:
            raise ConfigError(f"h: must be positive, got {cfg.h}")
        if cfg.m < 1:
            raise ConfigError(f"m: must be >= 1, got {cfg.m}")
        if cfg.rel_tol < 0:
            raise ConfigError(f"rel_tol: must be nonnegative, got {cfg.rel_tol}")
        if cfg.slack < 0:
            raise ConfigError(f"slack: must be nonnegative, got {cfg.slack}")
        if cfg.c0 is not None and cfg.c0 < 0:
            raise ConfigError(f"c0: must be nonnegative, got {cfg.c0}")
        if not cfg.h_list:
            raise ConfigError("h_list: must not be empty")
        if not cfg.truncation_levels:
            raise ConfigError("truncation_levels: must not be empty")
        return cfg


def _check_types(raw: dict) -> None:
    """Raise ConfigError unless each field of ``raw`` has the JSON type it takes.

    No field takes the NaN and Infinity that json and argparse's float accept.
    """
    real, integer = JSON_TYPES[float], JSON_TYPES[int]
    reals = ("a list of finite real numbers",
             lambda v: isinstance(v, list) and all(map(is_finite_real, v)))
    expected = {
        "scenario": ("an object or a path", lambda v: isinstance(v, (dict, str))),
        "initial": JSON_TYPES[dict],
        "h": real, "rel_tol": real, "slack": real,
        "c0": ("a finite real number or null", lambda v: v is None or is_finite_real(v)),
        "m": integer, "seed": integer, "oracle_steps": integer,
        "h_list": reals, "truncation_levels": reals,
        "test_functions": ("null or a list of strings", lambda v: v is None or (
            isinstance(v, list) and all(isinstance(name, str) for name in v))),
        "out": JSON_TYPES[str],
    }
    for key, value in raw.items():
        what, check = expected[key]
        if not check(value):
            raise ConfigError(f"{key}: must be {what}, got {value!r}")


def _prepare(cfg: RunConfig):
    sc = cfg.scenario
    if isinstance(sc, str):
        with open(sc) as f:
            sc = json.load(f)
    check_type("scenario", sc, {})
    spec = Scenario.from_dict(sc)
    G = build_scenario(spec)
    u0 = make_initial_data(G, cfg.initial, default_seed=cfg.seed)
    return spec, G, u0


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------

def _echo_config(cfg: RunConfig, outdir: str) -> None:
    doc = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    write_json(os.path.join(outdir, "run_config.json"), doc)


def _samples_writer(cfg: RunConfig, G: TimeWeightedGraph) -> SamplesWriter:
    """The run's samples.csv writer; start it before the run (see SamplesWriter)."""
    return SamplesWriter(os.path.join(cfg.out, "samples.csv"), G.n_vertices,
                         float(cfg.h) / int(cfg.m))


def _write_run_artifacts(cfg: RunConfig, spec: Scenario, chain: ChainFamily,
                         energy: EnergyReport, extremum: ExtremumReport,
                         samples: SamplesWriter) -> None:
    """run_config.json, samples.csv, energy_report.json, extremum_report.json."""
    _echo_config(cfg, cfg.out)
    samples.publish(chain)
    write_json(os.path.join(cfg.out, "energy_report.json"),
               {"scenario": spec.to_dict(), "h": chain.h, "m": chain.m,
                "horizon": chain.horizon, **report_json(energy)})
    write_json(os.path.join(cfg.out, "extremum_report.json"), report_json(extremum))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg: RunConfig) -> int:
    """Run the scheme, write samples + energy and extremum reports."""
    spec, G, u0 = _prepare(cfg)
    with _samples_writer(cfg, G) as samples:
        [chain] = run_families(G, [u0], cfg.h, cfg.m, rel_tol=cfg.rel_tol,
                               on_row=samples.on_row)
        [energy] = energy_estimate([chain], G, cfg.c0, cfg.slack)
        extremum = extremum_check(chain)
        _write_run_artifacts(cfg, spec, chain, energy, extremum, samples)
    return EXIT_OK if (energy.passed and extremum.passed) else EXIT_CHECK_FAILED


def cmd_converge(cfg: RunConfig) -> int:
    """Error-vs-oracle table over h_list; exit 0 iff the fitted order is >= 0.8."""
    _, G, u0 = _prepare(cfg)
    rows = convergence_table(G, u0, cfg.h_list, cfg.m,
                             oracle_steps=cfg.oracle_steps, rel_tol=cfg.rel_tol)
    _echo_config(cfg, cfg.out)
    write_csv(os.path.join(cfg.out, "convergence_table.csv"),
              ["h", "m", "error", "observed_order"],
              [(r.h, r.m, r.error, r.observed_order) for r in rows])
    if all(r.error <= 1e-10 for r in rows):
        return EXIT_OK  # flat at rounding level (constant data); nothing to fit
    order = fit_order(rows)
    return EXIT_OK if (order is not None and order >= 0.8) else EXIT_CHECK_FAILED


def cmd_compare_interp(cfg: RunConfig) -> int:
    """Energy norms of shifted-chain vs resolvent interpolation on one run."""
    spec, G, u0 = _prepare(cfg)
    chain = run_interpolated(G, u0, cfg.h, cfg.m, rel_tol=cfg.rel_tol)
    [energy] = energy_estimate([chain], G, cfg.c0, cfg.slack)
    dg = degiorgi_family(G, chain.values[::chain.m], chain.h, chain.m, rel_tol=cfg.rel_tol)
    shifted = energy.dissipation  # the l2h1 norm of the produced samples
    resolvent = l2h1_interp_norm(dg, chain.times()[1:], G, dt=chain.delta)
    ratio = None if shifted == 0.0 else resolvent / shifted
    _echo_config(cfg, cfg.out)
    write_json(os.path.join(cfg.out, "comparison.json"), {
        "scenario": spec.to_dict(), "h": chain.h, "m": chain.m,
        "shifted_l2h1": shifted, "degiorgi_l2h1": resolvent, "ratio": ratio,
        "energy_report": report_json(energy),
        "note": "samples at multiples of h coincide by construction; "
                "the ratio is driven by the intermediate samples",
    })
    return EXIT_OK if energy.passed else EXIT_CHECK_FAILED


def cmd_l2_limit(cfg: RunConfig) -> int:
    """Truncated-vs-full runs against the contraction bound, per level and h.

    The scheme is linear, so the difference of the full and a truncated run is
    the run from u0 - truncate(u0); its energy estimate is the contraction bound.
    """
    spec, G, u0 = _prepare(cfg)
    w0 = vertex_weights(G, 0.0)
    rows = []
    all_ok = True
    truncated = [truncate(u0, float(level)) for level in cfg.truncation_levels]
    for h in cfg.h_list:
        chain_full, *chains_n = run_families(G, [u0, *truncated], float(h), cfg.m,
                                             rel_tol=cfg.rel_tol)
        diffs = [ChainFamily(chain_full.h, chain_full.m, chain_full.values - chain_n.values,
                             chain_full.solve_error + chain_n.solve_error) for chain_n in chains_n]
        energies = energy_estimate(diffs, G, cfg.c0, cfg.slack)
        for level, diff, energy in zip(cfg.truncation_levels, diffs, energies):
            all_ok = all_ok and energy.passed
            rows.append({"h": float(h), "level": float(level),
                         "truncation_error": weighted_l2_sq(diff.values[0], w0),
                         "diff_sup_l2": energy.sup_l2, "diff_l2h1": energy.dissipation,
                         "bound": energy.rhs, "c0_used": energy.c0_used, "pass": energy.passed})
    _echo_config(cfg, cfg.out)
    write_json(os.path.join(cfg.out, "truncation_report.json"),
               {"scenario": spec.to_dict(), "m": cfg.m, "slack": cfg.slack,
                "rows": rows, "pass": all_ok})
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig) -> int:
    """Full battery: run artifacts plus every check on one configuration."""
    spec, G, u0 = _prepare(cfg)
    # the test functions need only the graph and the horizon: check the names before the run
    catalog = default_test_catalog(G, steps_within_horizon(G.horizon, cfg.h) * cfg.h)
    if cfg.test_functions is not None:
        unknown = set(cfg.test_functions) - {fn.name for fn in catalog}
        if unknown:
            raise ConfigError(f"test_functions: unknown names {sorted(unknown)}")
        catalog = [fn for fn in catalog if fn.name in cfg.test_functions]
    # the contraction check's chains from v0 and u0 - v0 share the run's operators
    rng = np.random.default_rng(cfg.seed + 1)
    v0 = rng.standard_normal(G.n_vertices)
    d0 = u0 - v0
    with _samples_writer(cfg, G) as samples:
        chain, chain_v, chain_d = run_families(G, [u0, v0, d0], cfg.h, cfg.m,
                                               rel_tol=cfg.rel_tol, on_row=samples.on_row)
        energy, energy_d = energy_estimate([chain, chain_d], G, cfg.c0, cfg.slack)
        extremum = extremum_check(chain)
        contraction = contraction_report(G, chain, chain_v, chain_d, energy_d)
        weak_rows = weak_residual(chain, G, catalog)
        attainment = initial_attainment_check(chain, G, chain.h, cfg.slack)

        ok = bool(energy.passed and extremum.passed and contraction.passed and attainment.passed)
        _write_run_artifacts(cfg, spec, chain, energy, extremum, samples)
        write_json(os.path.join(cfg.out, "verify_report.json"), {
            "scenario": spec.to_dict(), "h": chain.h, "m": chain.m,
            "horizon": chain.horizon, "c0_used": energy.c0_used,
            "energy": report_json(energy),
            "extremum": report_json(extremum),
            "contraction": report_json(contraction),
            "weak_residuals": [report_json(r) for r in weak_rows],
            "initial_attainment": report_json(attainment),
            "pass": ok,
        })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "run": cmd_run,
    "converge": cmd_converge,
    "compare-interp": cmd_compare_interp,
    "l2-limit": cmd_l2_limit,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoheat",
        description="Implicit-Euler heat flow on evolving weighted graphs, "
                    "with estimate checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "run the scheme; writes samples.csv, energy_report.json, "
               "extremum_report.json",
        "converge": "error table against the time-exact reference flow over h_list; "
                    "writes convergence_table.csv",
        "compare-interp": "shifted-chain vs resolvent interpolation norms; "
                          "writes comparison.json",
        "l2-limit": "truncated initial data vs contraction bound; "
                    "writes truncation_report.json",
        "verify": "run plus every check; writes verify_report.json",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=descriptions[name], description=descriptions[name])
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (default: built-in defaults)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: out)")
        p.add_argument("--h", type=float, help="step size (default 0.1)")
        p.add_argument("--m", type=int, help="chains per step (default 4)")
        p.add_argument("--tol", type=float, dest="rel_tol",
                       help="solver relative tolerance (default 1e-10)")
        p.add_argument("--seed", type=int, help="seed for random profiles (default 0)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        with open(args.config) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
    for key in ("out", "h", "m", "rel_tol", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return RunConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ScenarioError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
