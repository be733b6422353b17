"""Command line front end.

One JSON config drives every subcommand; flags override single fields.  Exit
codes: 0 all checks passed, 1 a check failed (reports are still written),
2 config error, 3 solver or reference-flow (oracle) failure, a run whose
right-hand sides overflow included, or out of memory, 4 an artifact could
not be written (``I/O error:``).  Identical configs
produce byte-identical artifacts: the solvers are deterministic and floats are
written with shortest round-trip formatting.

``main`` builds the scenario and the initial value once, for every command, and
checks the step sizes the command reads against the horizon.  Each ``cmd_*``
returns its verdict and its documents, and ``main`` alone writes them, after
the checks, in one order for every command: run_config.json first, then each
document, every file formatted in-process and moved into place whole with the
mode ``open`` would give it.  A write that fails exits 4 and leaves the files
written before it, but never a partial file.

The config keys are the fields of ``RunConfig``, all optional, with its
defaults; ``_KEYS`` says what each accepts.  ``scenario`` may also name a JSON
file that holds the scenario.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

from .artifacts import write_csv, write_json, write_samples
from .geometry import (JSON_TYPES, Scenario, TimeWeightedGraph, build_scenario, check_type,
                       read_json, vertex_weights)
from .linalg import SolverError
from .profiles import make_initial_data
from .scheme import ChainFamily, run_sweep, steps_within_horizon, truncate
from .verify import (TEST_FUNCTIONS, EnergyReport, ExtremumReport, OracleError,
                     contraction_report, default_test_catalog, degiorgi_family,
                     energy_estimate, extremum_check, fit_order, initial_attainment_check,
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

_integer, _real = JSON_TYPES[int][1], JSON_TYPES[float][1]  # no NaN, Infinity or bool
_POSITIVE = ("a positive finite real number", lambda v: _real(v) and v > 0)
_NONNEGATIVE = ("a nonnegative finite real number", lambda v: _real(v) and v >= 0)
_POSITIVES = ("a nonempty list of positive finite real numbers",
              lambda v: isinstance(v, list) and len(v) > 0 and all(map(_POSITIVE[1], v)))

# What each config key accepts, type and range together: a description that
# completes "<key>: must be ...", and the predicate.
_KEYS = {
    "scenario": ("an object or a path", lambda v: isinstance(v, (dict, str))),
    "initial": JSON_TYPES[dict],
    "h": _POSITIVE,
    "m": ("a positive integer", lambda v: _integer(v) and v >= 1),
    "rel_tol": _NONNEGATIVE,
    "slack": _NONNEGATIVE,
    "c0": ("null or " + _NONNEGATIVE[0], lambda v: v is None or _NONNEGATIVE[1](v)),
    "seed": ("a nonnegative integer", lambda v: _integer(v) and v >= 0),
    "out": JSON_TYPES[str],
    "h_list": _POSITIVES,
    "truncation_levels": _POSITIVES,
    "test_functions": (f"null or a list of names from {', '.join(TEST_FUNCTIONS)}",
                       lambda v: v is None or (isinstance(v, list)
                                                and all(name in TEST_FUNCTIONS for name in v))),
    "oracle_steps": ("an even integer >= 2", lambda v: _integer(v) and v >= 2 and v % 2 == 0),
}


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
        unknown = set(raw) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            what, ok = _KEYS[key]
            if not ok(value):
                raise ConfigError(f"{key}: must be {what}, got {value!r}")
        return cls(**raw)


def _prepare(cfg: RunConfig):
    sc = read_json("scenario", cfg.scenario) if isinstance(cfg.scenario, str) else cfg.scenario
    check_type("scenario", sc, {})
    spec = Scenario.from_dict(sc)
    G = build_scenario(spec)
    u0 = make_initial_data(G, cfg.initial, default_seed=cfg.seed)
    return spec, G, u0


# ---------------------------------------------------------------------------
# subcommands: each takes the config and what ``_prepare`` built from it, and
# returns (passed, documents), documents mapping an artifact name to a JSON
# object, a CSV (header, rows) or, for samples.csv, a ChainFamily
# ---------------------------------------------------------------------------

def _run_documents(spec: Scenario, chain: ChainFamily, energy: EnergyReport,
                   extremum: ExtremumReport) -> dict:
    """samples.csv, energy_report.json and extremum_report.json, which run and
    verify share."""
    return {"samples.csv": chain,
            "energy_report.json": {"scenario": spec.to_dict(), "h": chain.h, "m": chain.m,
                                   "horizon": chain.horizon, **report_json(energy)},
            "extremum_report.json": report_json(extremum)}


def cmd_run(cfg: RunConfig, spec: Scenario, G: TimeWeightedGraph, u0) -> tuple[bool, dict]:
    """Run the scheme; write samples.csv, energy_report.json and extremum_report.json."""
    [chain] = run_sweep(G, [u0], [cfg.h], cfg.m, rel_tol=cfg.rel_tol)[0]
    [energy] = energy_estimate([chain], G, cfg.c0, cfg.slack)
    extremum = extremum_check(chain)
    return energy.passed and extremum.passed, _run_documents(spec, chain, energy, extremum)


def cmd_converge(cfg: RunConfig, spec: Scenario, G: TimeWeightedGraph, u0) -> tuple[bool, dict]:
    """Error table against the time-exact reference flow over h_list; write
    convergence_table.csv.  Exit 0 iff the fitted order is >= 0.8, or every
    error is flat at rounding level (<= 1e-10, as constant data gives)."""
    rows = convergence_table(G, u0, cfg.h_list, cfg.m,
                             oracle_steps=cfg.oracle_steps, rel_tol=cfg.rel_tol)
    flat = all(r.error <= 1e-10 for r in rows)  # nothing to fit; no fit (None) fails
    return flat or (fit_order(rows) or 0.0) >= 0.8, {
        "convergence_table.csv": (["h", "m", "error", "observed_order"],
                                  [(r.h, r.m, r.error, r.observed_order) for r in rows])}


def cmd_compare_interp(cfg: RunConfig, spec: Scenario, G: TimeWeightedGraph,
                       u0) -> tuple[bool, dict]:
    """Energy norms of shifted-chain vs resolvent interpolation on one run; write
    comparison.json."""
    [chain] = run_sweep(G, [u0], [cfg.h], cfg.m, rel_tol=cfg.rel_tol)[0]
    [energy] = energy_estimate([chain], G, cfg.c0, cfg.slack)
    dg = degiorgi_family(G, chain.values[::chain.m], chain.h, chain.m, rel_tol=cfg.rel_tol)
    shifted = energy.dissipation  # the l2h1 norm of the produced samples
    resolvent = l2h1_interp_norm(dg, chain.times()[1:], G, dt=chain.delta)
    ratio = None if shifted == 0.0 else resolvent / shifted
    return energy.passed, {"comparison.json": {
        "scenario": spec.to_dict(), "h": chain.h, "m": chain.m,
        "shifted_l2h1": shifted, "degiorgi_l2h1": resolvent, "ratio": ratio,
        "energy_report": report_json(energy),
        "note": "samples at multiples of h coincide by construction; "
                "the ratio is driven by the intermediate samples",
    }}


def cmd_l2_limit(cfg: RunConfig, spec: Scenario, G: TimeWeightedGraph, u0) -> tuple[bool, dict]:
    """Truncated-vs-full runs against the contraction bound, per level and h in
    h_list; write truncation_report.json.

    The scheme is linear, so the difference of the full and a truncated run is
    the run from u0 - truncate(u0); its energy estimate is the contraction bound.
    """
    w0 = vertex_weights(G, 0.0)
    rows = []
    truncated = [truncate(u0, level) for level in cfg.truncation_levels]
    for chain_full, *chains_n in run_sweep(G, [u0, *truncated], cfg.h_list, cfg.m,
                                           rel_tol=cfg.rel_tol):
        diffs = [ChainFamily(chain_full.h, chain_full.m, chain_full.values - chain_n.values,
                             chain_full.solve_error + chain_n.solve_error) for chain_n in chains_n]
        energies = energy_estimate(diffs, G, cfg.c0, cfg.slack)
        for level, diff, energy in zip(cfg.truncation_levels, diffs, energies):
            rows.append({"h": chain_full.h, "level": float(level),
                         "truncation_error": weighted_l2_sq(diff.values[0], w0),
                         "diff_sup_l2": energy.sup_l2, "diff_l2h1": energy.dissipation,
                         "bound": energy.rhs, "c0_used": energy.c0_used, "pass": energy.passed})
    passed = all(row["pass"] for row in rows)
    return passed, {"truncation_report.json": {"scenario": spec.to_dict(), "m": cfg.m,
                                               "slack": cfg.slack, "rows": rows, "pass": passed}}


def cmd_verify(cfg: RunConfig, spec: Scenario, G: TimeWeightedGraph, u0) -> tuple[bool, dict]:
    """Full battery: run artifacts plus every check on one configuration; write
    verify_report.json too."""
    # the contraction check's chains from v0 and u0 - v0 share the run's operators
    v0 = make_initial_data(G, {"profile": "random", "seed": cfg.seed + 1})
    d0 = u0 - v0
    chain, chain_v, chain_d = run_sweep(G, [u0, v0, d0], [cfg.h], cfg.m, rel_tol=cfg.rel_tol)[0]
    energy, energy_d = energy_estimate([chain, chain_d], G, cfg.c0, cfg.slack)
    extremum = extremum_check(chain)
    contraction = contraction_report(G, chain, chain_v, chain_d, energy_d)
    catalog = default_test_catalog(G, chain.horizon)  # the test functions G has
    have = [fn.name for fn in catalog]
    names = have if cfg.test_functions is None else cfg.test_functions
    if not set(names) <= set(have):
        raise ConfigError(f"test_functions: must name functions this graph has "
                          f"({', '.join(have) or 'none'}), got {names!r}")
    weak_rows = weak_residual(chain, G, [fn for fn in catalog if fn.name in names])
    attainment = initial_attainment_check(chain, G, chain.h, cfg.slack)
    passed = bool(energy.passed and extremum.passed and contraction.passed and attainment.passed)
    return passed, {**_run_documents(spec, chain, energy, extremum), "verify_report.json": {
        "scenario": spec.to_dict(), "h": chain.h, "m": chain.m,
        "horizon": chain.horizon, "c0_used": energy.c0_used,
        "energy": report_json(energy),
        "extremum": report_json(extremum),
        "contraction": report_json(contraction),
        "weak_residuals": [report_json(r) for r in weak_rows],
        "initial_attainment": report_json(attainment),
        "pass": passed,
    }}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# The run flags: config key -> flag, type and help.
_FLAGS = {
    "h": ("--h", float, "step size (default 0.1)"),
    "m": ("--m", int, "chains per step (default 4)"),
    "rel_tol": ("--tol", float, "solver relative tolerance (default 1e-10)"),
    "seed": ("--seed", int, "seed for random profiles (default 0)"),
}
# Each subcommand's function and the run flags it reads: converge and l2-limit
# step with every h in h_list, so they take no --h.
_COMMANDS = {
    "run": (cmd_run, tuple(_FLAGS)),
    "converge": (cmd_converge, ("m", "rel_tol", "seed")),
    "compare-interp": (cmd_compare_interp, tuple(_FLAGS)),
    "l2-limit": (cmd_l2_limit, ("m", "rel_tol", "seed")),
    "verify": (cmd_verify, tuple(_FLAGS)),
}


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, described by the command function's docstring."""
    parser = argparse.ArgumentParser(
        prog="evoheat",
        description="Implicit-Euler heat flow on evolving weighted graphs, "
                    "with estimate checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, keys) in _COMMANDS.items():
        # no abbreviations: --h must not pass as --help where it is not a flag
        p = sub.add_parser(name, help=command.__doc__.split("\n\n")[0],
                           description=command.__doc__, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (default: built-in defaults)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: out)")
        for key in keys:
            flag, kind, text = _FLAGS[key]
            p.add_argument(flag, type=kind, dest=key, help=text)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    raw = {} if args.config is None else read_json("config", args.config)
    check_type("config", raw, {})
    for key in ("out", *_FLAGS):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return RunConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        command, keys = _COMMANDS[args.command]
        spec, G, u0 = _prepare(cfg)
        key, steps = ("h", [cfg.h]) if "h" in keys else ("h_list", cfg.h_list)
        for h in steps:  # only the step sizes the command reads
            try:
                steps_within_horizon(G.horizon, h)
            except ValueError as exc:  # h overruns the horizon
                raise ConfigError(f"{key}: {exc}") from None
        passed, documents = command(cfg, spec, G, u0)
        for name, doc in {"run_config.json": asdict(cfg), **documents}.items():
            path = os.path.join(cfg.out, name)
            if isinstance(doc, ChainFamily):
                write_samples(path, doc)
            elif isinstance(doc, tuple):
                write_csv(path, *doc)
            else:
                write_json(path, doc)
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except OracleError as exc:  # a ValueError, but no config error
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:  # the run's arrays do not fit: a smaller m, h_list or graph may
        print("solver failure: out of memory", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
