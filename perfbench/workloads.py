"""The four benchmark workloads and the checks on their outputs.

Each workload is one ``evoheat`` subcommand on one JSON config.  The config is
complete except for the data seed, which the benchmark derives from its
``--seed``.  Reference values for every data seed were recorded at the commit
that introduced the benchmark (``reference.json``, written by
``record_reference.py``); ``check_outputs`` holds every execution to them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

# Reference values exist for data seeds 0..DATA_SEEDS-1; --seed n selects n mod DATA_SEEDS.
DATA_SEEDS = 32

# A headline scalar may move by this share of its reference value.  Solver
# round-off (rel_tol 1e-10) moves them by far less; a wrong step moves them by more.
HEADLINE_REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    seeded: bool
    artifacts: tuple

    def make_config(self, data_seed: int) -> dict:
        cfg = json.loads(json.dumps(self.config))
        cfg["seed"] = data_seed if self.seeded else 0
        cfg["out"] = "out"
        return cfg

    @property
    def vertex_steps(self) -> int:
        """Implicit Euler steps the config requires, times the vertex count.

        Fixed from the config, not counted at run time:
          verify    4 chain families (the run plus the contraction check's three)
          l2-limit  (1 + truncation levels) chain families per h in h_list
          converge  one chain family per h in h_list (the reference flow is not counted)
        A chain family over step h takes round(T/h) * m steps.
        """
        cfg = self.config
        sc = cfg["scenario"]
        n = sc["n"] if "n" in sc else sc["nx"] * sc["ny"]
        m, T = cfg["m"], sc["T"]

        def family_steps(h):
            return round(T / h) * m

        if self.command == "verify":
            steps = 4 * family_steps(cfg["h"])
        elif self.command == "l2-limit":
            levels = len(cfg.get("truncation_levels", [1, 2, 4, 8, 16]))
            steps = (1 + levels) * sum(family_steps(h) for h in cfg["h_list"])
        else:
            steps = sum(family_steps(h) for h in cfg["h_list"])
        return steps * n


_VERIFY_ARTIFACTS = ("run_config.json", "samples.csv", "energy_report.json",
                     "extremum_report.json", "verify_report.json")
_H_LIST = [0.1, 0.05, 0.025, 0.0125]

WORKLOADS = {w.name: w for w in (
    Workload("verify_torus48", "verify",
             {"scenario": {"kind": "product_torus", "nx": 48, "ny": 48, "T": 1.0},
              "initial": {"profile": "random", "dist": "normal"},
              "h": 0.02, "m": 4},
             seeded=True, artifacts=_VERIFY_ARTIFACTS),
    Workload("verify_circle1024", "verify",
             {"scenario": {"kind": "conformal_circle", "n": 1024, "k_spatial": 1, "T": 1.0},
              "initial": {"profile": "random", "dist": "normal"},
              "h": 0.1, "m": 4},
             seeded=True, artifacts=_VERIFY_ARTIFACTS),
    Workload("l2limit_cauchy64", "l2-limit",
             {"scenario": {"kind": "conformal_circle", "n": 64, "k_spatial": 1, "T": 1.0},
              "initial": {"profile": "random", "dist": "cauchy"},
              "m": 4, "h_list": _H_LIST},
             seeded=True, artifacts=("run_config.json", "truncation_report.json")),
    # Smooth fixed data: the RK4 reference fails its self-check on random data,
    # so this workload ignores the data seed.
    Workload("converge_oracle128", "converge",
             {"scenario": {"kind": "conformal_circle", "n": 128, "k_spatial": 1, "T": 1.0},
              "initial": {"profile": "harmonic", "k": 1},
              "m": 4, "h_list": _H_LIST, "oracle_steps": 8192},
             seeded=False, artifacts=("run_config.json", "convergence_table.csv")),
)}


def reference_key(workload: Workload, data_seed: int) -> str:
    return str(data_seed) if workload.seeded else "fixed"


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def headline(workload: Workload, outdir: str) -> dict:
    """The scalars a verdict rests on, read back from the artifacts."""
    if workload.command == "verify":
        rep = _load_json(os.path.join(outdir, "verify_report.json"))
        diff = rep["contraction"]["difference_energy"]
        return {"energy.sup_l2": rep["energy"]["sup_l2"],
                "energy.dissipation": rep["energy"]["dissipation"],
                "energy.rhs": rep["energy"]["rhs"],
                "c0_used": rep["c0_used"],
                "contraction.sup_l2": diff["sup_l2"],
                "contraction.dissipation": diff["dissipation"],
                "attainment.distance": rep["initial_attainment"]["distance"]}
    if workload.command == "l2-limit":
        rows = _load_json(os.path.join(outdir, "truncation_report.json"))["rows"]
        return {f"sum.{key}": math.fsum(r[key] for r in rows)
                for key in ("truncation_error", "diff_sup_l2", "diff_l2h1", "bound")}
    with open(os.path.join(outdir, "convergence_table.csv")) as f:
        return {f"error.h{row['h']}": float(row["error"]) for row in csv.DictReader(f)}


def _false_pass_flags(node, path="$"):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "pass" and value is not True:
                yield f"{path}.pass"
            yield from _false_pass_flags(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _false_pass_flags(value, f"{path}[{i}]")


def artifact_hashes(workload: Workload, outdir: str) -> dict:
    hashes = {}
    for name in workload.artifacts:
        path = os.path.join(outdir, name)
        if os.path.isfile(path):
            digest = hashlib.sha256()
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    digest.update(block)
            hashes[name] = digest.hexdigest()
    return hashes


def check_outputs(workload: Workload, outdir: str, exit_code, reference):
    """Problems with one execution's outputs, and its headline scalars.

    Checks the exit code (0 expected), the presence of every artifact, every
    ``pass`` flag in the JSON reports, and each headline scalar against the
    reference within HEADLINE_REL_TOL.  ``reference`` None skips the last check.
    An empty problem list means the execution passed.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    missing = [a for a in workload.artifacts if not os.path.isfile(os.path.join(outdir, a))]
    problems += [f"missing artifact {a}" for a in missing]
    if missing:
        return problems, None
    for name in workload.artifacts:
        if name.endswith(".json"):
            problems += [f"{name}: {flag} is not true"
                         for flag in _false_pass_flags(_load_json(os.path.join(outdir, name)))]
    values = headline(workload, outdir)
    if reference is not None:
        for key, ref in reference["headline"].items():
            got = values.get(key)
            if got is None or not abs(got - ref) <= HEADLINE_REL_TOL * abs(ref):
                problems.append(f"headline {key} = {got}, reference {ref}")
    return problems, values
