"""CLI exit codes, artifacts, determinism.  Everything goes through main(argv)."""

import functools
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import evoheat as eh
import evoheat.artifacts as artifacts
import evoheat.cli as cli
from evoheat.cli import main
from evoheat.geometry import Scenario
from evoheat.scheme import ChainFamily

from helpers import growth_reference


def _write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "scenario": {"kind": "conformal_circle", "n": 16, "T": 1.0},
        "initial": {"profile": "random", "seed": 7},
        "h": 0.2,
        "m": 2,
        "rel_tol": 1e-12,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_json(outdir, name):
    with open(os.path.join(outdir, name)) as f:
        return json.load(f)


def _read_all(outdir):
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def test_run_writes_artifacts_and_exits_zero(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for name in ("run_config.json", "samples.csv", "energy_report.json",
                 "extremum_report.json"):
        assert os.path.exists(os.path.join(out, name)), name
    energy = _read_json(out, "energy_report.json")
    assert energy["pass"] is True
    assert energy["c0_used"] > 0  # certified from the run grid, not assumed
    assert energy["h"] == 0.2 and energy["m"] == 2
    assert _read_json(out, "extremum_report.json")["pass"] is True

    # samples.csv: header plus (N*m + 1) * n value rows, floats in shortest repr
    lines = open(os.path.join(out, "samples.csv")).read().splitlines()
    assert lines[0] == "t,vertex,value"
    assert len(lines) == 1 + (5 * 2 + 1) * 16


def test_run_samples_roundtrip_exactly(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    G = eh.build_scenario(Scenario.from_dict({"kind": "conformal_circle", "n": 16, "T": 1.0}))
    u0 = eh.make_initial_data(G, {"profile": "random", "seed": 7})
    chain = eh.run_sweep(G, [u0], [0.2], 2, rel_tol=1e-12)[0][0]
    lines = open(os.path.join(out, "samples.csv")).read().splitlines()[1:]
    for line in lines[::37]:  # spot checks across the file
        t, vertex, value = line.split(",")
        j = round(float(t) / chain.delta)
        assert float(value) == chain.values[j, int(vertex)]


def test_run_is_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(out))
    first = {n: open(os.path.join(out, n), "rb").read() for n in names}
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for n in names:
        assert open(os.path.join(out, n), "rb").read() == first[n], n


def test_run_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--h", "0.25", "--m", "1"]) == 0
    echoed = _read_json(out, "run_config.json")
    assert echoed["h"] == 0.25 and echoed["m"] == 1


def test_run_check_failure_exits_one_but_writes_reports(tmp_path):
    # constant data on growing volume: claiming c0 = 0 understates the growth
    cfg = _write_config(
        tmp_path,
        scenario={"kind": "conformal_circle", "n": 8, "T": 1.0, "growth": 1.0, "amp": 0.0},
        initial={"profile": "constant"},
        c0=0.0,
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 1
    energy = _read_json(out, "energy_report.json")
    assert energy["pass"] is False
    assert energy["margin"] < 0


def test_config_errors_exit_two(tmp_path, capsys):
    out = str(tmp_path / "out")

    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", out]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json), "--out", out]) == 2

    unknown_key = _write_config(tmp_path, "unknown.json", bogus=1)
    assert main(["run", "--config", unknown_key, "--out", out]) == 2

    bad_kind = _write_config(tmp_path, "kind.json", scenario={"kind": "sphere"})
    assert main(["run", "--config", bad_kind, "--out", out]) == 2

    pinched = _write_config(
        tmp_path, "pinch.json",
        scenario={"kind": "pinching_circle", "n": 16, "T": 2.0, "amplitude": 0.9})
    assert main(["run", "--config", pinched, "--out", out]) == 2
    assert "pinch" in capsys.readouterr().err

    # no truncation level would leave l2-limit nothing to check, and pass
    no_levels = _write_config(tmp_path, "levels.json", truncation_levels=[])
    assert main(["l2-limit", "--config", no_levels, "--out", out]) == 2
    assert ("truncation_levels: must be a nonempty list of positive finite real numbers, got []"
            in capsys.readouterr().err)

    assert not os.path.exists(out)  # config errors must not leave artifacts


@pytest.mark.parametrize("command, key, value", [
    ("verify", "h", "0.1"), ("verify", "h", None), ("verify", "h", True),
    ("verify", "rel_tol", "1e-8"), ("verify", "slack", [1e-8]), ("verify", "c0", "1"),
    ("verify", "m", 2.5), ("verify", "seed", 1.5), ("converge", "oracle_steps", "8"),
    ("converge", "h_list", 0.1), ("l2-limit", "h_list", 0.1),
    ("l2-limit", "truncation_levels", ["1"]), ("verify", "test_functions", "k1_sin"),
    ("verify", "initial", "harmonic"), ("verify", "scenario", 5), ("verify", "out", 3),
    # json reads NaN and Infinity; no field takes them, and slack must not be negative
    ("verify", "c0", math.inf), ("verify", "h", math.nan), ("verify", "rel_tol", -math.inf),
    ("verify", "slack", math.inf), ("verify", "slack", -0.5),
    ("converge", "h_list", [0.1, math.nan]), ("l2-limit", "truncation_levels", [1, math.inf]),
    ("verify", "seed", -5),
    # each key's range is checked with its type, for every subcommand
    ("converge", "oracle_steps", 3), ("converge", "oracle_steps", 0),
    ("converge", "h_list", [0.1, -0.05]), ("l2-limit", "h_list", []),
    ("l2-limit", "truncation_levels", [1, 0]), ("verify", "h", 0), ("verify", "m", 0),
    ("verify", "c0", -1), ("verify", "test_functions", ["k9_sin"]),
])
def test_mistyped_config_value_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                 command, key, value):
    cfg = _write_config(tmp_path, **{key: value})
    monkeypatch.chdir(tmp_path)  # the default out directory, which must stay absent
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: must be ")
    assert not os.path.exists(tmp_path / "out")


def test_every_config_key_has_one_table_entry():
    assert set(cli._KEYS) == set(cli.RunConfig.__dataclass_fields__)


def _table(**overrides):
    table = {"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "times": [0.0, 1.0],
             "weights": [[1.0, 2.0, 1.0], [2.0, 1.0, 1.0]],
             "conductances": [[1.0, 1.0, 0.5], [0.5, 1.0, 1.0]]}
    return {"kind": "custom_tabulated", "T": 1.0, "table": {**table, **overrides}}


_CIRCLE = {"kind": "conformal_circle", "n": 16, "T": 1.0}
_TORUS = {"kind": "product_torus", "nx": 4, "ny": 4, "T": 1.0}


@pytest.mark.parametrize("key, section, value", [
    ("n", "scenario", {**_CIRCLE, "n": 64.9}),
    ("k_spatial", "scenario", {**_CIRCLE, "k_spatial": 1.7}),
    ("nx", "scenario", {**_TORUS, "nx": 12.5}),
    ("ny", "scenario", {**_TORUS, "ny": "12"}),
    ("T", "scenario", {**_CIRCLE, "T": True}),
    ("T", "scenario", {**_CIRCLE, "T": "1"}),
    ("n", "scenario", {**_CIRCLE, "n": True}),
    ("k_spatial", "scenario", {**_CIRCLE, "k_spatial": True}),
    ("n", "scenario", {**_CIRCLE, "n": "16"}),
    ("n", "scenario", {**_CIRCLE, "n": None}),
    ("amp", "scenario", {**_CIRCLE, "amp": False}),
    ("amp", "scenario", {**_CIRCLE, "amp": "0.5"}),
    ("amp", "scenario", {**_CIRCLE, "amp": None}),
    ("omega", "scenario", {**_CIRCLE, "omega": 10 ** 400}),  # an integer no double holds
    ("radius0", "scenario", {"kind": "shrinking_sphere_analogue", "radius0": [2.0]}),
    ("path", "scenario", {"kind": "custom_tabulated", "path": 0}),
    ("table", "scenario", {"kind": "custom_tabulated", "table": [1]}),
    ("n_vertices", "scenario", _table(n_vertices=3.9)),
    ("edges", "scenario", _table(edges=[[0.7, 1.2]])),
    ("edges", "scenario", _table(edges=[[0, 1], [True, 2], [0, 2]])),
    ("times", "scenario", _table(times=["0", "1"])),
    ("times", "scenario", _table(times=[0, True])),
    ("weights", "scenario", _table(weights=[[1.0, 2.0, 1.0], [2.0, 1.0, None]])),
    ("weights", "scenario", _table(weights=[[1.0, 2.0, 1.0], [2.0, 1.0, "1.0"]])),
    ("conductances", "scenario", _table(conductances=[[1, 1, "1"], [1, 1, 1]])),
    ("k", "initial", {"profile": "harmonic", "k": 1.5}),
    ("seed", "initial", {"profile": "random", "seed": 2.7}),
    ("dist", "initial", {"profile": "random", "dist": 1}),
    ("scale", "initial", {"profile": "random", "scale": True}),
    ("value", "initial", {"profile": "constant", "value": "1"}),
    ("center", "initial", {"profile": "bump", "center": None}),
    ("width", "initial", {"profile": "bump", "width": None}),
    ("path", "initial", {"profile": "file"}),
    ("path", "initial", {"profile": "file", "path": 0}),
    ("seed", "initial", {"profile": "random", "seed": -1}),
    ("width", "initial", {"profile": "bump", "width": 0}),
    ("dist", "initial", {"profile": "random", "dist": "uniform"}),
    ("profile", "initial", {"profile": "gaussian"}),
])
def test_mistyped_scenario_or_profile_value_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                              key, section, value):
    # every scenario and initial-data value must have its default's JSON type:
    # nothing is coerced, nothing is solved, and nothing is written
    cfg = _write_config(tmp_path, **{section: value})
    monkeypatch.chdir(tmp_path)  # the default out directory, which must stay absent
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("solved"))
    assert main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not os.path.exists(tmp_path / "out")


_DIRECTORY = object()  # an input path that names a directory: no chmod, which root ignores


@pytest.mark.parametrize("contents, message", [(b"{not json", "{path!r} is not valid JSON ("),
                                               (b"\xd0\x00", "{path!r} is not valid JSON ("),
                                               (None, "no such file {path!r}"),
                                               (_DIRECTORY, "cannot read {path!r} (Is a directory)")],
                         ids=["invalid", "not_utf8", "missing", "directory"])
@pytest.mark.parametrize("key, section", [
    ("config", None),
    ("scenario", lambda path: {"scenario": path}),
    ("path", lambda path: {"scenario": {"kind": "custom_tabulated", "path": path}}),
    ("path", lambda path: {"initial": {"profile": "file", "path": path}}),
], ids=["config", "scenario", "table", "file_profile"])
def test_unreadable_input_file_names_its_key_and_path(tmp_path, monkeypatch, capsys,
                                                      contents, message, key, section):
    # every input file is read by one reader, which names the key and the path
    bad = tmp_path / "input.json"
    if contents is _DIRECTORY:
        bad.mkdir()
    elif contents is not None:
        bad.write_bytes(contents)
    cfg = str(bad) if section is None else _write_config(tmp_path, **section(str(bad)))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("solved"))
    assert main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {key}: " + message.format(path=str(bad)))
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("key, config", [
    ("c0", {"c0": 1000}),  # exp(c0 * horizon) overflows after the run
    ("growth", {"scenario": {"kind": "conformal_circle", "n": 64, "growth": 720.0}}),
    ("growth", {"scenario": {"kind": "conformal_circle", "n": 64, "growth": -720.0}}),  # 1/a
])
@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_value_is_a_config_error(tmp_path, monkeypatch, capsys,
                                             key, config, command):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", _write_config(tmp_path, **config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and "Warning" not in err
    assert not os.path.exists(tmp_path / "out")


def test_negative_seed_flag_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "config error: seed: must be a nonnegative integer, got -5\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("command", ["converge", "l2-limit"])
def test_h_flag_is_rejected_where_h_list_sets_the_steps(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--h", "0.05"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --h 0.05" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("command, key, value", [
    ("run", "h", 2.0), ("compare-interp", "h", 2.0), ("verify", "h", 2.0),
    # converge's case is test_converge_rejects_a_bad_h_before_the_oracle
    ("l2-limit", "h_list", [0.1, 3.0]),
])
def test_step_past_the_horizon_is_a_config_error_under_its_key(tmp_path, monkeypatch, capsys,
                                                               command, key, value):
    cfg = _write_config(tmp_path, **{key: value})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("solved"))
    assert main([command, "--config", cfg]) == 2
    step = value if key == "h" else value[-1]
    assert capsys.readouterr().err == (
        f"config error: {key}: step h={step} does not fit the horizon T=1.0\n")
    assert not os.path.exists(tmp_path / "out")


def test_a_step_size_the_command_does_not_read_is_not_checked(tmp_path):
    cfg = _write_config(tmp_path, h=2.0, h_list=[0.2, 0.1])  # l2-limit reads only h_list
    assert main(["l2-limit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_subcommand_help_is_its_docstring(monkeypatch, capsys, name):
    monkeypatch.setenv("COLUMNS", "1000")  # no line wrapping
    command, keys = cli._COMMANDS[name]
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    usage, description, *_ = capsys.readouterr().out.split("\n\n")
    assert " ".join(description.split()) == " ".join(command.__doc__.split())
    flags = [flag for flag in ("--h", "--m", "--tol", "--seed") if f"[{flag} " in usage]
    assert flags == [cli._FLAGS[key][0] for key in keys]


def test_non_finite_tol_flag_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--tol", "nan"]) == 2
    assert capsys.readouterr().err.startswith("config error: rel_tol: must be ")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("values", [[0.0] * 15 + [float("nan")], [1.0] * 15],
                         ids=["nan", "short"])
def test_bad_initial_file_exits_two_before_any_solve(tmp_path, monkeypatch, capsys, values):
    data = tmp_path / "u0.json"
    data.write_text(json.dumps(values))  # json writes nan as NaN, which it reads back
    cfg = _write_config(tmp_path, initial={"profile": "file", "path": str(data)})
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("solved"))
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "file profile" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_zero_tolerance_on_cg_graph_reports_the_residual(tmp_path, capsys):
    cfg = _write_config(tmp_path, scenario={"kind": "product_torus", "nx": 12, "ny": 12},
                        initial={"profile": "random"})
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--tol", "0"]) == 3
    err = capsys.readouterr().err
    assert "relative residual" in err and "target 0.000e+00" in err
    assert "positive definite" not in err


def test_solver_failure_exits_three(tmp_path, capsys):
    cfg = _write_config(tmp_path, scenario={"kind": "static_circle", "n": 4},
                        rel_tol=0.0)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_a_non_finite_solve_in_the_last_round_exits_three(tmp_path, monkeypatch, capsys):
    # the default run solves 10 rounds of 4 rows, and no later round reads the
    # last round's rows: the sweep itself must see that they are not finite
    real = eh.scheme.spd_solve_prepared
    calls = []

    def solve(*args, **kwargs):
        calls.append(None)
        x = real(*args, **kwargs)
        return np.full_like(x, np.inf) if len(calls) == 10 else x

    monkeypatch.setattr(eh.scheme, "spd_solve_prepared", solve)
    out = str(tmp_path / "out")
    assert main(["run", "--out", out]) == 3
    assert len(calls) == 10
    assert capsys.readouterr().err == ("solver failure: the solve at t = 0.925 (h = 0.1) "
                                       "returned non-finite values\n")
    assert not os.path.exists(out)


def test_converge_command(tmp_path):
    cfg = _write_config(
        tmp_path,
        scenario={"kind": "static_circle", "n": 8, "T": 1.0},
        initial={"profile": "harmonic", "k": 1},
        m=1,
        h_list=[0.2, 0.1, 0.05],
        oracle_steps=512,
    )
    out = str(tmp_path / "out")
    assert main(["converge", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "convergence_table.csv")).read().splitlines()
    assert lines[0] == "h,m,error,observed_order"
    assert len(lines) == 4
    assert lines[1].endswith(",")  # first row has no observed order
    for line in lines[2:]:
        assert 0.7 < float(line.rsplit(",", 1)[1]) < 1.3


@pytest.mark.parametrize("h_list, message", [
    ([0.1, -0.05], "h_list: must be a nonempty list of positive finite real numbers, "
                   "got [0.1, -0.05]"),
    ([0.1, 2.0], "h_list: step h=2.0 does not fit the horizon T=1.0"),
])
def test_converge_rejects_a_bad_h_before_the_oracle(tmp_path, monkeypatch, capsys,
                                                    h_list, message):
    def no_oracle(*args, **kwargs):
        raise AssertionError("semidiscrete_oracle ran before h_list was checked")

    monkeypatch.setattr(eh.verify, "semidiscrete_oracle", no_oracle)
    cfg = _write_config(tmp_path, h_list=h_list)
    out = str(tmp_path / "out")
    assert main(["converge", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(out)


def test_converge_draws_random_data_from_the_seed_flag(tmp_path):
    cfg = _write_config(tmp_path, scenario={"kind": "static_circle", "n": 8, "T": 1.0},
                        initial={"profile": "random"}, h_list=[0.1, 0.05], m=1,
                        rel_tol=1e-10)
    tables = {}
    for seed in (0, 7):
        out = str(tmp_path / f"out{seed}")
        assert main(["converge", "--config", cfg, "--out", out, "--seed", str(seed)]) == 0
        tables[seed] = open(os.path.join(out, "convergence_table.csv")).read()
    assert tables[0] != tables[7]
    G = eh.build_scenario(Scenario.from_dict({"kind": "static_circle", "n": 8, "T": 1.0}))
    u0 = eh.make_initial_data(G, {"profile": "random"}, default_seed=7)
    rows = eh.convergence_table(G, u0, [0.1, 0.05], m=1)
    assert [line.split(",")[2] for line in tables[7].splitlines()[1:]] == \
        [repr(r.error) for r in rows]


def test_converge_constant_data_is_flat_and_ok(tmp_path):
    cfg = _write_config(
        tmp_path,
        scenario={"kind": "conformal_circle", "n": 8, "T": 1.0},
        initial={"profile": "constant"},
        h_list=[0.2, 0.1],
        oracle_steps=64,
        rel_tol=1e-13,
    )
    out = str(tmp_path / "out")
    assert main(["converge", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "convergence_table.csv")).read().splitlines()[1:]
    assert all(float(line.split(",")[2]) <= 1e-10 for line in lines)


def test_compare_interp_command(tmp_path):
    cfg = _write_config(tmp_path,
                        scenario={"kind": "oscillating_metric", "n": 16, "T": 1.0},
                        h=0.1)
    out = str(tmp_path / "out")
    assert main(["compare-interp", "--config", cfg, "--out", out]) == 0
    doc = _read_json(out, "comparison.json")
    assert doc["shifted_l2h1"] > 0
    assert doc["degiorgi_l2h1"] > 0
    assert doc["ratio"] == doc["degiorgi_l2h1"] / doc["shifted_l2h1"]
    assert doc["energy_report"]["pass"] is True


def test_l2_limit_command(tmp_path):
    cfg = _write_config(
        tmp_path,
        initial={"profile": "random", "dist": "cauchy", "seed": 3},
        h_list=[0.25, 0.125],
        truncation_levels=[1, 4],
        scenario={"kind": "conformal_circle", "n": 12, "T": 1.0},
    )
    out = str(tmp_path / "out")
    assert main(["l2-limit", "--config", cfg, "--out", out]) == 0
    doc = _read_json(out, "truncation_report.json")
    assert doc["pass"] is True
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert row["pass"] is True
        assert row["diff_sup_l2"] <= row["bound"] * (1 + 1e-8)
        assert row["diff_l2h1"] <= row["bound"] * (1 + 1e-8)


def test_l2_limit_report_equals_hand_loop(tmp_path):
    # the config of test_l2_limit_command; the reference is criterion 10's hand
    # loop: each truncated run on its own, differences taken sample by sample
    levels, h_list = [1, 4], [0.25, 0.125]
    cfg = _write_config(
        tmp_path,
        initial={"profile": "random", "dist": "cauchy", "seed": 3},
        h_list=h_list,
        truncation_levels=levels,
        scenario={"kind": "conformal_circle", "n": 12, "T": 1.0},
    )
    out = str(tmp_path / "out")
    assert main(["l2-limit", "--config", cfg, "--out", out]) == 0
    rows = _read_json(out, "truncation_report.json")["rows"]

    G = eh.build_scenario(Scenario.from_dict({"kind": "conformal_circle", "n": 12, "T": 1.0}))
    u0 = eh.make_initial_data(G, {"profile": "random", "dist": "cauchy", "seed": 3})
    w0 = eh.vertex_weights(G, 0.0)
    want = []
    for h in h_list:
        chain_full = eh.run_sweep(G, [u0], [h], m=2, rel_tol=1e-12)[0][0]
        c0 = growth_reference(G, chain_full.times())
        bound_factor = math.exp(c0 * chain_full.horizon)
        times = chain_full.times()
        for level in levels:
            u0n = eh.truncate(u0, float(level))
            trunc_err = eh.weighted_l2_sq(u0 - u0n, w0)
            chain_n = eh.run_sweep(G, [u0n], [h], m=2, rel_tol=1e-12)[0][0]
            diff_sup = max(
                eh.weighted_l2_sq(sf - sn, eh.vertex_weights(G, t))
                for t, sf, sn in zip(times, chain_full.values, chain_n.values))
            diff_l2h1 = sum(
                chain_full.delta * eh.dirichlet_energy(G, t, sf - sn)
                for t, sf, sn in zip(times[1:], chain_full.values[1:], chain_n.values[1:]))
            want.append((h, float(level), trunc_err, diff_sup, diff_l2h1,
                         bound_factor * trunc_err))
    got = [(r["h"], r["level"], r["truncation_error"], r["diff_sup_l2"], r["diff_l2h1"],
            r["bound"]) for r in rows]
    assert got == want


def test_l2_limit_check_failure_exits_one_but_writes_the_report(tmp_path):
    # random data on growing volume: claiming c0 = 0 understates the growth
    cfg = _write_config(
        tmp_path,
        scenario={"kind": "conformal_circle", "n": 8, "T": 1.0, "growth": 1.0, "amp": 0.0},
        initial={"profile": "random", "scale": 3.0}, c0=0.0, h_list=[0.1, 0.05])
    out = str(tmp_path / "out")
    assert main(["l2-limit", "--config", cfg, "--out", out]) == 1
    doc = _read_json(out, "truncation_report.json")
    assert doc["pass"] is False
    assert not all(row["pass"] for row in doc["rows"])


# Each subcommand's artifacts, as the README's command table lists them.
_ARTIFACTS = {
    "run": {"samples.csv", "energy_report.json", "extremum_report.json"},
    "converge": {"convergence_table.csv"},
    "compare-interp": {"comparison.json"},
    "l2-limit": {"truncation_report.json"},
    "verify": {"samples.csv", "energy_report.json", "extremum_report.json",
               "verify_report.json"},
}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_main_writes_run_config_first_and_only_after_the_command(tmp_path, monkeypatch, name):
    assert set(_ARTIFACTS) == set(cli._COMMANDS)
    command, keys = cli._COMMANDS[name]
    returned, written = [], []

    @functools.wraps(command)  # the subcommand's help is its docstring
    def finished(*args):
        result = command(*args)
        returned.append(True)
        return result

    def spy(write):
        def recording(path, *args):
            written.append((os.path.basename(path), bool(returned)))
            return write(path, *args)
        return recording

    monkeypatch.setitem(cli._COMMANDS, name, (finished, keys))
    monkeypatch.setattr(cli, "write_json", spy(cli.write_json))
    monkeypatch.setattr(cli, "write_csv", spy(cli.write_csv))
    monkeypatch.setattr(cli, "write_samples", spy(cli.write_samples))
    cfg = _write_config(tmp_path, scenario={"kind": "static_circle", "n": 8, "T": 1.0},
                        initial={"profile": "harmonic", "k": 1}, m=1,
                        h_list=[0.2, 0.1, 0.05], truncation_levels=[0.5], oracle_steps=512)
    out = tmp_path / "out"
    assert main([name, "--config", cfg, "--out", str(out)]) == 0
    assert written[0] == ("run_config.json", True)  # samples.csv too comes after it
    assert all(after for _, after in written)
    assert sorted(n for n, _ in written) == sorted({"run_config.json", *_ARTIFACTS[name]})
    assert set(os.listdir(out)) == {"run_config.json", *_ARTIFACTS[name]}


def test_run_and_verify_write_identical_run_artifacts(tmp_path):
    cfg = _write_config(tmp_path, scenario={"kind": "conformal_circle", "n": 12, "T": 1.0},
                        initial={"profile": "random", "seed": 5}, h=0.1)
    out = str(tmp_path / "out")  # one directory: run_config.json echoes it
    names = ("run_config.json", "samples.csv", "energy_report.json", "extremum_report.json")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    from_run = {n: open(os.path.join(out, n), "rb").read() for n in names}
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    for n in names:
        assert open(os.path.join(out, n), "rb").read() == from_run[n], n


def test_pinching_reports_zero_growth_bound(tmp_path):
    cfg = _write_config(
        tmp_path,
        scenario={"kind": "pinching_circle", "n": 16, "T": 1.0, "amplitude": 0.5},
        initial={"profile": "harmonic", "k": 1},
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert _read_json(out, "energy_report.json")["c0_used"] == 0.0


def test_verify_command(tmp_path):
    cfg = _write_config(tmp_path,
                        scenario={"kind": "conformal_circle", "n": 12, "T": 1.0},
                        initial={"profile": "harmonic", "k": 1},
                        h=0.1)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    doc = _read_json(out, "verify_report.json")
    assert doc["pass"] is True
    for key in ("energy", "extremum", "contraction", "weak_residuals",
                "initial_attainment"):
        assert key in doc
    assert len(doc["weak_residuals"]) == 4
    assert doc["initial_attainment"]["pass"] is True


def test_verify_test_function_filter(tmp_path):
    cfg = _write_config(tmp_path,
                        scenario={"kind": "conformal_circle", "n": 12, "T": 1.0},
                        initial={"profile": "harmonic", "k": 1},
                        h=0.2, test_functions=["k1_sin"])
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    doc = _read_json(out, "verify_report.json")
    assert [r["name"] for r in doc["weak_residuals"]] == ["k1_sin"]

    bad = _write_config(tmp_path, "bad_fn.json", test_functions=["k9_sin"])
    assert main(["verify", "--config", bad, "--out", out]) == 2


def test_verify_rejects_unknown_test_function_before_the_run(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: runs.append(args))
    cfg = _write_config(tmp_path, test_functions=["k1_sin", "k9_sin"])
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert ("test_functions: must be null or a list of names from k1_sin, k1_poly, k2_sin, "
            "k2_poly, got ['k1_sin', 'k9_sin']") in capsys.readouterr().err
    assert runs == [] and not out.exists()


# tables without coordinates: harmonic k needs k < n_vertices Laplacian modes
_ONE_VERTEX = {"kind": "custom_tabulated", "T": 1.0,
               "table": {"n_vertices": 1, "edges": [], "times": [0.0, 1.0],
                         "weights": [[1.0], [2.0]], "conductances": [[], []]}}
_TWO_VERTEX = _table(n_vertices=2, edges=[[0, 1]], weights=[[1.0, 2.0], [2.0, 1.0]],
                     conductances=[[1.0], [0.5]])


@pytest.mark.parametrize("names, reported", [(None, ["k1_sin", "k1_poly"]),
                                             (["k1_sin"], ["k1_sin"])])
def test_verify_tests_with_the_harmonics_a_small_graph_has(tmp_path, names, reported):
    cfg = _write_config(tmp_path, scenario=_TWO_VERTEX, test_functions=names)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    doc = _read_json(out, "verify_report.json")
    assert [r["name"] for r in doc["weak_residuals"]] == reported


def test_verify_rejects_a_harmonic_the_graph_lacks(tmp_path, capsys):
    cfg = _write_config(tmp_path, scenario=_TWO_VERTEX, test_functions=["k2_sin"])
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: test_functions: must name functions "
                                       "this graph has (k1_sin, k1_poly), got ['k2_sin']\n")
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_runs_on_a_one_vertex_table(tmp_path, command):
    cfg = _write_config(tmp_path, scenario=_ONE_VERTEX, h_list=[0.2, 0.1, 0.05],
                        truncation_levels=[0.5], oracle_steps=512)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert (out / "run_config.json").exists()


@pytest.mark.parametrize("h, m", [(0.2, 2), (0.22, 10)])
def test_verify_tolerances_come_from_the_run_bounds(tmp_path, h, m):
    # at h = 0.22, m = 10 the grid time m * (h/m) is not the float h
    cfg_path = _write_config(tmp_path, h=h, m=m)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    doc = _read_json(out, "verify_report.json")

    cfg = cli.RunConfig.from_dict(_read_json(str(tmp_path), "config.json"))
    _, G, u0 = cli._prepare(cfg)
    v0 = np.random.default_rng(cfg.seed + 1).standard_normal(G.n_vertices)
    chains = eh.run_sweep(G, [u0, v0, u0 - v0], [h], m, rel_tol=cfg.rel_tol)[0]
    chain = chains[0]
    w0 = eh.vertex_weights(G, 0.0)
    assert doc["extremum"]["tol"] == (1e-12 * (float(np.abs(u0).max()) + 1.0)
                                      + float(chain.solve_error.max()))
    assert doc["contraction"]["linearity_tol"] == (
        float((chains[0].solve_error + chains[1].solve_error + chains[2].solve_error).max())
        + 1e-9 * (eh.weighted_l2(u0, w0) + eh.weighted_l2(v0, w0)))
    w_m = eh.vertex_weights(G, m * chain.delta)  # the weights row m was solved with
    assert doc["initial_attainment"]["solver_error"] == (
        float(chain.solve_error[m]) * math.sqrt(float(w_m.sum())))
    assert doc["initial_attainment"]["solver_error"] > 0.0


def test_verify_linearity_tolerance_follows_tol_flag(tmp_path):
    # the tabulated 16x16 grid declares no lattice, so it solves by Jacobi-CG, whose
    # linearity residual at --tol 1e-6 sits far above a fixed 1e-9 * (data norms)
    # tolerance (the torus's spectral solves would leave a rounding-level residual)
    cfg = _write_config(tmp_path, scenario=_tabulated_grid(16, 0),
                        initial={"profile": "random"}, h=0.1, m=4)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--tol", "1e-6"]) == 0
    contraction = _read_json(out, "verify_report.json")["contraction"]
    assert contraction["pass"] is True
    assert 1e-7 < contraction["linearity_residual"] < contraction["linearity_tol"]


def _tabulated_grid(k, seed):
    """k x k periodic grid with uniform(0.5, 2) weights and conductances at t = 0, 0.5, 1."""
    pairs = set()
    for ix in range(k):
        for iy in range(k):
            v = ix * k + iy
            pairs.add(tuple(sorted((v, ((ix + 1) % k) * k + iy))))
            pairs.add(tuple(sorted((v, ix * k + (iy + 1) % k))))
    rng = np.random.default_rng(seed)
    return {"kind": "custom_tabulated", "T": 1.0,
            "table": {"n_vertices": k * k, "edges": sorted(pairs), "times": [0.0, 0.5, 1.0],
                      "weights": rng.uniform(0.5, 2.0, (3, k * k)).tolist(),
                      "conductances": rng.uniform(0.5, 2.0, (3, len(pairs))).tolist()}}


@pytest.mark.parametrize("tol", [None, "1e-6"])
def test_verify_constant_data_on_cg_graph(tmp_path, tol):
    # constant data is a fixed point of every step, so the CG solves' own error is
    # all that moves the samples: the extremum and attainment tolerances must cover it
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenario": _tabulated_grid(12, 0), "h": 0.1, "m": 4,
                               "initial": {"profile": "constant", "value": 1.0}}))
    out = str(tmp_path / "out")
    argv = ["verify", "--config", str(cfg), "--out", out] + (["--tol", tol] if tol else [])
    assert main(argv) == 0
    doc = _read_json(out, "verify_report.json")
    extremum, attainment = doc["extremum"], doc["initial_attainment"]
    floor = 1e-12 * 2.0
    assert floor < extremum["worst_violation"] <= extremum["tol"]
    assert extremum["tol"] > floor + 10 * extremum["worst_violation"]
    assert attainment["minimality_bound_sq"] == 0.0
    assert 0.0 < attainment["distance"] <= attainment["solver_error"]


@pytest.mark.parametrize("scenario", [
    {"kind": "conformal_circle", "n": 16, "T": 1.0},  # direct band path
    _tabulated_grid(6, 1),  # CG, and a table the scenario build re-horizons
])
def test_verify_computes_rcm_once_for_its_graph(tmp_path, monkeypatch, scenario):
    calls = []
    real = eh.linalg.rcm_ordering

    def counting(n, edges):
        calls.append(n)
        return real(n, edges)

    monkeypatch.setattr(eh.linalg, "rcm_ordering", counting)
    cfg = _write_config(tmp_path, scenario=scenario)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_verify_on_a_graph_without_coordinates_makes_one_eigh(tmp_path, monkeypatch):
    # harmonic initial data and both harmonic test functions share one basis
    calls = []
    real = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = _write_config(tmp_path, scenario=_tabulated_grid(6, 1),
                        initial={"profile": "harmonic", "k": 1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(36, 36)]
    G = eh.build_scenario(Scenario.from_dict(_tabulated_grid(6, 1)))
    with pytest.raises(ValueError, match="^k: harmonic index 36 out of range"):
        eh.make_initial_data(G, {"profile": "harmonic", "k": 36})
    assert calls == [(36, 36)]  # k is checked before the basis is computed


def test_integer_h_reports_a_float_horizon(tmp_path):
    cfg = _write_config(tmp_path, scenario={"kind": "static_circle", "n": 8, "T": 2.0},
                        initial={"profile": "harmonic", "k": 1}, h=1, m=2)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "energy_report.json").read_text()
    assert '"h": 1.0,' in report and '"horizon": 2.0,' in report


def test_scenario_from_file_path(tmp_path):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({"kind": "static_circle", "n": 8, "T": 1.0}))
    cfg = _write_config(tmp_path, scenario=str(scen),
                        initial={"profile": "harmonic", "k": 1})
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0


def _verify_artifacts(tmp_path, name, **overrides):
    """Every artifact of verify on the test config with ``overrides``, run_config.json aside."""
    out = tmp_path / name
    assert main(["verify", "--config", _write_config(tmp_path, f"{name}.json", **overrides),
                 "--out", str(out)]) == 0
    return {n: b for n, b in _read_all(out).items() if n != "run_config.json"}


def test_file_profile_gives_the_data_and_artifacts_of_its_inline_profile(tmp_path):
    inline = {"profile": "random", "seed": 7}
    G = eh.build_scenario(Scenario.from_dict(_CIRCLE))
    u0 = eh.make_initial_data(G, inline)
    data = tmp_path / "u0.json"
    data.write_text(json.dumps(u0.tolist()))  # shortest repr: every float round-trips
    from_file = {"profile": "file", "path": str(data)}
    assert np.array_equal(eh.make_initial_data(G, from_file), u0)
    assert (_verify_artifacts(tmp_path, "file", scenario=_CIRCLE, initial=from_file)
            == _verify_artifacts(tmp_path, "inline", scenario=_CIRCLE, initial=inline))


def test_table_read_through_path_builds_the_inline_table(tmp_path):
    inline = _table()
    path = tmp_path / "table.json"
    path.write_text(json.dumps(inline["table"]))
    from_path = {"kind": "custom_tabulated", "T": 1.0, "path": str(path)}
    G, H = (eh.build_scenario(Scenario.from_dict(d)) for d in (from_path, inline))
    for t in (0.0, 0.3, 1.0):
        assert np.array_equal(eh.vertex_weights(G, t), eh.vertex_weights(H, t))
        assert np.array_equal(eh.edge_conductances(G, t), eh.edge_conductances(H, t))
    got = _verify_artifacts(tmp_path, "path", scenario=from_path)
    want = _verify_artifacts(tmp_path, "inline", scenario=inline)
    assert got.keys() == want.keys()
    for name in got:  # the reports echo the scenario as given, path or table
        if name in ("energy_report.json", "verify_report.json"):
            got[name], want[name] = ({**json.loads(doc), "scenario": None}
                                     for doc in (got[name], want[name]))
        assert got[name] == want[name], name


def test_oracle_failure_exits_three(tmp_path, capsys):
    # 16 RK4 steps on a 64-vertex circle fail the halving self-check
    cfg = _write_config(tmp_path, scenario={"kind": "static_circle", "n": 64},
                        initial={"profile": "harmonic", "k": 1}, oracle_steps=16)
    out = str(tmp_path / "out")
    assert main(["converge", "--config", cfg, "--out", out]) == 3
    assert "oracle failure" in capsys.readouterr().err
    assert not os.path.exists(out)


def _python(code, **kwargs):
    """Run ``code`` in a new interpreter that imports evoheat from this tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("command", ["verify", "run", "l2-limit"])
def test_overflowing_data_is_a_solver_failure(tmp_path, command):
    # right-hand sides near 1e300 square past the largest double, so no solve
    # can be certified: exit 3, one line, no numpy warning and no traceback
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "conformal_circle", "n": 64},
                               "initial": {"profile": "random", "scale": 1e300}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    done = _python(f"import sys, evoheat.cli; sys.exit(evoheat.cli.main({argv!r}))")
    assert done.returncode == 3
    assert done.stderr.startswith("solver failure: ") and done.stderr.count("\n") == 1
    assert "t = 0.025 (h = 0.1)" in done.stderr
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_out_of_memory_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    def allocate(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_sweep", allocate)
    out = str(tmp_path / "out")
    assert main(["verify", "--m", "100000000", "--out", out]) == 3
    assert capsys.readouterr().err == "solver failure: out of memory\n"
    assert not os.path.exists(out)


def test_cli_imports_numpy_only():
    code = "import sys, evoheat.cli; print('scipy' in sys.modules)"
    done = _python(code, check=True)
    assert done.stdout.strip() == "False"


def test_circle_verify_never_loads_numpy_fft(tmp_path):
    # numpy loads numpy.fft on first attribute access; only lattice solves make one
    code = ("import sys, numpy; eager = 'numpy.fft' in sys.modules; import evoheat.cli; "
            f"code = evoheat.cli.main(['verify', '--out', {str(tmp_path / 'out')!r}]); "
            "print(eager, code, 'numpy.fft' in sys.modules)")
    eager, code, loaded = _python(code, check=True).stdout.splitlines()[-1].split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.fft with numpy")
    assert (code, loaded) == ("0", "False")


# ---------------------------------------------------------------------------
# samples.csv and failed writes
# ---------------------------------------------------------------------------

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_samples_csv_keeps_extreme_floats_and_grid_times(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((61, 6))
    values[1] = [-0.0, 5e-324, 1e308, 1 / 3, 2.0, -7.0]
    chain = ChainFamily(h=0.1, m=3, values=values, solve_error=np.zeros(61))  # delta = 0.1/3
    path = tmp_path / "out" / "samples.csv"
    artifacts.write_samples(str(path), chain)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,vertex,value"
    assert [line.split(",")[2] for line in lines[7:13]] == [
        "-0.0", "5e-324", "1e+308", "0.3333333333333333", "2.0", "-7.0"]
    assert [float(line.split(",")[0]) for line in lines[1::6]] == chain.times().tolist()
    assert [float(line.split(",")[2]) for line in lines[1:]] == values.ravel().tolist()


@pytest.mark.parametrize("rewritten", [False, True])
def test_artifacts_are_readable_under_umask_022(tmp_path, rewritten):
    cfg = _write_config(tmp_path)
    old = os.umask(0o022)
    try:
        for command in ("run", "verify"):
            out = str(tmp_path / command)
            if rewritten:  # a rerun replaces artifacts an earlier run left unreadable
                assert main([command, "--config", cfg, "--out", out]) == 0
                for n in os.listdir(out):
                    os.chmod(os.path.join(out, n), 0o600)
            assert main([command, "--config", cfg, "--out", out]) == 0
            modes = {n: oct(stat.S_IMODE(os.stat(os.path.join(out, n)).st_mode))
                     for n in os.listdir(out)}
            assert "samples.csv" in modes
            assert set(modes.values()) == {"0o644"}, modes
    finally:
        os.umask(old)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_solver_failure_leaves_no_samples_and_no_child(tmp_path, monkeypatch, command):
    cfg = _write_config(tmp_path, scenario={"kind": "static_circle", "n": 4},
                        rel_tol=0.0)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()  # nothing is written before the command returns
    assert not list(tmp_path.rglob("*.tmp"))
    _no_child_left()


def test_out_naming_a_regular_file_exits_four(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert main(["run", "--config", _write_config(tmp_path), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert out.read_text() == "not a directory\n"
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["run", "verify"])
def test_samples_write_failing_partway_exits_four_and_leaves_no_samples(tmp_path, monkeypatch,
                                                                        capsys, command):
    format_sample, formatted = artifacts._format_sample, []

    def failing(*args):
        if len(formatted) == 3:
            raise OSError(28, "No space left on device")
        formatted.append(True)
        return format_sample(*args)

    monkeypatch.setattr(artifacts, "_format_sample", failing)
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("I/O error: [Errno 28] No space left on device")
    assert len(formatted) == 3
    assert os.listdir(out) == ["run_config.json"]  # written first, then samples.csv failed
    assert not list(tmp_path.rglob("*.tmp"))
