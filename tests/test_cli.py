"""End-to-end checks of the qlqg command line."""

import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlqg import cli
from qlqg.errors import InvalidParameter, NonRealCoefficient
from qlqg.riccati import TimeGrid
from qlqg.validate import run_suites, render_report


def write_scenario(tmp_path, name="scenario.json", **content):
    path = tmp_path / name
    path.write_text(json.dumps(content), encoding="utf-8")
    return str(path)


def feedback_scenario(tmp_path, **extra):
    content = {
        "model": {"preset": "free-particle", "feedback": True},
        "cost": {"preset": "position-tracking", "beta": 1.0},
        "grid": {"t0": 0.0, "t1": 5.0, "n_steps": 5000},
        "initial_cov": [[0.5, 0.0], [0.0, 0.5]],
        "sim": {
            "n_traj": 200,
            "seed": 7,
            "initial_mean": [1.0, 0.0],
            "initial_cov": [[0.5, 0.0], [0.0, 0.5]],
        },
    }
    content.update(extra)
    return write_scenario(tmp_path, **content)


INLINE_FREE_PARTICLE = {
    "m": 2,
    "d": 1,
    "hbar": 1.0,
    "J": [[0.0, 1.0], [-1.0, 0.0]],
    "R": [[0.0, 0.0], [0.0, 1.0]],
    "Lambda_re": [[1.0, 0.0]],
    "Lambda_im": [[0.0, 0.0]],
    "K_re": [[-0.5], [0.0]],
    "K_im": [[0.0], [0.0]],
}


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestBuild:
    def test_preset_prints_model_matrices(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path, model={"preset": "free-particle"}, out=str(tmp_path / "out")
        )
        assert cli.main(["build", "--scenario", scenario]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["A"] == [[0.0, 1.0], [0.0, 0.0]]
        assert report["B"] == [[0.0], [1.0]]
        assert report["C"] == [[2.0, 0.0]]
        assert report["N"] == [[0.0, 0.0], [0.0, 1.0]]
        assert report["M"] == [[0.0], [0.0]]
        on_disk = json.loads((tmp_path / "out" / "coefficients.json").read_text())
        assert on_disk == report

    def test_feedback_preset_doubles_actuation(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            model={"preset": "free-particle", "feedback": True},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["build", "--scenario", scenario]) == 0
        assert json.loads(capsys.readouterr().out)["B"] == [[0.0], [2.0]]

    @pytest.mark.parametrize("feedback", ["no", 1, None, [True]])
    def test_feedback_must_be_a_bool(self, tmp_path, capsys, feedback):
        # read by truthiness, "no" would turn the feedback column on
        scenario = write_scenario(
            tmp_path, model={"preset": "free-particle", "feedback": feedback},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["build", "--scenario", scenario]) == 2
        assert "model.feedback must be true or false" in capsys.readouterr().err

    def test_inline_and_file_models_agree(self, tmp_path, capsys):
        inline = write_scenario(
            tmp_path, "inline.json", model=INLINE_FREE_PARTICLE,
            out=str(tmp_path / "a"),
        )
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(INLINE_FREE_PARTICLE))
        # relative path, resolved against the scenario's own directory
        by_path = write_scenario(
            tmp_path, "by_path.json", model="model.json", out=str(tmp_path / "b")
        )
        assert cli.main(["build", "--scenario", inline]) == 0
        first = capsys.readouterr().out
        assert cli.main(["build", "--scenario", by_path]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["B"] == [[0.0], [1.0]]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        # a truncated object, and bytes that are not UTF-8 at all
        for content in (b'{"model": ', b"\xff\xfe{}"):
            bad = tmp_path / "bad.json"
            bad.write_bytes(content)
            assert cli.main(["build", "--scenario", str(bad)]) == 2
            err = capsys.readouterr().err
            assert "not valid JSON" in err
            assert "Traceback" not in err

    def test_json_nested_past_the_parser_exits_2(self, tmp_path, capsys):
        # json.load gives up on this nesting with a RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        assert cli.main(["build", "--scenario", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file") and "Traceback" not in err

    def test_missing_keys_named(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, grid={})
        assert cli.main(["build", "--scenario", scenario]) == 2
        assert "'model'" in capsys.readouterr().err
        partial = write_scenario(
            tmp_path, "p.json", model={k: v for k, v in INLINE_FREE_PARTICLE.items()
                                       if k != "Lambda_im"}
        )
        assert cli.main(["build", "--scenario", partial]) == 2
        assert "Lambda_im" in capsys.readouterr().err

    def test_missing_files_exit_2(self, tmp_path, capsys):
        assert cli.main(["build", "--scenario", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err
        scenario = write_scenario(tmp_path, model="missing_model.json")
        assert cli.main(["build", "--scenario", scenario]) == 2
        assert "missing_model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [5, ["a"], False])
    def test_non_string_out_exits_2(self, tmp_path, capsys, out):
        scenario = write_scenario(tmp_path, model={"preset": "free-particle"}, out=out)
        assert cli.main(["build", "--scenario", scenario]) == 2
        assert "'out' must be a string" in capsys.readouterr().err

    def test_non_real_coefficient_maps_to_2(self, tmp_path, capsys, monkeypatch):
        # no JSON-representable model can make the derived matrices
        # complex, so the guard is exercised by injecting the failure
        def boom(model):
            raise NonRealCoefficient("A has imaginary residue 1.0e-3")

        monkeypatch.setattr(cli, "build_coefficients", boom)
        scenario = write_scenario(tmp_path, model={"preset": "free-particle"})
        assert cli.main(["build", "--scenario", scenario]) == 2
        assert "imaginary residue" in capsys.readouterr().err


class TestRiccati:
    def test_filter_reaches_stationary_dispersions(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            model={"preset": "free-particle"},
            grid={"t0": 0.0, "t1": 20.0, "n_steps": 20000},
            direction="filter",
            initial_cov=[[2.0, 0.0], [0.0, 2.0]],
            out=str(tmp_path / "out"),
        )
        assert cli.main(["riccati", "--scenario", scenario]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed == [str(tmp_path / "out" / "sigma_path.csv")]
        header, data = read_csv(listed[0])
        assert header == ["t", "sigma_00", "sigma_01", "sigma_10", "sigma_11"]
        np.testing.assert_allclose(data[-1], [20.0, 0.5, 0.5, 0.5, 1.0], atol=1e-6)

    def test_degenerate_control_path_is_constant(self, tmp_path):
        zero_model = dict(INLINE_FREE_PARTICLE)
        zero_model.update(
            R=[[0.0, 0.0], [0.0, 0.0]],
            Lambda_re=[[0.0, 0.0]],
            K_re=[[0.0], [0.0]],
        )
        scenario = write_scenario(
            tmp_path,
            model=zero_model,
            cost={"F": [[0.0, 0.0], [0.0, 0.0]], "G": [[0.0, 0.0]],
                  "Omega_T": [[1.0, 0.0], [0.0, 1.0]]},
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 100},
            direction="control",
            out=str(tmp_path / "out"),
        )
        assert cli.main(["riccati", "--scenario", scenario]) == 0
        _, data = read_csv(tmp_path / "out" / "omega_path.csv")
        np.testing.assert_allclose(data[:, 1:], np.tile([1.0, 0.0, 0.0, 1.0], (101, 1)),
                                   atol=1e-14)

    def test_dual_flag_matches_direct_integration(self, tmp_path):
        common = dict(
            model={"preset": "free-particle", "feedback": True},
            cost={"preset": "position-tracking"},
            grid={"t0": 0.0, "t1": 5.0, "n_steps": 500},
            direction="control",
        )
        direct = write_scenario(tmp_path, "direct.json", out=str(tmp_path / "d"), **common)
        dual = write_scenario(tmp_path, "dual.json", out=str(tmp_path / "v"), **common)
        assert cli.main(["riccati", "--scenario", direct]) == 0
        assert cli.main(["riccati", "--scenario", dual, "--dual"]) == 0
        _, a = read_csv(tmp_path / "d" / "omega_path.csv")
        _, b = read_csv(tmp_path / "v" / "omega_path.csv")
        np.testing.assert_allclose(a, b, atol=1e-8)

    @pytest.mark.parametrize("low, code", [(-5e-11, 2), (-5e-13, 0)])
    def test_both_routes_share_one_psd_floor(self, tmp_path, capsys, low, code):
        # the dual takes F as its noise intensity N, so F is held to N's floor
        scenario = write_scenario(
            tmp_path,
            model={"preset": "free-particle", "feedback": True},
            cost={"F": [[1.0, 0.0], [0.0, low]], "G": [[0.0, 0.0]],
                  "Omega_T": [[1.0, 0.0], [0.0, 1.0]]},
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 100},
            direction="control",
            out=str(tmp_path / "out"),
        )
        for flags in ([], ["--dual"]):
            assert cli.main(["riccati", "--scenario", scenario, *flags]) == code
            assert ("F must be positive semidefinite" in capsys.readouterr().err) == bool(code)

    def test_initial_cov_falls_back_to_sim_block(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            model={"preset": "free-particle"},
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 100},
            direction="filter",
            sim={"n_traj": 1, "seed": 0, "initial_mean": [0.0, 0.0],
                 "initial_cov": [[2.0, 0.0], [0.0, 2.0]]},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["riccati", "--scenario", scenario]) == 0
        _, data = read_csv(tmp_path / "out" / "sigma_path.csv")
        assert data[0, 1] == 2.0

    def test_missing_initial_cov_names_both_spots(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            model={"preset": "free-particle"},
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 100},
            direction="filter",
            out=str(tmp_path / "out"),
        )
        assert cli.main(["riccati", "--scenario", scenario]) == 2
        assert "under 'sim'" in capsys.readouterr().err

    def test_unphysical_start_exits_2(self, tmp_path, capsys):
        # a start covariance below the Heisenberg bound is rejected input
        scenario = write_scenario(
            tmp_path,
            model={"preset": "free-particle"},
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 100},
            direction="filter",
            initial_cov=[[0.1, 0.0], [0.0, 0.1]],
            out=str(tmp_path / "out"),
        )
        assert cli.main(["riccati", "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            "error: Sigma0 violates the Heisenberg bound (min eigenvalue -4.000e-01)\n")


class TestSimulate:
    def test_summary_matches_analytic_cost(self, tmp_path, capsys):
        scenario = feedback_scenario(tmp_path, out=str(tmp_path / "out"))
        assert cli.main(["simulate", "--scenario", scenario]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_traj"] == 200
        assert summary["seed"] == 7
        np.testing.assert_allclose(summary["analytic_cost"], 16.626277715480292,
                                   rtol=1e-12)
        assert abs(summary["z"]) <= 3.0

    def test_repeat_run_is_byte_identical(self, tmp_path):
        scenario = feedback_scenario(
            tmp_path,
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 1000},
            sim={"n_traj": 50, "seed": 3, "initial_mean": [1.0, 0.0],
                 "initial_cov": [[0.5, 0.0], [0.0, 0.5]],
                 "record_stride": 100, "record_trajectories": 2},
        )
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["simulate", "--scenario", scenario, "--out", out_a]) == 0
        assert cli.main(["simulate", "--scenario", scenario, "--out", out_b]) == 0
        for name in ("summary.json", "trajectory_000.csv", "trajectory_001.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()
            assert len(a) > 0

    def test_files_match_a_full_record_ensemble(self, tmp_path, monkeypatch):
        # the CLI keeps only the paths it writes; its files are those of
        # an ensemble that keeps every trajectory's
        scenario = feedback_scenario(
            tmp_path,
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 1000},
            sim={"n_traj": 50, "seed": 3, "initial_mean": [1.0, 0.0],
                 "initial_cov": [[0.5, 0.0], [0.0, 0.5]],
                 "record_stride": 100, "record_trajectories": 3},
        )
        assert cli.main(["simulate", "--scenario", scenario,
                         "--out", str(tmp_path / "kept")]) == 0
        simulate, asked = cli.simulate_closed_loop, []

        def full_record(*args, record):
            asked.append(record)
            return simulate(*args)

        monkeypatch.setattr(cli, "simulate_closed_loop", full_record)
        assert cli.main(["simulate", "--scenario", scenario,
                         "--out", str(tmp_path / "full")]) == 0
        assert asked == [3]
        names = ["summary.json"] + [f"trajectory_{i:03d}.csv" for i in range(3)]
        assert sorted(p.name for p in (tmp_path / "kept").iterdir()) == names
        for name in names:
            assert ((tmp_path / "kept" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes()), name

    def test_flag_overrides(self, tmp_path, capsys):
        scenario = feedback_scenario(
            tmp_path,
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 1000},
        )
        args = ["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")]
        assert cli.main(args + ["--n-traj", "10", "--seed", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["n_traj"] == 10 and first["seed"] == 1
        assert cli.main(args + ["--n-traj", "10", "--seed", "2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["mean_cost"] != first["mean_cost"]

    def test_unphysical_start_exits_2_as_in_riccati(self, tmp_path, capsys):
        # both commands check one start covariance against one bound
        scenario = feedback_scenario(
            tmp_path, model={"preset": "free-particle"}, initial_cov=None,
            grid={"t0": 0.0, "t1": 0.5, "n_steps": 50},
            sim={"n_traj": 4, "seed": 7, "initial_mean": [1.0, 0.0],
                 "initial_cov": [[0.1, 0.0], [0.0, 0.1]]},
            out=str(tmp_path / "out"),
        )
        errors = []
        for command in ("riccati", "simulate"):
            assert cli.main([command, "--scenario", scenario]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "error: Sigma0 violates the Heisenberg bound (min eigenvalue -4.000e-01)\n")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_zero_trajectories_exit_2(self, tmp_path, capsys):
        scenario = feedback_scenario(tmp_path, out=str(tmp_path / "out"))
        assert cli.main(["simulate", "--scenario", scenario, "--n-traj", "0"]) == 2
        assert "n_traj" in capsys.readouterr().err


class TestScenarioValues:
    # each value reaches a number the CLI reads; a wrong type is rejected
    # input (exit 2), never an exception out of main()
    MISTYPED = [
        ("grid", "t0", "abc"), ("grid", "n_steps", [1]), ("grid", "n_steps", 2.5),
        ("sim", "record_stride", "x"), ("sim", "record_trajectories", "two"),
        ("sim", "record_trajectories", -1),
        ("sim", "n_traj", 2.5), ("sim", "seed", True), ("cost", "beta", None),
        ("model", "mass", "heavy"), ("sim", "initial_cov", "x"),
        ("sim", "initial_mean", [1.0, [0.0]]),
        # a numeric string, a bool or null is not a JSON number
        ("sim", "initial_mean", ["1.0", 0.0]), ("sim", "initial_mean", [True, 0.0]),
        ("sim", "initial_cov", [[0.5, None], [0.0, 0.5]]),
        ("sim", "initial_cov", [[0.5, False], [0.0, "0.5"]]),
    ]

    def small_scenario(self):
        return {
            "model": {"preset": "free-particle", "feedback": True},
            "cost": {"preset": "position-tracking", "beta": 1.0},
            "grid": {"t0": 0.0, "t1": 0.5, "n_steps": 50},
            "sim": {"n_traj": 4, "seed": 7, "record_stride": 25,
                    "record_trajectories": 1, "initial_mean": [1.0, 0.0],
                    "initial_cov": [[0.5, 0.0], [0.0, 0.5]]},
        }

    @pytest.mark.parametrize("command", ["simulate", "riccati"])
    @pytest.mark.parametrize("block, key, value", MISTYPED,
                             ids=[f"{b}.{k}={v!r}" for b, k, v in MISTYPED])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, command, block, key, value):
        content = self.small_scenario()
        content[block][key] = value
        scenario = write_scenario(tmp_path, out=str(tmp_path / "out"), **content)
        code = cli.main([command, "--scenario", scenario])
        if command == "riccati" and key not in ("t0", "n_steps", "beta", "mass",
                                                "initial_cov"):
            assert code == 0  # a key riccati does not read
        else:
            assert code == 2
            assert key in capsys.readouterr().err

    def test_integral_floats_are_counts(self, tmp_path):
        # JSON may write a count as 50.0: it is read as the integer 50
        outputs = []
        for kind in (int, float):
            content = self.small_scenario()
            content["grid"]["n_steps"] = kind(50)
            for key in ("n_traj", "seed", "record_stride", "record_trajectories"):
                content["sim"][key] = kind(content["sim"][key])
            out = tmp_path / kind.__name__
            out.mkdir()
            scenario = write_scenario(out, out=str(out), **content)
            assert cli.main(["simulate", "--scenario", scenario]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("summary.json", "trajectory_000.csv")])
        assert outputs[0] == outputs[1]

    def test_value_nested_past_numpy_exits_2(self, tmp_path, capsys):
        # 500 levels: past numpy's 64 dimensions, and past the Python frames
        # a recursive walk of the value would take
        nested = 1.0
        for _ in range(500):
            nested = [nested]
        content = self.small_scenario()
        content["sim"]["initial_mean"] = nested
        scenario = write_scenario(tmp_path, out=str(tmp_path / "out"), **content)
        assert cli.main(["simulate", "--scenario", scenario]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sim.initial_mean") and "Traceback" not in err

    @staticmethod
    def key_paths(content):
        for key, value in content.items():
            yield (key,)
            if isinstance(value, dict):
                yield from ((key, inner) for inner in value)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_any_mutated_key_exits_0_2_or_3(self, data):
        content = self.small_scenario()
        path = data.draw(st.sampled_from(list(self.key_paths(content))))
        value = data.draw(st.one_of(
            st.text(max_size=4), st.none(), st.booleans(),
            st.lists(st.integers(-2, 2), max_size=3),
            st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
            st.floats(allow_nan=False, allow_infinity=False).filter(
                lambda x: not x.is_integer()),
        ))
        target = content
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            scenario = write_scenario(Path(tmp), **content)
            code = cli.main(["simulate", "--scenario", scenario, "--out", tmp])
        assert code in (0, 2, 3)


QUBIT_MODEL = {
    "dim": 2,
    "hbar": 1.0,
    "H0": {"re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
    "H_controls": [],
    "L_list": [{"re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]}],
}

QUBIT_RHO0 = {"re": [[0.5, 0.375], [0.375, 0.5]], "im": [[0, 0], [0, 0]]}


class TestSme:
    def test_dephasing_run(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            finite_model=QUBIT_MODEL,
            rho0=QUBIT_RHO0,
            grid={"t0": 0.0, "t1": 0.1, "n_steps": 1000},
            sim={"n_traj": 64, "seed": 11, "record_stride": 250},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["sme", "--scenario", scenario]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["max_trace_deviation"] <= 1e-9
        assert summary["min_eigenvalue"] >= -1e-8
        assert summary["master_distance"] < 0.1
        header, data = read_csv(tmp_path / "out" / "mean_path.csv")
        assert header[:2] == ["t", "rho_re_00"]
        assert data.shape == (5, 9)
        np.testing.assert_allclose(data[0, 1], 0.5)

    def test_repeat_run_is_byte_identical(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            finite_model=QUBIT_MODEL,
            rho0=QUBIT_RHO0,
            grid={"t0": 0.0, "t1": 0.1, "n_steps": 500},
            sim={"n_traj": 32, "seed": 5, "record_stride": 100},
        )
        for out in ("a", "b"):
            assert cli.main(
                ["sme", "--scenario", scenario, "--out", str(tmp_path / out)]
            ) == 0
        for name in ("summary.json", "mean_path.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("n, rows", [
        pytest.param(2, 6, id="2"),
        pytest.param(3, 6, id="3"),
        # past two blocks of the writer, extremes at the block edges
        pytest.param(2, 2 * cli._CSV_BLOCK + 1, id="2-blocks+1"),
    ])
    def test_mean_path_csv_rows(self, n, rows):
        # reference rows: every entry through f"{v:.17g}", real parts first
        rng = np.random.default_rng(n)
        times = np.linspace(0.0, 0.1, rows)
        states = rng.standard_normal((rows, n, n)) + 1j * rng.standard_normal((rows, n, n))
        states[1, 0, 0], states[2, 0, 1], states[3, 1, 0] = -0.0, 1e-300, -1e-300j
        for row, v in ((rows - 2, 5e-324), (rows - 1, 1e300), (cli._CSV_BLOCK, -1e300j)):
            if row < rows:
                states[row, 1, 1] = v
        fh = io.StringIO()
        cli._mean_path_csv(times, states, fh)
        header = ["t"] + [f"rho_{p}_{i}{j}" for p in ("re", "im")
                          for i in range(n) for j in range(n)]
        rows = [",".join(f"{v:.17g}" for v in [t, *s.real.ravel(), *s.imag.ravel()])
                for t, s in zip(times, states)]
        assert fh.getvalue() == "\n".join([",".join(header), *rows]) + "\n"

    def test_coarse_step_exits_3(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            finite_model=QUBIT_MODEL,
            rho0=QUBIT_RHO0,
            grid={"t0": 0.0, "t1": 1.0, "n_steps": 2},
            sim={"n_traj": 16, "seed": 1},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["sme", "--scenario", scenario]) == 3
        assert "PositivityLoss" in capsys.readouterr().err

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_control_exits_2(self, tmp_path, capsys, u):
        # Python's json reads NaN and Infinity; a control is rejected input
        # before it can drive a state out of the finite range
        sx = {"re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
        scenario = write_scenario(
            tmp_path,
            finite_model=dict(QUBIT_MODEL, H_controls=[sx]),
            rho0=QUBIT_RHO0, control=[u],
            grid={"t0": 0.0, "t1": 0.01, "n_steps": 10},
            sim={"n_traj": 4, "seed": 1},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["sme", "--scenario", scenario]) == 2
        assert "control" in capsys.readouterr().err

    def test_unphysical_state_exits_2(self, tmp_path, capsys):
        # a rho0 below the eigenvalue floor is rejected input, as a
        # start covariance below the Heisenberg bound is
        scenario = write_scenario(
            tmp_path,
            finite_model=QUBIT_MODEL,
            rho0={"re": [[1.1, 0.0], [0.0, -0.1]], "im": [[0, 0], [0, 0]]},
            grid={"t0": 0.0, "t1": 0.1, "n_steps": 100},
            sim={"n_traj": 4, "seed": 1},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["sme", "--scenario", scenario]) == 2
        assert capsys.readouterr().err == "error: state eigenvalue -1.000e-01 below floor\n"
        assert not (tmp_path / "out").exists()

    def test_missing_state_exits_2(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            finite_model=QUBIT_MODEL,
            grid={"t0": 0.0, "t1": 0.1, "n_steps": 100},
            sim={"n_traj": 4, "seed": 1},
            out=str(tmp_path / "out"),
        )
        assert cli.main(["sme", "--scenario", scenario]) == 2
        assert "'rho0'" in capsys.readouterr().err


class TestModelValues:
    # a mistyped value in either model reader is rejected input (exit 2),
    # never an exception out of main(); None stands for a model file that
    # holds invalid JSON
    CASES = [
        ("sme", "hbar", "x"), ("sme", "dim", "two"), ("sme", "dim", 2.5),
        ("sme", "L_list", 3), ("sme", None, None),
        ("sme", "H0", {"re": [[0, "1"], [1, 0]], "im": [[0, 0], [0, 0]]}),
        ("sme", "H0", {"re": [[0, 0], [0, 0]], "im": [[0, True], [False, 0]]}),
        ("build", "m", "two"), ("build", "d", "x"), ("build", "m", 2.5),
        ("build", "hbar", "x"), ("build", None, None),
        ("build", "J", [[0, "1"], [-1, 0]]), ("build", "R", [[0, 0], [0, True]]),
        ("build", "K_im", [[None], [0]]),
    ]

    @pytest.mark.parametrize("command, key, value", CASES,
                             ids=[f"{c}-{k}={v!r}" if k else f"{c}-invalid-json"
                                  for c, k, v in CASES])
    def test_mistyped_model_value_exits_2(self, tmp_path, capsys, command, key,
                                          value):
        block, model = {
            "sme": ("finite_model", dict(QUBIT_MODEL)),
            "build": ("model", dict(INLINE_FREE_PARTICLE)),
        }[command]
        if key is None:
            (tmp_path / "model.json").write_text('{"dim": ', encoding="utf-8")
            model = "model.json"
        else:
            model[key] = value
        scenario = write_scenario(
            tmp_path, **{block: model}, rho0=QUBIT_RHO0,
            grid={"t0": 0.0, "t1": 0.01, "n_steps": 10},
            sim={"n_traj": 4, "seed": 1}, out=str(tmp_path / "out"),
        )
        assert cli.main([command, "--scenario", scenario]) == 2
        assert ("not valid JSON" if key is None else f"'{key}'") in capsys.readouterr().err


class TestFiniteExtremes:
    # finite scenario values near the float range: a model whose
    # coefficients leave it is rejected input (exit 2), a flow or state that
    # leaves it is a numerical failure (exit 3), and neither warns on the way
    CASES = [
        *[(command, ("model", "hbar"), 1e300, 2)
          for command in ("build", "riccati", "simulate")],
        *[(command, ("grid", "t1"), 1e300, 3) for command in ("simulate", "sme", "riccati")],
        ("simulate", ("cost", "beta"), 1e308, 3),
        ("simulate", ("cost",), {"F": [[1e308, 0.0], [0.0, 0.0]], "G": [[0.0, 0.0]],
                                 "Omega_T": [[1.0, 0.0], [0.0, 1.0]]}, 3),
        ("sme", ("finite_model", "H0"),
         {"re": [[1e308, 0.0], [0.0, -1e308]], "im": [[0.0, 0.0], [0.0, 0.0]]}, 3),
    ]
    # a self-adjointness check whose arr -/+ arr' would leave the float
    # range rejects the input (exit 2) without an overflow warning; each id
    # names the matrix and what it is not
    ADJOINT_CASES = {
        "simulate-cost.F-asymmetric": (
            "simulate", ("cost",), {"F": [[0.0, 1e308], [-1e308, 0.0]], "G": [[0.0, 0.0]],
                                    "Omega_T": [[1.0, 0.0], [0.0, 1.0]]}, 2),
        "sme-finite_model.H0-asymmetric": (
            "sme", ("finite_model", "H0"),
            {"re": [[0.0, 1e308], [-1e308, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}, 2),
        # finite parts whose modulus passes the range
        "sme-finite_model.H0-modulus-asymmetric": (
            "sme", ("finite_model", "H0"),
            {"re": [[0.0, 1.5e308], [0.0, 0.0]], "im": [[0.0, 1.5e308], [0.0, 0.0]]}, 2),
        "build-model.J-symmetric": (
            "build", ("model",),
            {**INLINE_FREE_PARTICLE, "J": [[0.0, 1e308], [1e308, 0.0]]}, 2),
    }

    @pytest.mark.parametrize("command, path, value, code",
                             CASES + list(ADJOINT_CASES.values()),
                             ids=[f"{c}-{'.'.join(p)}" for c, p, _, _ in CASES]
                             + list(ADJOINT_CASES))
    def test_exit_code_without_warnings(self, tmp_path, capsys, command, path, value,
                                        code):
        content = {
            "model": {"preset": "free-particle", "feedback": True},
            "cost": {"preset": "position-tracking", "beta": 1.0},
            "grid": {"t0": 0.0, "t1": 0.5, "n_steps": 50},
            "sim": {"n_traj": 4, "seed": 7, "initial_mean": [1.0, 0.0],
                    "initial_cov": [[0.5, 0.0], [0.0, 0.5]]},
            "finite_model": json.loads(json.dumps(QUBIT_MODEL)), "rho0": QUBIT_RHO0,
        }
        target = content
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario = write_scenario(tmp_path, out=str(tmp_path / "out"), **content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--scenario", scenario]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        if code == 3:
            assert err.startswith("numerical failure: NonFinite: ")


class TestHugeIntegers:
    # a JSON integer past the float range is rejected input (exit 2), not
    # an OverflowError out of main()
    CASES = [("riccati", "grid", "n_steps"), ("riccati", "grid", "t1"),
             ("sme", "finite_model", "hbar")]

    @pytest.mark.parametrize("command, block, key", CASES,
                             ids=[f"{b}.{k}" for _, b, k in CASES])
    def test_huge_integer_exits_2(self, tmp_path, capsys, command, block, key):
        content = {
            "model": {"preset": "free-particle"},
            "cost": {"preset": "position-tracking", "beta": 1.0},
            "finite_model": dict(QUBIT_MODEL), "rho0": QUBIT_RHO0,
            "grid": {"t0": 0.0, "t1": 0.01, "n_steps": 10},
            "sim": {"n_traj": 4, "seed": 1},
        }
        content[block][key] = 10 ** 400
        scenario = write_scenario(tmp_path, out=str(tmp_path / "out"), **content)
        assert cli.main([command, "--scenario", scenario]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["riccati", "simulate"])
    def test_step_count_past_any_path_exits_2(self, tmp_path, capsys, command):
        # 10**30 is a valid float, so it passes the grid checks; numpy then
        # refuses the first path's shape outright, before allocating anything
        scenario = feedback_scenario(
            tmp_path, out=str(tmp_path / "out"),
            grid={"t0": 0.0, "t1": 0.01, "n_steps": 10 ** 30})
        assert cli.main([command, "--scenario", scenario]) == 2
        assert "n_steps" in capsys.readouterr().err


class TestValidateSuites:
    def test_injected_coarse_sme_grid_fails_with_positivity_loss(self):
        results = run_suites(
            {"sme_grid": TimeGrid(0.0, 1.0, 2), "n_traj": 300},
            names=["sme-consistency"],
        )
        assert len(results) == 1 and not results[0].passed
        assert "PositivityLoss" in results[0].detail
        report = render_report(results)
        assert "FAIL" in report and "1 of 1 suites FAILED" in report

    def test_injected_gain_perturbation_is_flagged(self):
        results = run_suites(
            {"gain_offset": [[0.5, 0.5]], "n_traj": 300},
            names=["optimality-probe"],
        )
        assert results[0].passed
        assert "raises cost" in results[0].detail

    def test_unknown_suite_name_rejected(self):
        with pytest.raises(InvalidParameter):
            run_suites(names=["no-such-suite"])

    def test_free_particle_command(self, capsys):
        assert cli.main(["free-particle", "--n-traj", "300"]) == 0
        out = capsys.readouterr().out
        assert "all 6 suites passed" in out
        assert "optimality-probe" in out

    @pytest.mark.parametrize("n_traj", ["0", "-3", "1"])
    def test_free_particle_needs_two_trajectories(self, capsys, n_traj):
        # rejected input, before any suite runs
        assert cli.main(["free-particle", "--n-traj", n_traj]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--n-traj must be >= 2, got {n_traj}" in err

    def test_validate_command_all_green(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "all 9 suites passed" in out
        # one timed line per suite
        assert out.count("PASS") == 9


class TestEntryPoint:
    def test_console_script_build(self, tmp_path):
        scenario = write_scenario(
            tmp_path, model={"preset": "free-particle"}, out=str(tmp_path / "out")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qlqg.cli", "build", "--scenario", scenario],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["A"] == [[0.0, 1.0], [0.0, 0.0]]

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qlqg.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_import_leaves_scipy_out(self):
        # the runtime needs numpy only; scipy serves the tests as an oracle
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qlqg, qlqg.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_leaves_thread_pools_out(self):
        # ensembles run their chunks one after another on the calling thread
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qlqg, qlqg.cli; print(sorted("
             "m for m in sys.modules if m.startswith('concurrent.futures')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_leaves_numpy_random_out(self):
        # the noise streams are built on first use, so a run that draws no
        # noise, such as qlqg riccati or qlqg build, never loads them
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qlqg, qlqg.cli; print(sorted("
             "m for m in sys.modules if m.startswith('numpy.random')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_model_too_large_for_memory_exits_2(self, tmp_path):
        # the child's address space is capped at 3 GiB, so each allocation
        # below fails at once: a dim-200 model's (n^2, n^2) maps of some
        # 12 GiB, the result arrays of 2e9 trajectories (119 GiB of final
        # states, 60 GiB of recorded means), and on a grid of 10^13 steps,
        # every one recorded, the SME ensemble's recorded sums like the
        # Riccati paths of `simulate` and `riccati` (hundreds of TB each)
        n = 200
        zeros = np.zeros((n, n)).tolist()
        diag = np.diag(np.linspace(0.0, 1.0, n)).tolist()
        first = np.zeros((n, n))
        first[0, 0] = 1.0
        grid = {"t0": 0.0, "t1": 0.01, "n_steps": 20}
        huge = {"n_traj": 2 * 10**9, "seed": 1, "initial_mean": [1.0, 0.0],
                "initial_cov": [[0.5, 0.0], [0.0, 0.5]]}
        cases = [
            ("sme", dict(
                finite_model={"dim": n, "hbar": 1.0, "H0": {"re": diag, "im": zeros},
                              "H_controls": [], "L_list": [{"re": diag, "im": zeros}]},
                rho0={"re": first.tolist(), "im": zeros},
                sim={"n_traj": 2, "seed": 1}),
             "dim-200 model needs filtering maps larger than memory"),
            ("sme", dict(finite_model=QUBIT_MODEL, rho0=QUBIT_RHO0, sim=huge),
             "n_traj 2000000000 needs result arrays larger than memory"),
            ("simulate", dict(model={"preset": "free-particle", "feedback": True},
                              cost={"preset": "position-tracking", "beta": 1.0},
                              sim=huge),
             "n_traj 2000000000 needs result arrays larger than memory"),
        ]
        long_grid = {"t0": 0.0, "t1": 1.0, "n_steps": 10**13}
        recorded = dict(huge, n_traj=2, record_stride=1)
        cases += [
            (command, dict(content, grid=long_grid),
             "n_steps 10000000000000 needs a path larger than memory")
            for command, content in [
                ("sme", dict(finite_model=QUBIT_MODEL, rho0=QUBIT_RHO0, sim=recorded)),
                ("simulate", dict(model={"preset": "free-particle", "feedback": True},
                                  cost={"preset": "position-tracking", "beta": 1.0},
                                  sim=recorded)),
                ("riccati", dict(model={"preset": "free-particle"}, direction="filter",
                                 initial_cov=[[2.0, 0.0], [0.0, 2.0]])),
            ]
        ]

        def cap_address_space():
            limit = 3 * 2**30
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        # one BLAS thread keeps the child's own reservations small
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        for i, (command, content, message) in enumerate(cases):
            scenario = write_scenario(tmp_path, f"s{i}.json", **{
                "grid": grid, "out": str(tmp_path / "out"), **content})
            proc = subprocess.run(
                [sys.executable, "-m", "qlqg.cli", command, "--scenario", scenario],
                capture_output=True, text=True, env=env, preexec_fn=cap_address_space,
            )
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert message in proc.stderr
