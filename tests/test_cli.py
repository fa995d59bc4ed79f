import json
import os

import pytest

from frontlab.cli import dispatch, load_run_config
from frontlab.errors import FrontlabError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def n1_config(tmp_path):
    return write_config(tmp_path, {
        "epsilon": 0.05, "tau": [1.0], "d": [1.0],
        "gamma": 0.0, "alpha": [0.9], "beta": [0.0], "seed": 7,
    })


@pytest.fixture
def n3_config(tmp_path):
    sq = 2 ** 0.5
    return write_config(tmp_path, {
        "epsilon": 0.03, "tau": [1.0, 2.25, 2.89], "d": [1.0, 1.5, 1.7],
        "gamma": 0.0,
        "alpha": [578 * sq / 315, -289 / (90 * sq), 3125 / (2142 * sq)],
        "beta": [1.0, 0.0, 0.0],
    }, name="n3.json")


class TestDispatch:
    def test_usage_error_exit_2(self, n1_config, tmp_path, capsys):
        assert dispatch(["--config", n1_config, "gamma", "--bogus-flag"]) == 2
        assert dispatch(["not-a-command"]) == 2

    def test_domain_error_exit_1(self, n1_config, tmp_path, capsys):
        rc = dispatch(["--config", n1_config, "--output-dir", str(tmp_path),
                       "design", "--target", "evans:3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "N+1" in err

    def test_json_errors(self, n1_config, tmp_path, capsys):
        rc = dispatch(["--config", n1_config, "--output-dir", str(tmp_path),
                       "--json-errors", "design", "--target", "evans:3"])
        assert rc == 1
        obj = json.loads(capsys.readouterr().err.strip())
        assert obj["error"] == "DesignError"

    def test_non_finite_config_exit_1(self, tmp_path, capsys):
        # JSON 1e309 reads as inf; it is rejected where the model is built
        path = tmp_path / "inf.json"
        path.write_text('{"epsilon": 0.05, "tau": [1e309], "d": [1.0], "alpha": [0.9]}')
        rc = dispatch(["--config", str(path), "--output-dir", str(tmp_path),
                       "gamma", "--roots"])
        assert rc == 1
        assert "tau must be finite" in capsys.readouterr().err

    def test_bad_fold_plane_name_exit_1(self, n1_config, tmp_path, capsys):
        rc = dispatch(["--config", n1_config, "--output-dir", str(tmp_path),
                       "gamma", "--folds", "alpha0,gamma,0,1,0,1,11,11"])
        assert rc == 1
        assert "coupling parameter 'alpha0'" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert dispatch(["gamma", "--roots"]) == 1

    # config None is the valid N = 1 config, "absent" a path to no file
    @pytest.mark.parametrize("config, argv, code, message", [
        (None, ["gamma", "--folds", "alpha1,gamma,0,1"], 2, "expected 8"),
        (None, ["gamma", "--folds", "alpha1,gamma,0,1,0,1,0,11"], 2, "positive count"),
        (None, ["evans", "--roots", "1,2"], 2, "expected 4"),
        (None, ["evans", "--roots", "0,1,nan,1"], 2, "not a finite number"),
        (None, ["ode", "--nf", "a,b,c,d,e,f,g"], 2, "could not convert"),
        (None, ["ode", "--shoot=1,2"], 2, "expected 3"),
        (None, ["pde-continue", "--free-param", "gamma", "--range", "1"], 2, "expected 2"),
        ("absent", ["gamma", "--roots"], 1, "cannot read config"),
        ('{"epsilon": 0.05,', ["gamma", "--roots"], 1, "not valid JSON"),
        ("[1, 2]", ["gamma", "--roots"], 1, "JSON object"),
    ])
    def test_malformed_values_exit_2_bad_config_exit_1(self, n1_config, tmp_path, capsys,
                                                       config, argv, code, message):
        path = tmp_path / "given.json"
        if config is None:
            path = n1_config
        elif config != "absent":
            path.write_text(config)
        out = tmp_path / "run"
        rc = dispatch(["--config", str(path), "--output-dir", str(out), "--json-errors"]
                      + argv)
        assert rc == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        if code == 2:   # rejected while parsing, before anything is written
            assert not (out / "manifest.json").exists()
        else:
            obj = json.loads(err.strip())
            assert obj["error"] == "FrontlabError" and message in obj["message"]

    def test_gamma_outputs_and_manifest(self, n1_config, tmp_path, capsys):
        out = tmp_path / "run"
        rc = dispatch(["--config", n1_config, "--output-dir", str(out),
                       "gamma", "--roots", "--taylor", "5"])
        assert rc == 0
        assert (out / "gamma_roots.csv").exists()
        assert (out / "gamma_taylor.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "frontlab"
        assert manifest["seed"] == 7
        header = (out / "gamma_roots.csv").read_text().splitlines()[0]
        assert header == "# frontlab v1"

    def test_deterministic_output(self, n3_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                           "evans", "--taylor", "5",
                           "--roots=-0.05,0.05,-0.05,0.05"])
            assert rc == 0
            outs.append((out / "evans_roots.csv").read_bytes()
                        + (out / "evans_taylor.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_design_gamma_target(self, n3_config, tmp_path, capsys):
        out = tmp_path / "design"
        rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                       "design", "--target", "gamma:7"])
        assert rc == 0
        doc = json.loads((out / "design.json").read_text())
        assert doc["beta"] == [0.0, 0.0, 0.0]
        assert doc["gamma"] == 0.0

    def test_jordan_profiles(self, n3_config, tmp_path):
        out = tmp_path / "jordan"
        rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                       "jordan", "--k", "1", "--ell", "3"])
        assert rc == 0
        lines = (out / "jordan_profile.csv").read_text().splitlines()
        assert lines[1].startswith("# y,u,v1,v2,v3")

    def test_ode_subcommand(self, n3_config, tmp_path):
        out = tmp_path / "ode"
        rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                       "ode", "--nf=-1.0,0,-1.0,-0.6,1.0,0,0",
                       "--equilibria", "--integrate", "30"])
        assert rc == 0
        eqs = json.loads((out / "ode_equilibria.json").read_text())
        assert any(e["kind"] == "saddle-focus(1u,2s)" for e in eqs)
        assert (out / "ode_trajectory.csv").exists()

    def test_verify_paper_params(self, n3_config, tmp_path, capsys):
        rc = dispatch(["--config", n3_config, "--output-dir", str(tmp_path),
                       "verify", "--suite", "paper-params"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "existence order 7" in out
        assert "FAIL" not in out


class TestRunConfig:
    def test_strict_keys(self, tmp_path):
        path = write_config(tmp_path, {"epsilon": 0.1, "tau": [1.0], "d": [1.0],
                                       "bogus": 1})
        with pytest.raises(FrontlabError):
            load_run_config(path)

    def test_pde_section(self, tmp_path):
        path = write_config(tmp_path, {
            "epsilon": 0.2, "tau": [1.0], "d": [1.0],
            "pde": {"domain_half_length": 10.0, "n_x": 201, "dt": 0.01,
                    "t_end": 1.0, "perturbation": {"mode": "bump",
                                                   "amplitude": 0.01}},
        })
        cfg = load_run_config(path)
        assert cfg.pde["n_x"] == 201
        bad = write_config(tmp_path, {
            "epsilon": 0.2, "tau": [1.0], "d": [1.0],
            "pde": {"nx": 201},
        }, name="bad.json")
        with pytest.raises(FrontlabError):
            load_run_config(bad)

    def test_pde_sim_runs(self, tmp_path):
        path = write_config(tmp_path, {
            "epsilon": 0.2, "tau": [1.0], "d": [1.0], "gamma": 0.1,
            "pde": {"domain_half_length": 10.0, "n_x": 201, "dt": 0.01,
                    "t_end": 2.0},
        })
        out = tmp_path / "sim"
        rc = dispatch(["--config", path, "--output-dir", str(out), "pde-sim"])
        assert rc == 0
        series = (out / "pde_timeseries.csv").read_text().splitlines()
        assert series[0] == "# frontlab v1"
        assert len(series) > 5
        assert (out / "pde_final_profile.csv").exists()
