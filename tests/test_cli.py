import json
import os
import time
import warnings

import numpy as np
import pytest

from frontlab import (Coupling, ScaledNF, SystemParams, chain_profile, evans_taylor_c0,
                      gamma0_taylor, lyapunov_max)
from frontlab import verify
from frontlab.cli import dispatch, load_run_config, main
from frontlab.errors import FrontlabError


# an N = 1 config left open for more keys
N1 = '{"epsilon": 0.05, "tau": [1.0], "d": [1.0], "alpha": [0.9], '


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
        err = capsys.readouterr().err
        assert err.startswith("usage: frontlab")
        assert "frontlab: error: argument command: invalid choice" in err

    @pytest.mark.parametrize("argv, message", [
        (["evans", "--roots", "1,2"], "argument --roots: expected 4"),
        (["gamma", "--bogus-flag"], "unrecognized arguments: --bogus-flag"),
        (["not-a-command"], "invalid choice: 'not-a-command'"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_json(self, n1_config, capsys, argv, message):
        assert dispatch(["--config", n1_config, "--json-errors"] + argv) == 2
        obj = json.loads(capsys.readouterr().err)
        assert obj == {"error": "UsageError", "message": obj["message"]}
        assert message in obj["message"]

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

    @pytest.mark.parametrize("box", ["-0.05,0.05,0,0.05", "-0.5,0.5,0,0.5"])
    def test_unresolved_winding_exit_1(self, n3_config, tmp_path, capsys, box):
        # E0 has its fourfold root at 0 on the box's bottom edge
        argv = ["--config", n3_config, "--output-dir", str(tmp_path), "evans", f"--roots={box}"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: winding number of the searched box")
        assert dispatch(argv[:4] + ["--json-errors"] + argv[4:]) == 1
        obj = json.loads(capsys.readouterr().err)
        assert obj["error"] == "FrontlabError"
        assert f"searched box ({', '.join(str(float(b)) for b in box.split(','))})" in obj["message"]

    @pytest.mark.parametrize("change, argv, message", [
        ({"pde": {"dt": 1e-320}}, ["pde-sim"], "dt=1e-320 would take more than"),
        ({"pde": {"t_end": 1e300, "dt": 1e-3}}, ["pde-sim"], "t_end=1e+300 and dt=0.001"),
        ({"tau": [1e308, 2.25, 2.89]}, ["gamma", "--roots"], "Gamma0 is not finite"),
        ({"tau": [1e308, 2.25, 2.89]}, ["gamma", "--taylor", "8"],
         "plateau series of slow component 1 is not finite"),
        ({"d": [1e-200, 1.0, 1.0]}, ["gamma", "--taylor", "4"],
         "plateau series of slow component 1 is not finite"),
        ({"tau": [1e308, 2.25, 2.89]}, ["evans", "--taylor", "4"],
         "E0's Taylor series at c = 0 is not finite"),
        ({"tau": [1e308, 2.25, 2.89]}, ["evans", "--at", "0.5", "--roots=-1,1,-1,1"],
         "the Evans function at c = 0.5 is not finite"),
        ({"d": [1e-200, 1.5, 1.7]}, ["evans", "--roots=-1,1,-1,1"],
         "the Evans function at c = 0 is not finite"),
        ({"tau": [1e308, 2.25, 2.89]}, ["gamma", "--folds", "alpha1,gamma,0,1,0,1,5,5"],
         "the fold system is not finite"),
    ])
    def test_overflowing_input_exit_1_at_once(self, n3_config, tmp_path, capsys, monkeypatch,
                                              change, argv, message):
        # t_end / dt overflows, t_end / dt steps never end, v_star overflows
        # on the root search, the two Taylor paths, E0's branch points and
        # the fold system
        with open(n3_config) as fh:
            doc = json.load(fh)
        path = write_config(tmp_path, {**doc, **change}, name="bad.json")
        monkeypatch.setattr("sys.argv", ["frontlab", "--json-errors", "--config", path,
                                         "--output-dir", str(tmp_path / "out")] + argv)
        start = time.perf_counter()
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_:
            warnings.simplefilter("error")      # no RuntimeWarning on the way
            main()
        assert time.perf_counter() - start < 1.0
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        obj = json.loads(err)
        assert obj["error"] == "FrontlabError" and message in obj["message"]

    def test_evans_taylor_on_a_tiny_d(self, n3_config, tmp_path):
        # 4 d_1^2 underflows, so E0's branch points are 0/0 and --roots exits
        # 1 (above); --taylor needs no branch point and writes E0's series
        with open(n3_config) as fh:
            doc = {**json.load(fh), "d": [1e-200, 1.5, 1.7]}
        out = tmp_path / "out"
        assert dispatch(["--config", write_config(tmp_path, doc), "--output-dir", str(out),
                         "evans", "--taylor", "4"]) == 0
        rows = [line.split(",") for line in (out / "evans_taylor.csv").read_text().splitlines()
                if not line.startswith("#")]
        params = SystemParams(epsilon=doc["epsilon"], tau=doc["tau"], d=doc["d"])
        series = evans_taylor_c0(params, Coupling(doc["gamma"], doc["alpha"], doc["beta"]), 4)
        assert [float(c) for _k, c in rows] == list(series.coeffs)
        assert len(rows) == 5 and all(np.isfinite(series.coeffs))

    @pytest.mark.parametrize("argv", [["--integrate", "1e9"], ["--lyapunov", "1e12"]])
    def test_taylor_step_cap_exit_1(self, n3_config, tmp_path, capsys, monkeypatch, argv):
        # the periodic orbit to t = 1e9 (or its exponent over 1e12) would
        # take some 5e8 steps; the cap ends the run with a structured error.
        # A cap of 1,000 keeps the test short: CI runs both at the stated
        # MAX_TAYLOR_STEPS
        from frontlab import speed_ode
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", 1000)
        monkeypatch.setattr("sys.argv", ["frontlab", "--json-errors", "--config", n3_config,
                                         "--output-dir", str(tmp_path / "out"), "ode",
                                         "--nf=-1.0,0,-0.5,-3.9,1.0,0,0"] + argv)
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        obj = json.loads(err)
        assert obj["error"] == "FrontlabError"
        assert obj["message"] == (f"t_end={float(argv[1])!r} needs more than 1,000 "
                                  "Taylor steps (MAX_TAYLOR_STEPS)")

    def test_taylor_order_0_is_a_request(self, n1_config, tmp_path, capsys):
        # --taylor 0 asks for the constant term: the run is not "nothing requested"
        for command in ("gamma", "evans"):
            assert dispatch(["--config", n1_config, "--output-dir", str(tmp_path),
                             command, "--taylor", "0"]) == 0
            rows = (tmp_path / f"{command}_taylor.csv").read_text().splitlines()
            assert len(rows) == 3

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
        (None, ["pde-continue", "--free-param", "gamma", "--range=0,0.01",
                "--max-points", "-3"], 2, "'-3' is not a positive count"),
        ("absent", ["gamma", "--roots"], 1, "cannot read config"),
        ('{"epsilon": 0.05,', ["gamma", "--roots"], 1, "not valid JSON"),
        ("[1, 2]", ["gamma", "--roots"], 1, "JSON object"),
        (None, ["design", "--target", "evans:x"], 2, "needs an integer order, got 'x'"),
        (None, ["design", "--target", "gamma:"], 2, "needs an integer order, got ''"),
        (None, ["design", "--target", "imprint:"], 2, "unknown design target 'imprint:'"),
        (None, ["ode", "--nf=-1,0,-1,-0.6,1,0,0", "--integrate", "nan"], 2,
         "'nan' is not a finite number"),
        (None, ["ode", "--nf=-1,0,-1,-0.6,1,0,0", "--integrate", "inf"], 2,
         "'inf' is not a finite number"),
        (None, ["ode", "--nf=-1,0,-1,-0.6,1,0,0", "--integrate", "-5"], 2,
         "'-5' is not a positive number"),
        (None, ["ode", "--nf=-1,0,-1,-0.6,1,0,0", "--lyapunov", "nan"], 2,
         "'nan' is not a finite number"),
        (None, ["pde-continue", "--free-param", "gamma", "--range=-1,1", "--ds", "nan"], 2,
         "'nan' is not a finite number"),
        (None, ["evans", "--at", "nan"], 2, "'nan' is not a finite number"),
        # a subcommand with actions and none of them given
        (None, ["gamma"], 2, "nothing requested: pass --roots, --taylor or --folds"),
        (None, ["evans"], 2, "nothing requested: pass --taylor, --bound or --roots"),
        (None, ["evans", "--at", "0.5"], 2,
         "nothing requested: pass --taylor, --bound or --roots"),
        (None, ["ode", "--nf=-1,0,-1,-0.6,1,0,0"], 2,
         "nothing requested: pass --equilibria, --integrate, --shoot or --lyapunov"),
        (None, ["ode", "--from-analysis"], 2,
         "nothing requested: pass --equilibria, --integrate, --shoot or --lyapunov"),
        # the model source: exactly one of --nf and --from-analysis
        (None, ["ode", "--equilibria"], 2,
         "one of the arguments --from-analysis --nf is required"),
        (None, ["ode", "--nf=-1,0,-1,-0.6,1,0,0", "--from-analysis", "--equilibria"], 2,
         "argument --from-analysis: not allowed with argument --nf"),
        ('{"epsilon": 0.05, "tau": [1.0], "d": [1.0], "alpha": [0.9], "ode": '
         '{"nu0": -1, "nu": [0, -1, -0.6], "a11": 1, "a12": 0, "delta": 0}}',
         ["ode", "--nf=-1,0,-1,-0.6,1,0,0", "--equilibria"], 1,
         "unknown ode keys: ['a11', 'a12', 'delta', 'nu', 'nu0']"),
        ('{"epsilon": 0.03, "tau": [1.0, 2.25, 2.89], "d": [1.0, 1.5, 1.7], '
         '"alpha": [2.5949696477830124, -2.2705984418101357, 1.031610033243679], '
         '"beta": [1.0, 0.0, 0.0]}',
         ["ode", "--from-analysis", "--shoot=-1,0,3"], 1, "scaled normal form"),
        (N1 + '"pde": {"t_end": Infinity}}', ["pde-sim"], 1,
         "pde.t_end: Infinity is not a finite number"),
        (N1 + '"pde": {"domain_half_length": Infinity}}', ["pde-sim"], 1,
         "pde.domain_half_length: Infinity is not a finite number"),
        (N1 + '"pde": {"dt": 0, "t_end": 0.1}}', ["pde-sim"], 1,
         "pde.dt: 0 is not a positive number"),
        (N1 + '"pde": {"output_stride": 0, "t_end": 0.1}}', ["pde-sim"], 1,
         "pde.output_stride: 0 is not a positive count"),
        (N1 + '"pde": {"n_x": "abc", "t_end": 0.1}}', ["pde-sim"], 1,
         'pde.n_x: "abc" is not a JSON integer'),
        (N1 + '"pde": {"t_end": -1}}', ["pde-sim"], 1,
         "pde.t_end: -1 is not a positive number"),
        (N1 + '"pde": {"t_end": 0.1, "perturbation": {"mode": "bogus"}}}', ["pde-sim"], 1,
         "pde.perturbation.mode: \"bogus\" is not 'bump' or 'eigenfunction'"),
        (N1 + '"seed": "abc"}', ["gamma", "--roots"], 1,
         'seed: "abc" is not a JSON integer'),
        (N1 + '"ode": {"n_prime": "x"}}', ["ode", "--from-analysis", "--equilibria"], 1,
         'ode.n_prime: "x" is not a JSON integer'),
        (N1 + '"ode": {"h": "x"}}', ["ode", "--from-analysis", "--equilibria"], 1,
         'ode.h: "x" is not a JSON number'),
        (N1 + '"pde": []}', ["gamma", "--roots"], 1, "pde must be a JSON object"),
        (N1 + '"pde": {"perturbation": 3}}', ["gamma", "--roots"], 1,
         "pde.perturbation must be a JSON object"),
        (N1 + '"output_dir": 5}', ["gamma", "--roots"], 1,
         "output_dir must be a JSON string"),
        (N1 + '"ode": "abc"}', ["gamma", "--roots"], 1, "ode must be a JSON object"),
        ('{"epsilon": "abc", "tau": [1.0], "d": [1.0]}', ["gamma", "--roots"], 1,
         'epsilon: "abc" is not a JSON number'),
        ('{"epsilon": true, "tau": [1.0], "d": [1.0]}', ["gamma", "--roots"], 1,
         "epsilon: true is not a JSON number"),
        (N1 + '"n_slow": true}', ["gamma", "--roots"], 1,
         "n_slow: true is not a JSON integer"),
        (N1 + '"n_slow": 0}', ["gamma", "--taylor", "2"], 1,
         "n_slow=0 inconsistent with len(tau)=1"),
        (N1 + '"n_slow": 2}', ["gamma", "--taylor", "2"], 1,
         "n_slow=2 inconsistent with len(tau)=1"),
        # a short alpha or beta is named, also with the other left to its zeros
        ('{"epsilon": 0.05, "tau": [1.0, 2.0], "d": [1.0, 1.0], "alpha": [1.0]}',
         ["gamma", "--taylor", "2"], 1, "alpha has 1 entries for 2 slow components"),
        ('{"epsilon": 0.05, "tau": [1.0, 2.0], "d": [1.0, 1.0], "beta": [1.0]}',
         ["gamma", "--taylor", "2"], 1, "beta has 1 entries for 2 slow components"),
        ('{"epsilon": 0.05, "tau": 5, "d": [1.0]}', ["gamma", "--roots"], 1,
         "tau: 5 is not a JSON array of numbers"),
        ('{"epsilon": 0.05, "tau": [true], "d": [1.0]}', ["gamma", "--roots"], 1,
         "tau: [true] is not a JSON array of numbers"),
        (N1 + '"higher": null}', ["gamma", "--roots"], 1,
         "higher: null is not a JSON array of numbers"),
        ('{"epsilon": 0.05, "tau": [1.0], "d": [1.0], "alpha": ["x"]}',
         ["gamma", "--roots"], 1, 'alpha: ["x"] is not a JSON array of numbers'),
        ('{"epsilon": 0.05, "tau": [1.0], "d": [1.0], "alpha": {"a": 1}}',
         ["gamma", "--roots"], 1, 'alpha: {"a": 1} is not a JSON array of numbers'),
        (N1 + '"gamma": [1]}', ["gamma", "--roots"], 1, "gamma: [1] is not a JSON number"),
        # an `imprint:` target holds the content of the targets file it stands for
        (None, ["design", "--target", 'imprint:["a", 1]'], 1,
         '["a", 1] is not a JSON array of numbers'),
        (None, ["design", "--target", "imprint:5"], 1, "5 is not a JSON array of numbers"),
        (None, ["design", "--target", 'imprint:{"x": 1}'], 1,
         '{"x": 1} is not a JSON array of numbers'),
        (None, ["design", "--target", "imprint:[[1], 2]"], 1,
         "[[1], 2] is not a JSON array of numbers"),
    ])
    def test_malformed_values_exit_2_bad_config_exit_1(self, n1_config, tmp_path, capsys,
                                                       config, argv, code, message):
        path = tmp_path / "given.json"
        if config is None:
            path = n1_config
        elif config != "absent":
            path.write_text(config)
        if argv[-1].startswith("imprint:") and argv[-1] != "imprint:":
            targets = tmp_path / "targets.json"
            targets.write_text(argv[-1][len("imprint:"):])
            argv = argv[:-1] + [f"imprint:{targets}"]
        out = tmp_path / "run"
        rc = dispatch(["--config", str(path), "--output-dir", str(out), "--json-errors"]
                      + argv)
        assert rc == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        obj = json.loads(err.strip())
        assert message in obj["message"]
        if code == 2:   # rejected while parsing, before anything is written
            assert obj["error"] == "UsageError"
            assert not (out / "manifest.json").exists()
        else:
            assert obj["error"] == "FrontlabError"

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

    def test_deterministic_output(self, n3_config, tmp_path, capsys):
        # every subcommand twice: the same files with the same bytes, and
        # the same standard output up to the output directory's name, which
        # prints the path of each file written but the manifest
        with open(n3_config) as fh:
            doc = json.load(fh)
        doc["pde"] = {"domain_half_length": 1.5, "n_x": 201, "dt": 0.01,
                      "t_end": 0.5}
        config = write_config(tmp_path, doc, name="n3_pde.json")
        runs = [
            ["gamma", "--roots", "--taylor", "5",
             "--folds", "alpha1,gamma,2.5,2.7,-0.01,0.01,5,5"],
            ["evans", "--taylor", "5", "--roots=-0.05,0.05,-0.05,0.05", "--bound"],
            ["design", "--target", "gamma:7"],
            ["jordan", "--k", "1", "--ell", "3"],
            ["ode", "--nf=-1.0,0,-1.0,-0.6,1.0,0,0", "--equilibria",
             "--integrate", "30", "--shoot=-0.8,-0.6,3"],
            ["ode", "--nf=-1.0,0,-0.5,-3.9,1.0,0,0", "--lyapunov", "20"],
            ["ode", "--from-analysis", "--equilibria", "--integrate", "10"],
            ["pde-sim"],
            ["pde-continue", "--free-param", "gamma", "--range=-0.01,0.01",
             "--ds", "0.005", "--max-points", "2"],
            ["verify", "--suite", "paper-params"],
        ]
        outs = []
        for name in ("a", "b"):
            files, stdout = {}, []
            for i, argv in enumerate(runs):
                out = tmp_path / name / str(i)
                rc = dispatch(["--config", config, "--output-dir", str(out)] + argv)
                assert rc == 0, argv
                stdout.append(capsys.readouterr().out.replace(str(out), "OUT"))
                files.update({(i, p.name): p.read_bytes() for p in out.iterdir()})
                printed = [line[len("OUT/"):] for line in stdout[-1].splitlines()
                           if line.startswith("OUT/")]
                assert sorted(printed) == sorted(p.name for p in out.iterdir()
                                                 if p.name != "manifest.json"), argv
            outs.append((files, stdout))
        files = outs[0][0]
        assert {name for _i, name in files} >= {
            "manifest.json", "gamma_roots.csv", "gamma_taylor.csv",
            "gamma_folds.csv", "evans_taylor.csv", "evans_roots.csv",
            "design.json", "jordan_profile.csv", "ode_equilibria.json",
            "ode_trajectory.csv", "ode_shoot.csv", "pde_timeseries.csv",
            "pde_final_profile.csv", "branch.csv"}
        assert "candidate nu_bar=" in outs[0][1][4]
        assert "lyapunov_max: " in outs[0][1][5]
        assert outs[0] == outs[1]

    def test_design_gamma_target(self, n3_config, tmp_path, capsys):
        out = tmp_path / "design"
        rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                       "design", "--target", "gamma:7"])
        assert rc == 0
        doc = json.loads((out / "design.json").read_text())
        assert doc["beta"] == [0.0, 0.0, 0.0]
        assert doc["gamma"] == 0.0

    def test_design_partial_evans_target(self, n3_config, tmp_path):
        # evans:2 on N = 3: a triple zero root, alpha_3 = 0; the speed ODE
        # with n_prime = 2 builds on a coupling near that design
        out = tmp_path / "design"
        assert dispatch(["--config", n3_config, "--output-dir", str(out),
                         "design", "--target", "evans:2"]) == 0
        doc = json.loads((out / "design.json").read_text())
        assert doc["alpha"][2] == 0.0
        doc["alpha"] = [a + da for a, da in zip(doc["alpha"], (1e-3, -5e-4, 2.5e-4))]
        doc["ode"] = {"n_prime": 2}
        near = write_config(tmp_path, doc, name="near.json")
        assert dispatch(["--config", near, "--output-dir", str(out),
                         "ode", "--from-analysis", "--equilibria"]) == 0
        assert (out / "ode_equilibria.json").exists()

    def test_jordan_profiles(self, n3_config, tmp_path):
        # the profile is written from one array evaluation on its grid; a
        # point-by-point evaluation is the reference
        cfg = load_run_config(n3_config)
        for k in (0, 1, 3):
            out = tmp_path / f"jordan{k}"
            rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                           "jordan", "--k", str(k), "--ell", "3"])
            assert rc == 0
            lines = (out / "jordan_profile.csv").read_text().splitlines()
            assert lines[1].startswith("# y,u,v1,v2,v3")
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
            assert rows.shape == (2001, 5)
            assert np.array_equal(rows[:, 0], np.linspace(-20.0, 20.0, 2001))
            profile = chain_profile(cfg.params, cfg.coupling, k, 3)
            ref = np.array([[y, np.real(profile.u(y))]
                            + [np.real(profile.v(j, y)) for j in (1, 2, 3)]
                            for y in rows[:, 0]])
            if k == 0:
                # exp(-h |y| / d^2) with a complex h: numpy divides a complex
                # array by multiplying with 1/d^2, Python's complex scalar
                # divides, and exp turns that last bit of its argument into
                # up to |argument| ulps
                np.testing.assert_allclose(rows, ref, rtol=1e-14, atol=0)
            else:
                assert np.array_equal(rows, ref)

    def test_ode_subcommand(self, n3_config, tmp_path):
        out = tmp_path / "ode"
        rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                       "ode", "--nf=-1.0,0,-1.0,-0.6,1.0,0,0",
                       "--equilibria", "--integrate", "30"])
        assert rc == 0
        eqs = json.loads((out / "ode_equilibria.json").read_text())
        assert any(e["kind"] == "saddle-focus(1u,2s)" for e in eqs)
        assert (out / "ode_trajectory.csv").exists()

    @pytest.mark.parametrize("source", [[], ["--nf=-1,0,-1,-0.6,1,0,0", "--from-analysis"]])
    def test_ode_needs_exactly_one_model_source(self, n3_config, tmp_path, capsys, source):
        out = tmp_path / "ode"
        rc = dispatch(["--config", n3_config, "--output-dir", str(out),
                       "ode", *source, "--equilibria"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage: frontlab ode")
        assert not out.exists()

    def test_ode_blow_up_reported(self, n1_config, tmp_path, capsys):
        # the README's Shil'nikov form leaves every bounded set near t = 10;
        # the (-1, -0.5, -3.9) form settles on a periodic orbit
        def run(nf):
            out = tmp_path / nf
            assert dispatch(["--config", n1_config, "--output-dir", str(out),
                             "ode", f"--nf={nf}", "--integrate", "30"]) == 0
            rows = (out / "ode_trajectory.csv").read_text().splitlines()[2:]
            return rows, capsys.readouterr().err
        rows, err = run("-1.0,0,-1.0,-0.6,1.0,0,0")
        assert len(rows) < 2001
        assert err == f"blew up at t={float(rows[-1].split(',')[0]):.6g}\n"
        rows, err = run("-1.0,0,-0.5,-3.9,1.0,0,0")
        assert len(rows) == 2001 and err == ""

    def test_ode_lyapunov_starts_where_the_integration_ends(self, n3_config, tmp_path,
                                                            capsys, monkeypatch):
        # (1e-3, 1e-3, 1e-3) lies off the periodic orbit of the
        # (-1, -0.5, -3.9) form: with --integrate the exponent is measured
        # from the trajectory's last row; after a blow-up it starts from
        # (1e-3, ..) as it does without --integrate
        def run(*argv):
            monkeypatch.setattr("sys.argv", ["frontlab", "--config", n3_config,
                                             "--output-dir", str(tmp_path), "ode", *argv])
            with pytest.raises(SystemExit) as exit_:
                main()
            return exit_.value.code, capsys.readouterr()

        code, out = run("--nf=-1.0,0,-0.5,-3.9,1.0,0,0", "--integrate", "100", "--lyapunov", "20")
        assert code == 0
        rows = np.loadtxt(tmp_path / "ode_trajectory.csv", delimiter=",", comments="#")
        nf = ScaledNF(nu0=-1.0, nu=(0.0, -0.5, -3.9), a11=1.0)
        printed = out.out.splitlines()[-1]
        assert printed == f"lyapunov_max: {lyapunov_max(nf, rows[-1, 1:], 20.0, 0.2):.6g}"
        assert printed != f"lyapunov_max: {lyapunov_max(nf, np.full(3, 1e-3), 20.0, 0.2):.6g}"
        code, out = run("--nf=-1.0,0,-1.0,-0.6,1.0,0,0", "--integrate", "30", "--lyapunov", "20")
        assert code == 1
        assert "trajectory blew up during exponent estimation" in out.err

    def test_design_simultaneous_and_imprint(self, n1_config, n3_config, tmp_path, capsys):
        out = tmp_path / "simultaneous"
        assert dispatch(["--config", n3_config, "--output-dir", str(out),
                         "design", "--target", "simultaneous"]) == 0
        assert "singular_limit_only: true" in capsys.readouterr().out
        doc = json.loads((out / "design.json").read_text())
        assert doc["d"] == [1.0, 1.5, 1.7]
        assert doc["tau"] == pytest.approx([1.0, 2.25, 2.89], abs=1e-12)
        targets = tmp_path / "targets.json"
        targets.write_text("[0.0, 0.0, 0.5]")
        out = tmp_path / "imprint"
        assert dispatch(["--config", n1_config, "--output-dir", str(out),
                         "design", "--target", f"imprint:{targets}"]) == 0
        cfg = load_run_config(out / "design.json")
        assert gamma0_taylor(cfg.params, cfg.coupling, 2).coeffs == pytest.approx(
            [0.0, 0.0, 0.5], abs=1e-12)

    def test_gamma_folds_rows(self, n3_config, tmp_path):
        out = tmp_path / "folds"
        assert dispatch(["--config", n3_config, "--output-dir", str(out), "gamma",
                         "--folds", "alpha1,gamma,-50,50,-50,50,201,201"]) == 0
        lines = (out / "gamma_folds.csv").read_text().splitlines()
        assert lines[1] == "# branch,alpha1,gamma,c"
        rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
        assert len(rows) == 5
        assert all(-50 <= a <= 50 and -50 <= g <= 50 for _b, a, g, _c in rows)

    @pytest.mark.parametrize("perturbation", [
        {"mode": "bump", "amplitude": 0.05, "width": 0.5, "center": 1.0},
        {"mode": "eigenfunction", "amplitude": 0.05, "lam": 0.0},
    ])
    def test_pde_sim_perturbation(self, n1_config, tmp_path, perturbation):
        with open(n1_config) as fh:
            doc = json.load(fh)
        doc["pde"] = {"domain_half_length": 10.0, "n_x": 801, "dt": 0.01, "t_end": 0.1}
        rows = {}
        for name, pde in (("plain", doc["pde"]),
                          ("perturbed", dict(doc["pde"], perturbation=perturbation))):
            config = write_config(tmp_path, dict(doc, pde=pde), name=f"{name}.json")
            out = tmp_path / name
            assert dispatch(["--config", config, "--output-dir", str(out), "pde-sim"]) == 0
            rows[name] = (out / "pde_timeseries.csv").read_text().splitlines()[2:]
        # one row at t = 0.1, where the perturbation has moved the front
        assert len(rows["plain"]) == len(rows["perturbed"]) == 1
        assert rows["plain"][0].split(",")[1] != rows["perturbed"][0].split(",")[1]

    @pytest.mark.parametrize("argv", [
        ["pde-sim"],
        ["pde-continue", "--free-param", "gamma", "--range=-0.01,0.01", "--ds", "0.005",
         "--max-points", "2"],
    ])
    def test_under_resolved_grid_warns_once(self, tmp_path, capsys, argv):
        config = write_config(tmp_path, {
            "epsilon": 0.2, "tau": [1.0], "d": [1.0], "gamma": 0.0, "alpha": [0.9],
            "pde": {"domain_half_length": 6.0, "n_x": 41, "dt": 0.01, "t_end": 0.05},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(["--config", config, "--output-dir", str(tmp_path / "out")]
                            + argv) == 0
        assert [str(w.message) for w in caught] == [
            "grid spacing h=0.3 exceeds epsilon/2=0.1; the fast interface is under-resolved"]

    def test_verify_full(self, tmp_path, capsys):
        # the eight singular-limit criteria in number order, each line the
        # one its criterion function gives; no --config needed
        rc = dispatch(["--output-dir", str(tmp_path), "verify", "--suite", "full"])
        assert rc == 0
        out = capsys.readouterr().out
        criteria = [verify.criterion_1_vandermonde, verify.criterion_2_fourfold_zero_root,
                    verify.criterion_3_existence_degeneracies, verify.criterion_4_jordan_chain,
                    verify.criterion_9_saddle_focus_classification,
                    verify.criterion_10_shilnikov_shooting_contract,
                    verify.criterion_11_unfolding_accuracy,
                    verify.criterion_12_imprinting_round_trip]
        verdicts = [criterion() for criterion in criteria]
        assert [v.number for v in verdicts] == [1, 2, 3, 4, 9, 10, 11, 12]
        assert [line for line in out.splitlines() if line.startswith("ACCEPTANCE")] == [
            v.line for v in verdicts]
        assert out.splitlines()[-1] == "verify[full]: all checks passed"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["command"], manifest["config"], manifest["seed"]) == (
            "verify", None, None)

    def test_verify_paper_params(self, tmp_path, capsys, monkeypatch):
        # criteria 2 and 3, the ones that read the reference sets; without
        # --output-dir the manifest goes to the working directory
        monkeypatch.chdir(tmp_path)
        rc = dispatch(["verify", "--suite", "paper-params"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            verify.criterion_2_fourfold_zero_root().line,
            verify.criterion_3_existence_degeneracies().line,
            "verify[paper-params]: all checks passed"]
        assert json.loads((tmp_path / "manifest.json").read_text())["config"] is None


class TestRunConfig:
    def test_strict_keys(self, tmp_path):
        path = write_config(tmp_path, {"epsilon": 0.1, "tau": [1.0], "d": [1.0],
                                       "bogus": 1})
        with pytest.raises(FrontlabError):
            load_run_config(path)

    def test_model_keys_build_params_and_coupling(self, tmp_path):
        # the model keys of design.json, read back to the values written
        p = SystemParams(epsilon=0.037218913441, tau=(1.0, 2.25),
                         d=(0.31415926535897931, 2.0))
        c = Coupling(0.1234567890123456, (1.0, -2.5), (0.5, 0.0))
        cfg = load_run_config(write_config(tmp_path, {
            "n_slow": 2, "epsilon": p.epsilon, "tau": list(p.tau), "d": list(p.d),
            "gamma": c.gamma, "alpha": list(c.alpha), "beta": list(c.beta), "higher": []}))
        assert (cfg.params, cfg.coupling) == (p, c)
        # alpha and beta left out are zeros
        cfg = load_run_config(write_config(tmp_path, {"epsilon": 0.1, "tau": [1.0, 2.0],
                                                      "d": [1.0, 1.0]}))
        assert cfg.coupling == Coupling(0.0, (0.0, 0.0), (0.0, 0.0))

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

    def test_defaults_without_run_sections(self, tmp_path):
        # the defaults of docs/formats.md; None stands for a default computed
        # where it is used (n_x and dt from epsilon and tau, n_prime = N)
        cfg = load_run_config(write_config(tmp_path, {"epsilon": 0.2, "tau": [1.0],
                                                      "d": [1.0]}))
        assert (cfg.seed, cfg.output_dir) == (0, ".")
        assert cfg.pde == {"domain_half_length": 20.0, "n_x": None, "dt": None,
                           "t_end": 10.0, "output_stride": 10,
                           "perturbation": {"mode": "bump", "amplitude": 0.01,
                                            "width": 1.0, "center": 0.0, "lam": 0.0}}
        assert cfg.ode == {"n_prime": None, "h": 1.0}

    def test_manifest_echoes_the_document_as_written(self, tmp_path, capsys):
        doc = {"epsilon": 0.05, "tau": [1.0], "d": [1.0], "alpha": [0.9],
               "pde": {"t_end": 0.1, "perturbation": {"width": 2}}, "ode": {}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert dispatch(["--config", path, "--output-dir", str(out),
                         "gamma", "--taylor", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == doc
        assert manifest["seed"] == 0
        # while the run itself sees every default filled in
        cfg = load_run_config(path)
        assert cfg.pde["perturbation"] == {"mode": "bump", "amplitude": 0.01, "width": 2,
                                           "center": 0.0, "lam": 0.0}
        assert cfg.pde["domain_half_length"] == 20.0 and cfg.ode["h"] == 1.0

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
