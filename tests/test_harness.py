import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import islandmc
from islandmc.harness import (
    CSV_COLUMNS,
    ConfigError,
    FitResult,
    build_kernel,
    build_target,
    fit_rate,
    load_config,
    main,
    parse_config,
    read_csv,
    run_experiment,
    run_seed,
    write_csv,
)
from islandmc.kernels import HmcConfig, PcnConfig
from islandmc.targets import GaussianLinearModel, GmmTarget, LogisticTarget


def base_config(**overrides):
    cfg = {
        "target": {"kind": "gaussian", "d": 2, "m": 4, "sigma": 1.0, "seed": 1},
        "method": {"kind": "smc"},
        "sweep": [{"N": 16, "M": 1}],
        "replicates": 2,
        "master_seed": 7,
    }
    cfg.update(overrides)
    return cfg


def test_parse_config_round_trip():
    cfg = parse_config(base_config())
    assert cfg.replicates == 2
    assert cfg.master_seed == 7
    assert cfg.sweep[0].N == 16
    assert cfg.sweep[0].P == 1


def test_parse_config_missing_fields_name_the_path():
    payload = base_config()
    del payload["target"]
    with pytest.raises(ConfigError, match="missing required field 'target'"):
        parse_config(payload)
    payload = base_config(sweep=[{"M": 2}])
    with pytest.raises(ConfigError, match=r"sweep\[0\]: missing required field 'N'"):
        parse_config(payload)


def test_parse_config_rejects_unknown_sweep_fields():
    with pytest.raises(ConfigError, match=r"sweep\[0\].*Q"):
        parse_config(base_config(sweep=[{"N": 8, "Q": 3}]))


def test_parse_config_type_checks():
    with pytest.raises(ConfigError, match="replicates"):
        parse_config(base_config(replicates="many"))
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config(base_config(master_seed=-1))
    with pytest.raises(ConfigError, match=r"sweep\[0\]\.N"):
        parse_config(base_config(sweep=[{"N": True}]))
    with pytest.raises(ConfigError, match=r"method\.max_stages"):
        parse_config(base_config(method={"kind": "smc", "max_stages": None}))
    for bad in (None, "a", True, [0.5]):
        with pytest.raises(ConfigError, match=r"method\.ess_fraction"):
            parse_config(base_config(method={"kind": "smc", "ess_fraction": bad}))
    with pytest.raises(ConfigError) as err:
        parse_config(base_config(method={"kind": "smc", "adapt_steps": "false"}))
    assert str(err.value) == "method.adapt_steps: expected true or false, got 'false'"
    for bad in (0, 1, None):
        with pytest.raises(ConfigError, match=r"method\.adapt_steps"):
            parse_config(base_config(method={"kind": "smc", "adapt_steps": bad}))
    for bad in (None, "stratified", ["systematic"]):
        with pytest.raises(ConfigError, match=r"^method\.resampling: "):
            parse_config(base_config(method={"kind": "smc_par", "resampling": bad}))
    for kind, bad in (("smc", 5), ("smc", "abc"), ("smc", [0.5, "1"]), ("smc", []),
                      ("ais", None), ("ais", "abc"), ("ais", 5), ("ais", [0.0, True])):
        with pytest.raises(ConfigError, match=r"^method\.schedule(\[\d\])?: expected "):
            parse_config(base_config(method={"kind": kind, "schedule": bad}))
    assert parse_config(base_config(method={"kind": "smc", "schedule": None}))
    assert parse_config(base_config(method={"kind": "ais", "schedule": [0.0, 0.5, 1.0]}))
    for kind, bad, message in (
        ("smc", [0.5, 0.4, 1.0], "schedule must be strictly increasing"),
        ("smc_par", [0.5, 0.9], "schedule must start above 0 and end at exactly 1"),
        ("ais", [0.0, 0.5, 0.9], "schedule must start at exactly 0 and end at exactly 1"),
        ("ais", [0.0, 0.6, 0.5, 1.0], "schedule must be strictly increasing"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(base_config(method={"kind": kind, "schedule": bad}))
        assert str(err.value) == f"method.schedule: {message}"
    # a population size the method rejects names the sweep point's N
    with pytest.raises(ConfigError, match=r"^sweep\[0\]\.N: n_particles must be at least 2$"):
        parse_config(base_config(method={"kind": "smc", "schedule": [0.5, 1.0]}, sweep=[{"N": 1}]))
    for mass in ([1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]):
        with pytest.raises(ConfigError, match=r"^method\.kernel\.mass: expected "):
            parse_config(base_config(method={"kind": "smc", "kernel": {"kind": "hmc", "mass": mass}}))
    assert parse_config(base_config(method={"kind": "smc", "kernel": {"kind": "hmc", "mass": [1.0, 2.0]}}))
    for kernel, message in (
        ({"kind": "hmc", "leapfrog_steps": 2.5}, "method.kernel.leapfrog_steps: expected an integer, got 2.5"),
        ({"kind": "hmc", "leapfrog_steps": True}, "method.kernel.leapfrog_steps: expected an integer, got True"),
        ({"kind": "hmc", "step_size": "0.1"}, "method.kernel.step_size: expected a number, got '0.1'"),
        ({"kind": "hmc", "target_accept": None}, "method.kernel.target_accept: expected a number, got None"),
        ({"kind": "hmc", "mass": "1"}, "method.kernel.mass: expected a number, got '1'"),
        ({"kind": "hmc", "mass": [1.0, "2"]},
         "method.kernel.mass: expected a number or a list of numbers, got [1.0, '2']"),
        ({"kind": "hmc", "leapfrog_steps": 0}, "method.kernel.leapfrog_steps: leapfrog_steps must be at least 1"),
        ({"use_scaling": "no"}, "method.kernel.use_scaling: expected true or false, got 'no'"),
        ({"kind": "pcn", "use_scaling": 0}, "method.kernel.use_scaling: expected true or false, got 0"),
        ({"kind": "pcn", "beta": [0.5]}, "method.kernel.beta: expected a number, got [0.5]"),
        ({"kind": "pcn", "beta": 2.0}, "method.kernel.beta: beta must lie in (0, 1]"),
        ({"kind": "pcn", "scaling_floor": False}, "method.kernel.scaling_floor: expected a number, got False"),
        ({"kind": "pcn", "step_size": 0.1}, "method.kernel: unknown fields ['step_size'] for kind 'pcn'"),
        ({"kind": ["hmc"]}, "method.kernel.kind: unknown kernel kind ['hmc']"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(base_config(method={"kind": "smc", "kernel": kernel}))
        assert str(err.value) == message
    kernel = build_kernel({"kind": "hmc", "step_size": 1, "leapfrog_steps": 3, "mass": [1, 2]})
    assert kernel == HmcConfig(step_size=1.0, leapfrog_steps=3, mass=[1.0, 2.0])
    assert build_kernel({"use_scaling": False}) == PcnConfig(use_scaling=False)


def test_parse_config_rejects_islands_for_single_run_methods():
    with pytest.raises(ConfigError, match=r"^sweep\[0\]\.P: .*P = 1"):
        parse_config(base_config(sweep=[{"N": 8, "P": 4}]))


def test_parse_config_validates_method_eagerly():
    payload = base_config(method={"kind": "smc", "kernel": {"kind": "pcn", "beta": 2.0}})
    with pytest.raises(ConfigError, match="kernel"):
        parse_config(payload)
    with pytest.raises(ConfigError, match="method.kind"):
        parse_config(base_config(method={"kind": "vi"}))


def test_load_config_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "target": oops\n}\n')
    with pytest.raises(ConfigError, match=r"broken\.json:2"):
        load_config(path)


def test_build_target_kinds():
    gauss = build_target({"kind": "gaussian", "d": 3, "m": 5, "seed": 0})
    assert isinstance(gauss, GaussianLinearModel)
    gmm = build_target({"kind": "gmm", "d": 2})
    assert isinstance(gmm, GmmTarget)
    logistic = build_target({"kind": "logistic", "d": 4, "m": 20, "seed": 0})
    assert isinstance(logistic, LogisticTarget)
    with pytest.raises(ConfigError, match="target.kind"):
        build_target({"kind": "cauchy"})
    with pytest.raises(ConfigError, match=r"target\.weights"):
        build_target({"kind": "gmm", "d": 2, "means": [[0.0, 0.0], [1.0, 1.0]]})
    for theta_star in ([1.0], [1.0, 2.0, 3.0], "ones", [1.0, None]):
        with pytest.raises(ConfigError, match=r"^target\.theta_star(\[\d\])?: expected "):
            build_target({"kind": "gaussian", "d": 2, "m": 3, "theta_star": theta_star})
    assert build_target({"kind": "gaussian", "d": 2, "m": 3, "theta_star": [1.0, -1.0]}).dim == 2
    bad_mixtures = [
        ({"weights": [0.5, 0.5], "means": [[0.0, 0.0]]}, "weights"),
        ({"weights": [1.0], "means": [[0.0, 0.0], [1.0, 1.0]]}, "weights"),
        ({"weights": [0.5, 0.5], "means": [[0.0, 0.0], [1.0]]}, r"means\[1\]"),
        ({"weights": [0.5, 0.5], "means": [[0.0], [1.0]]}, r"means\[0\]"),
        ({"weights": [0.5, 0.5], "means": []}, "means"),
        ({"weights": [0.7, 0.7], "means": [[0.0, 0.0], [1.0, 1.0]]}, "weights"),
    ]
    for spec, field in bad_mixtures:
        with pytest.raises(ConfigError, match=rf"^target\.{field}: "):
            build_target({"kind": "gmm", "d": 2, **spec})
    bad_floats = [
        ({"kind": "gaussian", "d": 2, "m": 3, "sigma": "a"}, "sigma"),
        ({"kind": "gmm", "d": 2, "weight": None}, "weight"),
        ({"kind": "logistic", "d": 2, "m": 5, "prior_var": [1.0]}, "prior_var"),
        ({"kind": "logistic", "d": 2, "m": 5, "prior_var": True}, "prior_var"),
    ]
    for spec, field in bad_floats:
        with pytest.raises(ConfigError, match=rf"^target\.{field}: expected a number"):
            build_target(spec)


def test_build_target_logistic_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,label\n0.5,1\n-1.0,0\n")
    target = build_target({"kind": "logistic", "csv": str(path)})
    assert target.X.shape == (2, 2)
    (tmp_path / "labels_only.csv").write_text("label\n1\n")
    for csv_path in (str(tmp_path / "missing.csv"), str(tmp_path / "labels_only.csv"), 3):
        with pytest.raises(ConfigError, match=r"^target\.csv: "):
            build_target({"kind": "logistic", "csv": csv_path})


def test_build_kernel_kinds():
    assert isinstance(build_kernel(None), PcnConfig)
    pcn = build_kernel({"kind": "pcn", "beta": 0.3})
    assert pcn.beta == 0.3
    hmc = build_kernel({"kind": "hmc", "step_size": 0.2, "leapfrog_steps": 5})
    assert isinstance(hmc, HmcConfig)
    with pytest.raises(ConfigError):
        build_kernel({"kind": "mala"})
    with pytest.raises(ConfigError):
        build_kernel({"kind": "pcn", "bandwidth": 1.0})


def test_run_seed_deterministic_and_distinct():
    assert run_seed(3, 0, 0) == run_seed(3, 0, 0)
    seeds = {run_seed(3, si, r) for si in range(4) for r in range(8)}
    assert len(seeds) == 32


def test_run_experiment_rows_deterministic_except_wall():
    cfg = parse_config(base_config())
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert len(a) == 2
    for ra, rb in zip(a, b):
        for key in CSV_COLUMNS:
            if key != "wall_seconds":
                assert ra[key] == rb[key], key


def test_run_experiment_flat_likelihood_accounting():
    # m=0: single tempering stage, so lik = N (1 + J M) with J = 1
    cfg = parse_config(base_config(
        target={"kind": "gaussian", "d": 2, "m": 0, "seed": 1},
        sweep=[{"N": 16, "M": 3}],
        replicates=1,
    ))
    row = run_experiment(cfg)[0]
    assert row["lik_evals"] == 16 * (1 + 1 * 3)
    assert row["grad_evals"] == 0
    assert row["epochs_serial"] == row["lik_evals"]
    assert row["epochs_parallel"] == row["epochs_serial"]  # P = 1
    assert row["mse_vs_truth"] >= 0.0  # truth is the prior mean here


def test_run_experiment_island_epoch_bounds():
    cfg = parse_config(base_config(
        method={"kind": "smc_par"},
        sweep=[{"N": 8, "P": 4, "M": 2}],
        replicates=1,
    ))
    row = run_experiment(cfg)[0]
    assert row["epochs_parallel"] <= row["epochs_serial"]
    assert row["epochs_serial"] <= 4 * row["epochs_parallel"]
    assert row["epochs_serial"] == row["lik_evals"] + row["grad_evals"]


def test_run_experiment_covers_all_methods():
    sweeps = {
        "smc": [{"N": 8, "M": 1}],
        "smc_par": [{"N": 8, "P": 2, "M": 1}],
        "mcmc": [{"N": 8, "B": 4, "T": 2}],
        "mcmc_par": [{"N": 8, "P": 2, "B": 4}],
        "ais": [{"N": 8, "P": 2, "M": 1}],
    }
    for kind, sweep in sweeps.items():
        cfg = parse_config(base_config(method={"kind": kind}, sweep=sweep, replicates=1))
        row = run_experiment(cfg)[0]
        assert row["method"] == kind
        assert row["lik_evals"] > 0


def test_run_experiment_logistic_leaves_mse_blank():
    cfg = parse_config(base_config(
        target={"kind": "logistic", "d": 2, "m": 10, "seed": 0},
        sweep=[{"N": 8, "M": 1}],
        replicates=1,
    ))
    row = run_experiment(cfg)[0]
    assert row["mse_vs_truth"] == ""


def test_csv_round_trip(tmp_path):
    cfg = parse_config(base_config(replicates=1))
    rows = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    loaded = read_csv(path)
    assert len(loaded) == 1
    assert loaded[0]["method"] == "smc"
    assert float(loaded[0]["logZ"]) == pytest.approx(rows[0]["logZ"], rel=1e-12)


def test_fit_rate_exact_inverse_law():
    rows = [{"N": str(n), "P": "1", "mse_vs_truth": str(1.0 / n)} for n in (2, 4, 8, 16)]
    fit = fit_rate(rows, "N", "mse")
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.dropped == 0


def test_fit_rate_constant_is_flat():
    rows = [{"N": str(n), "P": "1", "mse_vs_truth": "0.5"} for n in (2, 4, 8)]
    fit = fit_rate(rows, "N", "mse")
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_derived_np_column_and_averaging():
    rows = [
        {"N": "4", "P": "2", "mse_vs_truth": "0.125"},
        {"N": "4", "P": "2", "mse_vs_truth": "0.125"},
        {"N": "8", "P": "2", "mse_vs_truth": "0.0625"},
    ]
    fit = fit_rate(rows, "NP", "mse")
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_drops_missing_values():
    rows = [
        {"N": "2", "P": "1", "mse_vs_truth": "0.5"},
        {"N": "4", "P": "1", "mse_vs_truth": ""},
        {"N": "8", "P": "1", "mse_vs_truth": "0.125"},
    ]
    fit = fit_rate(rows, "N", "mse")
    assert fit.dropped == 1
    rows = [{"N": "2", "P": "1", "mse_vs_truth": ""}] * 3
    with pytest.raises(ValueError):
        fit_rate(rows, "N", "mse")


def test_fit_rate_unknown_column():
    with pytest.raises(ValueError, match="unknown column"):
        fit_rate([{"N": "2"}], "N", "badness")


def test_cli_run_and_fit(tmp_path, capsys):
    config = base_config(
        sweep=[{"N": 8, "M": 1}, {"N": 32, "M": 1}],
        replicates=3,
    )
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert main(["fit", "--csv", str(out), "--x", "N", "--y", "mse"]) == 0
    captured = capsys.readouterr().out
    assert "slope" in captured and "r2" in captured


def test_cli_seed_override_changes_rows(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(base_config(replicates=1)))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b), "--seed", "99"]) == 0
    row_a, row_b = read_csv(out_a)[0], read_csv(out_b)[0]
    assert row_a["logZ"] != row_b["logZ"]


def test_cli_rerun_is_byte_identical_modulo_wall(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(base_config(replicates=2)))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", str(cfg_path), "--out", str(out_a)])
    main(["run", "--config", str(cfg_path), "--out", str(out_b)])

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(out_a) == strip_wall(out_b)


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    for kernel, field in (({"kind": "hmc", "leapfrog_steps": 2.5}, "leapfrog_steps"),
                          ({"kind": "pcn", "use_scaling": "no"}, "use_scaling")):
        cfg_path = tmp_path / f"{field}.json"
        cfg_path.write_text(json.dumps(base_config(method={"kind": "smc", "kernel": kernel})))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"error: method.kernel.{field}: expected " in capsys.readouterr().err
    # json reads NaN and Infinity; a non-finite mass is a range error of its field
    for mass in (float("nan"), float("inf"), [1.0, float("nan")]):
        cfg_path = tmp_path / "mass.json"
        cfg_path.write_text(json.dumps(base_config(method={"kind": "smc", "kernel": {"kind": "hmc", "mass": mass}})))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: method.kernel.mass: mass entries must be finite and positive" in capsys.readouterr().err


def test_cli_bad_target_fields_exit_2_and_name_the_field(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x1,label\n0.5,1\n-1.0,0\n")
    inf, nan = float("inf"), float("nan")
    cases = [
        ({"kind": "gaussian", "d": 2, "m": 4, "sigma": 0}, "sigma"),
        ({"kind": "gaussian", "d": 2, "m": 4, "sigma": -1.0}, "sigma"),
        ({"kind": "gaussian", "d": 2, "m": 4, "sigma": inf}, "sigma"),
        ({"kind": "gaussian", "d": 2, "m": 4, "sigma": nan}, "sigma"),
        ({"kind": "logistic", "d": 2, "m": 5, "prior_var": inf}, "prior_var"),
        ({"kind": "logistic", "d": 2, "m": 5, "prior_var": nan}, "prior_var"),
        ({"kind": "logistic", "csv": str(data), "prior_var": -1}, "prior_var"),
        ({"kind": "logistic", "csv": str(data), "prior_var": inf}, "prior_var"),
        ({"kind": "gmm", "d": 2, "weight": 1.5}, "weight"),
        ({"kind": "gmm", "d": 2, "weight": nan}, "weight"),
        ({"kind": "gmm", "d": 1, "weights": [nan, 1.0], "means": [[0.0], [1.0]]}, "weights"),
    ]
    cfg_path = tmp_path / "exp.json"
    for target, field in cases:
        # json writes and reads NaN and Infinity
        cfg_path.write_text(json.dumps(base_config(target=target)))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2, target
        err = capsys.readouterr().err
        assert err.startswith(f"error: target.{field}: {field} must "), err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("overrides, path", [
    ({"outptu": "rows.csv"}, "top level"),
    ({"output": 1}, "output"),
    ({"target": {"kind": "gmm", "d": 2, "prior_vr": 5}}, "target"),
    ({"method": {"kind": "smc", "ess_fracton": 0.9}}, "method"),
    ({"method": {"kind": "ais", "resampling": "systematic"}}, "method"),
    ({"target": {"kind": "gaussian", "d": 2, "m": 4, "theta_star": [float("nan"), 1.0]}}, "target.theta_star"),
    ({"target": {"kind": "gmm", "d": 1, "weights": [0.5, 0.5], "means": [[float("nan")], [1.0]]}},
     "target.means"),
    ({"method": {"kind": "smc", "kernel": {"kind": "hmc", "step_size": float("inf")}}}, "method.kernel.step_size"),
    ({"method": {"kind": "smc", "kernel": {"kind": "pcn", "scaling_floor": float("inf")}}},
     "method.kernel.scaling_floor"),
    ({"method": {"kind": "smc", "ess_fraction": 1.5}}, "method.ess_fraction"),
    # fields of the target kind that the chosen variant would drop; the
    # field combination is rejected before the csv file is read
    ({"target": {"kind": "logistic", "csv": "data.csv", "d": 7, "m": 100, "seed": 3}}, "target.d"),
    ({"target": {"kind": "gmm", "d": 1, "weights": [0.5, 0.5], "means": [[0.0], [1.0]], "weight": 0.9}},
     "target.weight"),
    ({"target": {"kind": "gmm", "d": 2, "weights": [0.5, 0.5]}}, "target.weights"),
])
def test_cli_rejects_unknown_and_non_finite_fields(tmp_path, capsys, overrides, path):
    # json writes and reads NaN and Infinity
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(base_config(**overrides)))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


def test_cli_requires_output_path(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(base_config(replicates=1)))
    assert main(["run", "--config", str(cfg_path)]) == 2


def test_cli_output_from_config_field(tmp_path):
    out = tmp_path / "from_config.csv"
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(base_config(replicates=1, output=str(out))))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert out.exists()


# a sampler-only process imports the package; the CLI and the process pool
# load on first use
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import islandmc
cli = ("islandmc.harness", "argparse", "concurrent.futures.process")
print(sorted(name for name in cli if name in sys.modules))
print(islandmc.harness.__name__, "islandmc.harness" in sys.modules)
"""


def test_import_islandmc_loads_no_cli_or_process_pool():
    src = str(Path(islandmc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src],
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "islandmc.harness True"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cli = subprocess.run([sys.executable, "-m", "islandmc", "--help"],
                         capture_output=True, text=True, timeout=120, env=env)
    assert cli.returncode == 0
    assert cli.stdout.startswith("usage: islandmc")
