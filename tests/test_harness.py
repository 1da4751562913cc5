import json

import numpy as np
import pytest

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


def test_parse_config_rejects_islands_for_single_run_methods():
    with pytest.raises(ConfigError, match="P = 1"):
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


def test_build_target_logistic_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,label\n0.5,1\n-1.0,0\n")
    target = build_target({"kind": "logistic", "csv": str(path)})
    assert target.X.shape == (2, 2)


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


def test_run_experiment_worker_count_does_not_change_rows():
    cfg = parse_config(base_config(sweep=[{"N": 8, "M": 1}, {"N": 16, "M": 1}]))
    a = run_experiment(cfg, workers=1)
    b = run_experiment(cfg, workers=4)
    for ra, rb in zip(a, b):
        assert ra["mse_vs_truth"] == rb["mse_vs_truth"]
        assert ra["logZ"] == rb["logZ"]
        assert (ra["N"], ra["replicate"]) == (rb["N"], rb["replicate"])


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
