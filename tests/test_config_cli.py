import argparse
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import particleflow
from particleflow import experiments
from particleflow.cli import build_parser, main
from particleflow.config import ExperimentConfig, make_config, parse_config_file
from particleflow.experiments import HEADER, grid_values, summarize_rows


def test_defaults_match_documented_protocol():
    cfg = make_config("synthetic")
    assert cfg.dims == (10,)
    assert cfg.n_particles == (100,)
    assert cfg.n_steps == 50
    assert cfg.seeds == tuple(range(10))
    assert cfg.methods == ("flow", "mcl")
    assert cfg.grid_center is None
    assert cfg.grid_orders == 5 and cfg.grid_points_per_order == 2
    cfg = make_config("pose")
    assert cfg.dims == (6,) and cfg.n_particles == (80,)
    assert cfg.methods == ("flow", "gd")
    cfg = make_config("theorem")
    assert cfg.dims == (3,) and cfg.n_particles == (32,) and cfg.methods == ()
    assert cfg.eps == 0.1 and cfg.t_end == 1.0 and cfg.dt == 1e-3


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "dims=5,10\n"
        "n_steps=25   # trailing comment\n"
        "seeds=0,1,2\n"
        "gamma=auto\n"
        "methods=flow\n"
    )
    values = parse_config_file(str(path), "synthetic")
    cfg = make_config("synthetic", values)
    assert cfg.dims == (5, 10)
    assert cfg.n_steps == 25
    assert cfg.seeds == (0, 1, 2)
    assert cfg.gamma is None
    assert cfg.methods == ("flow",)


def test_empty_config_file_yields_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = make_config("synthetic", parse_config_file(str(path), "synthetic"))
    assert cfg == make_config("synthetic")


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_steps=10\nwibble=1\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2.*wibble"):
        parse_config_file(str(path), "synthetic")


def test_config_file_rejects_malformed_value_with_line_and_type(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("\n\nn_steps=soon\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:3.*n_steps.*integer"):
        parse_config_file(str(path), "synthetic")


def test_flags_override_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_steps=25\nseeds=0,1\ngamma=2\n")
    cfg = make_config("synthetic", parse_config_file(str(path), "synthetic"), {"n_steps": 30, "gamma": None})
    assert cfg.n_steps == 30
    assert cfg.seeds == (0, 1)
    assert cfg.gamma is None  # a flag's auto overrides the file's value


def test_invariants_rejected():
    with pytest.raises(ValueError):
        make_config("synthetic", {"n_steps": 0})
    with pytest.raises(ValueError):
        make_config("synthetic", {"seeds": ()})
    with pytest.raises(ValueError):
        make_config("synthetic", {"dims": (2,)})
    with pytest.raises(ValueError):
        make_config("synthetic", {"methods": ("sgd",)})
    with pytest.raises(ValueError):
        make_config("pose", {"methods": ("flow", "mcl")})
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError, match=r"^grid center must be positive, got -1.0$"):
        make_config("synthetic", {"grid_center": -1.0})
    with pytest.raises(ValueError, match=r"^grid orders must be >= 1, got 0$"):
        make_config("synthetic", {"grid_orders": 0})
    with pytest.raises(ValueError, match=r"^grid points_per_order must be >= 1, got 0$"):
        make_config("pose", {"grid_points_per_order": 0})


# resolved configuration of each experiment with no file and no flags, as
# the manifest records it: the experiment and each key it reads
_MANIFEST_COMMON = [("out", "results.csv"), ("seeds", "0,1,2,3,4,5,6,7,8,9")]
_MANIFEST_SWEEP = [
    ("gamma", "auto"), ("grid_center", "auto"), ("grid_orders", "5"),
    ("grid_points_per_order", "2"), ("n_steps", "50"),
]


@pytest.mark.parametrize("experiment, specific", [
    ("synthetic", _MANIFEST_SWEEP + [("dims", "10"), ("methods", "flow,mcl"), ("n_particles", "100")]),
    ("pose", _MANIFEST_SWEEP + [("methods", "flow,gd"), ("n_particles", "80"), ("pose_points", "12"),
                                ("sigma", "0.005")]),
    ("theorem", [("dims", "3"), ("dt", "0.001"), ("eps", "0.1"), ("n_particles", "32"), ("t_end", "1.0")]),
])
def test_manifest_items_pin_resolved_defaults(experiment, specific):
    expected = sorted(_MANIFEST_COMMON + specific + [("experiment", experiment)])
    assert make_config(experiment).manifest_items() == expected


def test_manifest_items_record_explicit_values():
    items = dict(make_config("synthetic", {"gamma": 0.25, "grid_center": 1e-3},
                             {"grid_orders": 3, "dims": (5, 10)}).manifest_items())
    assert (items["gamma"], items["grid_center"], items["grid_orders"], items["dims"]) == (
        "0.25", "0.001", "3", "5,10")


def test_grid_spans_exact_orders_of_magnitude():
    for orders, ppo in [(5, 2), (3, 1), (4, 3)]:
        values = grid_values(0.37, orders, ppo)
        assert len(values) == orders * ppo + 1
        assert max(values) / min(values) == pytest.approx(10.0 ** orders, rel=1e-9)
        logs = np.log10(values)
        np.testing.assert_allclose(np.diff(logs), 1.0 / ppo, rtol=1e-9)


def test_cli_theorem_end_to_end(tmp_path, capsys):
    out = tmp_path / "theorem.csv"
    code = main([
        "theorem", "--seeds", "0,1", "--n-particles", "16",
        "--dt", "0.001", "--t-end", "1.0", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0] == ",".join(HEADER)
    assert "bound check: PASS; negative control: breaks as expected" in capsys.readouterr().out.splitlines()
    manifest = (tmp_path / "theorem.csv.manifest.txt").read_text()
    assert "rng_algorithm=philox" in manifest
    assert "library_version=" in manifest
    # theorem sweeps no grid and runs no gradient descent
    assert "gamma_resolved" not in manifest and "gd_eta_convention" not in manifest
    assert "init_distribution=standard_normal, one draw shared by both particle sets" in manifest


def test_cli_theorem_verdict_reads_the_verdict_rows(tmp_path, capsys, monkeypatch):
    # a run whose bound breaks and whose control holds prints both failures
    def verdict(metric):
        return dict(zip(HEADER, [""] * len(HEADER)), experiment="theorem", metric=metric, value="0.0")

    rows = [tuple(verdict(metric).values()) for metric in ("all_seeds_pass", "negative_control_all_fail")]
    monkeypatch.setitem(experiments.RUNNERS, "theorem", lambda config: (rows, []))
    assert main(["theorem", "--out", str(tmp_path / "theorem.csv")]) == 0
    assert "bound check: FAIL; negative control: FAILED TO BREAK" in capsys.readouterr().out.splitlines()


def test_cli_rerun_is_byte_identical(tmp_path):
    args = ["synthetic", "--dims", "4", "--n-particles", "12", "--n-steps", "6",
            "--seeds", "0,1", "--grid-orders", "2", "--grid-points-per-order", "1"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(args + ["--out", str(out_a)])
    main(args + ["--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_manifest_records_why_each_run_failed(tmp_path):
    out = tmp_path / "runs.csv"
    main(["synthetic", "--dims", "4", "--n-particles", "12", "--n-steps", "20", "--seeds", "0,1",
          "--method", "flow", "--grid-orders", "30", "--grid-points-per-order", "1",
          "--out", str(out)])
    records = [dict(zip(HEADER, line.split(","))) for line in out.read_text().splitlines()[1:]]
    failed = [r for r in records if r["metric"] == "run_failed"]
    manifest = (tmp_path / "runs.csv.manifest.txt").read_text().splitlines()
    reasons = [line for line in manifest if line.startswith("run_failed.")]
    assert failed and len(reasons) == len(failed)
    for k, (row, line) in enumerate(zip(failed, reasons), start=1):
        key, _, reason = line.partition("=")
        assert key == f"run_failed.{k}"
        where, _, message = reason.partition(": ")
        assert where == f"flow d=4 n=12 seed={row['seed']} eta={row['eta']} step={row['step']}"
        assert message


def test_cli_summarize_round_trip(tmp_path):
    runs = tmp_path / "runs.csv"
    main(["synthetic", "--dims", "4", "--n-particles", "12", "--n-steps", "4",
          "--seeds", "0,1,2", "--grid-orders", "2", "--grid-points-per-order", "1",
          "--out", str(runs)])
    summary = tmp_path / "summary.csv"
    assert main(["summarize", str(runs), "--out", str(summary)]) == 0
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("experiment,method,d,n,eta,epsilon,gamma,step,metric,mean,stderr,count")
    assert len(lines) > 1
    # every aggregated row covers the three seeds
    assert all(line.rsplit(",", 1)[1] == "3" for line in lines[1:])


@pytest.mark.parametrize("content, where, message", [
    ("", 1, "empty file, expected the header line"),
    (",".join(HEADER) + "\nsynthetic,flow,4,12\n", 2, "expected 13 cells, got 4"),
    (",".join(HEADER) + "\nsynthetic,flow,4,12,0,0.1,,0.5,1e-9,2,kl,1.0,ok\n"
     "synthetic,flow,4,12,1,0.1,,0.5,1e-9,2,kl,abc,ok\n", 3, "value 'abc' of an ok row is not a number"),
])
def test_cli_summarize_rejects_malformed_input_with_one_line(tmp_path, content, where, message):
    runs = tmp_path / "runs.csv"
    runs.write_text(content)
    with pytest.raises(SystemExit) as exc_info:
        main(["summarize", str(runs), "--out", str(tmp_path / "never.csv")])
    assert str(exc_info.value.code) == f"{runs}:{where}: {message}"
    assert not (tmp_path / "never.csv").exists()


def test_summarize_matches_manual_aggregation():
    rows = [
        ("synthetic", "flow", "4", "12", "0", "0.1", "", "0.5", "1e-9", "2", "kl", "1.0", "ok"),
        ("synthetic", "flow", "4", "12", "1", "0.1", "", "0.5", "1e-9", "2", "kl", "3.0", "ok"),
        ("synthetic", "flow", "4", "12", "2", "0.1", "", "0.5", "1e-9", "2", "kl", "2.0", "ok"),
        ("synthetic", "flow", "4", "12", "0", "0.1", "", "0.5", "", "2", "kl", "", "error"),
        ("synthetic", "flow", "4", "12", "", "0.1", "", "0.5", "", "2", "best", "2.0", "ok"),
    ]
    out = summarize_rows(rows)
    assert len(out) == 1
    record = dict(zip(("experiment", "method", "d", "n", "eta", "epsilon", "gamma",
                       "step", "metric", "mean", "stderr", "count"), out[0]))
    assert float(record["mean"]) == pytest.approx(2.0)
    assert float(record["stderr"]) == pytest.approx(1.0 / np.sqrt(3.0))
    assert record["count"] == "3"


def test_cli_rejects_bad_flag_value():
    with pytest.raises(SystemExit):
        main(["synthetic", "--n-steps", "many", "--out", "/tmp/never.csv"])


def test_cli_rejects_invalid_config_without_traceback(tmp_path):
    with pytest.raises(SystemExit, match="synthetic dims must all be >= 3"):
        main(["synthetic", "--dims", "2", "--out", str(tmp_path / "never.csv")])
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble=1\n")
    with pytest.raises(SystemExit, match="unknown key 'wibble'"):
        main(["pose", "--config", str(bad), "--out", str(tmp_path / "never.csv")])
    assert not (tmp_path / "never.csv").exists()


def test_cli_config_file_cannot_name_the_experiment(tmp_path):
    # the subcommand alone picks the experiment; a file naming another one
    # must not run silently as the subcommand
    cfg = tmp_path / "pose.cfg"
    cfg.write_text("experiment=pose\n")
    with pytest.raises(SystemExit, match=r"pose\.cfg:1: unknown key 'experiment'"):
        main(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "never.csv")])
    assert not (tmp_path / "never.csv").exists()


_SWEEP_OPTIONS = {"-h", "--help", "--config", "--n-particles", "--n-steps", "--seeds", "--method",
                  "--gamma", "--grid-center", "--grid-orders", "--grid-points-per-order", "--out"}


@pytest.mark.parametrize("command, options", [
    ("synthetic", _SWEEP_OPTIONS | {"--dims"}),
    ("pose", _SWEEP_OPTIONS | {"--pose-points", "--sigma"}),
    ("theorem", {"-h", "--help", "--config", "--dims", "--n-particles", "--seeds", "--eps",
                 "--t-end", "--dt", "--out"}),
])
def test_each_subcommand_takes_only_the_keys_it_reads(command, options):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[command]
    assert {option for action in sub._actions for option in action.option_strings} == options


@pytest.mark.parametrize("argv", [["pose", "--dims", "6"], ["theorem", "--gamma", "3"]])
def test_cli_rejects_another_experiments_flag(tmp_path, capsys, argv):
    with pytest.raises(SystemExit):
        main(argv + ["--out", str(tmp_path / "never.csv")])
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_config_file_rejects_another_experiments_key(tmp_path):
    cfg = tmp_path / "synthetic.cfg"
    cfg.write_text("n_steps=5\nsigma=9\n")
    with pytest.raises(SystemExit, match=r"^.*synthetic\.cfg:2: unknown key 'sigma'$"):
        main(["synthetic", "--config", str(cfg), "--out", str(tmp_path / "never.csv")])
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("experiment, key, value", [
    ("synthetic", "sigma", 9.0), ("synthetic", "eps", 3.0), ("pose", "dims", (10,)),
    ("theorem", "methods", ("flow", "gd")), ("theorem", "n_steps", 5),
    ("synthetic", "sigma", 0.01), ("theorem", "methods", ("flow", "mcl")),
])
def test_make_config_rejects_another_experiments_key(experiment, key, value):
    message = f"^unknown key '{key}' for the {experiment} experiment$"
    with pytest.raises(ValueError, match=message):
        make_config(experiment, overrides={key: value})
    # built directly, too: pose with dims=(10,) used to step 6-D particles
    # but write d=10 in every row and centre its eta grid at the d=10 value
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(experiment, **{key: value})
    assert ExperimentConfig(experiment) == make_config(experiment)


@pytest.mark.parametrize("flag, value, message", [
    ("--dims", "3,5", "theorem takes one dims value, got 3,5"),
    ("--n-particles", "8,16", "theorem takes one n_particles value, got 8,16"),
])
def test_cli_theorem_takes_one_value_each(tmp_path, flag, value, message):
    with pytest.raises(SystemExit) as exc_info:
        main(["theorem", flag, value, "--out", str(tmp_path / "never.csv")])
    assert str(exc_info.value.code) == message
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    # an empty method list would write a header-only CSV
    ("--method", ",", "methods must be nonempty"),
    # seeds key a dict of instances: a repeat would run once under a manifest naming it twice
    ("--seeds", "0,0", "seeds must hold distinct values, got 0,0"),
    # a repeated method would run its sweep twice and write two best_final rows
    ("--method", "flow,flow", "methods must hold distinct values, got flow,flow"),
    ("--dims", "4,4", "dims must hold distinct values, got 4,4"),
    ("--n-particles", "8,8", "n_particles must hold distinct values, got 8,8"),
])
def test_cli_rejects_empty_and_repeated_list_values(tmp_path, flag, value, message):
    with pytest.raises(SystemExit) as exc_info:
        main(["synthetic", flag, value, "--out", str(tmp_path / "never.csv")])
    assert str(exc_info.value.code) == message
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("argv, message", [
    # each used to pass the config and then stop the run with a traceback
    (["synthetic", "--seeds", "0,-1"], "seeds must all be nonnegative, got (0, -1)"),
    (["pose", "--seeds", "-1"], "seeds must all be nonnegative, got (-1,)"),
    (["theorem", "--seeds", "-1"], "seeds must all be nonnegative, got (-1,)"),
    (["theorem", "--dt", "0.01"], "dt must be at most 1e-3 * t_end, got dt=0.01, t_end=1.0"),
    (["theorem", "--t-end", "2", "--dt", "0.0021"], "dt must be at most 1e-3 * t_end, got dt=0.0021, t_end=2.0"),
    (["theorem", "--dims", "0"], "theorem dims must all be >= 1, got (0,)"),
    (["pose", "--sigma", "-0.1"], "sigma must be nonnegative, got -0.1"),
    # with no perturbation the negative control can never break, yet the
    # CLI used to exit 0
    (["theorem", "--eps", "0"], "eps must be positive, got 0.0"),
    (["theorem", "--eps", "-0.1"], "eps must be positive, got -0.1"),
    # non-finite values: a NaN eps passed every bound check, the others
    # stopped or failed every run with a message about something else
    (["theorem", "--eps", "nan", "--seeds", "0"], "eps must be positive, got nan"),
    (["theorem", "--eps", "inf"], "eps must be finite, got inf"),
    (["theorem", "--t-end", "inf"], "t_end and dt must be positive and t_end finite, got t_end=inf, dt=0.001"),
    (["pose", "--sigma", "nan"], "sigma must be nonnegative, got nan"),
    (["pose", "--sigma", "inf"], "sigma must be finite, got inf"),
    # long horizons: the squared distances overflow, or exp(L_F * t) does
    (["theorem", "--t-end", "1000", "--dt", "1", "--seeds", "0"],
     "matched distance is not finite (inf) at checkpoint time t=530"),
    (["theorem", "--eps", "1e-100", "--t-end", "1000", "--dt", "1", "--seeds", "0"],
     "exp(L_F * t) overflows at L_F * t = 710"),
])
def test_cli_rejects_out_of_range_values(tmp_path, argv, message):
    with pytest.raises(SystemExit) as exc_info:
        main(argv + ["--out", str(tmp_path / "never.csv")])
    assert str(exc_info.value.code) == message
    assert not (tmp_path / "never.csv").exists()


def test_dt_rule_admits_a_thousandth_of_t_end():
    # the rule's 1e-7 relative tolerance passes dt = t_end / 1000 after rounding
    assert make_config("theorem", {"t_end": 0.3, "dt": 0.3 / 1000}).dt == 0.3 / 1000


def test_pose_manifest_records_the_grid_it_ran(tmp_path):
    out = tmp_path / "pose.csv"
    main(["pose", "--n-particles", "4", "--n-steps", "2", "--seeds", "0", "--method", "flow",
          "--grid-orders", "2", "--grid-points-per-order", "1", "--out", str(out)])
    records = [dict(zip(HEADER, line.split(","))) for line in out.read_text().splitlines()[1:]]
    etas = sorted({float(r["eta"]) for r in records if r["seed"] != ""})
    assert len(etas) == 3 and {r["d"] for r in records} == {"6"}
    lines = (tmp_path / "pose.csv.manifest.txt").read_text().splitlines()
    manifest = dict(line.split("=", 1) for line in lines if not line.startswith("#"))
    center = float(manifest["grid_center_resolved.flow.d6"])
    assert center == pytest.approx(np.sqrt(etas[0] * etas[-1]), rel=1e-12)
    assert manifest["gamma_resolved.d6"] == "8.0"
    assert manifest["init_distribution"] == "translations N(0, 0.3^2) per axis, uniform rotations"
    assert "gd_eta_convention" not in manifest and "dims" not in manifest


@pytest.mark.parametrize("gamma, orders, what", [
    ("1e-100", "1", "gradient coefficient C * gamma**(2-d) overflows (gamma=1e-100, dim=10)"),
    # a coefficient of 0 and a subnormal one: 1 / coefficient is not finite
    ("1e100", "1", "gradient coefficient C * gamma**(2-d) = 0.0 is too small for an automatic "
                   "eta grid center (gamma=1e+100, dim=10)"),
    ("3e38", "1", "is too small for an automatic eta grid center (gamma=3e+38, dim=10)"),
    # a finite center (about 2e306) whose grid edge overflows
    ("1e38", "10", "a grid of 10 orders around 2.04"),
])
def test_cli_unusable_eta_grid_exits_with_one_line(tmp_path, gamma, orders, what):
    # the automatic eta grid center divides by C * gamma**(2-d)
    with pytest.raises(SystemExit) as exc_info:
        main(["synthetic", "--dims", "10", "--n-particles", "4", "--n-steps", "2", "--seeds", "0",
              "--gamma", gamma, "--grid-orders", orders, "--out", str(tmp_path / "never.csv")])
    message = str(exc_info.value.code)
    assert what in message and "\n" not in message
    assert not (tmp_path / "never.csv").exists()


def test_cli_gradient_coefficient_overflow_fails_flow_runs(tmp_path):
    # with an explicit grid center every flow run fails at its first step
    out = tmp_path / "runs.csv"
    main(["synthetic", "--dims", "10", "--n-particles", "4", "--n-steps", "2", "--seeds", "0",
          "--gamma", "1e-100", "--grid-orders", "1", "--grid-center", "1.0",
          "--method", "flow", "--out", str(out)])
    records = [dict(zip(HEADER, line.split(","))) for line in out.read_text().splitlines()[1:]]
    failed = [r for r in records if r["metric"] == "run_failed"]
    assert len(failed) == 3 and all(r["step"] == "1" for r in failed)
    manifest = (tmp_path / "runs.csv.manifest.txt").read_text().splitlines()
    reasons = [line for line in manifest if line.startswith("run_failed.")]
    assert len(reasons) == 3
    assert all(line.endswith("step=1: gradient coefficient C * gamma**(2-d) overflows "
                             "(gamma=1e-100, dim=10)") for line in reasons)


def test_start_up_and_every_protocol_load_no_scipy(tmp_path):
    # scipy.linalg alone takes about 260 ms of start-up, scipy.spatial's
    # Rotation about 400 ms in the pose protocol, and scipy.optimize's
    # assignment solver about 300 ms in the theorem protocol; no protocol
    # imports scipy. The third call is a gd run whose stacked KL overflows
    # at step 17, so `_drop_failing` ends that member's KL series there and
    # the step becomes a kl_error row. A subprocess, since the test oracles
    # import scipy into this interpreter.
    code = textwrap.dedent(f"""
        import sys
        import particleflow.cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        print(scipy_modules())
        particleflow.cli.main(["synthetic", "--dims", "4", "--n-particles", "8", "--n-steps", "3",
                               "--method", "flow,mcl", "--grid-orders", "1",
                               "--grid-points-per-order", "1", "--seeds", "0",
                               "--out", {str(tmp_path / "synthetic.csv")!r}])
        print(scipy_modules())
        particleflow.cli.main(["pose", "--n-particles", "8", "--n-steps", "3",
                               "--method", "flow,gd", "--grid-orders", "1",
                               "--grid-points-per-order", "1", "--seeds", "0",
                               "--out", {str(tmp_path / "pose.csv")!r}])
        print(scipy_modules())
        particleflow.cli.main(["synthetic", "--dims", "4", "--n-particles", "12", "--n-steps", "20",
                               "--method", "gd", "--grid-orders", "30",
                               "--grid-points-per-order", "1", "--seeds", "1",
                               "--out", {str(tmp_path / "fallback.csv")!r}])
        print(scipy_modules())
        particleflow.cli.main(["theorem", "--seeds", "0", "--out", {str(tmp_path / "theorem.csv")!r}])
        print(scipy_modules())
    """)
    src = str(Path(particleflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = [line for line in proc.stdout.splitlines() if not line.startswith(("wrote ", "bound check: "))]
    assert lines == ["[]"] * 5, ("loaded by import particleflow.cli, a synthetic or pose call, "
                                 "the KL series' recovery or a theorem call")
    assert (tmp_path / "fallback.csv").read_text().count(",kl_error\n") == 1
    for name in ("synthetic", "pose", "fallback", "theorem"):
        manifest = (tmp_path / f"{name}.csv.manifest.txt").read_text().splitlines()
        header = dict(line[2:].split("=", 1) for line in manifest if line.startswith("# "))
        assert header["scipy"] == "not loaded"
        assert {"numpy", "blas", "nproc", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"} <= header.keys()


def test_csvs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS reads its thread count once, at load, so each count gets its
    # own interpreter; the variable is set only in the child's environment
    code = textwrap.dedent("""
        import sys
        import particleflow.cli

        out = sys.argv[1]
        grid = ["--n-steps", "20", "--seeds", "0", "--grid-orders", "1", "--grid-points-per-order", "1"]
        particleflow.cli.main(["synthetic", "--dims", "10,50", *grid, "--out", out + "/synthetic.csv"])
        # 11 stacked grid runs of 80 particles: 880-row GEMMs per step
        particleflow.cli.main(["pose", "--n-steps", "20", "--seeds", "0", "--n-particles", "80",
                               "--grid-orders", "5", "--grid-points-per-order", "2", "--out", out + "/pose.csv"])
    """)
    src = str(Path(particleflow.__file__).resolve().parent.parent)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True, check=True)
        outputs[threads] = {name: (out / name).read_bytes() for name in ("synthetic.csv", "pose.csv")}
    assert [text.count(b"\n") for text in outputs["1"].values()] == [677, 927]
    assert outputs["1"] == outputs["2"]
