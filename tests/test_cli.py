import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from grenboot import LimitSimConfig, cli
from grenboot.cli import (_json_text, _writes_outputs, build_parser, main,
                          read_observations)


def run_cli(args):
    """Invoke the CLI in-process; returns the exit code."""
    return main([str(a) for a in args])


def test_import_skips_scipy_stats_and_integrate():
    # both cost start-up that most commands never use
    code = ("import sys, grenboot.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.strip() == "[]"


# -- gen ---------------------------------------------------------------------


def test_gen_basic(tmp_path):
    out = tmp_path / "d.txt"
    assert run_cli(["gen", "--density", "triangular", "--n", 5, "--seed", 1,
                    "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    vals = [float(x) for x in lines]
    assert len(vals) == 5
    assert vals == sorted(vals)
    assert all(0 <= v <= 1 for v in vals)
    assert (tmp_path / "d.txt.manifest.json").exists()


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(["gen", "--density", "trunc-exp", "--rate", 2.0, "--n", 50,
             "--seed", 7, "--out", a])
    run_cli(["gen", "--density", "trunc-exp", "--rate", 2.0, "--n", 50,
             "--seed", 7, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_gen_uniform_ks(tmp_path):
    out = tmp_path / "u.txt"
    run_cli(["gen", "--density", "uniform", "--n", 10000, "--seed", 3,
             "--out", out])
    vals = np.array([float(x) for x in out.read_text().split()])
    assert stats.kstest(vals, "uniform").pvalue > 0.01


def test_gen_needs_one_point(tmp_path, capsys):
    assert run_cli(["gen", "--density", "triangular", "--n", 0, "--seed", 1,
                    "--out", tmp_path / "x.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "n must be" in err
    assert not list(tmp_path.iterdir())


def test_gen_unknown_density(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli(["gen", "--density", "cauchy", "--n", 5, "--seed", 1,
                 "--out", tmp_path / "x.txt"])
    assert exit_.value.code == 2
    assert ("argument --density: invalid choice: 'cauchy' (choose from "
            "'uniform', 'triangular', 'trunc-exp')") in capsys.readouterr().err


# -- fit ---------------------------------------------------------------------


def test_fit_two_point_example(tmp_path):
    data = tmp_path / "d.txt"
    data.write_text("# comment line\n0.25\n\n0.75\n")
    assert run_cli(["fit", "--data", data, "--out", tmp_path / "fit"]) == 0
    rows = (tmp_path / "fit.csv").read_text().strip().split("\n")
    assert rows[0] == "breakpoint,height"
    parsed = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
    assert parsed == [(0.25, 2.0), (0.75, 1.0), (1.0, 0.0)]
    summary = json.loads((tmp_path / "fit.json").read_text())
    assert summary["n"] == 2
    assert abs(summary["mass"] - 1.0) < 1e-12


def test_fit_empty_file_fails(tmp_path):
    data = tmp_path / "e.txt"
    data.write_text("# nothing but comments\n\n")
    assert run_cli(["fit", "--data", data, "--out", tmp_path / "fit"]) == 1


def test_fit_bad_line_reports_position(tmp_path, capsys):
    data = tmp_path / "bad.txt"
    data.write_text("0.5\n0.9\nbogus\n")
    code = run_cli(["fit", "--data", data, "--out", tmp_path / "fit"])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_fit_out_of_range_line(tmp_path, capsys):
    data = tmp_path / "oob.txt"
    data.write_text("0.5\n1.5\n")
    assert run_cli(["fit", "--data", data, "--out", tmp_path / "fit"]) == 1
    assert "line 2" in capsys.readouterr().err


def test_read_observations_names_first_bad_line_in_file_order(tmp_path):
    data = tmp_path / "bad.txt"
    data.write_text("# header\n1.5\n\nbogus\n0.5\n")
    with pytest.raises(ValueError) as err:
        read_observations(str(data))
    assert str(err.value) == "line 2 of %s: value 1.5 outside [0, 1]" % data
    data.write_text("0.5\n\n0.25\nbogus\n1.5\n")
    with pytest.raises(ValueError) as err:
        read_observations(str(data))
    assert str(err.value) == "line 4 of %s: not a decimal value: 'bogus'" % data


def test_read_observations_rescale_is_bit_identical(tmp_path):
    texts = ["0.1", "7.9", "3.3333333333333335", "8", "0", "5.55e-1"]
    data = tmp_path / "wide.txt"
    data.write_text("\n".join(["# raw"] + texts) + "\n")
    got = read_observations(str(data), rescale=(0, 8)).values
    want = sorted((float(s) - 0.0) / 8.0 for s in texts)
    assert got.tobytes() == np.array(want).tobytes()


def test_fit_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    # spreadsheet tools start UTF-8 text files with the mark
    text = "0.5\n0.25\n# comment\n0.8\n0.125\n"
    (tmp_path / "plain.txt").write_text(text, encoding="utf-8")
    (tmp_path / "bom.txt").write_text(text, encoding="utf-8-sig")
    for name in ("plain", "bom"):
        assert run_cli(["fit", "--data", tmp_path / (name + ".txt"),
                        "--smooth-grid", 11, "--out", tmp_path / name]) == 0
    for suffix in (".json", ".csv", ".smooth.csv"):
        assert ((tmp_path / ("bom" + suffix)).read_bytes()
                == (tmp_path / ("plain" + suffix)).read_bytes())
    # the manifest digests the raw bytes, mark included
    for name in ("plain", "bom"):
        manifest = json.loads(
            (tmp_path / (name + ".manifest.json")).read_text())
        raw = (tmp_path / (name + ".txt")).read_bytes()
        assert list(manifest["input_digests"].values()) == [
            hashlib.sha256(raw).hexdigest()]


def test_fit_rescale(tmp_path):
    data = tmp_path / "wide.txt"
    data.write_text("2.0\n6.0\n")
    assert run_cli(["fit", "--data", data, "--rescale", 0, 8,
                    "--out", tmp_path / "fit"]) == 0
    rows = (tmp_path / "fit.csv").read_text().strip().split("\n")[1:]
    first = float(rows[0].split(",")[0])
    assert first == 0.25


def test_fit_smooth_grid_dump(tmp_path):
    run_cli(["gen", "--density", "triangular", "--n", 200, "--seed", 5,
             "--out", tmp_path / "d.txt"])
    assert run_cli(["fit", "--data", tmp_path / "d.txt", "--smooth-grid", 41,
                    "--out", tmp_path / "fit"]) == 0
    lines = (tmp_path / "fit.smooth.csv").read_text().strip().split("\n")
    assert lines[0] == "t,value,deriv1,deriv2"
    assert len(lines) == 42
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.0
    assert all(len(c) > 0 for c in cells)


def test_fit_pointwise_regime_uses_pointwise_defaults(tmp_path):
    run_cli(["gen", "--density", "triangular", "--n", 200, "--seed", 5,
             "--out", tmp_path / "d.txt"])
    for out, flags in (("implicit", []),
                       ("explicit", ["--kernel", "epanechnikov",
                                     "--alpha", 0.3])):
        assert run_cli(["fit", "--data", tmp_path / "d.txt", "--smooth-grid",
                        41, "--regime", "pointwise", "--out", tmp_path / out]
                       + flags) == 0
    assert ((tmp_path / "implicit.smooth.csv").read_bytes()
            == (tmp_path / "explicit.smooth.csv").read_bytes())
    params = json.loads(
        (tmp_path / "implicit.manifest.json").read_text())["parameters"]
    assert (params["kernel"], params["alpha"]) == ("epanechnikov", 0.3)


# -- ci ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "tri.txt"
    run_cli(["gen", "--density", "triangular", "--n", 300, "--seed", 11,
             "--out", d])
    return d


def test_ci_output_contract(data_file, tmp_path):
    assert run_cli(["ci", "--data", data_file, "--t0", 0.5, "--boot", 40,
                    "--seed", 2, "--out", tmp_path / "ci"]) == 0
    summary = json.loads((tmp_path / "ci.json").read_text())
    assert {"lower", "upper", "grenander_value", "smoothed_value"} <= set(summary)
    assert summary["lower"] <= summary["upper"]
    csv_lines = (tmp_path / "ci.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "replicate,deviation"
    assert len(csv_lines) == 41


def test_ci_alpha_regime_usage_error(data_file, tmp_path):
    assert run_cli(["ci", "--data", data_file, "--t0", 0.5, "--alpha", 0.4,
                    "--boot", 40, "--seed", 2, "--out", tmp_path / "ci"]) == 2


def test_ci_byte_identical_rerun(data_file, tmp_path):
    for tag in ("x", "y"):
        run_cli(["ci", "--data", data_file, "--t0", 0.5, "--boot", 40,
                 "--seed", 2, "--out", tmp_path / tag])
    assert ((tmp_path / "x.json").read_bytes()
            == (tmp_path / "y.json").read_bytes())
    assert ((tmp_path / "x.csv").read_bytes()
            == (tmp_path / "y.csv").read_bytes())


def test_full_precision_floats(data_file, tmp_path):
    run_cli(["ci", "--data", data_file, "--t0", 0.5, "--boot", 40,
             "--seed", 2, "--out", tmp_path / "ci"])
    summary = json.loads((tmp_path / "ci.json").read_text())
    # repr round-trip: parsing the serialized value reproduces the float
    text = (tmp_path / "ci.json").read_text()
    again = json.loads(text)
    assert again["lower"] == summary["lower"]
    csv_val = (tmp_path / "ci.csv").read_text().strip().split("\n")[1].split(",")[1]
    assert float(csv_val) == float(repr(float(csv_val)))


# -- band ---------------------------------------------------------------------


def test_band_radius_recomputable(data_file, tmp_path):
    assert run_cli(["band", "--data", data_file, "--boot", 60, "--m", 3000,
                    "--seed", 4, "--out", tmp_path / "b"]) == 0
    s = json.loads((tmp_path / "b.json").read_text())
    n = s["n"]
    recomputed = s["mu_hat"] / n ** (1 / 3) + s["c_critical"] / np.sqrt(n)
    assert abs(s["radius"] - recomputed) < 1e-15


def test_band_m_usage_error(data_file, tmp_path):
    assert run_cli(["band", "--data", data_file, "--boot", 60, "--m", 100,
                    "--seed", 4, "--out", tmp_path / "b"]) == 2


def test_band_kernel_gate(data_file, tmp_path):
    assert run_cli(["band", "--data", data_file, "--kernel", "epanechnikov",
                    "--boot", 60, "--m", 3000, "--seed", 4,
                    "--out", tmp_path / "b"]) == 2


@pytest.mark.parametrize("command", [
    ["fit"], ["ci", "--t0", 0.5], ["band"], ["experiment", "coverage"],
], ids=["fit", "ci", "band", "experiment"])
def test_unknown_kernel_is_usage_error(command, data_file, tmp_path, capsys):
    # the kernel registry is the one check of a kernel name
    data = [] if command[0] == "experiment" else ["--data", data_file]
    seed = [] if command[0] == "fit" else ["--seed", 1]
    assert run_cli(command + data + seed + [
        "--kernel", "nosuch", "--out", tmp_path / "k"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown kernel 'nosuch'")
    assert "biweight" in err and "epanechnikov" in err
    assert not list(tmp_path.glob("k*"))


# -- limits ---------------------------------------------------------------------


def test_limits_output_and_reproducibility(tmp_path):
    args = ["limits", "--delta", 0.02, "--window", 2.0, "--paths", 300,
            "--lag-max", 5.0, "--lag-step", 0.5, "--batches", 10,
            "--seed", 6]
    assert run_cli(args + ["--out", tmp_path / "l1_"]) == 0
    assert run_cli(args + ["--out", tmp_path / "l2_"]) == 0
    a = json.loads((tmp_path / "l1_.json").read_text())
    b = json.loads((tmp_path / "l2_.json").read_text())
    assert a == b
    for key in ("chernoff_abs_mean", "chernoff_var", "l1_variance"):
        assert key in a and key + "_se" in a
        assert a[key + "_se"] > 0


def test_limits_check_scaling(tmp_path):
    assert run_cli(["limits", "--delta", 0.01, "--window", 2.0, "--paths",
                    300, "--lag-max", 5.0, "--lag-step", 0.5, "--batches", 10,
                    "--seed", 6, "--check-scaling", "--scaling-paths", 2000,
                    "--out", tmp_path / "ls"]) == 0
    s = json.loads((tmp_path / "ls.json").read_text())
    assert "scaling" in s
    assert 1.2 < s["scaling"]["ratio"] < 2.0
    assert s["scaling"]["ratio_theory"] == 2 ** (2 / 3)
    assert s["scaling"]["half_width"] == 2.0


def test_scaling_check_scans_the_window(tmp_path):
    # a window that is a multiple of the step, where the scaling check's own
    # default width of 3 was not, exited 2 naming a flag nobody set
    assert run_cli(["limits", "--delta", 0.007, "--window", 2.1, "--lag-max",
                    2.1, "--lag-step", 0.7, "--paths", 200, "--batches", 10,
                    "--check-scaling", "--scaling-paths", 100, "--seed", 1,
                    "--out", tmp_path / "l"]) == 0
    s = json.loads((tmp_path / "l.json").read_text())
    assert s["scaling"]["half_width"] == 2.1


def test_limits_defaults_are_the_config_defaults(monkeypatch):
    # each limits flag's dest, and the LimitSimConfig field it sets
    fields = {"delta": "step", "window": "window", "paths": "n_paths",
              "lag_max": "lag_max", "lag_step": "lag_step",
              "batches": "n_batches"}

    def defaults():
        args = build_parser().parse_args(["limits", "--seed", "1",
                                          "--out", "l"])
        return {dest: getattr(args, dest) for dest in fields}

    config = LimitSimConfig()
    assert defaults() == {dest: getattr(config, field)
                          for dest, field in fields.items()}
    # read off the class, not restated: they follow a change there
    for field in fields.values():
        monkeypatch.setattr(LimitSimConfig, field,
                            2 * getattr(LimitSimConfig, field))
    assert defaults() == {dest: 2 * getattr(config, field)
                          for dest, field in fields.items()}


# each message names the flag in place of the library parameter that the
# case's id names
@pytest.mark.parametrize("flags,message", [
    (["--window", "inf"], "--window must"),
    (["--delta", "nan"], "--delta must"),
    (["--lag-max", -1], "--lag-max must"),
    (["--lag-max", 0], "--lag-max must"),
    (["--check-scaling", "--scaling-paths", 1], "--scaling-paths must"),
    (["--check-scaling", "--scaling-paths", 0], "--scaling-paths must"),
    (["--window", "1e-10"], "--window must"),
    (["--lag-step", "1e-10", "--lag-max", "1e-10"], "--lag-step must"),
    (["--paths", "300", "--batches", "400"], "--paths must"),
], ids=["flags0-window", "flags1-step", "flags2-lag_max", "flags3-lag_max",
        "flags4-n_paths", "flags5-n_paths", "flags7-window",
        "flags8-lag_step", "flags9-n_paths"])
def test_limits_bad_flags_are_usage_errors(flags, message, tmp_path, capsys):
    assert run_cli(["limits", "--delta", 0.01, "--window", 2.0, "--paths",
                    300, "--lag-max", 5.0, "--lag-step", 0.5, "--batches",
                    10, "--seed", 6] + flags + ["--out", tmp_path / "l"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: " + message)
    assert not (tmp_path / "l.json").exists()


# each used to exit 0 with NaN in its JSON
@pytest.mark.parametrize("argv,message", [
    ("experiment rate --n-grid 100,200 --replicates 2 --t0 1 --seed 1",
     "--t0 must lie in (0, 1), got 1.0"),
    ("limits --paths 30 --batches 20 --delta 0.01 --window 2 --lag-max 1 "
     "--lag-step 0.5 --seed 1", "--paths must be an integer >= 40, got 30"),
], ids=["rate-t0", "limits-batches"])
def test_inputs_that_gave_nan_are_usage_errors(argv, message, tmp_path,
                                               capsys):
    assert main(argv.split() + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "usage error: %s\n" % message
    assert not list(tmp_path.iterdir())


def test_decreasing_n_grid_is_usage_error(tmp_path, capsys):
    assert main("experiment rate --n-grid 300,100 --replicates 2 --seed 1 "
                "--out".split() + [str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "usage error: --n-grid must be strictly increasing\n")
    assert not list(tmp_path.iterdir())


def test_usage_error_raised_inside_the_replicates(tmp_path, capsys,
                                                 monkeypatch):
    # the coverage experiment checks the level inside each replicate; the
    # map runs replicate 0 in the caller before it forks, so the error ends
    # the run before any worker exists, and the message still names the flag
    def no_fork():
        raise AssertionError("forked before the level was checked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli(["experiment", "coverage", "--n", 30, "--replicates", 2,
                    "--boot", 20, "--level", 1.5, "--seed", 1, "--threads", 2,
                    "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == (
        "usage error: --level must lie in (0, 1), got 1.5\n")
    assert not list(tmp_path.iterdir())


def test_result_json_is_strict():
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_text({"slope": float("nan")})


def test_writer_opens_no_file_when_the_manifest_fails(tmp_path):
    # the manifest, which records every parameter, is built before the
    # first file opens
    @_writes_outputs
    def cmd(args):
        return [], [(".json", _json_text({"ok": 1})), (".csv", "a\n1\n")]

    args = argparse.Namespace(out=str(tmp_path / "o"), subcommand="x",
                              seed=None, width=float("nan"))
    with pytest.raises(ValueError, match="not JSON compliant"):
        cmd(args)
    assert not list(tmp_path.iterdir())


# each run refuses its flag as unread, but main checks every float flag
# first, so a non-finite value is named as such wherever it is set
@pytest.mark.parametrize("argv,message", [
    ("gen --density triangular --rate nan --n 5 --seed 1",
     "--rate must be finite, got nan"),
    ("experiment coverage --band --n 30 --replicates 1 --boot 50 --m 300 "
     "--t0 nan --seed 1", "--t0 must be finite, got nan"),
    ("experiment l1clt --n 20 --replicates 2 --alpha nan --seed 1 "
     "--limits {limits}", "--alpha must be finite, got nan"),
    ("experiment inconsistency --n 20 --replicates 2 --level inf --seed 1 "
     "--limits {limits}", "--level must be finite, got inf"),
], ids=["gen-rate", "coverage-band-t0", "l1clt-alpha",
        "inconsistency-level"])
def test_non_finite_float_flag_is_usage_error(argv, message, limits_file,
                                              tmp_path, capsys):
    assert main(argv.format(limits=limits_file).split()
                + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "usage error: %s\n" % message
    assert not list(tmp_path.iterdir())


def test_lag_grid_must_end_at_lag_max(tmp_path, capsys):
    # the grid 0, 0.3, 0.6, 0.9 reported its covariance at 0.9 as lag_max's
    assert run_cli(["limits", "--delta", 0.1, "--window", 3, "--paths", 40,
                    "--batches", 2, "--lag-max", 1.0, "--lag-step", 0.3,
                    "--seed", 1, "--out", tmp_path / "l"]) == 2
    assert capsys.readouterr().err == (
        "usage error: --lag-max must be a positive multiple of lag_step 0.3, "
        "got 1.0\n")
    assert not list(tmp_path.iterdir())


def test_scaling_draws_without_spread_are_usage_error(tmp_path, capsys):
    # every doubled draw lands on 0, so the variance ratio would divide by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([
            "limits", "--delta", 0.5, "--window", 3, "--paths", 4,
            "--batches", 2, "--lag-max", 0.5, "--lag-step", 0.5,
            "--check-scaling", "--scaling-paths", 2,
            "--seed", 6, "--out", tmp_path / "l"]) == 2
    assert capsys.readouterr().err == (
        "usage error: --scaling-paths is too small: every doubled draw is "
        "0.0, so the variance ratio is undefined\n")
    assert not list(tmp_path.iterdir())


# -- experiments -------------------------------------------------------------------


@pytest.fixture(scope="module")
def limits_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("lim") / "lim"
    run_cli(["limits", "--delta", 0.01, "--window", 2.0, "--paths", 2000,
             "--lag-max", 5.0, "--lag-step", 0.5, "--batches", 10,
             "--seed", 8, "--threads", 4, "--out", out])
    return str(out) + ".json"


def test_experiment_requires_limits_file(tmp_path):
    assert run_cli(["experiment", "inconsistency", "--n", 50,
                    "--replicates", 10, "--seed", 9,
                    "--out", tmp_path / "e"]) == 2


def test_experiment_unknown_name(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli(["experiment", "nosuch", "--seed", 9,
                 "--out", tmp_path / "e"])
    assert exit_.value.code == 2
    assert ("argument name: invalid choice: 'nosuch' (choose from "
            "'coverage', 'inconsistency', 'rate', 'l1clt')"
            in capsys.readouterr().err)


def test_experiment_inconsistency_smoke(limits_file, tmp_path):
    assert run_cli(["experiment", "inconsistency", "--n", 100,
                    "--replicates", 30, "--seed", 9, "--threads", 4,
                    "--limits", limits_file, "--out", tmp_path / "e"]) == 0
    s = json.loads((tmp_path / "e.json").read_text())
    assert "ratio" in s and "independence_corr" in s
    rows = (tmp_path / "e.csv").read_text().strip().split("\n")
    assert len(rows) == 31


def test_experiment_coverage_smoke(tmp_path):
    assert run_cli(["experiment", "coverage", "--n", 80, "--replicates", 6,
                    "--boot", 30, "--seed", 12, "--threads", 4,
                    "--out", tmp_path / "c"]) == 0
    s = json.loads((tmp_path / "c.json").read_text())
    assert 0.0 <= s["coverage"] <= 1.0


def test_experiment_band_coverage_default_m(tmp_path):
    # the default --m of 20000 fell below the band's 10n floor once n > 2000
    assert run_cli(["experiment", "coverage", "--band", "--n", 2001,
                    "--replicates", 1, "--boot", 50, "--seed", 1,
                    "--out", tmp_path / "c"]) == 0
    s = json.loads((tmp_path / "c.json").read_text())
    assert s["m"] == 89510 == math.ceil(2001 ** 1.5)


@pytest.mark.parametrize("argv", [
    ["coverage", "--band", "--m", 800, "--n", 80, "--boot", 50],
    ["rate", "--n-grid", "100,200"],
], ids=["coverage-band", "rate"])
def test_experiment_kernel_gate(argv, tmp_path, capsys):
    assert run_cli(["experiment"] + argv + [
        "--kernel", "epanechnikov", "--replicates", 2, "--seed", 12,
        "--out", tmp_path / "k"]) == 2
    assert "l1-level conditions" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needs_limits", [
    (["coverage", "--n", 60, "--boot", 20, "--replicates", 0], False),
    (["rate", "--replicates", 0], False),
    (["rate", "--n-grid", "", "--replicates", 2], False),
    (["rate", "--n-grid", 1000, "--replicates", 2], False),
    (["inconsistency", "--n", 60, "--replicates", 1], True),
    (["l1clt", "--n", 60, "--replicates", 1], True),
    (["inconsistency", "--replicates", 5, "--n", 1], True),
    (["inconsistency", "--n", 60, "--replicates", 5, "--density", "uniform"],
     True),
], ids=["coverage-0", "rate-0", "rate-no-grid", "rate-one-size",
        "inconsistency-1", "l1clt-1", "inconsistency-n1",
        "inconsistency-flat"])
def test_experiment_too_few_replicates_or_sizes(argv, needs_limits,
                                                limits_file, tmp_path,
                                                capsys):
    limits = ["--limits", limits_file] if needs_limits else []
    assert run_cli(["experiment"] + argv + limits + [
        "--seed", 12, "--out", tmp_path / "e"]) == 2
    err = capsys.readouterr().err
    # refused for its value, not for a flag the run does not read
    assert err.startswith("usage error:") and "does not read" not in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("argv", [
    ["--smooth-grid", -5],
    ["--smooth-grid", 1],
    ["--smooth-grid", 11, "--kernel", "foo"],
    ["--smooth-grid", 11, "--alpha", 0.5],
], ids=["-5", "1", "kernel-foo", "alpha-0.5"])
def test_fit_smooth_grid_needs_two_points(argv, data_file, tmp_path, capsys):
    assert run_cli(["fit", "--data", data_file, "--out", tmp_path / "f"]
                   + argv) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not list(tmp_path.glob("f.*"))


@pytest.mark.parametrize("scale", ["inf", "nan", "0"])
def test_fit_bad_scale_is_usage_error(scale, data_file, tmp_path, capsys):
    # an infinite scale used to clamp every bandwidth to 1/2 and exit 0
    assert run_cli(["fit", "--data", data_file, "--smooth-grid", 11,
                    "--scale", scale, "--out", tmp_path / "f"]) == 2
    err = capsys.readouterr().err
    if scale == "0":
        assert err.startswith("usage error: --scale must be positive and "
                              "finite")
    else:
        assert err == "usage error: --scale must be finite, got %s\n" % scale
    assert not list(tmp_path.glob("f.*"))


def test_limits_file_missing_keys_named(limits_file, tmp_path, capsys):
    with open(limits_file) as fh:
        d = json.load(fh)
    for key in ("chernoff_var", "n_batches", "lag_grid"):
        del d[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run_cli(["experiment", "inconsistency", "--n", 60,
                    "--replicates", 10, "--seed", 9, "--limits", bad,
                    "--out", tmp_path / "e"]) == 1
    # lag_grid has a default, so only the other two are missing
    assert capsys.readouterr().err.strip().endswith(
        "keys chernoff_var, n_batches")


# each exited 1 with a bare arithmetic or JSON error, or, for -1, exited 0
# with a negative variance ratio
@pytest.mark.parametrize("key,value,code,message", [
    (None, 5, 1, "error: limit constants must be a JSON object, not int"),
    ("chernoff_var", 0, 2, "usage error: the limit constants' chernoff_var "
     "must be positive, got 0"),
    ("chernoff_var", -1, 2, "usage error: the limit constants' chernoff_var "
     "must be positive, got -1"),
    ("chernoff_var", "0.26", 1, "error: the limit constants' chernoff_var "
     "must be a finite number, got '0.26'"),
    ("chernoff_abs_mean", float("nan"), 1, "error: the limit constants' "
     "chernoff_abs_mean must be a finite number, got nan"),
    ("n_paths", True, 1, "error: the limit constants' n_paths must be an "
     "integer, got True"),
    ("lag_grid", [0.0, "x"], 1, "error: the limit constants' lag_grid must "
     "be a list of finite numbers, got [0.0, 'x']"),
], ids=["not-an-object", "var-0", "var-negative", "var-str", "abs-mean-nan",
        "n-paths-bool", "lag-grid-str"])
def test_bad_constants_are_refused_naming_the_key(key, value, code, message,
                                                  limits_file, tmp_path,
                                                  capsys):
    with open(limits_file) as fh:
        d = json.load(fh)
    # no key: the value is the whole file
    d = value if key is None else {**d, key: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run_cli(["experiment", "inconsistency", "--n", 20,
                    "--replicates", 4, "--seed", 9, "--limits", bad,
                    "--out", tmp_path / "e"]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not list(tmp_path.glob("e*"))


def test_constants_file_that_starts_with_a_byte_order_mark(limits_file,
                                                           tmp_path):
    raw = b"\xef\xbb\xbf" + open(limits_file, "rb").read()
    bom = tmp_path / "bom.json"
    bom.write_bytes(raw)
    for name, constants in (("plain", limits_file), ("bom", bom)):
        assert run_cli(["experiment", "inconsistency", "--n", 40,
                        "--replicates", 10, "--seed", 9, "--threads", 1,
                        "--limits", constants,
                        "--out", tmp_path / name]) == 0
    for suffix in (".json", ".csv"):
        assert ((tmp_path / ("bom" + suffix)).read_bytes()
                == (tmp_path / ("plain" + suffix)).read_bytes())
    # the manifest digests the raw bytes, mark included
    manifest = json.loads((tmp_path / "bom.manifest.json").read_text())
    assert manifest["input_digests"] == {
        str(bom): hashlib.sha256(raw).hexdigest()}


def test_experiment_l1clt_smoke(limits_file, tmp_path):
    assert run_cli(["experiment", "l1clt", "--n", 100, "--replicates", 20,
                    "--seed", 13, "--threads", 4, "--limits", limits_file,
                    "--out", tmp_path / "z"]) == 0
    s = json.loads((tmp_path / "z.json").read_text())
    assert "ks_pvalue" in s


# -- manifests and cross-thread determinism -------------------------------------------


def test_manifest_contents(data_file, tmp_path):
    run_cli(["ci", "--data", data_file, "--t0", 0.5, "--boot", 40,
             "--seed", 2, "--out", tmp_path / "ci"])
    man = json.loads((tmp_path / "ci.manifest.json").read_text())
    assert man["tool"] == "grenboot"
    assert man["subcommand"] == "ci"
    assert man["seed"] == 2
    assert str(data_file) in man["input_digests"]
    assert len(man["input_digests"][str(data_file)]) == 64
    assert "wall_clock_seconds" in man
    assert man["parameters"]["boot"] == 40


def test_manifest_stable_minus_wall_clock(data_file, tmp_path):
    for tag in ("m1", "m2"):
        run_cli(["ci", "--data", data_file, "--t0", 0.5, "--boot", 40,
                 "--seed", 2, "--out", tmp_path / tag])
    a = json.loads((tmp_path / "m1.manifest.json").read_text())
    b = json.loads((tmp_path / "m2.manifest.json").read_text())
    for m in (a, b):
        m.pop("wall_clock_seconds")
        m.pop("outputs")
        m["parameters"].pop("out")
    assert a == b


def test_thread_count_does_not_change_output(data_file, tmp_path, cheap_forks,
                                            counted_forks):
    # the fork cost patched: --threads 8 forks seven children on any host
    for threads in (1, 8):
        assert run_cli(["ci", "--data", data_file, "--t0", 0.5, "--boot", 40,
                        "--seed", 2, "--threads", threads,
                        "--out", tmp_path / ("t%d" % threads)]) == 0
    assert len(counted_forks) == 7
    assert ((tmp_path / "t1.json").read_bytes()
            == (tmp_path / "t8.json").read_bytes())
    assert ((tmp_path / "t1.csv").read_bytes()
            == (tmp_path / "t8.csv").read_bytes())
    manifest = json.loads((tmp_path / "t8.manifest.json").read_text())
    assert manifest["parameters"]["threads"] == 8


def test_monte_carlo_commands_default_to_the_usable_cpus():
    # every command that maps replicates takes one default, the most workers
    # its maps may use; gen and fit map nothing and take no --threads
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    defaults = {name: p._option_string_actions.get("--threads")
                for name, p in sub.choices.items()}
    assert {name: action and action.default
            for name, action in defaults.items()} == {
        "gen": None, "fit": None, "ci": cli._usable_cpus(),
        "band": cli._usable_cpus(), "limits": cli._usable_cpus(),
        "experiment": cli._usable_cpus()}


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    # a platform without sched_getaffinity counts every CPU, or one when
    # the count is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_forked_runs_match_one_worker(cheap_forks, counted_forks, data_file,
                                      tmp_path):
    # with the fork cost patched, every map of a --threads 2 run forks one
    # child, however small the run; the files match an in-process run's
    runs = {
        "ci": (["ci", "--data", data_file, "--t0", 0.5, "--boot", 40],
               [".json", ".csv"]),
        "band": (["band", "--data", data_file, "--boot", 60, "--m", 3000],
                 [".json", ".csv"]),
        "limits": (["limits", "--delta", 0.05, "--window", 2, "--paths", 40,
                    "--lag-max", 1.0, "--lag-step", 0.25, "--batches", 2,
                    "--check-scaling", "--scaling-paths", 40], [".json"]),
        "coverage": (["experiment", "coverage", "--n", 60, "--replicates", 4,
                      "--boot", 20], [".json", ".csv"]),
    }
    for name, (argv, suffixes) in runs.items():
        argv = argv + ["--seed", 3]
        assert run_cli(argv + ["--threads", 2,
                               "--out", tmp_path / name]) == 0
        assert counted_forks, name
        counted_forks.clear()
        assert run_cli(argv + ["--threads", 1,
                               "--out", tmp_path / (name + "1")]) == 0
        assert not counted_forks, name
        manifest = json.loads(
            (tmp_path / (name + ".manifest.json")).read_text())
        assert manifest["parameters"]["threads"] == 2
        for suffix in suffixes:
            assert ((tmp_path / (name + suffix)).read_bytes()
                    == (tmp_path / (name + "1" + suffix)).read_bytes()), name


# -- degenerate data and thread counts ------------------------------------------


DEGENERATE = {
    "observation_at_zero": ([0.0, 0.3, 0.5], 1, "degenerate monotone MLE"),
    "all_at_one": ([1.0, 1.0, 1.0], 1, "truncated kernel estimate has mass"),
    "five_equal": ([0.4] * 5, 0, None),
    "single": ([0.3], 0, None),
}


@pytest.mark.parametrize("command", [["ci", "--t0", 0.5, "--boot", 40],
                                     ["band", "--boot", 60]],
                         ids=["ci", "band"])
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_data_exit_codes(case, command, tmp_path, capsys):
    values, code, message = DEGENERATE[case]
    data = tmp_path / "d.txt"
    data.write_text("".join("%r\n" % v for v in values))
    assert run_cli(command + ["--data", data, "--seed", 1,
                              "--out", tmp_path / "o"]) == code
    err = capsys.readouterr().err
    if message is not None:
        assert err.startswith("error: ") and message in err


def test_nonpositive_threads_flag_is_usage_error(data_file, tmp_path, capsys):
    assert run_cli(["band", "--data", data_file, "--boot", 60, "--m", 3000,
                    "--seed", 4, "--threads", -4, "--out", tmp_path / "t"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["ci", "--t0", 0.5, "--boot", 40],
    ["band", "--boot", 60, "--m", 3000],
    ["limits", "--paths", 300, "--lag-max", 5.0, "--lag-step", 0.5],
    ["experiment", "coverage", "--n", 60, "--replicates", 2, "--boot", 20],
], ids=["ci", "band", "limits", "experiment"])
def test_zero_threads_is_usage_error(command, data_file, tmp_path, capsys):
    # limits runs its constants outside the usage guard, so main checks
    # the flag before any subcommand starts
    data = [] if command[0] in ("limits", "experiment") else [
        "--data", data_file]
    assert run_cli(command + data + ["--seed", 1, "--threads", 0,
                                     "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--threads" in err
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("command", [
    ["gen", "--density", "triangular", "--n", 5],
    ["ci", "--t0", 0.5, "--boot", 40],
    ["band", "--boot", 60, "--m", 3000],
    ["limits", "--paths", 300, "--lag-max", 5.0, "--lag-step", 0.5],
    ["experiment", "coverage", "--n", 60, "--replicates", 2, "--boot", 20],
], ids=["gen", "ci", "band", "limits", "experiment"])
def test_negative_seed_is_usage_error(command, data_file, tmp_path, capsys):
    data = [] if command[0] in ("gen", "limits", "experiment") else [
        "--data", data_file]
    assert run_cli(command + data + ["--seed", -1,
                                     "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "seed" in err and "-1" in err
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("rate", ["-1", "nan", "0", "inf"])
@pytest.mark.parametrize("command", [
    ["gen", "--n", 5],
    ["experiment", "coverage", "--n", 60, "--replicates", 2, "--boot", 20],
], ids=["gen", "experiment"])
def test_bad_trunc_exp_rate_is_usage_error(command, rate, tmp_path, capsys):
    assert run_cli(command + ["--density", "trunc-exp", "--rate", rate,
                              "--seed", 1, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    if rate in ("nan", "inf"):
        assert err == "usage error: --rate must be finite, got %s\n" % rate
    else:
        assert err.startswith("usage error: --rate must be positive and "
                              "finite")
    assert not list(tmp_path.glob("o*"))


def test_gen_trunc_exp_tiny_rate_is_uniform_to_rounding(tmp_path):
    # 1 - exp(-1e-17) is 0 in doubles, and the density is flat to rounding
    tiny, flat = tmp_path / "tiny.txt", tmp_path / "flat.txt"
    assert run_cli(["gen", "--density", "trunc-exp", "--rate", "1e-17",
                    "--n", 50, "--seed", 7, "--out", tiny]) == 0
    assert run_cli(["gen", "--density", "uniform", "--n", 50, "--seed", 7,
                    "--out", flat]) == 0
    assert np.allclose(np.loadtxt(tiny), np.loadtxt(flat), rtol=0, atol=1e-15)


def test_gen_trunc_exp_large_rate(tmp_path):
    # the density's mass check resolves exp(-rate t) near 0
    for rate in ("1e4", "1e20"):
        out = tmp_path / ("steep%s.txt" % rate)
        assert run_cli(["gen", "--density", "trunc-exp", "--rate", rate,
                        "--n", 50, "--seed", 7, "--out", out]) == 0
        values = np.loadtxt(out)
        assert values.size == 50 and 0.0 <= values.min() <= values.max() < 1e-2


# -- every numeric flag -------------------------------------------------------

# a cheap run of each subcommand; the flag under test follows it, so its
# value wins over the base's
_BASES = {
    "gen": "gen --density trunc-exp --n 5 --seed 1",
    "fit": "fit --data {data} --smooth-grid 3",
    "ci": "ci --data {data} --t0 0.5 --boot 20 --seed 1",
    "band": "band --data {data} --boot 50 --m 500 --seed 1",
    "limits": "limits --delta 0.05 --window 2 --paths 20 --lag-max 0.5 "
              "--lag-step 0.25 --batches 2 --check-scaling --scaling-paths 20 "
              "--seed 1",
    "coverage": "experiment coverage --density trunc-exp --n 30 "
                "--replicates 1 --boot 20 --seed 1",
    "coverage-band": "experiment coverage --band --n 30 --replicates 1 "
                     "--boot 50 --m 300 --seed 1",
    "rate": "experiment rate --n-grid 30,60 --replicates 1 --grid-size 11 "
            "--seed 1",
    "inconsistency": "experiment inconsistency --n 20 --replicates 2 "
                     "--limits {limits} --seed 1",
    "l1clt": "experiment l1clt --n 20 --replicates 2 --limits {limits} "
             "--seed 1",
}
_SMOOTHER = ["--alpha", "--scale"]
_RUN = ["--seed", "--threads"]
# every numeric flag of each base; {} marks where the value goes when the
# flag takes two
_NUMERIC_FLAGS = {
    "gen": ["--n", "--rate", "--seed"],
    "fit": ["--smooth-grid", "--rescale {} 1", "--rescale 0 {}"] + _SMOOTHER,
    "ci": ["--t0", "--level", "--boot"] + _SMOOTHER + _RUN,
    "band": ["--level", "--boot", "--m"] + _SMOOTHER + _RUN,
    "limits": ["--delta", "--window", "--paths", "--lag-max", "--lag-step",
               "--batches", "--scaling-paths"] + _RUN,
    "coverage": ["--rate", "--n", "--replicates", "--boot", "--level", "--t0"]
                + _SMOOTHER + _RUN,
    "coverage-band": ["--m", "--boot", "--level"] + _SMOOTHER,
    "rate": ["--n-grid", "--replicates", "--grid-size", "--t0"] + _SMOOTHER,
    "inconsistency": ["--n", "--replicates", "--t0"],
    "l1clt": ["--n", "--replicates"],
}
# the values of nan, inf, -1 and 0 that a flag accepts; it rejects the rest
_ACCEPTED = {"--seed": ["0"], "--smooth-grid": ["0"],
             "--rescale {} 1": ["-1", "0"]}


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("small") / "tri.txt"
    assert run_cli(["gen", "--density", "triangular", "--n", 50, "--seed", 1,
                    "--out", d]) == 0
    return d


_SWEEP = [(base, flag) for base in _BASES for flag in _NUMERIC_FLAGS[base]]


@pytest.mark.parametrize("base,flag", _SWEEP, ids=[
    base + ":" + flag.replace(" {} 1", "-LO").replace(" 0 {}", "-HI")
    for base, flag in _SWEEP])
def test_every_rejected_flag_value_exits_2_naming_its_flag(
        base, flag, small_data, limits_file, tmp_path, capsys):
    name = flag.split()[0]
    accepted = _ACCEPTED.get((base, flag), _ACCEPTED.get(flag, []))
    for value in ("nan", "inf", "-1", "0"):
        argv = (_BASES[base].format(data=small_data, limits=limits_file)
                + " " + (flag if "{}" in flag else flag + " {}").format(value)
                + " --out %s" % (tmp_path / value)).split()
        try:
            code = main(argv)
        except SystemExit as e:   # argparse's own errors
            code = e.code
        err = capsys.readouterr().err
        if value in accepted:
            assert code == 0, (argv, err)
        else:
            assert code == 2, (argv, err)
            assert re.search(re.escape(name) + r"(?![\w-])", err), (argv, err)
            assert not list(tmp_path.glob(value + "*"))


# -- flags a run does not read -------------------------------------------------

_EXPERIMENTS = ["coverage", "coverage-band", "rate", "inconsistency", "l1clt"]
# flags that every experiment reads
_SHARED = {"--density", "--rate", "--seed", "--threads"}


def _reads(base):
    """The flags that the sweep's ``base`` sets or varies; --kernel goes with
    --alpha, and --band turns coverage into coverage-band."""
    flags = {word for word in _BASES[base].split() if word.startswith("--")}
    flags |= {flag.split()[0] for flag in _NUMERIC_FLAGS[base]}
    if "--alpha" in flags:
        flags.add("--kernel")
    if base == "coverage":
        flags.add("--band")
    return flags - _SHARED


# a value of each flag that a run reading it accepts
_READ_VALUES = {"--n": "30", "--replicates": "2", "--boot": "50",
                "--m": "300", "--level": "0.9", "--t0": "0.5",
                "--n-grid": "30,60", "--grid-size": "11", "--alpha": "0.18",
                "--scale": "1", "--kernel": "biweight", "--band": "",
                "--limits": "{limits}"}
_ANY_EXPERIMENT = set().union(*map(_reads, _EXPERIMENTS))
# (id, command, the flag it does not read)
_UNREAD = [
    ("%s:%s" % (base, flag),
     "%s %s %s" % (_BASES[base], flag, _READ_VALUES[flag]), flag)
    for base in _EXPERIMENTS
    for flag in sorted(_ANY_EXPERIMENT - _reads(base))] + [
    ("gen-triangular:--rate",
     "gen --density triangular --n 5 --seed 1 --rate 2", "--rate"),
    ("coverage-uniform:--rate",
     _BASES["coverage"].replace("trunc-exp", "uniform") + " --rate 2",
     "--rate"),
    ("limits-unchecked:--scaling-paths",
     _BASES["limits"].replace(" --check-scaling", ""), "--scaling-paths"),
]


@pytest.mark.parametrize("argv,flag", [case[1:] for case in _UNREAD],
                         ids=[case[0] for case in _UNREAD])
def test_every_unread_flag_exits_2_naming_it(argv, flag, limits_file,
                                             tmp_path, capsys, monkeypatch):
    # refused before any replicate runs, so nothing forks
    def no_fork():
        raise AssertionError("forked before the flag was refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(argv.format(limits=limits_file).split()
                + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:"), err
    assert re.search(re.escape(flag) + r"(?![\w-])", err), err
    assert not list(tmp_path.iterdir())


# manifest key, where the result file holds the value that ran, and that value
@pytest.mark.parametrize("argv,recorded", [
    ("experiment rate --n-grid 30,60 --seed 1 --threads 1",
     [("replicates", ["replicates"], 50), ("grid_size", ["grid_size"], 2001)]),
    ("band --data {data} --boot 50 --seed 1 --threads 1", [("m", ["m"], 500)]),
    ("limits --delta 0.05 --window 3 --paths 20 --lag-max 0.5 --lag-step 0.25 "
     "--batches 2 --check-scaling --seed 1 --threads 1",
     [("scaling_paths", ["scaling", "n_paths"], 200)]),
], ids=["rate", "band", "limits"])
def test_manifest_records_the_defaults_that_ran(argv, recorded, small_data,
                                                 tmp_path, monkeypatch):
    # the scaling check's default paths are LimitSimConfig's, cut here
    monkeypatch.setattr(LimitSimConfig, "n_paths", 200)
    assert main(argv.format(data=small_data).split()
                + ["--out", str(tmp_path / "o")]) == 0
    params = json.loads((tmp_path / "o.manifest.json").read_text())[
        "parameters"]
    result = json.loads((tmp_path / "o.json").read_text())
    for key, path, value in recorded:
        ran = result
        for part in path:
            ran = ran[part]
        assert params[key] == ran == value, key
