import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from grenboot.cli import main
from grenboot.parallel import default_threads


def run_cli(args):
    """Invoke the CLI in-process; returns the exit code."""
    return main([str(a) for a in args])


def run_cli_subprocess(args, extra_env=None):
    import os
    env = dict(os.environ)
    if extra_env:
        env.update(extra_env)
    return subprocess.run([sys.executable, "-m", "grenboot.cli"]
                          + [str(a) for a in args],
                          capture_output=True, text=True, env=env)


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


def test_gen_unknown_density(tmp_path):
    code = run_cli(["gen", "--density", "cauchy", "--n", 5, "--seed", 1,
                    "--out", tmp_path / "x.txt"])
    assert code == 2


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
                    "--scaling-width", 2.0, "--out", tmp_path / "ls"]) == 0
    s = json.loads((tmp_path / "ls.json").read_text())
    assert "scaling" in s
    assert 1.2 < s["scaling"]["ratio"] < 2.0
    assert s["scaling"]["ratio_theory"] == 2 ** (2 / 3)


@pytest.mark.parametrize("flags,message", [
    (["--window", "inf"], "window"),
    (["--delta", "nan"], "step"),
    (["--lag-max", -1], "lag_max"),
    (["--lag-max", 0], "lag_max"),
    (["--check-scaling", "--scaling-paths", 1], "n_paths"),
    (["--check-scaling", "--scaling-paths", 0], "n_paths"),
    (["--check-scaling", "--scaling-width", 2.005], "half_width"),
])
def test_limits_bad_flags_are_usage_errors(flags, message, tmp_path, capsys):
    assert run_cli(["limits", "--delta", 0.01, "--window", 2.0, "--paths",
                    300, "--lag-max", 5.0, "--lag-step", 0.5, "--batches",
                    10, "--seed", 6] + flags + ["--out", tmp_path / "l"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert not (tmp_path / "l.json").exists()


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


def test_experiment_unknown_name(tmp_path):
    assert run_cli(["experiment", "nosuch", "--seed", 9,
                    "--out", tmp_path / "e"]) == 2


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


@pytest.mark.parametrize("argv", [
    ["coverage", "--band", "--m", 800],
    ["rate", "--n-grid", "100,200"],
], ids=["coverage-band", "rate"])
def test_experiment_kernel_gate(argv, tmp_path, capsys):
    assert run_cli(["experiment"] + argv + [
        "--kernel", "epanechnikov", "--n", 80, "--replicates", 2,
        "--boot", 50, "--seed", 12, "--out", tmp_path / "k"]) == 2
    assert "l1-level conditions" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needs_limits", [
    (["coverage", "--replicates", 0], False),
    (["rate", "--replicates", 0], False),
    (["rate", "--n-grid", "", "--replicates", 2], False),
    (["rate", "--n-grid", 1000, "--replicates", 2], False),
    (["inconsistency", "--replicates", 1], True),
    (["l1clt", "--replicates", 1], True),
    (["inconsistency", "--replicates", 5, "--n", 1], True),
    (["inconsistency", "--replicates", 5, "--density", "uniform"], True),
], ids=["coverage-0", "rate-0", "rate-no-grid", "rate-one-size",
        "inconsistency-1", "l1clt-1", "inconsistency-n1",
        "inconsistency-flat"])
def test_experiment_too_few_replicates_or_sizes(argv, needs_limits,
                                                limits_file, tmp_path,
                                                capsys):
    limits = ["--limits", limits_file] if needs_limits else []
    # argv follows the default --n 60, so its own --n wins
    assert run_cli(["experiment", "--n", 60] + argv + limits + [
        "--boot", 20, "--seed", 12, "--out", tmp_path / "e"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")
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


def test_thread_count_does_not_change_output(data_file, tmp_path):
    r1 = run_cli_subprocess(
        ["ci", "--data", data_file, "--t0", 0.5, "--boot", 40, "--seed", 2,
         "--out", tmp_path / "t1"], extra_env={"GRENBOOT_THREADS": "1"})
    r2 = run_cli_subprocess(
        ["ci", "--data", data_file, "--t0", 0.5, "--boot", 40, "--seed", 2,
         "--out", tmp_path / "t8"], extra_env={"GRENBOOT_THREADS": "8"})
    assert r1.returncode == 0 and r2.returncode == 0
    assert ((tmp_path / "t1.json").read_bytes()
            == (tmp_path / "t8.json").read_bytes())
    assert ((tmp_path / "t1.csv").read_bytes()
            == (tmp_path / "t8.csv").read_bytes())
    manifest = json.loads((tmp_path / "t8.manifest.json").read_text())
    assert manifest["parameters"]["threads"] == 8


def test_threads_flag_overrides_env(data_file, tmp_path):
    r = run_cli_subprocess(
        ["band", "--data", data_file, "--boot", 50, "--m", 3000, "--seed", 4,
         "--threads", 2, "--out", tmp_path / "bt"],
        extra_env={"GRENBOOT_THREADS": "16"})
    assert r.returncode == 0
    s = json.loads((tmp_path / "bt.json").read_text())
    assert s["radius"] == pytest.approx(
        s["mu_hat"] / s["n"] ** (1 / 3) + s["c_critical"] / np.sqrt(s["n"]),
        abs=1e-15)
    manifest = json.loads((tmp_path / "bt.manifest.json").read_text())
    assert manifest["parameters"]["threads"] == 2


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


@pytest.mark.parametrize("raw", ["abc", "0", "-2"])
def test_invalid_thread_env_is_usage_error(raw, data_file, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.setenv("GRENBOOT_THREADS", raw)
    assert run_cli(["ci", "--data", data_file, "--t0", 0.5, "--boot", 40,
                    "--seed", 2, "--out", tmp_path / "t"]) == 2
    assert "GRENBOOT_THREADS" in capsys.readouterr().err


def test_nonpositive_threads_flag_is_usage_error(data_file, tmp_path, capsys):
    assert run_cli(["band", "--data", data_file, "--boot", 60, "--m", 3000,
                    "--seed", 4, "--threads", -4, "--out", tmp_path / "t"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [None, ""], ids=["unset", "empty"])
def test_unset_or_empty_thread_env_means_one(raw, monkeypatch):
    if raw is None:
        monkeypatch.delenv("GRENBOOT_THREADS", raising=False)
    else:
        monkeypatch.setenv("GRENBOOT_THREADS", raw)
    assert default_threads() == 1
