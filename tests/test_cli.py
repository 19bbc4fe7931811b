import json
import math

import pytest
from click.testing import CliRunner

from poolseq_limits.cli import main

BASE = ["-O", "G=3000000000", "-O", "M=2", "-O", "p=0.001", "-O", "eta=0.82",
        "-O", "lambda=0.01"]


def run(args, **kw):
    return CliRunner(mix_stderr=False).invoke(main, args, **kw) \
        if _mix_supported() else CliRunner().invoke(main, args, **kw)


def _mix_supported():
    import inspect
    return "mix_stderr" in inspect.signature(CliRunner.__init__).parameters


def test_bounds_single_point_row():
    res = run(["bounds", *BASE, "-O", "L=110000"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "#poolseq-limits v1"
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["e_upper"]) < 3e-3
    assert float(row["e_lower"]) <= float(row["e_upper"])


def test_bounds_sweep_grid_size():
    res = run(["bounds", *BASE, "--sweep", "L=50000:200000:4:log"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 2 + 4


def test_bounds_noisy_columns():
    res = run(["bounds", *BASE, "-O", "L=200000", "-O", "eps=0.1",
               "-O", "lambda=0.002"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert 0.0 <= float(row["en_ml_upper"]) <= 1.0
    assert float(row["en_ml_D"]) > float(row["en_ml_d"])
    assert 0.0 <= float(row["en_sd_upper"]) <= 1.0


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nG=1000000\nM=1\np=0.001\nlambda=0.005\n"
                   "maf=0.1\nL=1800\n")
    res = run(["bounds", "-c", str(cfg), "-O", "M=2"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["M"] == "2"


def test_malformed_config_reports_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("G=1000000\nwhat\n")
    res = run(["bounds", "-c", str(cfg)])
    assert res.exit_code == 2
    err = res.stderr if hasattr(res, "stderr") and res.stderr else res.output
    assert "bad.cfg:2" in err


def test_unknown_key_rejected():
    res = run(["bounds", *BASE, "-O", "L=1000", "-O", "bogus=1"])
    assert res.exit_code == 2


def test_eta_maf_exclusive():
    res = run(["bounds", "-O", "G=1000", "-O", "M=2", "-O", "p=0.001",
               "-O", "lambda=0.01", "-O", "L=100",
               "-O", "eta=0.82", "-O", "maf=0.1"])
    assert res.exit_code == 2


def test_critical_l_closed_form_solve():
    """Asymptotic upper at M=2: solve (1/2) G M^2 p (1-eta) e^(-rL) = 1e-3."""
    res = run(["critical-l", *BASE, "--target", "1e-3",
               "--bound", "assembly-upper-asym",
               "--l-min", "1000", "--l-max", "1000000", "--json"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    r = 1e-3 * 0.18
    expect = math.log(0.5 * 3e9 * 4 * r / 1e-3) / r
    assert out["critical_L"] == pytest.approx(expect, rel=2e-3)


def test_critical_l_target_one_is_bracket_edge():
    res = run(["critical-l", *BASE, "--target", "1.0",
               "--bound", "assembly-upper", "--l-min", "10",
               "--l-max", "1000000", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["critical_L"] == 10.0


def test_critical_l_region_empty_exit_code():
    res = run(["critical-l", "-O", "G=3000000000", "-O", "M=2",
               "-O", "p=0.001", "-O", "eta=0.82", "-O", "lambda=0.02",
               "-O", "eps=0.25", "--target", "1e-3",
               "--bound", "spectral-upper",
               "--l-min", "1000", "--l-max", "200000"])
    assert res.exit_code == 4


def test_critical_l_ml_upper_default_bracket():
    """The default bracket reaches L = 1e7, where the ML plan seed's
    e^(1 - r D) underflows; the solve must still finish with exit 0."""
    res = run(["critical-l", *BASE, "-O", "eps=0.1", "--target", "1e-3",
               "--bound", "ml-upper", "--json"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["bracket"] == [1.0, 1e7]
    assert 1.0 < out["critical_L"] < 1e7


def test_critical_l_evaluates_each_length_once(monkeypatch):
    """The monotonicity check and the bisection share the endpoint values:
    one bound evaluation per reported iteration."""
    from poolseq_limits import cli
    lengths = []
    assembly_bounds = cli.assembly_bounds

    def counting(config, *args):
        lengths.append(config.L)
        return assembly_bounds(config, *args)

    monkeypatch.setattr(cli, "assembly_bounds", counting)
    res = run(["critical-l", *BASE, "--target", "1e-3",
               "--bound", "assembly-upper", "--l-min", "1000",
               "--l-max", "1000000", "--json"])
    assert res.exit_code == 0, res.output
    assert len(lengths) == len(set(lengths)) == json.loads(res.output)["iterations"]


def test_exponent_table_output():
    res = run(["exponent", "--m", "2", "--kappa", "3", "--eps", "0.1,0.3"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 2 + 2 * 6  # M * kappa rows per eps
    header = lines[1].split(",")
    first = dict(zip(header, lines[2].split(",")))
    assert first["i"] == "1"
    assert float(first["exponent"]) > 0


def test_simulate_zero_trials(tmp_path):
    out = tmp_path / "rows.csv"
    res = run(["simulate", "-O", "G=100000", "-O", "M=2", "-O", "p=0.001",
               "-O", "maf=0.1", "-O", "lambda=0.01", "-O", "L=20000",
               "--trials", "0", "--out", str(out), "--json"])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # schema tag + header only


def test_simulate_uninformative_channel_always_fails(tmp_path):
    out = tmp_path / "rows.csv"
    res = run(["simulate", "-O", "G=20000", "-O", "M=2", "-O", "p=0.001",
               "-O", "maf=0.1", "-O", "lambda=0.005", "-O", "L=4000",
               "-O", "eps=0.5", "-O", "D=2000", "-O", "d=1000",
               "--trials", "12", "--seed", "5", "--out", str(out), "--json"])
    assert res.exit_code == 0
    summary = json.loads(res.output)
    assert summary["success"]["count"] == 0


def test_simulate_memory_guard():
    res = run(["simulate", "-O", "G=1000000000", "-O", "M=20",
               "-O", "p=0.001", "-O", "maf=0.1", "-O", "lambda=0.01",
               "-O", "L=100000", "--trials", "1", "--mem-cap-mb", "64"])
    assert res.exit_code == 3


def test_simulate_deterministic_across_workers(tmp_path):
    args = ["simulate", "-O", "G=150000", "-O", "M=2", "-O", "p=0.001",
            "-O", "maf=0.1", "-O", "lambda=0.01", "-O", "L=25000",
            "--trials", "24", "--seed", "11", "--json"]
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    res1 = run([*args, "--workers", "1", "--out", str(out1)])
    res4 = run([*args, "--workers", "4", "--out", str(out4)])
    assert res1.exit_code == 0 and res4.exit_code == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_denoise_bench_ml_bound_column():
    res = run(["denoise-bench", "--m", "2", "--kappa", "3", "--eps", "0.2",
               "--coverage", "25", "--blocks", "300", "--algo", "ml",
               "--seed", "3"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["failure_rate"]) <= float(row["ml_bound"])


def test_exact_bridging_command():
    res = run(["exact-bridging", "-O", "G=2000000", "-O", "M=2",
               "-O", "p=0.001", "-O", "eta=0.82", "-O", "lambda=0.01",
               "-O", "L=45000", "--trials", "2000", "--seed", "2"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert 0.0 < float(row["estimate"]) < 1.0
    assert float(row["ci_low"]) <= float(row["estimate"]) <= float(row["ci_high"])


def test_noisy_bounds_config_error_for_single_individual():
    res = run(["bounds", "-O", "G=1000000", "-O", "M=1", "-O", "p=0.001",
               "-O", "eta=0.82", "-O", "lambda=0.01", "-O", "L=2000",
               "-O", "eps=0.1"])
    assert res.exit_code == 2


def test_simulate_ml_segment_with_fewer_sequences_than_individuals(tmp_path):
    """D=500 at p=0.002 leaves one-SNP segments, whose two possible
    sequences cannot hold M=3 genomes: the trial records a denoising
    failure instead of aborting the run."""
    res = run(["simulate", "-O", "G=20000", "-O", "M=3", "-O", "p=0.002",
               "-O", "maf=0.3", "-O", "lambda=0.01", "-O", "L=3000",
               "-O", "eps=0.1", "-O", "D=500", "-O", "d=250",
               "--trials", "3", "--seed", "1", "--json",
               "--out", str(tmp_path / "rows.csv")])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["denoise_fail"]["count"] == 3


def test_simulate_noisy_spectral_deterministic_across_workers(tmp_path):
    args = ["simulate", "-O", "G=20000", "-O", "M=2", "-O", "p=0.004",
            "-O", "maf=0.5", "-O", "lambda=0.0025", "-O", "L=10000",
            "-O", "eps=0.05", "-O", "D=4000", "-O", "d=1500",
            "--denoiser", "spectral", "--trials", "10", "--seed", "21",
            "--json"]
    out1, out3 = tmp_path / "n1.csv", tmp_path / "n3.csv"
    res1 = run([*args, "--workers", "1", "--out", str(out1)])
    res3 = run([*args, "--workers", "3", "--out", str(out3)])
    assert res1.exit_code == 0 and res3.exit_code == 0
    assert out1.read_bytes() == out3.read_bytes()
    summary = json.loads(res1.output)
    assert summary["success"]["count"] >= 5


_BENCH = ["denoise-bench", "--kappa", "3", "--eps", "0.2", "--coverage", "25",
          "--blocks", "5"]
_SIM = ["simulate", "-O", "G=20000", "-O", "M=2", "-O", "p=0.002", "-O", "maf=0.3",
        "-O", "lambda=0.01", "-O", "L=3000", "--trials", "2"]
_BRIDGE = ["exact-bridging", "-O", "G=200000", "-O", "M=2", "-O", "p=0.001",
           "-O", "eta=0.82", "-O", "lambda=0.001", "-O", "L=5000",
           "--trials", "20"]


# noiseless bounds at the BASE point; noisy ones at a smaller genome so the
# spectral solve stays quick
_NOISY = ["-O", "G=100000000", "-O", "M=2", "-O", "p=0.001", "-O", "eta=0.82",
          "-O", "lambda=0.01", "-O", "eps=0.1"]


@pytest.mark.parametrize("args", [
    ["exponent", "--m", "2", "--kappa", "3", "--eps", "1.0"],
    ["exponent", "--m", "2", "--kappa", "3", "--eps", "0.1,-0.2"],
    ["exponent", "--m", "0", "--kappa", "3", "--eps", "0.1"],
    ["exponent", "--m", "2", "--kappa", "0", "--eps", "0.1"],
    ["exponent", "--m", "5", "--kappa", "2", "--eps", "0.1"],
    [*_BENCH, "--blocks", "0"],
    [*_BENCH, "--eps", "1.0"],
    [*_BENCH, "--eps", "0.7", "--algo", "ml"],
    [*_BENCH, "--m", "0"],
    [*_BENCH, "--coverage", "-1"],
    [*_BENCH, "--kappa", "0"],
    [*_BENCH, "--seed", "-1"],
    [*_BENCH, "--eta", "-1"],
    [*_BENCH, "--eta", "2"],
    [*_SIM, "--seed", "-1"],
    [*_SIM, "--trials", "-1"],
    [*_SIM[:-2], "-O", "trials=-1"],
    [*_BRIDGE, "--seed", "-1"],
    ["critical-l", *BASE, "--target", "0.001", "--bound", "assembly-upper",
     "--l-min", "100", "--l-max", "10"],
    [*_SIM, "--workers", "0"],
    [*_SIM, "--workers", "-3"],
    ["bounds", *BASE, "--sweep", "L=0:10:3:log"],
    ["bounds", *BASE, "-O", "L=110000", "--sweep", "G=1:nan:3"],
    ["bounds", *_NOISY, "-O", "L=20000", "-O", "c_const=0"],
    ["bounds", *_NOISY, "-O", "L=20000", "-O", "c_const=nan"],
    ["critical-l", *_NOISY, "-O", "c_const=0", "--target", "0.01",
     "--bound", "spectral-upper"],
    [*_BENCH, "--coverage", "nan"],
    [*_BENCH, "--coverage", "inf"],
    ["critical-l", *BASE, "--target", "nan", "--bound", "assembly-upper"],
    [*_SIM, "--mem-cap-mb", "-5"],
    [*_BENCH, "--eta", "nan"],
])
def test_out_of_range_inputs_exit_config(args):
    """Out-of-range inputs give exit 2, not a traceback or a silent result."""
    res = run(args)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert res.exit_code == 2


@pytest.mark.parametrize("bound,column,point", [
    ("assembly-upper", "e_upper", BASE),
    ("assembly-lower", "e_lower", BASE),
    ("assembly-upper-asym", "e_upper_asym", BASE),
    ("coverage-upper", "esc_upper", BASE),
    ("bridging-upper", "eb_upper", BASE),
    ("ml-upper", "en_ml_upper", _NOISY),
    ("spectral-upper", "en_sd_upper", _NOISY),
])
def test_critical_l_agrees_with_bounds(bound, column, point):
    """The solved length meets the target on the `bounds` column it names,
    and a length 2 rtol shorter (rtol = 1e-3, the bisection tolerance)
    does not."""
    target = 1e-3
    res = run(["critical-l", *point, "--target", str(target), "--bound", bound,
               "--l-min", "1000", "--l-max", "1000000", "--json"])
    assert res.exit_code == 0, res.output
    crit = json.loads(res.output)["critical_L"]
    assert 1000 < crit < 1e6
    res = run(["bounds", *point, "--sweep",
               f"L={crit * (1 - 2e-3)!r}:{crit!r}:2"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    # the CSV echoes L to 12 significant digits
    assert [float(r["L"]) for r in rows] == pytest.approx(
        [crit * (1 - 2e-3), crit], rel=1e-11)
    assert float(rows[1][column]) <= target
    assert float(rows[0][column]) > target
