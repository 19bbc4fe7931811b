import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from poolseq_limits import cli, denoise, noiseless_bounds
from poolseq_limits._util import clamp01
from poolseq_limits.cli import main
from poolseq_limits.core import CapacityError

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
    for line in ("what", "nu_min_mode=bogus"):
        cfg.write_text(f"G=1000000\n{line}\n")
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
    one bound evaluation per reported iteration. Each evaluation builds
    the model at its length once."""
    from poolseq_limits import cli
    lengths = []
    build_model = cli.build_model

    def counting(params):
        lengths.append(params["L"])
        return build_model(params)

    monkeypatch.setattr(cli, "build_model", counting)
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


@pytest.mark.parametrize("args,digest", [
    ("exponent --m 2 --kappa 3 --eps 0,0.05,0.1,0.3,0.5", "0501ad6c52ff45ca"),
    ("exponent --m 3 --kappa 3 --eps 0.1,0.2", "f0e72068f61521cc"),
    ("exponent --m 4 --kappa 2 --eps 0.1", "bed79d30db9429d9"),
    ("denoise-bench --m 2 --kappa 3 --eps 0.2 --coverage 25 --blocks 300 "
     "--seed 5", "1807fa90abc73c90"),
    ("denoise-bench --m 3 --kappa 4 --eps 0.1 --coverage 40 --blocks 200 "
     "--seed 2", "10d858c64138451f"),
])
def test_exponent_and_denoise_bench_output_digests(args, digest):
    """Exponent tables, ML decodes and ML bounds print these recorded
    bytes; the shared enumerator and mixture kernel must keep them."""
    res = run(args.split())
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest()[:16] == digest


def test_exponent_refuses_matching_blowup():
    """M = 12 at kappa = 4 has 1,820 sets and 12! member matchings: refused
    with exit 3 before any matching is tried."""
    t0 = time.perf_counter()
    res = run(["exponent", "--m", "12", "--kappa", "4", "--eps", "0.1"])
    assert res.exit_code == 3
    assert "matchings" in res.stderr
    assert time.perf_counter() - t0 < 1.0


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_rejects_eta_law(workers):
    """An eta law has no allele frequencies to sample from: exit 2 with
    an error line, in the parent process and from a worker alike."""
    res = run(["simulate", *BASE, "-O", "L=3000", "-O", "G=20000",
               "--trials", "2", "--workers", workers])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    err = res.stderr if hasattr(res, "stderr") and res.stderr else res.output
    assert err.startswith("error: ") and "Traceback" not in err


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
    ["bounds", *BASE, "-O", "L=1000", "-O", "nu_min_mode=bogus"],
    ["critical-l", *_NOISY, "-O", "nu_min_mode=bogus", "--target", "0.01",
     "--bound", "ml-upper"],
    [*_SIM, "-O", "eps=0.1", "-O", "D=1500", "-O", "d=500", "--denoiser",
     "spectral", "-O", "nu_min_mode=bogus", "--out", "rows.csv"],
    ["bounds", *BASE, "-O", "L=1000", "--sweep", "nu_min_mode=1:2:2"],
])
def test_out_of_range_inputs_exit_config(args, tmp_path, monkeypatch):
    """Out-of-range inputs give exit 2, not a traceback or a silent result,
    and leave no file behind."""
    monkeypatch.chdir(tmp_path)
    res = run(args)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert res.exit_code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case,code", [
    ("non-utf8-config", 2),
    ("bounds-out", 2),
    ("exponent-out", 2),
    ("simulate-out", 2),
    ("bench-out", 2),
    ("bridging-out", 2),
    ("bench-coverage-1e19", 3),
    ("bench-coverage-1e12", 3),
])
def test_unreadable_inputs_and_huge_blocks_exit_cleanly(tmp_path, case, code):
    """A config file that is not UTF-8 and an --out path that cannot be
    opened exit 2; a denoise-bench block expected to hold more than 1e8
    observations is refused with exit 3 before any block is drawn. Each
    prints one error line and no traceback."""
    bad_cfg = tmp_path / "cfg"
    bad_cfg.write_bytes(b"G=1\xff\xfe\n")
    missing = ["--out", str(tmp_path / "missing" / "x.csv")]
    args = {
        "non-utf8-config": ["bounds", "-c", str(bad_cfg)],
        "bounds-out": ["bounds", *BASE, "-O", "L=110000", *missing],
        "exponent-out": ["exponent", "--m", "2", "--kappa", "3", "--eps",
                         "0.1", *missing],
        "simulate-out": [*_SIM, *missing],
        "bench-out": [*_BENCH, *missing],
        "bridging-out": [*_BRIDGE, *missing],
        "bench-coverage-1e19": [*_BENCH, "--coverage", "1e19"],
        "bench-coverage-1e12": [*_BENCH, "--coverage", "1e12"],
    }[case]
    res = run(args)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert res.exit_code == code
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args,work", [
    (_SIM, "run_noiseless_trial"),
    (_BRIDGE, "estimate_bridging"),
    (_BENCH, "decode_block"),
])
def test_unopenable_out_exits_before_any_work(tmp_path, monkeypatch, args,
                                              work):
    """An --out path in a missing directory exits 2 before the first trial,
    chain walk or block decode runs."""
    from poolseq_limits import cli
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    res = run([*args, "--out", str(tmp_path / "missing" / "x.csv")])
    assert res.exit_code == 2
    assert calls == []


_BAD_PLAN = ["-O", "eps=0.1", "-O", "D=1000", "-O", "d=2000"]


@pytest.mark.parametrize("args", [
    [*_SIM, *_BAD_PLAN],
    [*_SIM, *_BAD_PLAN, "--trials", "0"],
    [*_BRIDGE, "--trials", "0"],
    [*_BRIDGE, "--trials", "-5"],
    [*_BRIDGE[:-2], "-O", "trials=0"],
    [*_BRIDGE, "--seed", "-1"],
    ["denoise-bench", "--m", "5", "--kappa", "2", "--eps", "0.1",
     "--coverage", "10"],
])
def test_refused_inputs_leave_out_untouched(tmp_path, args):
    """A refused plan, trial count, seed or individual count exits 2 before
    any rows are written, so an existing file keeps its bytes."""
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\n")
    res = run([*args, "--out", str(out)])
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert res.exit_code == 2
    assert out.read_bytes() == b"kept\n"


def test_denoise_bench_at_eta_one_refuses_before_out(tmp_path):
    """At eta = 1 every planted row is all-major, and just below 1 the
    minor allele (frequency 5e-11 here) all but never lands, so two or more
    distinct truths cannot be planted: exit 3 before any rows are written,
    so --out keeps its bytes. One individual needs no distinct rows and
    still runs."""
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\n")
    for eta in ("1", "0.9999999999"):
        res = run(["denoise-bench", "--m", "2", "--kappa", "3", "--eps", "0.1",
                   "--coverage", "10", "--eta", eta, "--out", str(out)])
        assert res.exception is None \
            or isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code == 3
        assert "could not plant distinct truths" in res.stderr
        assert out.read_bytes() == b"kept\n"
    res = run(["denoise-bench", "--m", "1", "--kappa", "3", "--eps", "0.1",
               "--coverage", "10", "--eta", "1", "--blocks", "5"])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest()[:16] \
        == "594f09f175b00750"


@pytest.mark.parametrize("kappa,algo", [("7", "ml"), ("14", "both")])
def test_denoise_bench_unenumerable_ml_bound_refuses_before_out(
        tmp_path, monkeypatch, kappa, algo):
    """An ML bound over more hypothesis sets than the enumeration cap exits
    3 before any block is decoded, and --out keeps its bytes: the decoder
    alone could run at kappa 7 (8128 sets) and at kappa 14."""
    from poolseq_limits import cli
    calls = []
    monkeypatch.setattr(cli, "decode_block", lambda *a, **k: calls.append(a))
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\n")
    res = run(["denoise-bench", "--kappa", kappa, "--eps", "0.1",
               "--coverage", "20", "--blocks", "50", "--algo", algo,
               "--out", str(out)])
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert res.exit_code == 3
    assert "exceed the enumeration cap" in res.stderr
    assert out.read_bytes() == b"kept\n"
    assert calls == []


def test_denoise_bench_blocks_the_ml_bound_admits_never_refuse():
    """Every (M, kappa) whose ML bound the bound's caps admit is either
    enumerated for any block (at most 2^kappa distinct rows), or has M = 1
    and is searched: kappa = 11 with 2,000 reads a block is searched, and
    the bench runs through."""
    from math import comb, factorial

    from poolseq_limits import noisy_bounds as nb
    for kappa in range(1, 12):
        for M in range(1, (1 << kappa) + 1):
            sets = comb(1 << kappa, M)
            if sets > nb.PAIR_ENUM_CAP \
                    or factorial(M) * sets * sets > nb.MATCHING_WORK_CAP:
                continue
            assert M == 1 or \
                sets << kappa <= denoise.ML_ENUMERATION_VALUES, (M, kappa)
    res = run(["denoise-bench", "--m", "1", "--kappa", "11", "--eps", "0.1",
               "--coverage", "2000", "--blocks", "20", "--algo", "ml"])
    assert res.exit_code == 0, res.output
    assert res.stdout.splitlines()[2] == \
        "ml,1,11,0.1,2000,20,0,0,0.161125158053,0"


def test_huge_m_refuses_the_inclusion_exclusion(tmp_path):
    """From M = 1,030 a weight (m-1) C(M, m) of the at-least-two sum passes
    the float range: `bounds` (through delta_m at eps = 0) and
    `critical-l --bound assembly-upper-asym` (through bridging_asymptotic)
    exit 3 naming M instead of crashing."""
    for args in (["bounds", *BASE, "-O", "M=100000", "-O", "L=110000"],
                 ["critical-l", "--bound", "assembly-upper-asym",
                  "--target", "0.01", *BASE, "-O", "M=2000"]):
        res = run(args)
        assert res.exception is None \
            or isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code == 3
        assert "M=" in res.stderr and "float range" in res.stderr


def test_bounds_integer_sweep_past_int64():
    """An integer axis holds Python ints, as an override does: G swept to
    1e19 does not wrap past 2^63, and its last row is the -O G row."""
    sweep = run(["bounds", *BASE, "-O", "L=110000",
                 "--sweep", "G=1e18:1e19:2"])
    point = run(["bounds", *BASE, "-O", "L=110000",
                 "-O", "G=10000000000000000000"])
    assert sweep.exit_code == point.exit_code == 0, sweep.output
    assert sweep.stderr == ""
    rows = sweep.stdout.splitlines()
    assert len(rows) == 4
    assert rows[-1] == point.stdout.splitlines()[-1]
    assert rows[-1].startswith(",10000000000000000000,")


def test_simulate_tiny_segment_step_refuses_before_out(tmp_path):
    """A step of 1e-6 bp cuts G = 24000 into 2.4e10 segments, whose table
    alone needs terabytes: the capacity estimate counts the segments, so
    simulate exits 3 before any trial runs, at the default cap, and --out
    keeps its bytes."""
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\n")
    res = run(["simulate", "-O", "G=24000", "-O", "M=2", "-O", "p=0.001",
               "-O", "maf=0.1", "-O", "lambda=0.008", "-O", "L=9000",
               "-O", "eps=0.1", "-O", "D=1800", "-O", "d=0.000001",
               "--trials", "1", "--out", str(out)])
    assert res.exception is None \
        or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code == 3
    assert "exceeds the cap" in res.stderr
    assert out.read_bytes() == b"kept\n"


_SIM_ETA = ["simulate", "-O", "G=1000", "-O", "M=2", "-O", "p=0.01",
            "-O", "eta=0.82", "-O", "lambda=0.01", "-O", "L=100"]


@pytest.mark.parametrize("extra", [
    ["--trials", "1"],
    ["--trials", "1", "-O", "eps=0.1", "-O", "D=50", "-O", "d=20"],
    ["--trials", "0"],
])
def test_simulate_eta_law_refuses_before_out(tmp_path, extra):
    """An `eta` law fixes no allele distribution, so no trial can sample
    it: simulate exits 2, asks for `maf`, and leaves --out as it was,
    even when no trial would run."""
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\n")
    res = run([*_SIM_ETA, *extra, "--out", str(out)])
    assert res.exception is None \
        or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code == 2
    assert "'maf'" in res.stderr
    assert out.read_bytes() == b"kept\n"


_SIM_OVER_CAP = ["simulate", "-O", "G=200000", "-O", "M=2", "-O", "p=0.001",
                 "-O", "maf=0.1", "-O", "lambda=0.01", "-O", "L=30000",
                 "-O", "eps=0.1", "-O", "D=15000", "-O", "d=7500",
                 "--seed", "1"]


@pytest.mark.parametrize("extra", [
    ["--trials", "2"],
    ["--trials", "2", "--workers", "2"],
])
def test_simulate_refused_mid_run_leaves_out_as_it_was(tmp_path, monkeypatch,
                                                       extra):
    """With a node budget of 10, a 15 kbp segment's ML search passes it,
    which only a trial finds out: simulate exits 3 after --out is opened,
    serially and from a worker alike, and the file keeps its bytes, because
    only the rows replace them."""
    monkeypatch.setattr(denoise, "ML_NODE_BUDGET", 10)
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\n")
    res = run([*_SIM_OVER_CAP, *extra, "--out", str(out)])
    assert res.exception is None \
        or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code == 3
    assert "ML search passed its budget of 10 nodes" in res.stderr
    assert out.read_bytes() == b"kept\n"


def test_simulate_decodes_segments_beyond_the_old_enumeration_cap():
    """The probe point whose 15 kbp segments hold up to 24 SNPs, C(2^23, 2)
    candidate sets and more, once refused with exit 3: every segment now
    decodes, and stdout is pinned."""
    res = run([*_SIM_OVER_CAP, "--trials", "2"])
    assert res.exception is None, repr(res.exception)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest()[:16] == \
        "3d4e1787eec47cdb"


def _refuse_trial_zero(args):
    """A stand-in trial: trial 0 is refused at once, the others leave a mark
    in _STARTED and take a while."""
    trial = args[3]
    if trial == 0:
        raise CapacityError("trial 0 refused")
    (_STARTED / str(trial)).touch()
    time.sleep(0.5)
    return {}


_STARTED = None


def test_simulate_refusal_under_workers_drops_unstarted_trials(tmp_path,
                                                               monkeypatch):
    """A refusal in one worker ends the run without starting the trials
    still queued. 16 trials run in 8 chunks of 2 on 2 workers, and only 2
    chunks are handed out at a time: chunk 0 fails at once, so only chunk 1
    (trials 2, 3) can start. Chunk 2 would be handed out only if chunk 1's
    two 0.5 s trials ended before chunk 0's refusal reached the parent."""
    monkeypatch.setattr(cli, "_simulate_one", _refuse_trial_zero)
    monkeypatch.setattr(sys.modules[__name__], "_STARTED", tmp_path)
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\n")
    res = run([*_SIM, "--trials", "16", "--workers", "2",
               "--out", str(out)])
    assert res.exit_code == 3
    assert "trial 0 refused" in res.stderr
    assert out.read_bytes() == b"kept\n"
    started = {int(p.name) for p in tmp_path.iterdir() if p.name.isdigit()}
    assert started <= {2, 3}, sorted(started)


def _die_on_trial_one(args):
    """A stand-in trial whose worker process dies on trial 1."""
    if args[3] == 1:
        os._exit(9)
    return {}


def test_simulate_worker_death_ends_the_run(monkeypatch):
    """A worker that dies (killed for memory, say) fails the run at once
    instead of leaving it waiting for the dead worker's trials."""
    monkeypatch.setattr(cli, "_simulate_one", _die_on_trial_one)
    results = []
    runner = threading.Thread(target=lambda: results.append(
        run([*_SIM, "--trials", "4", "--workers", "2"])), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "simulate still waits for a dead worker"
    assert isinstance(results[0].exception, BrokenProcessPool), \
        repr(results[0].exception)
    assert results[0].exit_code == 1


_EXPONENT = ["exponent", "--m", "2", "--kappa", "3", "--eps", "0.1"]


@pytest.mark.parametrize("args", [
    ["bounds", *BASE, "-O", "L=110000"], _EXPONENT, _SIM, _BENCH, _BRIDGE])
def test_out_to_dev_null_runs(args):
    """A device takes the rows without being truncated first."""
    res = run([*args, "--out", "/dev/null"])
    assert res.exception is None, repr(res.exception)
    assert res.exit_code == 0


@pytest.mark.parametrize("args", [
    ["bounds", *BASE, "-O", "L=110000"], _EXPONENT, _BENCH, _BRIDGE])
def test_out_replaces_a_longer_file(tmp_path, args):
    """The rows replace every byte an existing --out held, even when it
    held more than they take."""
    out = tmp_path / "rows.csv"
    out.write_bytes(b"x" * 100_000)
    to_stdout = run(args)
    to_file = run([*args, "--out", str(out)])
    assert to_file.exit_code == to_stdout.exit_code == 0
    assert out.read_text() == to_stdout.stdout
    assert to_file.stdout == ""


def test_failed_truncate_exits_config(tmp_path, monkeypatch):
    """A regular file that opened but cannot be truncated exits 2 with one
    error line naming it, as a path that cannot be opened does."""
    class Unshrinkable(io.StringIO):
        name = str(tmp_path / "rows.csv")

        def truncate(self, size=None):
            raise OSError(errno.EPERM, "Operation not permitted")

    (tmp_path / "rows.csv").write_bytes(b"kept\n")
    monkeypatch.setattr(cli, "_output", lambda path: Unshrinkable())
    res = run([*_EXPONENT, "--out", "ignored"])
    assert res.exit_code == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") \
        and "rows.csv" in lines[0], res.stderr


def test_csv_echoes_seed_and_trials_given_by_option():
    """The echoed columns hold the effective seed and trial count, also
    when they come from --seed and --trials rather than a config key."""
    sim = run([*_SIM, "--seed", "7"]).stdout.splitlines()
    rows = [dict(zip(sim[1].split(","), ln.split(","))) for ln in sim[2:4]]
    assert [(r["seed"], r["trials"], r["trial"]) for r in rows] \
        == [("7", "2", "0"), ("7", "2", "1")]
    bridge = run([*_BRIDGE, "--seed", "3"]).stdout.splitlines()
    row = dict(zip(bridge[1].split(","), bridge[2].split(",")))
    assert (row["seed"], row["trials"]) == ("3", "20")


def test_simulate_out_file_holds_the_stdout_csv(tmp_path, monkeypatch):
    """Opening --out before the trials leaves its bytes as they were: the
    file holds exactly the CSV that stdout gets without --out, all of it
    by the time the summary is printed, as when --out names stdout's own
    stream."""
    from poolseq_limits import cli
    to_stdout = run([*_SIM, "--seed", "3"])
    out = tmp_path / "rows.csv"
    at_summary = []
    echo = cli._echo

    def recording(message, err=False):
        at_summary.append(out.read_text())
        echo(message, err)

    monkeypatch.setattr(cli, "_echo", recording)
    to_file = run([*_SIM, "--seed", "3", "--out", str(out)])
    assert to_file.exit_code == to_stdout.exit_code == 0
    assert to_stdout.stdout == out.read_text() + to_file.stdout
    assert at_summary and set(at_summary) == {out.read_text()}


# the noisy families, which need eps > 0 and minimise over (D, d)
_NOISY_FAMILIES = ("ml", "spectral")


@pytest.mark.parametrize("bound,column,point", [
    (bound, column, _NOISY if family in _NOISY_FAMILIES else BASE)
    for bound, (family, column) in cli._BOUNDS.items()])
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


@pytest.mark.parametrize("lam", ["1e-20", "1e-300", "5e-324"])
def test_bounds_evaluates_at_tiny_lambda(lam):
    """A row, not a traceback: at 1e-20 exp(-lambda (L + x)) rounds to 1 in
    the segmented coverage bound, and below p / DBL_MAX the gap seed's
    p / lambda overflows."""
    res = run(["bounds", *BASE, "-O", f"lambda={lam}", "-O", "L=1000"])
    assert res.exit_code == 0, res.output
    row = dict(zip(*(ln.split(",") for ln in res.output.splitlines()[1:3])))
    assert float(row["e_lower"]) == float(row["e_upper"]) == 1.0


@pytest.mark.parametrize("lam", ["1e-318", "1e-314", "1e-323"])
@pytest.mark.parametrize("M,eta", [("2", "0.82"), ("4", "0.3")])
def test_noisy_bounds_at_subnormal_lambda(lam, M, eta):
    """Where the ML plan seed's quotients overflow, `bounds` writes a row
    with both noisy bounds at 1, and critical-l finds ml-upper's region
    empty."""
    point = ["-O", "G=3000000000", "-O", f"M={M}", "-O", "p=0.001",
             "-O", f"eta={eta}", "-O", "eps=0.1", "-O", f"lambda={lam}"]
    res = run(["bounds", *point, "-O", "L=1000"])
    assert res.exit_code == 0, res.output
    row = dict(zip(*(ln.split(",") for ln in res.output.splitlines()[1:3])))
    assert float(row["en_ml_upper"]) == float(row["en_sd_upper"]) == 1.0
    res = run(["critical-l", *point, "--target", "1e-3",
               "--bound", "ml-upper"])
    assert res.exit_code == 4, res.output


def test_bounds_flags_degenerate_bridging():
    """eb_degenerate is 1 where no discriminating SNP can arrive (eta = 1
    or p = 0), 0 otherwise, and empty on M = 1 rows, which have no
    bridging bounds."""
    def column(*args):
        res = run(["bounds", "-O", "G=1000000", "-O", "lambda=0.01",
                   "-O", "L=10000", *args])
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        header = lines[1].split(",")
        return [dict(zip(header, ln.split(",")))["eb_degenerate"]
                for ln in lines[2:]]

    assert column("-O", "M=3", "-O", "p=0.001", "-O", "eta=1.0") == ["1"]
    assert column("-O", "M=3", "-O", "p=0", "-O", "eta=0.5") == ["1"]
    assert column("-O", "M=3", "-O", "p=0.001", "-O", "eta=0.82") == ["0"]
    assert column("-O", "p=0.001", "-O", "eta=0.82",
                  "--sweep", "M=1:3:3") == ["", "0", "0"]


def test_critical_l_at_tiny_lambda_finds_the_region_empty():
    res = run(["critical-l", *BASE, "-O", "lambda=1e-20", "--target", "1e-3",
               "--bound", "assembly-lower"])
    assert res.exit_code == 4, res.output
    assert res.output.startswith("region empty: assembly-lower")


def _live_click_objects() -> int:
    gc.collect()
    modules = (vars(type(o)).get("__module__") for o in gc.get_objects())
    return sum(isinstance(m, str) and m.startswith("click") for m in modules)


def test_repeated_invocations_hold_no_click_objects():
    """In-process invocations leave no click objects behind, whether they
    echo to stdout (exit 0) or report an error on stderr (exit 2)."""
    ok = ["critical-l", *BASE, "--target", "1e-3",
          "--bound", "assembly-upper-asym", "--l-min", "1000",
          "--l-max", "1000000", "--json"]
    bad = ["bounds", *BASE, "-O", "L=1000", "-O", "bogus=1"]
    for args, code in ((ok, 0), (bad, 2)):  # warm click's own caches
        assert run(args).exit_code == code
    before = _live_click_objects()
    for i in range(100):
        args, code = (ok, 0) if i % 2 else (bad, 2)
        assert run(args).exit_code == code
    assert _live_click_objects() <= before


_NOISELESS = [bound for bound, (family, _) in cli._BOUNDS.items()
              if family not in _NOISY_FAMILIES]


def _outcome(fn):
    """A float as its exact bits, or the exception it raised."""
    try:
        return float(fn()).hex()
    except Exception as e:  # compared with the other side's outcome
        return type(e), str(e)


@st.composite
def bound_points(draw, noisy: bool):
    """Bound parameters with G in [1e3, 3e9], M in 1..12, p = 0 or in
    [1e-5, 1e-2], lambda = 0 or lambda L in [0.3, 80] (both sides of the
    coverage transition), L log-uniform over three or four decades, and
    eps in {0.01, 0.1, 0.5}. Noisy points keep p L <= 200 so each
    spectral optimisation stays cheap."""
    L = 10 ** draw(st.floats(2.0, 5.0 if noisy else 6.0))
    p_max = min(1e-2, 200.0 / L) if noisy else 1e-2
    return {
        "G": int(10 ** draw(st.floats(3.0, math.log10(3e9)))),
        "M": draw(st.integers(1, 12)),
        "p": draw(st.one_of(st.just(0.0), st.floats(1e-5, p_max))),
        "eta": draw(st.sampled_from([0.5, 0.82, 0.99, 1.0])),
        "lambda": draw(st.one_of(st.just(0.0),
                                 st.floats(0.3, 80.0).map(lambda c: c / L))),
        "L": L,
        "eps": draw(st.sampled_from([0.01, 0.1, 0.5])),
    }


def _check_evaluators(params, names, families):
    """Each named bound's evaluation in critical-l equals what `bounds`
    writes in its column: the applicable `families`, evaluated and merged
    in table order as the command merges them, where a family that raises
    stands for its columns with its exception."""
    config = cli.build_model(params)
    written, raised = {}, {}
    for family in families:
        evaluate, applies = cli._FAMILIES[family]
        if applies(config):
            try:
                written.update((column, float(value).hex()) for column, value
                               in evaluate(config, params).items())
            except Exception as e:  # compared with critical-l's outcome
                raised[family] = type(e), str(e)
    for name in names:
        family, column = cli._BOUNDS[name]
        if not cli._FAMILIES[family][1](config):
            continue  # `bounds` leaves the column empty here
        got = _outcome(lambda: cli._FAMILIES[family][0](config, params)[column])
        assert got == raised.get(family, written.get(column)), (name, params)


def test_bound_columns_cover_every_critical_l_bound():
    """At a point where every family applies, each critical-l bound's
    column is written by the family it names and by no other."""
    params = {"G": 10**6, "M": 3, "p": 1e-3, "eta": 0.82, "lambda": 0.01,
              "L": 20000.0, "eps": 0.1}
    config = cli.build_model(params)
    columns = {family: set(evaluate(config, params))
               for family, (evaluate, applies) in cli._FAMILIES.items()
               if applies(config)}
    assert list(columns) == list(cli._FAMILIES)
    for name, (family, column) in cli._BOUNDS.items():
        assert [f for f, cols in columns.items() if column in cols] == [family]


def test_readme_bound_table_matches_cli():
    """README's critical-l table gives each --bound name, in the order of
    the choices, with the `bounds` column it bisects."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` +\| `(\w+)` +\|", readme, re.M)
    assert rows == [(name, column)
                    for name, (_, column) in cli._BOUNDS.items()]


@settings(max_examples=300)
@given(bound_points(noisy=False))
def test_noiseless_evaluators_equal_their_bounds_columns(params):
    """Each noiseless critical-l bound evaluates bit for bit to its `bounds`
    column, or raises what `bounds` raises for the column's family."""
    _check_evaluators(params, _NOISELESS,
                      [f for f in cli._FAMILIES if f not in _NOISY_FAMILIES])


def test_bounds_row_runs_the_coverage_search_once(monkeypatch):
    """One `bounds` row maximises the segmented coverage bound once: the
    assembly-lower family writes esc_lower and e_lower from one
    coverage_lower call."""
    calls = []
    golden_max = noiseless_bounds.golden_max

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return golden_max(*args, **kwargs)

    monkeypatch.setattr(noiseless_bounds, "golden_max", counting)
    res = run(["bounds", *BASE, "-O", "L=100000"])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1


# each noiseless family -> the columns it writes, each with the library
# bound that column clamps
_LIBRARY_COLUMNS = {
    "assembly-lower": [("esc_lower", noiseless_bounds.coverage_lower),
                       ("e_lower", noiseless_bounds.assembly_lower)],
    "assembly-upper": [("esc_upper", noiseless_bounds.coverage_upper),
                       ("e_upper", noiseless_bounds.assembly_upper)],
    "bridging-lower": [("eb_lower", noiseless_bounds.bridging_lower)],
    "bridging-upper": [("eb_upper", noiseless_bounds.bridging_upper)],
}


@settings(max_examples=300)
@given(bound_points(noisy=False))
def test_noiseless_columns_equal_their_library_bounds(params):
    """Each noiseless column `bounds` writes is, bit for bit, clamp01 of its
    library bound, or its family raises what that bound raises. The
    bridging columns are written at M >= 2 only."""
    config = cli.build_model(params)
    for family, columns in _LIBRARY_COLUMNS.items():
        evaluate, applies = cli._FAMILIES[family]
        assert applies(config) == (config.M >= 2
                                   or not family.startswith("bridging"))
        if not applies(config):
            continue
        try:
            written = {column: float(value).hex() for column, value
                       in evaluate(config, params).items()}
        except Exception as e:  # compared with the library's outcome
            written = {column: (type(e), str(e)) for column, _ in columns}
        for column, bound in columns:
            want = _outcome(lambda: clamp01(bound(config)))
            assert written[column] == want, (column, params)


# `bounds` at the model's edges, on a 1e8 genome: the digest of stdout,
# which fixes each edge's set of columns (M = 1 rows have no eb_* column)
@pytest.mark.parametrize("edge,digest", [
    ("M=1", "8fe9f308ea656e69"),
    ("lambda=0", "2323b13137cb41ea"),
    ("p=0", "bd38d1e2574f0b0c"),
    ("eta=1.0", "bb6fcbe992922ae5"),
    ("M=12", "e90561e348dc5e85"),
])
def test_bounds_edges_keep_stdout(edge, digest):
    res = run(["bounds", "-O", "G=100000000", "-O", "M=2", "-O", "p=0.001",
               "-O", "eta=0.82", "-O", "lambda=0.01", "-O", edge,
               "--sweep", "L=1000:1000000:4:log"])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest()[:16] == digest


@settings(max_examples=25)
@given(bound_points(noisy=True))
def test_noisy_evaluators_equal_their_bounds_columns(params):
    """As above for ml-upper and spectral-upper, which minimise over (D, d)
    at every evaluation."""
    _check_evaluators(params, ["ml-upper", "spectral-upper"], cli._FAMILIES)


# critical-l at the model's edges, on a 1e8 genome at eps = 0.1: the exit
# code and a digest of stdout, which each bound's evaluator must keep
@pytest.mark.parametrize("edge,bound,code,digest", [
    ("M=1", "assembly-upper", 0, "98ba886088495275"),
    ("M=1", "assembly-lower", 0, "c531e8c7bc1b3a4a"),
    ("M=1", "assembly-upper-asym", 0, "642ce4ced184af29"),
    ("M=1", "coverage-upper", 0, "0fefe046c91b6f6a"),
    ("M=1", "bridging-upper", 0, "d51e23be19fc703f"),
    ("M=1", "ml-upper", 2, "e3b0c44298fc1c14"),
    ("M=1", "spectral-upper", 2, "e3b0c44298fc1c14"),
    ("lambda=0", "assembly-upper", 4, "c921d3dee6c7b9ae"),
    ("lambda=0", "assembly-lower", 4, "15327feb0b51219e"),
    ("lambda=0", "assembly-upper-asym", 2, "e3b0c44298fc1c14"),
    ("lambda=0", "coverage-upper", 4, "7d4ec637f327c6d4"),
    ("lambda=0", "bridging-upper", 4, "59579c844ead04e0"),
    ("lambda=0", "ml-upper", 4, "232eecaaaf5da4df"),
    ("lambda=0", "spectral-upper", 4, "97fa3eb03f0cbec7"),
    ("p=0", "assembly-upper", 0, "7bec244f8e2e2592"),
    ("p=0", "assembly-lower", 0, "ff3d394754924347"),
    ("p=0", "assembly-upper-asym", 0, "f88af37019110427"),
    ("p=0", "coverage-upper", 0, "1f3ea7f612f8a140"),
    ("p=0", "bridging-upper", 0, "d51e23be19fc703f"),
    ("p=0", "ml-upper", 4, "232eecaaaf5da4df"),
    ("p=0", "spectral-upper", 4, "97fa3eb03f0cbec7"),
    ("eps=0.5", "assembly-upper", 0, "aa24e3e905cda0f5"),
    ("eps=0.5", "assembly-lower", 0, "61c2b1831495c8f0"),
    ("eps=0.5", "assembly-upper-asym", 0, "75439c3e95f0e9bd"),
    ("eps=0.5", "coverage-upper", 0, "f2f019483f128e2e"),
    ("eps=0.5", "bridging-upper", 0, "2d014a1c0ea22836"),
    ("eps=0.5", "ml-upper", 4, "232eecaaaf5da4df"),
    ("eps=0.5", "spectral-upper", 4, "97fa3eb03f0cbec7"),
])
def test_critical_l_edges_keep_exit_code_and_stdout(edge, bound, code, digest):
    res = run(["critical-l", *_NOISY, "-O", edge, "--target", "1e-3",
               "--bound", bound, "--l-min", "1000", "--l-max", "1000000",
               "--json"])
    assert res.exit_code == code, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest()[:16] == digest


@st.composite
def monotone_grids(draw, noisy: bool):
    """A bound point and a sorted grid of 2-5 values of L or of lambda, at
    least 1% apart: over a step of one ulp, rounding moves these closed
    forms either way. lambda L >= 1: below it the union coverage bound can
    rise with lambda when an individual has few reads, a defect kept in
    test_noiseless_bounds.py::test_recorded_bound_defects."""
    params = draw(bound_points(noisy))
    params["lambda"] = draw(st.floats(1.0, 80.0)) / params["L"]
    axis = draw(st.sampled_from(["L", "lambda"]))
    lo = params[axis]
    factors = draw(st.lists(st.floats(1.01, 4.0), min_size=1, max_size=4,
                            unique=True))
    return params, axis, sorted({lo * f for f in factors} | {lo})


def _check_non_increasing(params, axis, grid, names):
    for name in names:
        family, column = cli._BOUNDS[name]
        vals = []
        for v in grid:
            point = {**params, axis: v}
            vals.append(cli._FAMILIES[family][0](cli.build_model(point),
                                                 point)[column])
        assert all(b <= a for a, b in zip(vals, vals[1:])), (name, axis, vals)


@settings(max_examples=200)
@given(monotone_grids(noisy=False))
def test_noiseless_upper_evaluators_non_increasing_in_L_and_lambda(case):
    """No tolerance. assembly-lower is left out: its golden search lands on
    different peaks of a sawtooth in the gap length, and below about 1e-13
    it is rounding noise, so it can rise (both kept as expected failures
    in test_recorded_bound_defects)."""
    params, axis, grid = case
    _check_non_increasing(params, axis, grid,
                          [b for b in _NOISELESS if b != "assembly-lower"])


@settings(max_examples=15)
@given(monotone_grids(noisy=True))
def test_noisy_evaluators_non_increasing_in_L_and_lambda(case):
    params, axis, grid = case
    # noisy bounds need M >= 2, and the ML exponent refuses M >= 8; so does
    # spectral-upper, whose (D, d) search is seeded from that exponent
    # (test_spectral_upper_evaluates_at_eight_individuals)
    params["M"] = min(max(params["M"], 2), 7)
    _check_non_increasing(params, axis, grid, ["ml-upper", "spectral-upper"])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="spectral-upper seeds its (D, d) search from the ML "
                          "exponent, whose table refuses M >= 8")
def test_spectral_upper_evaluates_at_eight_individuals():
    """The spectral bound uses no ML exponent, yet at M = 8 it exits 3: its
    (D, d) search is seeded by ml_plan_seed, whose exponent_closed(8)
    builds a table of C(16, 8) = 12,870 hypothesis sets, past
    PAIR_ENUM_CAP. At M = 7 the same solve exits 0."""
    res = run(["critical-l", "-O", "G=3000000", "-O", "M=8", "-O", "p=0.001",
               "-O", "eta=0.82", "-O", "lambda=0.01", "-O", "eps=0.1",
               "--target", "1e-2", "--bound", "spectral-upper",
               "--l-min", "1e4", "--l-max", "1e6", "--json"])
    assert res.exit_code == 0, res.stderr


@pytest.mark.parametrize("args,message", [
    (["bounds", "-O", "G=1000", "-O", "M=2", "-O", "p=0.01", "-O", "eta=0.8"],
     "missing required key 'lambda'"),
    (["bounds", *BASE, "--sweep", "L=1:2"],
     "expected NAME=MIN:MAX:COUNT[:log]"),
    (["bounds", *BASE, "--sweep", "foo=1:2:3"], "unknown parameter 'foo'"),
    (["bounds", *BASE, "--sweep", "L=1:2:0"], "count must be >= 1"),
    (["bounds", *BASE, "--sweep", "L=1:2:3:cubic"],
     "scale must be linear or log"),
    ([*_SIM, "-O", "eps=0.1"], "noisy simulation needs D and d"),
    (["exponent", "--m", "2", "--kappa", "3", "--eps", "0.1,abc"],
     "cannot parse eps list '0.1,abc'"),
    (["bounds", *BASE, "--sweep", "L=100:200:2", "--sweep", "L=300:400:2"],
     "axis 'L' is repeated"),
    ([*_BRIDGE, "--trials", "0"], "trials must be >= 1, got 0"),
])
def test_refusals_name_their_cause(args, message):
    """Each refusal exits 2 with one error line that says what is wrong."""
    res = run(args)
    assert res.exception is None \
        or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") \
        and message in lines[0], res.stderr


def test_bounds_accepts_worst_case_nu_min_mode():
    """`nu_min_mode=worst_case` is parsed, used by the spectral bound and
    echoed in its column."""
    res = run(["bounds", *_NOISY, "-O", "L=20000",
               "-O", "nu_min_mode=worst_case"])
    assert res.exit_code == 0, res.output
    lines = res.stdout.strip().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["nu_min_mode"] == "worst_case"
    assert 0.0 <= float(row["en_sd_upper"]) <= 1.0


def test_critical_l_text_output():
    """Without --json, critical-l prints one `key: value` line per result
    field, with the same values as its JSON form."""
    args = ["critical-l", *BASE, "--target", "1e-3",
            "--bound", "assembly-upper-asym", "--l-min", "1000",
            "--l-max", "1000000"]
    res = run(args)
    assert res.exit_code == 0, res.output
    result = json.loads(run([*args, "--json"]).stdout)
    assert res.stdout.splitlines() == [f"{key}: {result[key]}" for key in
                                       ("bound", "target", "critical_L",
                                        "bracket", "iterations")]


def test_critical_l_refuses_an_increasing_bound(monkeypatch):
    """A bound that is larger at --l-max than at --l-min cannot be
    bisected: exit 2 before any bisection step."""
    family, column = cli._BOUNDS["assembly-upper"]
    applies = cli._FAMILIES[family][1]
    monkeypatch.setitem(cli._FAMILIES, family,
                        (lambda config, params: {column: config.L / 1e7},
                         applies))
    res = run(["critical-l", *BASE, "--target", "1e-3",
               "--bound", "assembly-upper", "--l-min", "1000",
               "--l-max", "1000000"])
    assert res.exit_code == 2
    assert "bound is not non-increasing on the bracket" in res.stderr
