import contextlib
import csv
import io
import itertools
import math
import os
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrp import algorithms as alg, cli, dynamics
from nrp.algorithms import (Algorithm, mpfp_config, nag_config, pnorm_config,
                            smooth_config, vanilla_perceptron)
from nrp.cli import ALGOS, SUMMARY_HEADER, TRACE_HEADER, main
from nrp.core import margin, read_dataset
from nrp.dynamics import run_dynamics
from conftest import nan_dual_map_from, nrp_process


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "data.txt"
    code, _, _ = run_cli(capsys, "gen", "--n", "16", "--d", "4", "--gamma",
                         "0.3", "--mode", "exact", "--seed", "7",
                         "--out", str(out))
    assert code == 0
    ds = read_dataset(out)
    assert ds.n == 16 and ds.d == 4 and ds.known_margin == 0.3


def test_gen_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--n", "8", "--d", "3", "--gamma", "0.25", "--seed", "3"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_gamma_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--n", "8", "--d", "3", "--gamma",
                           "1.5", "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "gamma" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", "nosuch"])
    assert exc.value.code == 2


def test_run_trace_schema(tmp_path, capsys):
    outdir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "--algo", "smooth", "--n", "16",
                           "--d", "4", "--gamma", "0.4", "--mode", "exact",
                           "--T", "20", "--out", str(outdir))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2] == SUMMARY_HEADER
    fields = lines[-1].split(",")
    assert fields[0] == "smooth" and fields[1] == "16" and fields[4] == "20"
    trace_path = outdir / "trace_smooth.csv"
    with open(trace_path) as fh:
        rows = list(csv.reader(fh))
    assert ",".join(rows[0]) == TRACE_HEADER
    assert len(rows) == 21
    for row in rows[1:]:
        assert len(row) == 8
        [float(x) for x in row]            # every cell parses as a number
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 21))


def test_run_auto_horizon_nonneg_margin(capsys):
    code, out, _ = run_cli(capsys, "run", "--algo", "smooth", "--n", "16",
                           "--d", "4", "--gamma", "0.4", "--mode", "exact",
                           "--T", "auto")
    assert code == 0
    final_margin = float(out.strip().splitlines()[-1].split(",")[5])
    assert final_margin >= 0.0


def test_run_rejects_t_zero(capsys):
    code, _, err = run_cli(capsys, "run", "--algo", "smooth", "--n", "8",
                           "--d", "3", "--T", "0")
    assert code == 2


def test_run_determinism_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    args = ["run", "--algo", "mpfp", "--n", "12", "--d", "4", "--gamma",
            "0.3", "--seed", "5", "--T", "30"]
    assert run_cli(capsys, *args, "--out", str(d1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(d2))[0] == 0
    assert ((d1 / "trace_mpfp.csv").read_bytes()
            == (d2 / "trace_mpfp.csv").read_bytes())


def test_run_vanilla_summary_nan_regrets(capsys):
    code, out, _ = run_cli(capsys, "run", "--algo", "vanilla", "--n", "8",
                           "--d", "3", "--gamma", "0.3", "--mode", "exact",
                           "--T", "auto")
    assert code == 0
    fields = out.strip().splitlines()[-1].split(",")
    assert fields[7] == "nan" and fields[8] == "nan"


@pytest.mark.parametrize("which", ["prop1", "prop2", "nag", "mpfp"])
def test_equiv_pass_and_fail_exit_codes(capsys, which):
    # the perturbed p step is the negative control of every pair
    base = ["equiv", "--which", which, "--n", "16", "--d", "4", "--gamma",
            "0.3", "--seed", "1", "--T", "50"]
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli(capsys, *base, "--perturb", "1e-3")
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("which", ["prop1", "prop2", "nag", "mpfp"])
def test_equiv_process_passes_every_pair_at_the_medium_benchmark_shape(which):
    # n = 2000, d = 50, T = 400 drive many softmax arguments below -708,
    # where the p-player's step clamps its exp argument
    done = nrp_process("equiv", "--which", which, "--n", "2000", "--d", "50",
                       "--gamma", "0.1", "--T", "400")
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("PASS") for line in done.stdout.splitlines()), done.stdout


@pytest.mark.parametrize("which", ["prop1", "prop2", "nag", "mpfp"])
def test_equiv_process_keeps_no_T_by_n_record_at_a_large_shape(which):
    # n = 20000, d = 20, T = 1000: one (T, n) float64 record is 153 MiB,
    # above the limit on its own.  Each child reads its own peak, since
    # RUSAGE_CHILDREN here would be the largest child of the test run
    done = nrp_process("equiv", "--which", which, "--n", "20000", "--d", "20",
                       "--gamma", "0.1", "--T", "1000", peak=True)
    assert done.returncode == 0, done.stderr
    *report, peak_kib = done.stdout.splitlines()
    assert any(line.startswith("PASS") for line in report), done.stdout
    assert int(peak_kib) / 1024 < 150, f"peak RSS {int(peak_kib) / 1024:.1f} MiB, limit 150 MiB"


def test_sweep_process_and_run_process_agree_on_one_cell_for_every_algorithm(tmp_path):
    # a sweep plays its games with the regret books alone, `nrp run` reads a
    # trace; final_margin, final_normalized_margin, Rw and Rp, fields 6-9 of
    # the run's last line and 8-11 of the sweep's row, match byte for byte
    cell = ["--n", "24", "--d", "5", "--gamma", "0.25", "--p", "3", "--seed", "3",
            "--mode", "lower", "--T", "30"]
    algos = ["smooth", "ji", "nag", "mpfp", "pnorm", "vanilla", "dynamics"]
    out = tmp_path / "sweep.csv"
    done = nrp_process("sweep", "--algos", *algos, *cell, "--out", str(out))
    assert done.returncode == 0, done.stderr
    rows = out.read_text().splitlines()
    for algo in algos:
        ran = nrp_process("run", "--algo", algo, *cell)
        assert ran.returncode == 0, ran.stderr
        swept = [row for row in rows if row.startswith(f"{algo},")]
        assert len(swept) == 1, swept
        ran_fields = ran.stdout.splitlines()[-1].split(",")[5:9]
        assert len(ran_fields) == 4 and all(ran_fields), ran.stdout
        assert ran_fields == swept[0].split(",")[7:11], algo


def test_equiv_base_case(capsys):
    code, _, _ = run_cli(capsys, "equiv", "--which", "mpfp", "--n", "8",
                         "--d", "3", "--gamma", "0.3", "--T", "1")
    assert code == 0


def test_sweep_grid_and_ordering(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--algos", "smooth", "nag", "--n",
                         "8", "--gamma", "0.3", "--seed", "0", "1", "2",
                         "--T", "10", "20", "--out", str(out))
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 3 * 2
    assert rows[1][0] == "smooth" and rows[-1][0] == "nag"


def test_sweep_deterministic_bytes(tmp_path, capsys):
    # one sweep plays the four seeds of each (algo, n, p, T) group as one
    # batch; four single-seed sweeps play each alone.  Rows must agree
    # byte for byte apart from the wallclock column.
    args = ["sweep", "--algos", "smooth", "nag", "mpfp", "pnorm", "--n", "16",
            "--gamma", "0.3", "--p", "2", "3", "--T", "15"]
    batched = tmp_path / "batched.csv"
    assert run_cli(capsys, *args, "--seed", "0", "1", "2", "3",
                   "--out", str(batched))[0] == 0
    singles = []
    for seed in range(4):
        single = tmp_path / f"seed{seed}.csv"
        assert run_cli(capsys, *args, "--seed", str(seed), "--out", str(single))[0] == 0
        singles.append(single.read_text().splitlines())
    strip = lambda lines: [line.rsplit(",", 1)[0] for line in lines]
    rows = strip(batched.read_text().splitlines())
    assert len(rows) == 1 + 4 * 2 * 4
    # grid order: with one T, the seed varies fastest
    assert rows[1:] == [row for cell in zip(*(strip(s)[1:] for s in singles))
                        for row in cell]


def test_sweep_split_batches_give_same_rows(tmp_path, capsys, monkeypatch):
    args = ["sweep", "--algos", "mpfp", "nag", "--n", "16", "--d", "4",
            "--seed", "0", "1", "2", "--T", "10"]
    whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
    assert run_cli(capsys, *args, "--out", str(whole))[0] == 0
    sizes = []
    play_batch = Algorithm.play_batch

    def spy(self, datasets, horizon, p_exp):
        sizes.append(len(datasets))
        return play_batch(self, datasets, horizon, p_exp)

    monkeypatch.setattr(Algorithm, "play_batch", spy)
    monkeypatch.setattr(cli, "SWEEP_BATCH_BYTES", 2 * 8 * 16 * 4)
    assert run_cli(capsys, *args, "--out", str(split))[0] == 0
    assert sizes == [2, 2, 1, 1]
    strip = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
    assert strip(whole) == strip(split)


def sweep_rows(capsys, path, *argv):
    """The CSV lines a sweep writes to path, without the wallclock column."""
    assert run_cli(capsys, "sweep", *argv, "--out", str(path))[0] == 0
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return fn(*args)
    monkeypatch.setattr(module, name, counted)


def test_sweep_generates_each_dataset_and_plays_each_game_once(tmp_path, capsys,
                                                               monkeypatch):
    # the sweep-small grid: 48 cells on 8 distinct datasets, two n of four
    # seeds each; smooth and ji play one game, vanilla none, so each n runs
    # 4 games
    calls = {"generate": 0, "run_dynamics_totals": 0}
    count_calls(monkeypatch, cli, "generate", calls)
    count_calls(monkeypatch, alg, "run_dynamics_totals", calls)
    rows = sweep_rows(capsys, tmp_path / "s.csv", "--algos", "smooth", "ji", "nag",
                      "mpfp", "pnorm", "vanilla", "--n", "64", "256", "--d", "8",
                      "--gamma", "0.3", "--seed", "0", "1", "2", "3", "--T", "200",
                      "--mode", "exact")
    assert len(rows) == 1 + 48
    assert calls == {"generate": 8, "run_dynamics_totals": 8}


def test_sweep_shared_game_rows_match_single_algorithm_sweeps(tmp_path, capsys,
                                                              monkeypatch):
    grid = ["--n", "16", "24", "--p", "2", "3", "--seed", "0", "1", "--T", "10", "25",
            "--mode", "lower"]
    singles = [sweep_rows(capsys, tmp_path / f"{algo}.csv", "--algos", algo, *grid)
               for algo in ("smooth", "ji", "dynamics")]
    calls = {"run_dynamics_totals": 0}
    count_calls(monkeypatch, alg, "run_dynamics_totals", calls)
    shared = sweep_rows(capsys, tmp_path / "shared.csv", "--algos", "smooth", "ji",
                        "dynamics", *grid)
    # one batch per (n, p) family and T, read by all three algorithms
    assert calls == {"run_dynamics_totals": 2 * 2 * 2}
    assert shared == singles[0] + singles[1][1:] + singles[2][1:]


def test_sweep_builds_no_trace(tmp_path, capsys, monkeypatch):
    # a sweep's games keep only the regret books its rows read, with the
    # bits of the traces
    grid = ["--algos", *ALGOS, "--n", "16", "--p", "2", "3", "--seed", "0", "1",
            "--T", "1", "20"]
    want = sweep_rows(capsys, tmp_path / "want.csv", *grid)

    def no_trace(*args, **kwargs):
        raise AssertionError("a sweep built a Trace")

    monkeypatch.setattr(dynamics, "Trace", no_trace)
    assert sweep_rows(capsys, tmp_path / "got.csv", *grid) == want


@pytest.mark.parametrize("p,mode", [("2", "exact"), ("3", "lower")])
def test_run_summary_matches_the_sweep_row(tmp_path, capsys, p, mode):
    # `nrp run` reads a trace and `nrp sweep` the regret books alone; the
    # final margins and regrets of one cell agree byte for byte
    cell = ["--n", "24", "--d", "5", "--gamma", "0.25", "--p", p, "--seed", "3",
            "--mode", mode]
    horizons = ("1", "30")
    rows = sweep_rows(capsys, tmp_path / "sweep.csv", "--algos", *ALGOS, *cell,
                      "--T", *horizons)[1:]
    runs = itertools.product(ALGOS, horizons)
    assert len(rows) == len(ALGOS) * len(horizons)
    for (algo, horizon), row in zip(runs, rows):
        code, out, _ = run_cli(capsys, "run", "--algo", algo, *cell, "--T", horizon)
        assert code == 0
        summary = out.strip().splitlines()[-1].split(",")
        # final_margin, final_normalized_margin, Rw, Rp
        assert summary[5:9] == row.split(",")[7:11], (algo, horizon)


def test_sweep_duplicate_cells_keep_grid_order(tmp_path, capsys):
    rows = sweep_rows(capsys, tmp_path / "dup.csv", "--algos", "nag", "nag", "mpfp",
                      "--n", "16", "--seed", "0", "0", "1", "--T", "10")
    expected = [sweep_rows(capsys, tmp_path / f"{algo}{seed}.csv", "--algos", algo,
                           "--n", "16", "--seed", seed, "--T", "10")[1]
                for algo in ("nag", "nag", "mpfp") for seed in ("0", "0", "1")]
    assert rows[1:] == expected


def test_sweep_exact_mode_uses_lower_bound_data_off_p_2(tmp_path, capsys):
    # exact margins exist only at p = 2: an exact sweep's p = 3 cells are
    # played on the lower-bound data, and its p = 2 cells are not
    grid = ["--algos", "smooth", "pnorm", "--n", "16", "--seed", "0", "1", "--T", "10"]
    exact3, lower3, exact2, lower2 = (
        sweep_rows(capsys, tmp_path / f"{mode}{p}.csv", *grid, "--p", p, "--mode", mode)
        for p in ("3", "2") for mode in ("exact", "lower"))
    assert exact3 == lower3 and len(exact3) == 1 + 2 * 2
    assert exact2[1:] != lower2[1:]


def test_sweep_cell_that_cannot_be_generated_names_its_cell(tmp_path, capsys):
    # no 16 points fit outside margin 0.9999: the error names the cell
    # whose dataset failed, not only the sampler's n and gamma
    code, _, err = run_cli(capsys, "sweep", "--algos", "smooth", "--n", "16", "--d", "4",
                           "--gamma", "0.3", "0.9999", "--mode", "lower", "--T", "10",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err == ("error: cell n=16, gamma=0.9999, p=2.0, seed=0, mode=lower: "
                   "could not place 16 points at margin 0.9999\n")


def test_sweep_empty_grid_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, _, _ = run_cli(capsys, "sweep", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("algo,")


def test_run_reads_dataset_file(tmp_path, capsys):
    data = tmp_path / "d.txt"
    run_cli(capsys, "gen", "--n", "8", "--d", "3", "--gamma", "0.3",
            "--mode", "exact", "--seed", "2", "--out", str(data))
    code, out, _ = run_cli(capsys, "run", "--algo", "ji", "--data", str(data),
                           "--n", "0", "--d", "0", "--T", "25")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[1] == "8"


@pytest.mark.parametrize("algo,horizon", [("mpfp", "5"), ("pnorm", "5"),
                                          ("smooth", "auto")])
def test_run_single_row_exit_2(capsys, algo, horizon):
    # log n = 0 at n = 1: no step size for mpfp and pnorm, no auto horizon
    code, _, err = run_cli(capsys, "run", "--algo", algo, "--n", "1",
                           "--d", "3", "--mode", "lower", "--T", horizon)
    assert code == 2
    assert algo in err and "n = 1" in err


@pytest.mark.parametrize("argv", [
    ["run", "--algo", "smooth", "--n", "0", "--d", "3", "--T", "5"],
    ["sweep", "--algos", "smooth", "--n", "8", "--T", "0", "--out", "{tmp}/s.csv"],
    ["run", "--algo", "smooth", "--data", "{tmp}/missing.txt", "--n", "0",
     "--d", "0", "--T", "5"],
    ["run", "--algo", "smooth", "--mode", "exact", "--n", "1", "--d", "3",
     "--T", "5"],
    ["run", "--algo", "pnorm", "--n", "8", "--d", "3", "--p-exp", "1",
     "--T", "5"],
    ["sweep", "--algos", "vanilla", "--n", "8", "--T", "0", "--out",
     "{tmp}/s.csv"],
    ["equiv", "--which", "prop1", "--n", "8", "--d", "3", "--T", "5",
     "--tol", "nan"],
    ["equiv", "--which", "prop1", "--n", "8", "--d", "3", "--T", "5",
     "--tol", "inf"],
    ["equiv", "--which", "prop1", "--n", "8", "--d", "3", "--T", "5",
     "--tol", "0"],
    ["equiv", "--which", "prop1", "--n", "8", "--d", "3", "--T", "5",
     "--perturb", "inf"],
    ["gen", "--n", "8", "--d", "3", "--p", "inf", "--mode", "lower",
     "--out", "{tmp}/x.txt"],
    ["run", "--algo", "smooth", "--n", "8", "--d", "3",
     "--T", "100000000000000000000"],
    ["gen", "--n", "8", "--d", "3", "--out", "{tmp}/missing_dir/x.txt"],
    ["run", "--algo", "smooth", "--n", "8", "--d", "3", "--T", "5",
     "--out", "{tmp}/file/traces"],
    ["sweep", "--algos", "smooth", "--n", "8", "--T", "5", "--out",
     "{tmp}/file/s.csv"],
    ["run", "--algo", "smooth", "--T", "5"],
    ["gen", "--n", "8", "--d", "3", "--seed", "-1", "--out", "{tmp}/x.txt"],
    ["sweep", "--algos", "smooth", "--n", "8", "--T", "5", "--seed", "-1",
     "--out", "{tmp}/s.csv"],
    ["run", "--algo", "pnorm", "--n", "16", "--d", "4", "--p-exp", "inf",
     "--T", "5"],
    ["run", "--algo", "pnorm", "--n", "16", "--d", "4", "--p-exp", "1e300",
     "--T", "5"],
    ["run", "--algo", "pnorm", "--n", "16", "--d", "4", "--p-exp", "inf"],
    ["run", "--algo", "pnorm", "--n", "16", "--d", "4", "--p-exp", "nan"],
    # Gamma(1/1000) draws underflow to 0, and so can a direction's norm
    ["gen", "--n", "5", "--d", "3", "--p", "1000", "--mode", "lower",
     "--out", "{tmp}/x.txt"],
    # 1 / gamma^2 divides by 0 at gamma = 1e-200 and overflows at 1e-160;
    # a margin above 1 is not read
    ["run", "--algo", "vanilla", "--data", "{tmp}/margin_1e-200.txt"],
    ["run", "--algo", "vanilla", "--data", "{tmp}/margin_1e-160.txt"],
    ["run", "--algo", "vanilla", "--data", "{tmp}/margin_1e200.txt"],
    # infeasible data has no known_margin for --T auto
    ["run", "--algo", "smooth", "--n", "8", "--d", "3", "--mode", "infeasible"],
    ["run", "--algo", "smooth", "--data", "{tmp}/w_star_2.txt", "--T", "5"],
    ["gen", "--mode", "infeasible", "--p", "3", "--n", "8", "--d", "3",
     "--out", "{tmp}/x.txt"],
    # data matrices numpy refuses at once: past its index range (over 2^63
    # bytes) or past any address space (over 2^57 bytes)
    ["gen", "--n", "1000000000000", "--d", "100000", "--out", "{tmp}/x.txt"],
    ["gen", "--n", "1000000000000", "--d", "100000000", "--mode", "lower",
     "--out", "{tmp}/x.txt"],
    ["gen", "--n", "100000000000000000", "--d", "4", "--mode", "infeasible",
     "--out", "{tmp}/x.txt"],
    ["sweep", "--algos", "smooth", "--n", "64", "--d", "10000000000000000",
     "--T", "5", "--out", "{tmp}/s.csv"],
    ["run", "--algo", "smooth", "--data", "{tmp}/huge.txt", "--T", "5"],
], ids=["run_n_0", "sweep_T_0", "missing_data_file", "exact_n_1", "p_exp_1",
        "sweep_vanilla_T_0", "equiv_tol_nan", "equiv_tol_inf", "equiv_tol_0",
        "equiv_perturb_inf", "gen_p_inf", "run_T_huge",
        "gen_out_missing_dir", "run_out_under_file", "sweep_out_under_file",
        "run_no_data_no_n_d", "gen_seed_negative", "sweep_seed_negative",
        "p_exp_inf", "p_exp_1e300", "p_exp_inf_T_auto", "p_exp_nan_T_auto",
        "gen_p_1000_lower", "auto_margin_1e-200", "auto_margin_1e-160",
        "margin_1e200", "infeasible_T_auto", "w_star_dual_norm_2",
        "infeasible_p_3", "gen_exact_huge", "gen_lower_huge", "gen_infeasible_huge",
        "sweep_d_huge", "run_data_huge"])
def test_bad_input_exit_2(tmp_path, capsys, argv):
    (tmp_path / "file").touch()        # a path under it is not a directory
    rows = "3 2 2\n1 0.5 0.5\n1 0.5 -0.25\n-1 -0.5 0.25\n"
    for gamma in ("1e-200", "1e-160", "1e200"):
        (tmp_path / f"margin_{gamma}.txt").write_text(rows + f"# known_margin={gamma}\n")
    (tmp_path / "w_star_2.txt").write_text(rows + "# known_margin=0.1\n# w_star=2 0\n")
    (tmp_path / "huge.txt").write_text("1000000000000 100000000 2\n" + rows[6:])
    code, _, err = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("old,new", [("16 4 2\n", "16 4 inf\n"),
                                     ("# w_star=1 0 0 0", "# w_star=nan nan nan nan")],
                         ids=["p_inf", "w_star_nan"])
def test_run_non_finite_dataset_file_exit_2(tmp_path, capsys, old, new):
    data = tmp_path / "d.txt"
    run_cli(capsys, "gen", "--n", "16", "--d", "4", "--mode", "exact",
            "--out", str(data))
    text = data.read_text()
    assert old in text
    data.write_text(text.replace(old, new))
    code, _, err = run_cli(capsys, "run", "--algo", "smooth", "--data", str(data),
                           "--T", "5")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("text,line", [
    ("3 2 2\n1 0.5 0.5\n1 1e308 0\n1 0.5 -0.25\n", 3),
    ("3 2 2\n1 0.5 0.5\n1 0.5 -0.25\n-1 -0.5 0.25\n# known_margin=0.1\n"
     "# w_star=1 1e308\n", 6),
    ("2 2 2\n# exact=false\n", 1)], ids=["feature_1e308", "w_star_1e308", "no_data_rows"])
def test_run_overflowing_dataset_file_warns_nothing(tmp_path, capsys, text, line):
    # an entry past the unit bound is rejected before a norm of it overflows,
    # and a file with no data rows before loadtxt warns of no data, so
    # stderr holds the one error line, naming the file's line
    data = tmp_path / "d.txt"
    data.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "run", "--algo", "smooth", "--data", str(data),
                               "--T", "5")
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert f"{data}, line {line}: " in err


def test_run_lower_bound_file_at_odd_d_warns_nothing(tmp_path, capsys):
    # at an odd d the sign draws' half word passes from candidate to
    # candidate; the file reads back in one loadtxt call and plays with no
    # warning of any class
    data = tmp_path / "lower.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "gen", "--mode", "lower", "--p", "3", "--n", "3000",
                       "--d", "41", "--out", str(data))[0] == 0
        code, _, err = run_cli(capsys, "run", "--algo", "smooth", "--data", str(data),
                               "--T", "20")
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv,unbuffered", [
    pytest.param(argv, unbuffered, id=f"{argv[0].lstrip('-')}-{'un' * bool(unbuffered)}buffered")
    for argv in (["equiv", "--which", "prop1", "--n", "8", "--d", "3", "--T", "5"],
                 ["run", "--algo", "smooth", "--n", "8", "--d", "3", "--T", "5"],
                 ["gen", "--n", "8", "--d", "3", "--out", "{tmp}/x.txt"],
                 # argparse prints --help and exits before a command runs;
                 # it drops a failed write, which nrp's parser raises
                 ["--help"])
    for unbuffered in ("", "1")])
def test_closed_stdout_exit_2(tmp_path, argv, unbuffered):
    # stdout's reader is gone before the first write, as in `nrp equiv |
    # head -c0`: a buffered stdout fails at its flush, an unbuffered one at
    # the print, and either exits 2 with one error line, not 1, the FAIL code
    read, write = os.pipe()
    os.close(read)
    try:
        done = nrp_process(*[a.format(tmp=tmp_path) for a in argv], stdout=write,
                           PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def readme_commands():
    """The commands of README's CLI block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln) for ln in lines if ln.strip() and not ln.startswith("#")]


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[:2] for argv in commands] == [["nrp", "gen"], ["nrp", "run"],
                                               ["nrp", "equiv"], ["nrp", "sweep"]]
    for argv in commands:
        assert run_cli(capsys, *argv[1:])[0] == 0, argv


def test_run_pnorm_large_exponent(capsys):
    # q = 20/19 lies close to 1, where the closed-form dual map still holds
    code, out, _ = run_cli(capsys, "run", "--algo", "pnorm", "--n", "16", "--d", "4",
                           "--mode", "lower", "--T", "20", "--p-exp", "20")
    assert code == 0 and float(out.splitlines()[-1].split(",")[5]) > 0


def test_run_pnorm_overflow_names_round_and_player(capsys, monkeypatch):
    # a dual map that overflows into a NaN w_19: the error names the round
    # and the player, not the softmax that met it
    nan_dual_map_from(monkeypatch, 19)
    code, _, err = run_cli(capsys, "run", "--algo", "pnorm", "--n", "16", "--d", "4",
                           "--mode", "lower", "--T", "20", "--p-exp", "200")
    assert code == 2
    assert "round 19" in err and "w-player" in err


@pytest.mark.parametrize("p_exp", ["200", "1e6", "1e15"])
def test_run_pnorm_large_p_exp(capsys, p_exp):
    # the p-norms and the dual map are taken of rows scaled to entries of
    # at most 1, so no power overflows; a warning of any class fails the
    # test, as a fresh interpreter would print it on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "run", "--algo", "pnorm", "--n", "16", "--d", "4",
                                 "--mode", "lower", "--T", "20", "--p-exp", p_exp)
    assert code == 0 and err == ""
    assert math.isfinite(float(out.splitlines()[-1].split(",")[5]))


def test_run_nan_norm_exponent_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "8", "--d", "3", "--p", "nan",
                           "--mode", "lower", "--T", "5", "--algo", "smooth")
    assert code == 2
    assert "norm_exponent" in err and "nan" in err


@pytest.mark.parametrize("command", [["run", "--algo", "smooth"],
                                     ["equiv", "--which", "prop1"]])
def test_non_integer_horizon_exit_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--n", "8", "--d", "3", "--T", "abc"])
    assert exc.value.code == 2


def test_run_truncated_dataset_exit_2(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("4 2 2\n1 0.5 0.5\n")
    code, _, err = run_cli(capsys, "run", "--algo", "smooth", "--data",
                           str(data), "--n", "0", "--d", "0", "--T", "5")
    assert code == 2 and "line 1" in err


def test_run_auto_nonpositive_margin_exit_2(tmp_path, capsys):
    data = tmp_path / "d.txt"
    run_cli(capsys, "gen", "--n", "8", "--d", "3", "--gamma", "0.3",
            "--mode", "lower", "--out", str(data))
    text = data.read_text().replace("# known_margin=0.29999999999999999",
                                    "# known_margin=-0.29999999999999999")
    data.write_text(text)
    code, _, err = run_cli(capsys, "run", "--algo", "smooth", "--data",
                           str(data), "--n", "0", "--d", "0", "--T", "auto")
    assert code == 2 and "known_margin" in err


@pytest.mark.parametrize("algo", ALGOS)
def test_run_auto_horizon_rule_and_output(tmp_path, capsys, algo):
    # the horizon rules and output vectors documented in README.md
    data = tmp_path / "d.txt"
    run_cli(capsys, "gen", "--n", "16", "--d", "4", "--gamma", "0.3",
            "--mode", "exact", "--seed", "4", "--out", str(data))
    ds = read_dataset(data)
    code, out, _ = run_cli(capsys, "run", "--algo", algo, "--data", str(data),
                           "--n", "0", "--d", "0", "--T", "auto")
    assert code == 0
    fields = out.strip().splitlines()[-1].split(",")
    gamma, logn, p_exp = 0.3, math.log(16), 2.0
    if algo == "pnorm":
        horizon = math.ceil(math.sqrt(2.0 * (p_exp - 1.0) * logn) / gamma) + 1
    elif algo == "vanilla":
        horizon = math.ceil(1.0 / gamma ** 2)
    else:
        horizon = math.ceil(4.0 * math.sqrt(logn) / gamma)
    assert fields[0] == algo and int(fields[4]) == horizon
    if algo == "vanilla":
        final = vanilla_perceptron(ds, horizon)[0]
    else:
        config = {"smooth": smooth_config(horizon), "ji": smooth_config(horizon),
                  "dynamics": smooth_config(horizon), "nag": nag_config(horizon),
                  "mpfp": mpfp_config(16, horizon),
                  "pnorm": pnorm_config(16, horizon, p_exp)}[algo]
        trace = run_dynamics(config, ds)
        final = 0.25 * trace.w_sum if algo in ("ji", "nag") else trace.w_bar
    assert float(fields[5]) == margin(ds, final)


# values that have broken a flag's parsing or checks: zero, negative,
# non-finite, subnormal-small and large
EDGE_VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e6")
SIZE = st.integers(1, 8).map(str)
ROUNDS = st.integers(1, 5).map(str)


def _value(usual):
    """A usual value of a flag, or one time in eight an edge value."""
    return st.tuples(st.integers(0, 7), usual, st.sampled_from(EDGE_VALUES)).map(
        lambda t: t[2] if t[0] == 0 else t[1])


def _flag(name, usual, most=1):
    """The flag with 1 to `most` values, or one time in eight left out."""
    values = st.lists(_value(usual), min_size=1, max_size=most)
    return st.tuples(st.integers(0, 7), values).map(lambda t: [name, *t[1]] if t[0] else [])


def _path_flag(name, path):
    """The flag naming a path in the temporary directory, or one time in eight
    left out; an edge value would name a path in the working directory."""
    return st.integers(0, 7).map(lambda k: [name, path] if k else [])


@st.composite
def cli_argv(draw):
    """A random `gen`, `run`, `equiv` or `sweep` command with sizes <= 8 and
    T <= 5; "{tmp}" stands for a temporary directory holding data.txt."""
    command = draw(st.sampled_from(["gen", "run", "equiv", "sweep"]))
    most = 2 if command == "sweep" else 1
    flags = [_flag("--n", SIZE, most), _flag("--d", SIZE),
             _flag("--gamma", st.sampled_from(["0.1", "0.3"]), most),
             _flag("--p", st.sampled_from(["2", "3"]), most),
             _flag("--seed", st.integers(0, 8).map(str), most),
             _flag("--mode", st.sampled_from(["lower", "exact"]
                                             + (["infeasible"] if command != "sweep" else [])))]
    if command in ("run", "equiv"):
        flags.append(_path_flag("--data", "{tmp}/data.txt"))
    if command == "gen":
        flags.append(st.just(["--out", "{tmp}/gen.txt"]))
    elif command == "run":
        flags += [st.sampled_from(ALGOS).map(lambda a: ["--algo", a]),
                  _flag("--T", st.one_of(ROUNDS, st.just("auto"))),
                  _flag("--p-exp", st.sampled_from(["2", "3"])),
                  _path_flag("--out", "{tmp}/traces")]
    elif command == "equiv":
        flags += [st.sampled_from([e.value for e in alg.EquivalencePair])
                  .map(lambda w: ["--which", w]), _flag("--T", ROUNDS),
                  _flag("--tol", st.just("1e-8")), _flag("--perturb", st.sampled_from(["0", "1e-3"]))]
    else:
        flags += [_flag("--algos", st.sampled_from(ALGOS), 2), _flag("--T", ROUNDS, 2),
                  st.just(["--out", "{tmp}/sweep.csv"])]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += draw(flag)
    return argv


@settings(deadline=None, max_examples=150, derandomize=True)
@given(argv=cli_argv())
def test_random_flags_keep_the_exit_codes(argv):
    # in-process with warnings as errors: exit 0 or 2, 1 only for an equiv
    # FAIL, and no exception but argparse's usage error
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["gen", "--n", "8", "--d", "3", "--out", f"{tmp}/data.txt"]) == 0
        argv = [a.format(tmp=tmp) for a in argv]
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, argv
    assert code in (0, 1, 2), argv
    assert code != 1 or (argv[0] == "equiv" and "FAIL" in out.getvalue()), argv
