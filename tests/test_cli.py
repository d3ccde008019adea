import csv
import math
import shlex
from pathlib import Path

import pytest

from nrp import algorithms as alg, cli
from nrp.algorithms import (Algorithm, mpfp_config, nag_config, pnorm_config,
                            smooth_config, vanilla_perceptron)
from nrp.cli import ALGOS, SUMMARY_HEADER, TRACE_HEADER, main
from nrp.core import margin, read_dataset
from nrp.dynamics import run_dynamics


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


def test_equiv_pass_and_fail_exit_codes(capsys):
    base = ["equiv", "--which", "prop1", "--n", "16", "--d", "4", "--gamma",
            "0.3", "--seed", "1", "--T", "50"]
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli(capsys, *base, "--perturb", "1e-3")
    assert code == 1 and "FAIL" in out


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
    run_batch = Algorithm.run_batch

    def spy(self, datasets, horizon, p_exp):
        sizes.append(len(datasets))
        return run_batch(self, datasets, horizon, p_exp)

    monkeypatch.setattr(Algorithm, "run_batch", spy)
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
    calls = {"generate": 0, "run_dynamics_batch": 0}
    count_calls(monkeypatch, cli, "generate", calls)
    count_calls(monkeypatch, alg, "run_dynamics_batch", calls)
    rows = sweep_rows(capsys, tmp_path / "s.csv", "--algos", "smooth", "ji", "nag",
                      "mpfp", "pnorm", "vanilla", "--n", "64", "256", "--d", "8",
                      "--gamma", "0.3", "--seed", "0", "1", "2", "3", "--T", "200",
                      "--mode", "exact")
    assert len(rows) == 1 + 48
    assert calls == {"generate": 8, "run_dynamics_batch": 8}


def test_sweep_shared_game_rows_match_single_algorithm_sweeps(tmp_path, capsys,
                                                              monkeypatch):
    grid = ["--n", "16", "24", "--p", "2", "3", "--seed", "0", "1", "--T", "10", "25",
            "--mode", "lower"]
    singles = [sweep_rows(capsys, tmp_path / f"{algo}.csv", "--algos", algo, *grid)
               for algo in ("smooth", "ji", "dynamics")]
    calls = {"run_dynamics_batch": 0}
    count_calls(monkeypatch, alg, "run_dynamics_batch", calls)
    shared = sweep_rows(capsys, tmp_path / "shared.csv", "--algos", "smooth", "ji",
                        "dynamics", *grid)
    # one batch per (n, p) family and T, read by all three algorithms
    assert calls == {"run_dynamics_batch": 2 * 2 * 2}
    assert shared == singles[0] + singles[1][1:] + singles[2][1:]


def test_sweep_duplicate_cells_keep_grid_order(tmp_path, capsys):
    rows = sweep_rows(capsys, tmp_path / "dup.csv", "--algos", "nag", "nag", "mpfp",
                      "--n", "16", "--seed", "0", "0", "1", "--T", "10")
    expected = [sweep_rows(capsys, tmp_path / f"{algo}{seed}.csv", "--algos", algo,
                           "--n", "16", "--seed", seed, "--T", "10")[1]
                for algo in ("nag", "nag", "mpfp") for seed in ("0", "0", "1")]
    assert rows[1:] == expected


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
], ids=["run_n_0", "sweep_T_0", "missing_data_file", "exact_n_1", "p_exp_1",
        "sweep_vanilla_T_0", "equiv_tol_nan", "gen_p_inf", "run_T_huge",
        "gen_out_missing_dir", "run_out_under_file", "sweep_out_under_file",
        "run_no_data_no_n_d"])
def test_bad_input_exit_2(tmp_path, capsys, argv):
    (tmp_path / "file").touch()        # a path under it is not a directory
    code, _, err = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 2 and err.startswith("error: ")


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
