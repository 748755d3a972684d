"""Exit-code contract and output checks for the command-line interface.

The golden suite pins twelve invocations' exit codes; the round-trip test
checks that an exported variety file reproduces the family-based results.
"""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqspectra.cli as cli_mod
import fqspectra.domains as domains_mod
import fqspectra.energy as energy_mod
import fqspectra.spectra as spectra_mod
from fqspectra.cli import MIXING_BLOCK_CELLS, main
from fqspectra.experiments import ExperimentPlan, _derive_rng
from fqspectra.field import FieldContext
from fqspectra.geometry import Variety, builtin_variety
from fqspectra.spectra import cayley_spectrum

from oracles import draw_multisets_reference, mixing_payload_reference


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN = [
    # (argv, expected exit code)
    (["variety", "check", "--p", "3", "--d", "2", "--family", "sphere", "--j", "1"], 0),
    (["variety", "enum", "--p", "3", "--d", "2", "--family", "sphere", "--j", "1"], 0),
    (["energy", "lambda", "--p", "3", "--d", "2", "--family", "sphere", "--j", "1",
      "--subset", "all", "--k", "4"], 0),
    (["energy", "nu", "--p", "3", "--d", "2", "--family", "sphere", "--k", "2",
      "--format", "csv"], 0),
    (["energy", "delta", "--p", "3", "--d", "2", "--family", "sphere", "--k", "2"], 0),
    (["spectrum", "cayley", "--p", "3", "--d", "2", "--family", "paraboloid"], 0),
    (["spectrum", "euclidean", "--p", "5", "--d", "2", "--t", "1"], 0),
    (["spectrum", "euclidean", "--p", "3", "--d", "2", "--t", "0"], 0),
    (["spectrum", "affine", "--p", "3", "--d", "1", "--s", "2"], 0),
    (["spectrum", "affine", "--p", "2", "--d", "1", "--s", "2"], 1),   # even characteristic
    (["variety", "check", "--p", "3", "--d", "2", "--family", "sphere", "--j", "0"], 1),
    (["spectrum", "affine", "--p", "5", "--d", "1", "--s", "3"], 0),   # within Weil's (s-1)^2*q
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_exit_codes(argv, expected, capsys):
    code, _out, _err = run_cli(argv, capsys)
    assert code == expected


def test_affine_s3_reports_weil_ceiling(capsys):
    code, out, _ = run_cli(["spectrum", "affine", "--p", "5", "--d", "1", "--s", "3"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["bound"] == 20.0
    assert payload["within_bound"] is True
    assert payload["normalized_bound"] == 5.0


@pytest.mark.parametrize("d", ["0", "-1"])
def test_affine_dimension_below_1_is_a_usage_error(d, capsys):
    argv = ["spectrum", "affine", "--p", "5", "--d", d, "--s", "2"]
    assert run_cli(argv, capsys) == (1, "", f"error: dimension d = {d} must be >= 1\n")


def test_variety_check_values(capsys):
    code, out, _ = run_cli(["variety", "check", "--p", "3", "--d", "2",
                            "--family", "sphere", "--j", "1"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["c1"] == pytest.approx(4 / 3)
    assert payload["c2"] == pytest.approx(2 / 3 ** 0.5)
    assert payload["verdict"] == "REGULAR"


def test_energy_lambda_value(capsys):
    code, out, _ = run_cli(["energy", "lambda", "--p", "3", "--d", "2",
                            "--family", "sphere", "--j", "1",
                            "--subset", "all", "--k", "4"], capsys)
    assert code == 0
    assert json.loads(out)["lambda_k"] == 36


def test_energy_lambda_pretty_prints_just_the_number(capsys):
    code, out, _ = run_cli(["energy", "lambda", "--p", "3", "--d", "2",
                            "--family", "sphere", "--j", "1",
                            "--subset", "all", "--k", "4", "--pretty"], capsys)
    assert code == 0
    assert out.strip() == "36"


def test_nu_csv_table(capsys):
    code, out, _ = run_cli(["energy", "nu", "--p", "3", "--d", "2",
                            "--family", "sphere", "--k", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["t,count", "0,4", "1,4", "2,8"]


@pytest.mark.parametrize("argv", [
    ["energy", "nu", "--p", "5", "--d", "2", "--k", "2"],
    ["energy", "nup", "--p", "5", "--d", "2", "--k", "2", "--s", "2", "--x-set", "0,1"],
], ids=["nu", "nup"])
def test_count_table_out_is_written_also_with_pretty(argv, tmp_path, capsys):
    plain, pretty = tmp_path / "plain.csv", tmp_path / "pretty.csv"
    code, out, _ = run_cli(argv + ["--out", str(plain)], capsys)
    assert json.loads(out)["out"] == str(plain)
    assert plain.read_text().startswith("t,count\n0,")
    assert run_cli(argv + ["--out", str(pretty), "--pretty"], capsys) == (
        code, f"table -> {pretty}\n", "")
    assert pretty.read_text() == plain.read_text()


def test_nup_reports_bound(capsys):
    code, out, _ = run_cli(["energy", "nup", "--p", "3", "--d", "2",
                            "--family", "sphere", "--k", "2", "--s", "2",
                            "--x-set", "0"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["cs_bound_ok"]
    assert payload["sumset_size"] >= payload["cs_bound"]


def test_nup_without_s_is_a_usage_error(capsys):
    code, out, err = run_cli(["energy", "nup", "--p", "3", "--d", "2",
                              "--family", "sphere", "--k", "2"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: ")
    assert err.endswith("error: the following arguments are required: --s\n")


def test_nup_counts_the_shift_set_as_field_elements(capsys):
    argv = ["energy", "nup", "--p", "3", "--n", "2", "--d", "2", "--family", "sphere",
            "--k", "2", "--s", "2", "--x-set"]
    code, out, _ = run_cli(argv + ["0,1,1"], capsys)
    assert code == 0 and json.loads(out)["x_size"] == 2
    code, out, err = run_cli(argv + ["0,9"], capsys)
    assert (code, out) == (1, "") and "9 is not an element of F_9" in err


F7 = ["--p", "7", "--d", "2"]
NEGATIVE_LISTS = {
    "energy-nup-x-set": ["energy", "nup", *F7, "--family", "sphere", "--k", "2",
                         "--s", "2", "--x-set", "-1,6,13"],
    "energy-nup-coeffs": ["energy", "nup", *F7, "--k", "2", "--s", "2", "--coeffs", "-1,2"],
    "energy-delta-coeffs": ["energy", "delta", *F7, "--k", "2", "--s", "2",
                            "--coeffs", "-1,2"],
    "spectrum-affine-coeffs": ["spectrum", "affine", *F7, "--coeffs", "-1,2"],
}


@pytest.mark.parametrize("argv", NEGATIVE_LISTS.values(), ids=NEGATIVE_LISTS.keys())
def test_comma_list_that_starts_negative_is_a_value(argv, capsys):
    # `--flag -1,2` is read as `--flag=-1,2`, not as an unknown option.
    spaced = run_cli(argv, capsys)
    assert spaced == run_cli(argv[:-2] + [f"{argv[-2]}={argv[-1]}"], capsys)
    assert spaced[0] == 0 and spaced[2] == ""
    # An option after the flag is still an option, not its value.
    code, out, err = run_cli(argv[:-1] + ["--pretty"], capsys)
    assert (code, out) == (1, "") and "expected one argument" in err


def test_negative_shift_set_counts_its_residues(capsys):
    _, out, _ = run_cli(NEGATIVE_LISTS["energy-nup-x-set"], capsys)
    assert json.loads(out)["x_size"] == 1  # -1, 6 and 13 are all 6 in F_7


def test_nup_folds_the_subset_once(monkeypatch, capsys):
    depths = []
    real = energy_mod.fold_counts

    def counting(dom, E, j):
        depths.append(j)
        return real(dom, E, j)

    monkeypatch.setattr(energy_mod, "fold_counts", counting)
    code, _, _ = run_cli(["energy", "nup", "--p", "5", "--d", "2", "--family", "sphere",
                          "--k", "3", "--s", "2", "--x-set", "0,1"], capsys)
    assert code == 0 and depths == [3]


FOLD_OVER_BUDGET = {
    "nu": ["--k", "2"],
    "nup": ["--k", "2", "--s", "2"],
    "delta": ["--k", "2"],
    "lambda": ["--k", "4"],
}


@pytest.mark.parametrize("command", FOLD_OVER_BUDGET)
def test_energy_checks_the_fold_budget_before_building_tables(command, monkeypatch,
                                                              capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a table over F_q^d was built before the budget check")

    monkeypatch.setattr(domains_mod, "TABLE_MAX", 24)
    monkeypatch.setattr(cli_mod, "builtin_variety", refuse)
    monkeypatch.setattr(cli_mod, "eval_poly_table", refuse)
    monkeypatch.setattr(cli_mod.QuadraticForm, "value_table", refuse)
    code, out, err = run_cli(["energy", command, "--p", "5", "--d", "2",
                              "--family", "sphere"] + FOLD_OVER_BUDGET[command], capsys)
    assert (code, out) == (1, "")
    assert "q^d = 25 exceeds the fold budget 24" in err


@pytest.mark.parametrize("command,k", [("nu", 1), ("lambda", 2)])
def test_energy_without_a_fold_table_keeps_no_budget(command, k, monkeypatch, capsys):
    # Depth 1 is the bincount of E, over any q^d.
    monkeypatch.setattr(domains_mod, "TABLE_MAX", 24)
    code, _, _ = run_cli(["energy", command, "--p", "5", "--d", "2", "--family", "sphere",
                          "--k", str(k)], capsys)
    assert code == 0


def test_variety_roundtrip_preserves_downstream_results(tmp_path, capsys):
    vfile = tmp_path / "sphere.txt"
    code, _, _ = run_cli(["variety", "enum", "--p", "3", "--d", "2",
                          "--family", "sphere", "--j", "1", "--out", str(vfile)], capsys)
    assert code == 0
    code, direct, _ = run_cli(["spectrum", "cayley", "--p", "3", "--d", "2",
                               "--family", "sphere", "--j", "1"], capsys)
    code2, from_file, _ = run_cli(["spectrum", "cayley", "--p", "3", "--d", "2",
                                   "--variety-file", str(vfile)], capsys)
    assert code == code2 == 0
    assert json.loads(direct) == json.loads(from_file)
    code3, lam_direct, _ = run_cli(["energy", "lambda", "--p", "3", "--d", "2",
                                    "--family", "sphere", "--j", "1", "--k", "4"], capsys)
    code4, lam_file, _ = run_cli(["energy", "lambda", "--p", "3", "--d", "2",
                                  "--variety-file", str(vfile), "--k", "4"], capsys)
    assert json.loads(lam_direct)["lambda_k"] == json.loads(lam_file)["lambda_k"] == 36


def test_variety_file_field_mismatch(tmp_path, capsys):
    vfile = tmp_path / "sphere5.txt"
    run_cli(["variety", "enum", "--p", "5", "--d", "2", "--family", "sphere",
             "--out", str(vfile)], capsys)
    code, _, err = run_cli(["spectrum", "cayley", "--p", "3", "--d", "2",
                            "--variety-file", str(vfile)], capsys)
    assert code == 1
    assert "F_5" in err


def test_spectrum_out_table(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    code, out, _ = run_cli(["spectrum", "cayley", "--p", "3", "--d", "2",
                            "--family", "sphere", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "m re im modulus"
    assert len(lines) == 1 + 9
    assert json.loads(out)["out"] == str(path)


def test_audit_mixing_cli(capsys):
    code, out, _ = run_cli(["audit", "mixing", "--p", "3", "--d", "2",
                            "--family", "sphere", "--pairs", "200", "--seed", "1"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["violations"] == 0
    assert payload["min_relative_gap"] >= -1e-6


def test_experiment_cli(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "p = 3\nd = 2\nfamily = sphere\nj = 1\nk = 2\n"
        "sizes = 4\nsizes_mode = absolute\ntrials = 2\nseed = 7\n")
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "table.csv"
    code, out, _ = run_cli(["experiment", "coverage", "--plan", str(plan),
                            "--out", str(out_json), "--csv", str(out_csv)], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["hard_failures"] == 0
    assert out_json.exists() and out_csv.exists()
    report = json.loads(out_json.read_text())
    assert report["plan"]["seed"] == 7
    assert len(report["records"]) == 2


def test_experiment_pretty_prints_the_summary(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("p = 3\nd = 2\nk = 2\nsizes = 4\nsizes_mode = absolute\ntrials = 2\n")
    _, out, _ = run_cli(["experiment", "coverage", "--plan", str(plan)], capsys)
    aggregates = json.loads(out)["aggregates"]
    code, pretty, err = run_cli(["experiment", "coverage", "--plan", str(plan), "--pretty"],
                                capsys)
    assert (code, err) == (0, "")
    assert pretty.splitlines() == ["coverage: 2 records, 0 hard failures"] + [
        f"  {key} = {value}" for key, value in sorted(aggregates.items())]


def test_variety_check_out_writes_the_payload(tmp_path, capsys):
    path = tmp_path / "check.json"
    argv = ["variety", "check", "--p", "3", "--d", "2", "--family", "sphere", "--j", "1"]
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(path.read_text()) == json.loads(out)
    assert run_cli(argv, capsys) == (code, out, err)


@pytest.mark.parametrize("window", [["--c1-lo", "3", "--c1-hi", "1"], ["--c2-max", "nan"]],
                         ids=["c1-lo-above-c1-hi", "c2-max-nan"])
def test_variety_check_window_that_can_never_pass_is_a_usage_error(window, capsys):
    code, out, err = run_cli(["variety", "check", "--p", "7", "--d", "2"] + window, capsys)
    assert (code, out) == (1, "") and "can never pass" in err


@pytest.mark.parametrize("p,d,family", [(7, 2, "sphere"), (3, 3, "paraboloid")])
def test_variety_enum_stdout_is_the_out_file(p, d, family, tmp_path, capsys):
    path = tmp_path / "v.txt"
    argv = ["variety", "enum", "--p", str(p), "--d", str(d), "--family", family]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert run_cli(argv + ["--out", str(path)], capsys)[0] == 0
    assert path.read_bytes() == out.encode()


DELTA = ["energy", "delta", "--p", "5", "--d", "2", "--k", "2"]


@pytest.mark.parametrize("extra,option", [
    (["--coeffs", "1,2"], "--coeffs"),
    (["--s", "2", "--form", "diag:1,2"], "--form"),
], ids=["coeffs-without-s", "form-with-s"])
def test_delta_option_that_does_not_apply_is_a_usage_error(extra, option, capsys):
    code, out, err = run_cli(DELTA + extra, capsys)
    assert (code, out) == (1, "") and option in err


def test_delta_reads_the_options_that_apply(capsys):
    def delta(*extra):
        code, out, err = run_cli(DELTA + list(extra), capsys)
        assert (code, err) == (0, "")
        return json.loads(out)["delta"]
    assert delta() == delta("--form", "identity") == [0, 2, 4]
    assert delta("--s", "2", "--coeffs", "1,2") == delta("--form", "diag:1,2") == [0, 3, 4]


def test_nup_of_an_empty_subset_has_a_zero_bound(capsys):
    code, out, _ = run_cli(["energy", "nup", "--p", "5", "--d", "2", "--k", "2", "--s", "2",
                            "--subset", "0"], capsys)
    payload = json.loads(out)
    assert code == 0 and '"cs_bound": 0.0' in out
    assert (payload["size"], payload["sumset_size"], payload["cs_bound_ok"]) == (0, 0, True)


UNREADABLE_LISTS = {
    "subset": (["energy", "lambda", "--p", "5", "--k", "2", "--subset", "x"],
               "argument --subset: 'x' is not 'all' or a count"),
    "x-set": (["energy", "nup", "--p", "5", "--k", "2", "--s", "2", "--x-set", "1,a"],
              "argument --x-set: '1,a' is not a list of integers"),
    "coeffs": (["spectrum", "affine", "--p", "5", "--d", "1", "--coeffs", "1,,2"],
               "argument --coeffs: '1,,2' is not a list of integers"),
    "form": (["spectrum", "euclidean", "--p", "5", "--t", "1", "--form", "diag:1,x"],
             "form spec 'diag:1,x': '1,x' is not a list of integers"),
    "form-empty": (["energy", "nu", "--p", "5", "--k", "2", "--form", "diag:"],
                   "form spec 'diag:': '' is not a list of integers"),
    "plan-form": (["experiment", "coverage", "--plan", "{plan}"],
                  "form spec 'diag:1,x': '1,x' is not a list of integers"),
}


@pytest.mark.parametrize("argv,message", UNREADABLE_LISTS.values(),
                         ids=UNREADABLE_LISTS.keys())
def test_unreadable_lists_name_their_option_or_spec(argv, message, tmp_path, capsys):
    # Each used to print only int()'s own "invalid literal" message.
    plan = _plan(tmp_path, "k = 2\nform = diag:1,x\n")
    code, out, err = run_cli([a.format(plan=plan) for a in argv], capsys)
    assert (code, out) == (1, "")
    if message.startswith("argument "):   # argparse's usage error
        assert err.startswith("usage: ") and err.endswith(f"\nerror: {message}\n")
    else:
        assert err == f"error: {message}\n"


def test_experiment_missing_plan(capsys):
    code, _, err = run_cli(["experiment", "coverage", "--plan", "/nonexistent"], capsys)
    assert code == 1


def test_threads_flag_is_a_usage_error(capsys):
    code, _, _ = run_cli(["--threads", "4", "variety", "check", "--p", "3",
                          "--d", "2", "--family", "sphere"], capsys)
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["energy", "lambda", "--p", "3", "--d", "2", "--family", "sphere", "--k", "4"],
    ["audit", "mixing", "--p", "3", "--d", "2", "--family", "sphere", "--pairs", "5"],
], ids=["energy-lambda", "audit-mixing"])
def test_out_flag_is_a_usage_error_where_nothing_is_written(argv, tmp_path, capsys):
    path = tmp_path / "out.txt"
    code, out, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 1 and out == ""
    assert not path.exists()


MIXING = ["audit", "mixing", "--p", "3", "--d", "2", "--family", "sphere"]


@pytest.mark.parametrize("flag,value,least", [
    ("--pairs", "-1", 0), ("--max-support", "0", 1), ("--max-multiplicity", "0", 1),
], ids=["pairs", "max-support", "max-multiplicity"])
def test_audit_mixing_count_below_its_least_value_is_a_usage_error(flag, value, least,
                                                                   capsys):
    code, out, err = run_cli(MIXING + [flag, value], capsys)
    assert code == 1 and out == ""
    assert f"argument {flag}: must be >= {least}, got {value}" in err


def test_audit_mixing_accepts_least_values(capsys):
    code, out, _ = run_cli(MIXING + ["--pairs", "0", "--max-support", "1",
                                     "--max-multiplicity", "1"], capsys)
    assert code == 0 and json.loads(out)["pairs"] == 0
    code, out, _ = run_cli(MIXING + ["--pairs", "3", "--max-support", "1",
                                     "--max-multiplicity", "1"], capsys)
    assert code == 0 and json.loads(out)["pairs"] == 3


def _mixing_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _mixing_reference(p, n, d, seed, pairs, max_support, max_multiplicity):
    """`audit mixing` on the sphere of radius 1, counted one pair at a time."""
    ctx = FieldContext(p, n)
    v = builtin_variety(ctx, "sphere", d, 1)
    spec = cayley_spectrum(ctx, v.indices, d=d)
    return mixing_payload_reference(_derive_rng(seed, 0, salt="mixing"), p, spec,
                                    [int(i) for i in v.indices], pairs,
                                    max_support, max_multiplicity)


def _mixing_argv(p, n, d, seed, pairs, max_support, max_multiplicity):
    return ["audit", "mixing", "--p", str(p), "--n", str(n), "--d", str(d),
            "--family", "sphere", "--seed", str(seed), "--pairs", str(pairs),
            "--max-support", str(max_support),
            "--max-multiplicity", str(max_multiplicity)]


@given(st.sampled_from([(5, 1), (3, 2), (3, 3)]), st.integers(2, 3),
       st.integers(0, 2 ** 32), st.integers(16, 40), st.integers(1, 4),
       st.sampled_from(["0", "1", "block-1", "block", "block+1"]))
@settings(max_examples=25, deadline=None)
def test_audit_mixing_matches_per_pair_reference_at_block_boundaries(
        field, d, seed, max_support, max_multiplicity, where):
    p, n = field
    block = max(1, MIXING_BLOCK_CELLS // max_support ** 2)
    pairs = {"0": 0, "1": 1, "block-1": block - 1, "block": block,
             "block+1": block + 1}[where]
    args = (p, n, d, seed, pairs, max_support, max_multiplicity)
    code, out = _mixing_stdout(_mixing_argv(*args))
    payload = json.loads(out)
    assert code == 0
    assert payload == _mixing_reference(*args)
    if pairs == 0:
        assert payload["min_relative_gap"] is None


@pytest.mark.parametrize("argv,args", [
    # weights and squared masses beyond 2^53: the bound's product in Python ints
    (["--max-multiplicity", "1000000"], (5, 1, 2, 0, 1000, 8, 1000000)),
    # n * mass^2 beyond the int64 policy: every count in Python ints
    (["--max-multiplicity", "1000000000000", "--pairs", "200"],
     (5, 1, 2, 0, 200, 8, 10 ** 12)),
    # one pair per block, a padded width of up to 300
    (["--max-support", "300", "--pairs", "3"], (7, 1, 2, 0, 3, 300, 3)),
    # 71-bit draws, three words an attempt, decoded into Python ints
    (["--max-multiplicity", str(2 ** 70), "--pairs", "60"], (5, 1, 2, 0, 60, 8, 2 ** 70)),
], ids=["multiplicity-1e6", "multiplicity-1e12", "support-300", "multiplicity-2^70"])
def test_audit_mixing_large_inputs_match_per_pair_reference(argv, args):
    p, n, d = args[:3]
    code, out = _mixing_stdout(["audit", "mixing", "--p", str(p), "--d", str(d)] + argv)
    assert code == 0
    assert json.loads(out) == _mixing_reference(*args)


@pytest.mark.parametrize("extra", [[], ["--pretty"]], ids=["json", "pretty"])
def test_audit_mixing_python_int_path_is_byte_identical(extra, monkeypatch):
    argv = ["audit", "mixing", "--p", "5", "--d", "2", "--pairs", "300",
            "--max-support", "12", "--max-multiplicity", "4", "--seed", "3"] + extra
    fast = _mixing_stdout(argv)
    dtypes = []

    def recording(*a):
        audit = spectra_mod.mixing_audit(*a)
        dtypes.append(audit.count.dtype)
        return audit

    monkeypatch.setattr(spectra_mod, "_INT64_SAFE", 1)
    monkeypatch.setattr(cli_mod, "mixing_audit", recording)
    assert _mixing_stdout(argv) == fast
    assert dtypes and all(dt == object for dt in dtypes)


# Bit lengths of the randrange widths the decoder must cover: one word, a
# whole word, and two or three words an attempt, past int64 included.
DRAW_BITS = [1, 31, 32, 33, 40, 64, 70]


def _width(bits):
    return st.integers(1 << (bits - 1), (1 << bits) - 1)


@pytest.mark.parametrize("mult_bits", DRAW_BITS)
@given(n=st.sampled_from(DRAW_BITS).flatmap(_width),
       max_support=st.sampled_from([1, 2, 8, 300]) | st.integers(1, 40),
       seed=st.integers(0, 2 ** 32), counts=st.lists(st.integers(1, 9), min_size=1,
                                                      max_size=4),
       data=st.data())
@settings(max_examples=15, deadline=None)
def test_multiset_decoder_reproduces_the_randrange_stream(mult_bits, n, max_support,
                                                         seed, counts, data):
    max_multiplicity = data.draw(_width(mult_bits))
    reference = random.Random(seed)
    draws = cli_mod._MultisetDraws(random.Random(seed), n, max_support, max_multiplicity)
    for count in counts:
        want = draw_multisets_reference(reference, count, n, max_support, max_multiplicity)
        sizes, points, mults = draws.draw(count)
        assert (sizes.tolist(), points.tolist(), mults.tolist()) == want
        assert points.dtype == (np.int64 if n < 1 << 63 else object)
        assert mults.dtype == (np.int64 if max_multiplicity < 1 << 63 else object)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("n,max_support,max_multiplicity", [
    (29791, 8, 3), (5, 300, 2 ** 70), (2 ** 40, 12, 2 ** 33)])
def test_multiset_decoder_refills_mid_multiset(chunk, n, max_support, max_multiplicity,
                                               monkeypatch):
    passes = []

    def recording(words, widths, count):
        out = decode(words, widths, count)
        passes.append(len(out[0]) < count)
        return out

    decode = cli_mod._decode_multisets
    monkeypatch.setattr(cli_mod, "_DRAW_MAX_WORDS", chunk)
    monkeypatch.setattr(cli_mod, "_decode_multisets", recording)
    reference = random.Random(11)
    draws = cli_mod._MultisetDraws(random.Random(11), n, max_support, max_multiplicity)
    for count in (1, 5, 2):
        want = draw_multisets_reference(reference, count, n, max_support, max_multiplicity)
        assert tuple(c.tolist() for c in draws.draw(count)) == want
    assert any(passes)  # some pass ended inside a multiset and pulled again


@pytest.mark.parametrize("bits", DRAW_BITS)
def test_cpython_randrange_stream_facts(bits):
    # getrandbits(32 m) is the next m outputs, the first least significant.
    rng = random.Random(bits)
    words = [rng.getrandbits(32) for _ in range(5)]
    bulk = random.Random(bits).getrandbits(32 * 5)
    assert np.frombuffer(bulk.to_bytes(20, "little"), dtype="<u4").tolist() == words
    # randrange(a, b) is a + the first getrandbits(k) attempt below b - a,
    # k = (b - a).bit_length(), an attempt being ceil(k/32) words used whole
    # except the last, shifted right by 32 * ceil(k/32) - k.
    width = (1 << (bits - 1)) + (bits > 1)  # rejects about half the attempts
    w = -(-bits // 32)
    drawn, stream = random.Random(bits), random.Random(bits)
    for _ in range(200):
        while True:
            attempt = [stream.getrandbits(32) for _ in range(w)]
            attempt[-1] >>= 32 * w - bits
            r = sum(word << (32 * j) for j, word in enumerate(attempt))
            if r < width:
                break
        assert drawn.randrange(3, 3 + width) == 3 + r
    assert drawn.getstate() == stream.getstate()


@pytest.mark.parametrize("seed", [0, 11, 2 ** 40])
def test_numpy_mt19937_continues_the_python_stream(seed):
    # An MT19937 given random.Random's state (624 key words and the position)
    # yields its next getrandbits(32) outputs, from any position in the key;
    # the bulk draws take their words from one, and leave rng where it was.
    rng = random.Random(seed)
    rng.getrandbits(32 * 1000 + 7)
    state = rng.getstate()
    bits = cli_mod._MultisetDraws(rng, 2, 1, 1)._bits
    assert rng.getstate() == state
    want = [rng.getrandbits(32) for _ in range(100_000)]
    assert bits.random_raw(100_000).astype(np.uint32).tolist() == want


def test_format_flag_is_a_usage_error_outside_count_tables(capsys):
    code, out, _ = run_cli(["spectrum", "cayley", "--p", "3", "--d", "2",
                            "--family", "sphere", "--format", "csv"], capsys)
    assert code == 1 and out == ""


def _variety_file(tmp_path, text):
    path = tmp_path / "v.txt"
    path.write_text(text)
    return str(path)


def test_variety_file_with_out_of_range_coordinate_is_rejected(tmp_path, capsys):
    path = _variety_file(tmp_path, "5 2 1\n7,0\n")
    with pytest.raises(ValueError):
        Variety.load(path)
    code, out, err = run_cli(["spectrum", "cayley", "--p", "5", "--d", "2",
                              "--variety-file", path], capsys)
    assert code == 1 and out == ""
    assert "outside" in err


def test_variety_file_with_repeated_point_is_rejected(tmp_path, capsys):
    path = _variety_file(tmp_path, "5 2 2\n1,0\n1,0\n")
    with pytest.raises(ValueError):
        Variety.load(path)
    code, out, err = run_cli(["energy", "lambda", "--p", "5", "--d", "2",
                              "--variety-file", path, "--k", "2"], capsys)
    assert code == 1 and out == ""
    assert "more than once" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "euclidean", "--p", "3", "--d", "3", "--t", "1", "--form", "diag:1,1"],
    ["energy", "nu", "--p", "3", "--d", "3", "--family", "sphere", "--k", "2",
     "--form", "diag:1,1"],
], ids=["spectrum-euclidean", "energy-nu"])
def test_form_of_wrong_dimension_is_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert "DimensionMismatchError" in err


def test_experiment_form_of_wrong_dimension_is_a_usage_error(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("p = 3\nd = 3\nform = diag:1,1\nk = 2\n"
                    "sizes = 4\nsizes_mode = absolute\ntrials = 1\n")
    code, out, err = run_cli(["experiment", "coverage", "--plan", str(plan)], capsys)
    assert code == 1 and out == ""
    assert "DimensionMismatchError" in err


F9 = ["--p", "3", "--n", "2"]
# Every flag that passes a field element, over F_9; "{}" is the element.
ELEMENT_FLAGS = {
    "spectrum-euclidean-form": ["spectrum", "euclidean", *F9, "--t", "1",
                                "--form", "diag:1,{}"],
    "energy-nu-form": ["energy", "nu", *F9, "--k", "2", "--form", "diag:1,{}"],
    "energy-delta-form": ["energy", "delta", *F9, "--k", "2", "--form", "diag:1,{}"],
    "spectrum-affine-coeffs": ["spectrum", "affine", *F9, "--d", "1", "--coeffs", "{}"],
    "energy-nup-coeffs": ["energy", "nup", *F9, "--k", "2", "--s", "2",
                          "--coeffs", "1,{}"],
    "energy-delta-coeffs": ["energy", "delta", *F9, "--k", "2", "--s", "2",
                            "--coeffs", "1,{}"],
    "energy-nup-x-set": ["energy", "nup", *F9, "--k", "2", "--s", "2", "--x-set", "0,{}"],
    "spectrum-euclidean-t": ["spectrum", "euclidean", *F9, "--t", "{}"],
    "sphere-j": ["variety", "check", *F9, "--family", "sphere", "--j", "{}"],
    "minkowski-j": ["variety", "check", *F9, "--family", "minkowski", "--j", "{}"],
}


@pytest.mark.parametrize("value", ["9", "-1"])
@pytest.mark.parametrize("argv", ELEMENT_FLAGS.values(), ids=ELEMENT_FLAGS.keys())
def test_non_element_of_an_extension_field_is_a_usage_error(argv, value, capsys):
    # Over F_9 an integer argument is an encoding: 9 and -1 name no element.
    code, out, err = run_cli([a.format(value) for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {value} is not an element of F_9: its elements are encoded 0..8\n"


def test_prime_field_elements_reduce_modulo_p(capsys):
    def spectrum(t, form):
        return run_cli(["spectrum", "euclidean", "--p", "5", "--t", t, "--form", form],
                       capsys)
    assert spectrum("-1", "diag:1,-6") == spectrum("4", "diag:1,4")
    assert spectrum("-1", "diag:1,-6")[0] == 0


def _plan(tmp_path, text):
    """A small plan: the default lines for the keys `text` leaves out, then
    `text`, so that no key is given twice."""
    given = {line.split("=", 1)[0].strip() for line in text.splitlines() if "=" in line}
    defaults = {"p": 5, "d": 2, "sizes": 3, "sizes_mode": "absolute", "trials": 1}
    path = tmp_path / "plan.txt"
    path.write_text("".join(f"{key} = {value}\n" for key, value in defaults.items()
                            if key not in given) + text)
    return str(path)


@pytest.mark.parametrize("kind", ["coverage", "energy", "sumset"])
def test_plan_k_below_2_is_a_usage_error(kind, tmp_path, capsys):
    code, out, err = run_cli(["experiment", kind, "--plan", _plan(tmp_path, "k = 1\n")],
                             capsys)
    assert (code, out, err) == (1, "", "error: k = 1 must be >= 2\n")


def test_repeated_plan_key_is_a_usage_error(tmp_path, capsys):
    # The last value used to win, so this plan ran silently over F_7.
    plan = tmp_path / "plan.txt"
    plan.write_text("p = 5\nd = 2\nk = 2\n\n# over F_7 instead\np = 7\n")
    with pytest.raises(ValueError, match="^plan key 'p' repeated on line 6$"):
        ExperimentPlan.from_file(plan)
    code, out, err = run_cli(["experiment", "coverage", "--plan", str(plan)], capsys)
    assert (code, out, err) == (1, "", "error: plan key 'p' repeated on line 6\n")


@pytest.mark.parametrize("text,message", [
    ("p = 5\nd = 2\nk = x\n", "plan key 'k' on line 3: 'x' is not an integer"),
    ("p = 5\n# sizes\nsizes = 1,,2\n",
     "plan key 'sizes' on line 3: '1,,2' is not a list of numbers"),
    ("p = 5\nc = half\n", "plan key 'c' on line 2: 'half' is not a number"),
    ("p = 5\nd 2\n", "plan line 2 without '=': 'd 2'"),
    ("p = 5\n\nbogus = 1\n", "unknown plan key 'bogus' on line 3"),
], ids=["int", "sizes", "c", "no-equals", "unknown-key"])
def test_unreadable_plan_lines_name_their_key_and_line(text, message, tmp_path, capsys):
    # The conversion error used to pass through as it was, naming neither.
    plan = tmp_path / "plan.txt"
    plan.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentPlan.from_file(plan)
    code, out, err = run_cli(["experiment", "coverage", "--plan", str(plan)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_plan_mapping_values_that_do_not_read_name_their_key():
    with pytest.raises(ValueError, match="^plan key 'k': 'x' is not an integer$"):
        ExperimentPlan.from_mapping({"p": "5", "k": "x"})
    with pytest.raises(ValueError, match=r"^plan key 'ks': '4,y' is not a list of integers$"):
        ExperimentPlan.from_mapping({"p": "5", "ks": "4,y"})


@pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0", "-0.5", "1.5"])
def test_plan_c_outside_0_1_is_a_usage_error(c, tmp_path, capsys):
    # |X + Delta| <= q, so no c above 1 is ever met, and c = nan ran with
    # every verdict_cq false.
    plan = _plan(tmp_path, f"k = 2\nc = {c}\n")
    message = f"c = {float(c)} must be in (0, 1]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentPlan.from_file(plan)
    code, out, err = run_cli(["experiment", "sumset", "--plan", plan], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_plan_c_of_1_is_accepted():
    assert ExperimentPlan(p=5, c=1.0).c == 1.0


def test_negative_subset_sizes_are_usage_errors(tmp_path, capsys):
    code, out, err = run_cli(["energy", "nu", "--p", "5", "--k", "2", "--subset", "-1"],
                             capsys)
    assert (code, out, err) == (1, "", "error: subset size -1 must be >= 0\n")
    plan = _plan(tmp_path, "k = 2\nx_sizes = -1\n")
    code, out, err = run_cli(["experiment", "sumset", "--plan", plan], capsys)
    assert (code, out, err) == (1, "", "error: x_sizes entry -1 must be >= 1\n")


@pytest.mark.parametrize("x_sizes", ["0", "2,0"])
def test_plan_x_sizes_below_1_are_usage_errors(x_sizes, tmp_path, capsys):
    # An empty shift set has no nu_{P,k}: the plan is refused before any run.
    plan = _plan(tmp_path, f"k = 2\nx_sizes = {x_sizes}\n")
    with pytest.raises(ValueError, match="^x_sizes entry 0 must be >= 1$"):
        ExperimentPlan.from_file(plan)
    code, out, err = run_cli(["experiment", "sumset", "--plan", plan], capsys)
    assert (code, out, err) == (1, "", "error: x_sizes entry 0 must be >= 1\n")


@pytest.mark.parametrize("mode", ["absolute", "threshold"])
@pytest.mark.parametrize("kind", ["coverage", "energy", "sumset"])
def test_negative_plan_sizes_are_usage_errors(kind, mode, tmp_path, capsys):
    plan = _plan(tmp_path, f"k = 2\nsizes = 1,-5\nsizes_mode = {mode}\n")
    code, out, err = run_cli(["experiment", kind, "--plan", plan], capsys)
    assert (code, out, err) == (1, "", "error: sizes entry -5.0 must be >= 0\n")


@pytest.mark.parametrize("ks", ["1,2", "2,0", "-4"])
def test_plan_ks_below_2_are_usage_errors(ks, tmp_path, capsys):
    plan = _plan(tmp_path, f"k = 2\nks = {ks}\n")
    code, out, err = run_cli(["experiment", "energy", "--plan", plan], capsys)
    bad = next(k for k in ks.split(",") if int(k) < 2)
    assert (code, out, err) == (1, "", f"error: ks entry k = {bad} must be >= 2\n")


def test_invariant_error_exits_1_without_traceback(monkeypatch, capsys):
    real = spectra_mod.character_sum_table

    def corrupted(dom, points):
        lam = real(dom, points)
        lam[0] += 1.0
        return lam

    monkeypatch.setattr(spectra_mod, "character_sum_table", corrupted)
    code, _, err = run_cli(["spectrum", "cayley", "--p", "3", "--d", "2",
                            "--family", "sphere"], capsys)
    assert code == 1
    assert err.startswith("error: InvariantError: trivial eigenvalue")


def test_console_script_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "fqspectra.cli", "variety", "check",
         "--p", "3", "--d", "2", "--family", "sphere", "--j", "1", "--pretty"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "C1 = 1.3333" in proc.stdout
    assert "REGULAR" in proc.stdout


@pytest.mark.parametrize("kind,line", [
    ("coverage", "x_sizes = 2"), ("coverage", "ks = 4"), ("coverage", "c = 0.5"),
    ("energy", "form = identity"), ("energy", "s = 2"), ("sumset", "ks = 4"),
    ("sumset", "form = identity"),
])
def test_plan_key_its_kind_does_not_read_is_a_usage_error(kind, line, tmp_path, capsys):
    # Such a key used to be ignored without a word, and the plan ran.
    plan = tmp_path / "plan.txt"
    plan.write_text(f"p = 5\nd = 2\nk = 2\n{line}\nsizes = 3\nsizes_mode = absolute\n")
    message = f"plan key {line.split()[0]!r} on line 4 is not read by a {kind} plan"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentPlan.from_file(plan, kind)
    assert ExperimentPlan.from_file(plan).p == 5   # no kind: every plan key reads
    code, out, err = run_cli(["experiment", kind, "--plan", str(plan)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
