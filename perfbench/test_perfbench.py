"""Self-tests for the benchmark: python3 -m pytest perfbench -q

They show that a tiny-plan run emits every metric BENCHMARK.json names, with
its unit, and that the correctness check is not vacuous: a result with one
exact count perturbed is rejected both by the pinned reference and by the
independent oracle.
"""

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Small plans of the same shape as each workload; seed 1000 has no pinned
# reference, so their results are checked by the oracle alone.
TINY = {
    "coverage-p31": dict(p=7, d=3, family="sphere", j=1, k=3, sizes=(1,), trials=1),
    "energy-f27": dict(p=3, n=2, d=3, family="sphere", j=1, ks=(2, 3, 4), sizes=(1,),
                       trials=1),
    "sumset-affine-p23": dict(p=7, d=2, family="sphere", j=1, k=3, s=2, sizes=(4,),
                              sizes_mode="absolute", x_sizes=(1, 3), trials=1),
    "mixing-cli": dict(p=7, d=3, family="sphere", pairs=50),
}
# One exact count per workload: (path into the pinned full result, key).
EXACT_COUNT = {
    "coverage-p31": (("records", 0), "min_nu_nonzero_t"),
    "energy-f27": (("records", -1), "k4_energy"),
    "sumset-affine-p23": (("records", 0), "second_moment"),
    "mixing-cli": (("report",), "degree"),
}


@pytest.fixture(scope="module")
def prog():
    return workloads.load_program()


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(EXACT_COUNT) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_plan_emits_every_metric(name, monkeypatch, capsys, tmp_path):
    tiny = replace(workloads.WORKLOADS[name], plan=TINY[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", name, "--seed", "1000", "--seconds", "0.01",
                         "--trace", str(trace)]) == 0
        result = _last_json(capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert list(tmp_path.glob("trace-*.npz"))


@pytest.mark.parametrize("name", sorted(EXACT_COUNT))
def test_perturbed_exact_count_is_rejected(name, prog):
    w = workloads.WORKLOADS[name]
    pinned = checks.load_reference(w)["1"]["full"]
    assert checks.Checker(prog, w, 1).check("full", copy.deepcopy(pinned)) == []

    path, key = EXACT_COUNT[name]
    bad = copy.deepcopy(pinned)
    node = bad
    for step in path:
        node = node[step]
    node[key] += 1
    assert checks.Checker(prog, w, 1).check("full", bad)
    assert checks.oracle(prog, w, 1, bad)


def test_floats_compare_at_relative_tolerance():
    assert checks.compare({"x": 1.0}, {"x": 1.0 + 1e-9}) == []
    assert checks.compare({"x": 1.0}, {"x": 1.001})
    assert checks.compare({"n": 3}, {"n": 3.0}) == []
    assert checks.compare({"ok": True}, {"ok": 1})


def test_wrappers_are_removed_after_the_traced_run(prog):
    originals = (prog.energy.fold_counts, prog.experiments.nu_k,
                 prog.domains.PointDomain.index_sub)
    with spans.installed(prog, spans.Recorder()):
        assert prog.energy.fold_counts is not originals[0]
        assert prog.experiments.nu_k is not originals[1]
        assert prog.domains.PointDomain.index_sub is not originals[2]
    assert (prog.energy.fold_counts, prog.experiments.nu_k,
            prog.domains.PointDomain.index_sub) == originals


def test_missing_target_or_parameter_fails_the_trace(prog, monkeypatch):
    monkeypatch.delattr(prog.spectra, "mixing_audit")
    with pytest.raises(spans.TraceError, match="spectra.mixing_audit"):
        with spans.installed(prog, spans.Recorder()):
            pass
    monkeypatch.undo()

    def renamed(domain, E, j):
        raise AssertionError("never called")

    monkeypatch.setattr(prog.energy, "fold_counts", renamed)
    with pytest.raises(spans.TraceError, match="dom"):
        with spans.installed(prog, spans.Recorder()):
            pass
    monkeypatch.undo()
    # Nothing stays wrapped after a failed install.
    assert prog.experiments.nu_k is prog.energy.nu_k


def test_failed_full_runs_count_apart_and_leave_no_time(monkeypatch):
    class FailFull:
        def check(self, kind, result):
            return ["perturbed"] if kind == "full" else []

    monkeypatch.setattr(run, "run_once", lambda prog, w, seed: (0.001, {}))
    tally = run.Tally(FailFull())
    w = workloads.WORKLOADS["coverage-p31"]
    run_times, setup_times = run.measure(None, w, 1, 0.01, tally)
    assert run_times == [] and setup_times
    assert tally.attempted["setup"] > tally.attempted["full"] == run.MIN_ROUNDS
    assert tally.ok_frac() == 0.0
