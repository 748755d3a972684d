import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fqspectra.experiments as experiments_mod
import fqspectra.spectra as spectra_mod
from fqspectra.domains import PointDomain
from fqspectra.errors import InvariantError, SizeExceedsVarietyError
from fqspectra.experiments import (
    RUNNERS,
    ExperimentPlan,
    _derive_rng,
    coverage_experiment,
    energy_bound_experiment,
    sample_scalar_subset,
    sample_subset,
    sumset_experiment,
)
from fqspectra.field import FieldContext
from fqspectra.geometry import QuadraticForm, builtin_variety

F3 = FieldContext(3)
F5 = FieldContext(5)

# The benchmark's workloads and checker, read from perfbench/ and run here too,
# so that a report drifting from its pinned reference fails the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402


def test_sample_full_and_empty():
    v = builtin_variety(F3, "sphere", 2, 1)
    assert np.array_equal(sample_subset(v, v.size, seed=123, trial=0), v.indices)
    assert sample_subset(v, 0, seed=123, trial=0).tolist() == []


def test_sample_is_deterministic():
    v = builtin_variety(F5, "sphere", 3, 1)
    a = sample_subset(v, 7, seed=42, trial=0)
    b = sample_subset(v, 7, seed=42, trial=0)
    assert np.array_equal(a, b)
    assert not np.array_equal(sample_subset(v, 7, seed=42, trial=1), a)  # different stream
    assert not np.array_equal(sample_subset(v, 7, seed=43, trial=0), a)


def test_sample_is_the_sorted_prefix_of_the_shuffled_point_list():
    v = builtin_variety(F5, "sphere", 3, 1)
    for trial in range(3):
        order = list(v.points)
        _derive_rng(42, trial).shuffle(order)
        want = PointDomain(F5, 3).as_indices(sorted(order[:7]))
        assert np.array_equal(sample_subset(v, 7, seed=42, trial=trial), want)


def test_sample_chains_are_nested():
    v = builtin_variety(F5, "sphere", 3, 1)
    small = set(sample_subset(v, 5, seed=11, trial=2).tolist())
    large = set(sample_subset(v, 12, seed=11, trial=2).tolist())
    assert small <= large


def test_runner_subsets_are_sample_subset_cut_from_one_shuffle_per_trial(monkeypatch):
    v = builtin_variety(F5, "sphere", 3, 1)
    sizes = [0, 7, 12, v.size, 3]
    draws = []
    real = experiments_mod._derive_rng

    def counting(seed, trial, salt="subset"):
        draws.append((seed, trial, salt))
        return real(seed, trial, salt)

    monkeypatch.setattr(experiments_mod, "_derive_rng", counting)
    got = list(experiments_mod._trial_subsets(v, sizes, 42, 3))
    assert draws == [(42, trial, "subset") for trial in range(3)]
    assert [(i, trial) for i, trial, _ in got] == [(i, trial) for i in range(len(sizes))
                                                   for trial in range(3)]
    for i, trial, subset in got:
        assert np.array_equal(subset, sample_subset(v, sizes[i], 42, trial))


def test_sample_size_guard():
    v = builtin_variety(F3, "sphere", 2, 1)
    with pytest.raises(SizeExceedsVarietyError):
        sample_subset(v, v.size + 1, seed=0, trial=0)


def test_scalar_subset_full_range():
    assert sample_scalar_subset(5, 5, 0, 0) == [0, 1, 2, 3, 4]
    assert len(sample_scalar_subset(7, 3, 0, 0)) == 3


def test_delta_monotone_under_nesting():
    from fqspectra.domains import PointDomain
    from fqspectra.energy import FoldLadder, delta_set, nu_k
    from fqspectra.geometry import QuadraticForm
    v = builtin_variety(F5, "sphere", 2, 1)
    dom = PointDomain(F5, 2)
    qvals = QuadraticForm.identity(2).value_table(dom)
    for trial in range(4):
        chain = [sample_subset(v, s, seed=3, trial=trial) for s in (1, 2, 4)]
        deltas = [set(delta_set(nu_k(FoldLadder(dom, E), qvals, 2)).values) for E in chain]
        assert deltas[0] <= deltas[1] <= deltas[2]


def _tiny_coverage_plan(**overrides):
    base = dict(p=3, d=2, family="sphere", j=1, k=2,
                sizes=(4,), sizes_mode="absolute", trials=2, seed=7)
    base.update(overrides)
    return ExperimentPlan(**base)


def test_coverage_worked_example():
    rep = coverage_experiment(_tiny_coverage_plan())
    rec = rep.records[0]
    assert rec["min_nu_nonzero_t"] == 4
    assert rec["covers_Fq_star"] and rec["covers_Fq"]
    assert rep.hard_failures == 0
    assert rep.regularity["verdict"] == "REGULAR"


def test_coverage_empty_subset():
    rep = coverage_experiment(_tiny_coverage_plan(sizes=(0,)))
    rec = rep.records[0]
    assert not rec["covers_Fq_star"]
    assert rec["min_nu_nonzero_t"] == 0
    assert rec["rel_deviation"] is None


def test_coverage_threshold_sizes():
    plan = _tiny_coverage_plan(k=3, sizes=(1.0,), sizes_mode="threshold")
    assert plan.threshold() == pytest.approx(3 ** (0.5 + 0.5))
    rep = coverage_experiment(plan)
    assert rep.records[0]["size"] == min(round(plan.threshold()), 4)


def test_report_determinism_modulo_timestamp():
    for runner, plan in [
        (coverage_experiment, _tiny_coverage_plan()),
        (sumset_experiment, _tiny_coverage_plan(x_sizes=(1, 3))),
    ]:
        a = json.loads(runner(plan).to_json())
        b = json.loads(runner(plan).to_json())
        a["stamp"].pop("timestamp")
        b["stamp"].pop("timestamp")
        assert a == b


def test_records_ordered_by_size_then_trial():
    rep = coverage_experiment(_tiny_coverage_plan(sizes=(2, 4), trials=2))
    order = [(r["size_index"], r["trial"]) for r in rep.records]
    assert order == sorted(order)


def test_energy_experiment_skips_small_subsets():
    plan = ExperimentPlan(p=3, d=2, family="sphere", j=1, k=4, ks=(2, 4),
                          sizes=(1, 4), sizes_mode="absolute", trials=1, seed=1)
    rep = energy_bound_experiment(plan)
    assert rep.records[0].get("skipped") == "SubsetTooSmall"
    full = rep.records[1]
    assert full["k2_identity_ok"]
    assert full["k4_energy"] == 36
    assert full["k4_audit_ok"]
    assert rep.hard_failures == 0


def _count_cayley_spectra(monkeypatch):
    calls, sums = [], []
    real = experiments_mod.cayley_spectrum
    real_sums = spectra_mod.character_sum_table

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def counting_sums(*args, **kwargs):
        sums.append(args)
        return real_sums(*args, **kwargs)

    monkeypatch.setattr(experiments_mod, "cayley_spectrum", counting)
    monkeypatch.setattr(spectra_mod, "character_sum_table", counting_sums)
    return calls, sums


@pytest.mark.parametrize("ks,sizes,audits", [
    ((2, 3, 4), (2, 3, 4), 6),   # six growth audits share the set-up spectrum
    ((2, 3), (2, 3, 4), 0),      # no even k >= 4, so no growth audit
    ((4,), (0, 1), 0),           # every trial skipped as too small
], ids=["audited", "no-even-k", "all-skipped"])
def test_energy_experiment_builds_the_cayley_spectrum_at_most_once(monkeypatch, ks,
                                                                    sizes, audits):
    calls, sums = _count_cayley_spectra(monkeypatch)
    plan = ExperimentPlan(p=3, d=2, family="sphere", j=1, ks=ks, sizes=sizes,
                          sizes_mode="absolute", trials=2, seed=3)
    rep = energy_bound_experiment(plan)
    assert len(calls) == 1 and len(sums) == 1  # set-up's, shared with regularity
    assert rep.hard_failures == 0
    audited = [r["k4_audit_ok"] for r in rep.records if "k4_audit_ok" in r]
    assert len(audited) == audits and all(audited)


def _square_classes_without_V(plan):
    """The square classes t*(F_q^*)^2 that hold no level equal to V, by brute force."""
    ctx = plan.context()
    dom = PointDomain(ctx, plan.d)
    qvals = QuadraticForm.parse(plan.form, plan.d).value_table(dom)
    v = builtin_variety(ctx, plan.family, plan.d, plan.j).indices
    classes = {frozenset(ctx.mul(ctx.mul(c, c), t) for c in range(1, ctx.q))
               for t in range(1, ctx.q)}
    return sum(1 for cls in classes
               if not any(np.array_equal(np.flatnonzero(qvals == t), v) for t in cls))


@pytest.mark.parametrize("p,n,d,j,form,level_spectra", [
    (5, 1, 2, 1, "identity", 1), (5, 1, 2, 1, "diag:1,2", 2), (5, 1, 2, 4, "identity", 1),
    (3, 2, 2, 1, "identity", 1), (3, 2, 2, 1, "diag:1,2", 2), (31, 1, 3, 1, "identity", 1),
], ids=["F5-identity", "F5-diag:1,2", "F5-identity-j4", "F9-identity", "F9-diag:1,2",
        "F31^3-identity"])
def test_coverage_takes_the_level_that_is_V_from_set_up(monkeypatch, p, n, d, j, form,
                                                         level_spectra):
    # One level spectrum per square class: V is the sphere x.x = j, the identity
    # form's level t = j, so set-up's spectrum of V serves j's whole class (for
    # j = 4 too, though 1 is the smaller level of that class); no level of the
    # diag: form is V.
    levels = []
    real = experiments_mod.euclidean_spectrum
    monkeypatch.setattr(experiments_mod, "euclidean_spectrum",
                        lambda dom, qvals, t: levels.append(t) or real(dom, qvals, t))
    plan = _tiny_coverage_plan(p=p, n=n, d=d, j=j, form=form)
    rep = coverage_experiment(plan)
    assert len(levels) == level_spectra == _square_classes_without_V(plan)
    assert rep.hard_failures == 0


@pytest.mark.parametrize("src,dst", [(2, 3), (1, 4)], ids=["non-squares", "squares-with-V"])
def test_coverage_rejects_a_level_whose_count_is_not_its_class_degree(monkeypatch, src, dst):
    # Over F_5 the square classes are {1, 4} and {2, 3}, and V is the level 1.
    # Moving one point between two levels of a class leaves every spectrum
    # self-consistent, but the two counts now differ.
    value_table = QuadraticForm.value_table

    def moved(self, dom):  # one point of the level src moved to the level dst
        vals = value_table(self, dom)
        vals[np.flatnonzero(vals == src)[0]] = dst
        return vals

    monkeypatch.setattr(QuadraticForm, "value_table", moved)
    with pytest.raises(InvariantError, match=f"level {dst} has"):
        coverage_experiment(_tiny_coverage_plan(p=5))


def test_the_level_count_invariant_survives_optimized_mode():
    script = """
import sys
import numpy as np
from fqspectra.errors import InvariantError
from fqspectra.experiments import ExperimentPlan, coverage_experiment
from fqspectra.geometry import QuadraticForm

assert False, "asserts must be stripped under -O"
value_table = QuadraticForm.value_table


def moved(self, dom):  # one point of the level 2 moved to the level 3
    vals = value_table(self, dom)
    vals[np.flatnonzero(vals == 2)[0]] = 3
    return vals


QuadraticForm.value_table = moved
try:
    coverage_experiment(ExperimentPlan(p=5, d=2, family="sphere", j=1, k=2, sizes=(4,),
                                       sizes_mode="absolute", trials=2, seed=7))
except InvariantError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "level 3 has" in proc.stdout


@pytest.mark.parametrize("p,n,d", [(31, 1, 3), (3, 3, 3), (23, 1, 2), (5, 1, 2)])
def test_the_set_up_spectrum_of_V_is_its_euclidean_level(p, n, d):
    ctx = FieldContext(p, n)
    dom = PointDomain(ctx, d)
    graph = spectra_mod.cayley_spectrum(ctx, builtin_variety(ctx, "sphere", d, 1).indices, d=d)
    spec, check = spectra_mod.euclidean_spectrum(
        dom, QuadraticForm.identity(d).value_table(dom), 1)
    assert ((graph.lambda_second, graph.argmax_m, graph.lambda_mixing, graph.argmax_mixing)
            == (spec.lambda_second, spec.argmax_m, spec.lambda_mixing, spec.argmax_mixing))
    assert spectra_mod.euclidean_check(graph, 1) == check


def test_energy_experiment_odd_k_ratio():
    plan = ExperimentPlan(p=5, d=2, family="sphere", j=1, k=3, ks=(3,),
                          sizes=(4,), sizes_mode="absolute", trials=1, seed=1)
    rep = energy_bound_experiment(plan)
    assert "k3_ratio" in rep.records[0]
    assert rep.records[0]["k3_energy_product"] > 0


def test_sumset_full_X_gives_whole_field():
    plan = ExperimentPlan(p=3, d=2, family="sphere", j=1, k=2, s=2,
                          sizes=(4,), sizes_mode="absolute",
                          x_sizes=(3,), trials=1, seed=5)
    rep = sumset_experiment(plan)
    rec = rep.records[0]
    assert rec["sumset_size"] == 3
    assert rec["verdict_cq"]
    assert rep.hard_failures == 0


def test_sumset_runner_computes_delta_once_per_trial(monkeypatch):
    calls = []
    real = experiments_mod.delta_set

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments_mod, "delta_set", counting)
    plan = ExperimentPlan(p=5, d=2, family="sphere", j=1, k=2, s=2, sizes=(3, 6),
                          sizes_mode="absolute", x_sizes=(1, 2, 4), trials=2, seed=1)
    rep = sumset_experiment(plan)
    assert len(calls) == 2 * 2 and len(rep.records) == 2 * 2 * 3


def test_sumset_runner_bins_each_trial_fold_once(monkeypatch):
    calls = []
    real = experiments_mod.nu_k

    def counting(E, values, k):
        calls.append(k)
        return real(E, values, k)

    monkeypatch.setattr(experiments_mod, "nu_k", counting)
    plan = ExperimentPlan(p=5, d=2, family="sphere", j=1, k=2, s=2, sizes=(3, 6),
                          sizes_mode="absolute", x_sizes=(1, 2, 4), trials=2, seed=1)
    rep = sumset_experiment(plan)
    assert calls == [2] * (2 * 2) and len(rep.records) == 2 * 2 * 3


def test_sumset_runner_evaluates_P_once(monkeypatch):
    import fqspectra.geometry as geometry_mod
    calls = []
    real = geometry_mod.eval_poly_table

    def counting(dom, spec):
        calls.append((dom.d, spec, True))
        return real(dom, spec)

    monkeypatch.setattr(geometry_mod, "eval_poly_table", counting)
    monkeypatch.setattr(experiments_mod, "eval_poly_table", counting)
    plan = ExperimentPlan(p=5, d=2, family="sphere", j=1, k=3, s=3, sizes=(3, 6),
                          sizes_mode="absolute", x_sizes=(1, 2, 4), trials=2, seed=1)
    rep = sumset_experiment(plan)
    pspec = experiments_mod.diagonal_poly(plan.context(), 2, 3)
    assert [c for c in calls if c[1] == pspec] == [(2, pspec, True)]
    assert len(rep.records) == 2 * 2 * 3


def test_sumset_runner_raises_when_the_weil_ceiling_fails(monkeypatch):
    real = experiments_mod.affine_cayley_spectrum

    def failing(*args):
        spec, check = real(*args)
        return spec, replace(check, within=False)

    monkeypatch.setattr(experiments_mod, "affine_cayley_spectrum", failing)
    plan = ExperimentPlan(p=5, d=2, family="sphere", j=1, k=2, s=2, sizes=(3,),
                          sizes_mode="absolute", trials=1, seed=1)
    with pytest.raises(InvariantError, match="Weil bound failed"):
        sumset_experiment(plan)


def test_sumset_empty_E():
    plan = ExperimentPlan(p=3, d=2, family="sphere", j=1, k=2, s=2,
                          sizes=(0,), sizes_mode="absolute",
                          x_sizes=(1,), trials=1, seed=5)
    rep = sumset_experiment(plan)
    rec = rep.records[0]
    assert rec["delta_size"] == 0 and rec["sumset_size"] == 0


def test_plan_file_roundtrip(tmp_path):
    text = """
# coverage sweep
p = 5
n = 1
d = 3
family = sphere
j = 1
k = 3
sizes = 0.5,1,2
sizes_mode = threshold
trials = 4
seed = 99
"""
    path = tmp_path / "plan.txt"
    path.write_text(text)
    plan = ExperimentPlan.from_file(path)
    assert plan.p == 5 and plan.d == 3 and plan.k == 3
    assert plan.sizes == (0.5, 1.0, 2.0)
    assert plan.seed == 99
    assert plan.threshold() == pytest.approx(5 ** 1.5)


def test_plan_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("p = 5\nbogus = 1\n")
    with pytest.raises(ValueError):
        ExperimentPlan.from_file(path)


def test_report_files(tmp_path):
    rep = coverage_experiment(_tiny_coverage_plan())
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "table.csv"
    rep.write_json(jpath)
    rep.write_csv(cpath)
    data = json.loads(jpath.read_text())
    assert data["kind"] == "coverage"
    assert data["stamp"]["seed"] == 7
    lines = cpath.read_text().splitlines()
    assert lines[0].startswith("size_index,trial,size")
    assert len(lines) == 1 + len(rep.records)


def test_plan_sizes_clamp_down_to_the_variety_and_never_below_zero():
    plan = ExperimentPlan(p=5, d=2, sizes=(0, 3, 1000), sizes_mode="absolute")
    assert plan.resolve_sizes(8) == [0, 3, 8]
    for mode in ("absolute", "threshold"):
        with pytest.raises(ValueError, match="sizes entry -0.5 must be >= 0"):
            ExperimentPlan(p=5, d=2, sizes=(1, -0.5), sizes_mode=mode)
    with pytest.raises(ValueError, match="ks entry k = 1 must be >= 2"):
        ExperimentPlan(p=5, d=2, k=2, ks=(1, 2))


def test_runner_registry_names_every_plan_key_and_the_reports_keep_them_all():
    plan_keys = set(ExperimentPlan(p=5).as_dict())
    assert len(plan_keys) == 16
    assert set().union(*(keys for _, keys in RUNNERS.values())) == plan_keys
    for kind, (runner, keys) in RUNNERS.items():
        raw = {"p": "5", "d": "2", "k": "2", "sizes": "3", "sizes_mode": "absolute",
               "trials": "1"}
        plan = ExperimentPlan.from_mapping(raw, kind=kind)
        report = runner(plan)
        assert report.kind == kind and set(report.plan) == plan_keys
    for w in workloads.WORKLOADS.values():
        if w.entry in RUNNERS:
            assert set(w.plan) <= set(RUNNERS[w.entry][1]), w.name


@pytest.fixture(scope="module")
def program():
    return workloads.load_program()


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perfbench_workload_matches_its_pinned_reference(program, name, seed):
    w = workloads.WORKLOADS[name]
    checker = checks.Checker(program, w, seed)
    assert checker.expected, "no pinned reference for this seed"
    for kind, plan in (("setup", workloads.setup_workload(w)), ("full", w)):
        _, result = workloads.run_once(program, plan, seed)
        assert checker.check(kind, result) == [], kind


# Forward transforms per run at seed 1: one per subset, the variety's in the
# energy runner, and the coverage runner's two level transforms.
FORWARD_TRANSFORMS = {"coverage-p31": 8 + 2, "energy-f27": 6 + 1, "sumset-affine-p23": 6}


@pytest.mark.parametrize("name,inverse", [("energy-f27", 0), ("coverage-p31", 0),
                                          ("sumset-affine-p23", 6)])
def test_runner_plans_inverse_transform_only_the_folds_they_bin(program, monkeypatch, name,
                                                                inverse):
    # Energies and edge counts are read at the origin of the held half
    # spectra, and the coverage runner's distance counts by dual class off
    # them; only nu_k's fold, one per sumset trial, is a table.
    calls = {"_rfft": [], "_irfft": []}
    for attr, seen in calls.items():
        def counting(dom, table, real=getattr(program.energy, attr), seen=seen):
            seen.append(dom.size)
            return real(dom, table)

        monkeypatch.setattr(program.energy, attr, counting)
    workloads.run_once(program, workloads.WORKLOADS[name], 1)
    assert [len(seen) for seen in calls.values()] == [FORWARD_TRANSFORMS[name], inverse]
