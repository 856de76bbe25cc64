"""Tests of the benchmark itself: the tracer's counters repeat exactly, the
traced run is transparent, and the command keeps its output contract."""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
from tracer import Tracer, read_spans, span_totals

# hardware-independent counters that two traced runs must repeat exactly
EXACT = (
    "autodiff.tape_nodes", "sampler.live_steps", "plants.rollout.calls",
    "plants.rollout.steps", "stl.robustness.calls", "stl.critical.calls",
    "trainer.iterations", "trainer.branch.critical", "trainer.branch.waypoint",
    "trainer.branch.smooth",
)

TRAIN = run.WORKLOADS["train-dubins-k100"]
# the verify pass on the short dubins_k100 horizon keeps these tests fast;
# m=199 is the smallest set whose rank meets the scenario's 0.995 coverage
VERIFY = dataclasses.replace(run.WORKLOADS["verify-dubins-k1000"],
                             name="verify-dubins-k100", scenario="dubins_k100",
                             unit_s=1.0, m=199, expected=())


@pytest.fixture(autouse=True)
def keep_modules():
    """run.setup re-imports stlctrl; give later tests their modules back."""
    saved = {n: m for n, m in sys.modules.items()
             if n == run.PACKAGE or n.startswith(run.PACKAGE + ".")}
    yield
    for n in [n for n in sys.modules
              if n == run.PACKAGE or n.startswith(run.PACKAGE + ".")]:
        del sys.modules[n]
    sys.modules.update(saved)


def _metric_values(details):
    return {k: v["value"] for k, v in details["result"]["metrics"].items()}


@pytest.mark.parametrize("workload", [TRAIN, VERIFY], ids=lambda w: w.name)
def test_traced_counters_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        details, _, _ = run.measure(workload, seed=5, seconds=workload.unit_s,
                                    trace=True)
        assert details["result"]["correct"]
        runs.append(_metric_values(details))
    for key in EXACT:
        assert runs[0][key] == runs[1][key], key
    if workload is TRAIN:
        assert runs[0]["trainer.iterations"] > 0
        assert runs[0]["autodiff.tape_nodes"] > 0
    else:
        assert runs[0]["plants.rollout.calls"] == workload.m
        assert runs[0]["smooth.smooth_robustness.calls"] == 0


def _csv_rows_without_seconds(path):
    with open(path) as fh:
        return [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]


@pytest.mark.parametrize("workload", [TRAIN, VERIFY], ids=lambda w: w.name)
def test_traced_run_is_transparent(workload, tmp_path):
    _, mods = run.setup(workload)
    seeds = run.unit_seeds(workload, 7, 1)
    _, plain, _ = run.run_pass(mods, workload, seeds)
    tracer = Tracer(run.PACKAGE)
    with tracer:
        _, traced, _ = run.run_pass(mods, workload, seeds)

    assert not any(r["error"] for r in plain + traced)
    assert run.outputs(workload, traced) == run.outputs(workload, plain)
    for name, recs in (("plain", plain), ("traced", traced)):
        run.write_details(str(tmp_path / name), workload, recs, {}, None)
    produced = sorted(os.listdir(tmp_path / "plain"))
    assert produced == sorted(os.listdir(tmp_path / "traced"))
    for fname in produced:
        a, b = (tmp_path / d / fname for d in ("plain", "traced"))
        if fname.startswith("log_"):
            assert _csv_rows_without_seconds(a) == _csv_rows_without_seconds(b)
        elif fname.startswith("report_"):
            assert a.read_text() == b.read_text()

    # every call site that imports a traced function by name was wrapped,
    # and every wrapped attribute holds its original again
    sites = {(getattr(o, "__name__", None), a) for o, a, _ in tracer.patched}
    for site in [("stlctrl.trainer", "rollout"), ("stlctrl.verify", "rollout"),
                 ("stlctrl.trainer", "robustness"),
                 ("stlctrl.verify", "robustness"),
                 ("stlctrl.trainer", "critical"),
                 ("stlctrl.trainer", "build_sampled"),
                 ("stlctrl.trainer", "grad_critical"),
                 ("stlctrl.trainer", "grad_smooth"),
                 ("stlctrl.trainer", "adam_update"),
                 ("stlctrl.sampler", "smooth_robustness"),
                 ("Tape", "backward"), ("Plant", "step"), ("Policy", "forward")]:
        assert site in sites, site
    for owner, attr, orig in tracer.patched:
        assert getattr(owner, attr) is orig, (owner, attr)
    assert len(tracer) > 0

    path = tmp_path / "spans.bin"
    tracer.write(str(path))
    assert span_totals(*read_spans(str(path))) == tracer.totals()


def _checkout(tmp_path, with_src=True):
    """A copy of the files the benchmark runs from, as a checkout holds them."""
    root = tmp_path / "checkout"
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                    root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
    if with_src:
        shutil.copytree(run.SRC, root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _command(root, trace):
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    args = spec["command"] + ["--workload", TRAIN.name, "--seed", "3",
                              "--seconds", str(TRAIN.unit_s),
                              "--trace", str(trace)]
    return spec, [sys.executable if a == "python3" else a for a in args]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_of_benchmark_json(tmp_path, trace):
    root = _checkout(tmp_path)
    spec, cmd = _command(root, trace)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_verify_metrics_match_benchmark_json():
    details, _, _ = run.measure(VERIFY, seed=1, seconds=VERIFY.unit_s,
                                trace=False)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert details["result"]["correct"]
    assert details["result"]["attempted"] == VERIFY.m
    assert list(details["result"]["metrics"]) == names


def test_command_fails_without_the_program(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    _, cmd = _command(root, 0)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", [TRAIN, VERIFY], ids=lambda w: w.name)
def test_gauge_probes_leave_outputs_unchanged(workload):
    _, mods = run.setup(workload)
    seeds = run.unit_seeds(workload, 4, 1)
    _, plain, _ = run.run_pass(mods, workload, seeds)
    gauge = run.Gauge()
    gauge.probe()
    _, gauged, _ = run.run_pass(mods, workload, seeds, gauge)
    assert run.outputs(workload, gauged) == run.outputs(workload, plain)
    assert len(gauge.times) >= 2
    if workload is TRAIN:
        # one span per iteration, one after the check that ends the loop
        # and one after the final check: iterations are scaled one by one
        assert len(gauged[0]["spans"]) == len(gauged[0]["iter_s"]) + 2
    else:
        # probes fall between rollouts, outside every timed span
        spans = gauged[0]["spans"]
        assert len(spans) == workload.m
        for a, b in spans:
            lo = run.bisect.bisect_right(gauge.ends, a)
            assert lo == len(gauge.starts) or gauge.starts[lo] >= b


def test_gauge_scale_uses_the_nearest_probes():
    gauge = run.Gauge()
    # probes at t = 0, 1, ..., 9; the machine runs at half speed from t = 5
    for t in range(10):
        gauge.starts.append(t)
        gauge.ends.append(t + 0.01)
        gauge.times.append(gauge.REF_S * (2.0 if t >= 5 else 1.0))
    assert gauge.scale(1.5, 2.5) == 1.0     # probes 1 | 2 | 3
    assert gauge.scale(6.5, 7.5) == 0.5     # probes 6 | 7 | 8
    assert gauge.scale(-1.0, -0.5) == 1.0   # probe 0 after it
    # probes 2 | 3..7 | 8, less the highest and the lowest factor
    assert gauge.scale(2.5, 7.5) == pytest.approx((3 * 0.5 + 2 * 1.0) / 5)


def test_checks_count_mismatches_as_failed():
    _, mods = run.setup(VERIFY)
    sc, sets, _ = run.run_pass(mods, VERIFY, run.unit_seeds(VERIFY, 2, 1))
    rep = sets[0]["report"]
    right = (rep.m, rep.ell, rep.verdict, rep.R_ell)
    assert run.check(mods, VERIFY, sc, sets) == (VERIFY.m, 0)
    for wrong in [(rep.m, rep.ell, not rep.verdict, rep.R_ell),
                  (rep.m, rep.ell, rep.verdict, rep.R_ell + 1e-6)]:
        recorded = dataclasses.replace(VERIFY, expected=wrong)
        assert run.check(mods, recorded, sc, sets) == (VERIFY.m, VERIFY.m)
    recorded = dataclasses.replace(VERIFY, expected=right)
    assert run.check(mods, recorded, sc, sets) == (VERIFY.m, 0)

    # an untrained controller that claims to have solved fails the re-check
    sc = mods.scenario(TRAIN)
    untrained = sc.build_policy(random.Random(1))
    solve = {"seed": 1, "error": False, "ctrl": untrained,
             "info": {"dnf": False}}
    assert run.check(mods, TRAIN, sc, [solve]) == (1, 1)


def test_tracer_counts_diverged_rollouts():
    _, mods = run.setup(TRAIN)
    plants = mods.plants
    plant = plants.builtin("scalar_power")
    policy = sys.modules["stlctrl.policy"].Policy([2, 1])
    tracer = Tracer(run.PACKAGE)
    with tracer:
        with pytest.raises(plants.DivergedRollout):
            plants.rollout(plant, policy, (1e8,), 3)
    assert tracer.counts["plants.rollout.diverged"] == 1
    assert tracer.totals()["plants.rollout"][0] == 1
    assert tracer.totals()["plants.step"][0] == 1
