import json
import math
import os

import pytest

from stlctrl.cli import (
    Scenario, ScenarioError, bundled_names, load_scenario, main,
    resolve_scenario,
)
from stlctrl.autodiff import Tape, ln
from stlctrl.plants import Plant, step_recorder, write_trace_csv


def scenario_doc(**over):
    doc = {
        "name": "tiny",
        "plant": "integrator2d",
        "formula": "F[3,5](x0 > 0.2) && G[0,5](x0 > -2)",
        "K": 5,
        "seed": 7,
        "policy": {"widths": [3, 4, 2], "include_time": True,
                   "time_scale": 0.2, "init": "xavier"},
        "initial": {"low": [-1.0, 0.0], "high": [-1.0, 0.0],
                    "samples": [[-1.0, 0.0]]},
        "train": {"algorithm": "vanilla", "alpha": 0.1, "max_iters": 100,
                  "b": 10.0, "time_sampling": False},
        "verify": {"m": 50, "coverage": 0.9},
        "noise": {"c1": 0.0, "c2": 0.0},
    }
    doc.update(over)
    return doc


def write_scenario(tmp_path, doc, name="sc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bundled_scenarios_present_and_valid():
    names = bundled_names()
    for want in ["dubins_k10", "dubins_k50", "dubins_k100", "dubins_k500",
                 "dubins_k1000", "multi_dubins_10", "quad6_platform",
                 "quad12", "integrator2d", "scalar_power"]:
        assert want in names
    for name in names:
        sc = load_scenario(resolve_scenario(name))
        assert sc.seed is not None
        assert len(sc.sha256) == 64


def test_validation_errors_name_the_field(tmp_path):
    doc = scenario_doc()
    doc["policy"]["widths"] = [5, 4, 2]
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "policy.widths"

    doc = scenario_doc(K=2)  # formula horizon is 5
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "formula"

    doc = scenario_doc()
    del doc["seed"]
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "seed"

    doc = scenario_doc()
    doc["train"]["algorithm"] = "sgd"
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "train.algorithm"

    path = write_scenario(tmp_path, scenario_doc(K="five"))
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("algorithm,formula,M", [
    ("dropout", None, 6),   # scenario_doc's formula has horizon 5
    ("vanilla", None, 20),
    ("dropout", "x0 > 1", 2),
])
def test_more_partition_sets_than_the_horizon_is_rejected_at_load(
        tmp_path, capsys, algorithm, formula, M):
    # partition_times would raise only at the first smooth step, unnamed
    doc = scenario_doc()
    doc["formula"] = formula or doc["formula"]
    doc["train"].update(algorithm=algorithm, time_sampling=True, M=M)
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "train.M"
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "train.M: " in capsys.readouterr().err
    # M = 1 fits every horizon, and M may equal the horizon
    doc["train"]["M"] = 1 if formula else 5
    assert Scenario(doc).train_cfg.M == doc["train"]["M"]


def test_openloop_training_on_a_horizon_0_formula_is_invalid_input(
        tmp_path, capsys):
    doc = scenario_doc(formula="x0 > 1")
    doc["train"]["algorithm"] = "openloop"
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "horizon >= 1, got 0" in capsys.readouterr().err


KNOTS = [[5, [0.2, 0.0], [1, 0]]]  # a valid waypoint path for scenario_doc
WRONG_TYPES = [
    ("train.time_sampling", "false"),  # bool("false") would be True
    ("train.M", 2.7),                  # int(2.7) would be 2
    ("train.max_iters", True),
    ("train.alpha", "0.1"),
    ("train.init_rule", 1),
    ("train.noise_training", "false"),
    ("policy.include_time", "false"),
    ("policy.time_scale", "0.2"),
    ("waypoints.interpolate", 0),
    ("verify.m", 2.7),
    ("verify.m", True),                # int(True) would be 1
    ("verify.coverage", "0.9"),
    ("noise.c1", "0.1"),
    ("noise.c2", None),
]


def set_field(doc, path, value):
    section, key = path.split(".")
    doc.setdefault(section, {"knots": KNOTS})[key] = value


@pytest.mark.parametrize("path,value", WRONG_TYPES, ids=[
    f"{path.split('.')[1]}-{value}" for path, value in WRONG_TYPES])
def test_train_fields_of_wrong_type_are_rejected(tmp_path, path, value):
    doc = scenario_doc()
    set_field(doc, path, value)
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == path
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("path", [
    "sede", "policy.include_tme", "initial.sample", "train.guard_smoth",
    "waypoints.interpolat", "verify.coverag", "noise.c3"])
def test_unknown_fields_are_rejected(tmp_path, capsys, path):
    doc = scenario_doc()
    if "." in path:
        set_field(doc, path, False)
    else:
        doc[path] = 1
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == path
    out = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", out, "--out", str(tmp_path)]) == 2
    assert f"{path}: unknown field" in capsys.readouterr().err


def test_optional_sections_that_are_not_objects_are_rejected():
    for section in ("verify", "noise"):
        with pytest.raises(ScenarioError) as e:
            Scenario(scenario_doc(**{section: [0.9]}))
        assert e.value.field == section
    sc = Scenario(scenario_doc(verify=None, noise=None))
    assert sc.verify_cfg == {"m": 2000, "coverage": 0.995}
    assert sc.noise == (0.0, 0.0)


def test_noise_training_is_rejected_for_dropout(tmp_path, capsys):
    # train_dropout has no noisy training; the field must not be ignored
    doc = scenario_doc()
    doc["train"].update(algorithm="dropout", noise_training=True)
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "train.noise_training"
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "noise_training" in capsys.readouterr().err
    doc["train"]["algorithm"] = "vanilla"
    assert Scenario(doc).train_cfg.noise == (0.0, 0.0)
    doc["noise"] = {"c1": 0.03, "c2": 0.01}
    assert Scenario(doc).train_cfg.noise == (0.03, 0.01)


def nan_gradient(ref, kstar, hstar, N, policy, plant, rng):
    return [math.nan] * len(policy.theta)


def log_of_zero(ref, kstar, hstar, N, policy, plant, rng):
    return ln(Tape().const(0.0))


def recorder_guard(ref, kstar, hstar, N, policy, plant, rng):
    # a generated step recorder's guard, raised before it pushes anything
    tape, odd = Tape(), Plant("odd", 1, 1, 1.0,
                              lambda s, u, dt: (u[0] / s[0],), lambda a: a)
    x = tape.const(0.0)
    return step_recorder(odd)(tape, (x,), (x,))


@pytest.mark.parametrize("grad,message", [
    (nan_gradient, "non-finite gradient component nan"),
    (log_of_zero, "log of non-positive value 0.0"),
    (recorder_guard, "node 1: division by zero"),
])
def test_numerical_failure_in_training_exits_4(tmp_path, capsys, monkeypatch,
                                               grad, message):
    # exit 2 is for invalid input; a failure of the numerics is exit 4
    from stlctrl import trainer
    monkeypatch.setattr(trainer, "grad_critical", grad)
    rc = main(["train", "--scenario", "dubins_k100", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("runtime failure:") and message in err


def test_train_float_fields_take_integers():
    doc = scenario_doc()
    doc["train"].update(alpha=1, rho_bar=0, b=10)
    cfg = Scenario(doc).train_cfg
    assert (cfg.alpha, cfg.rho_bar, cfg.b) == (1.0, 0.0, 10.0)
    assert isinstance(cfg.alpha, float)


def test_unseeded_scenario_is_rejected(tmp_path, capsys):
    doc = scenario_doc()
    del doc["seed"]
    path = write_scenario(tmp_path, doc)
    rc = main(["train", "--scenario", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_train_writes_artifacts_and_solves(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "run"
    rc = main(["train", "--scenario", path, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "status      solved" in text
    for f in ["checkpoint.json", "log.csv", "summary.txt", "manifest.json"]:
        assert (out / f).exists()
    summary = (out / "summary.txt").read_text().splitlines()
    assert "retries     0" in summary and "diverged    0" in summary
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["scenario"] == "tiny"
    assert len(manifest["scenario_sha256"]) == 64


def test_openloop_train_writes_summary(tmp_path, capsys):
    doc = scenario_doc()
    doc["train"].update(algorithm="openloop", max_iters=2)
    doc["formula"] = "F[3,5](x0 > 1e9)"
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["train", "--scenario", path, "--out", str(out)]) == 3
    summary = (out / "summary.txt").read_text().splitlines()
    assert "algorithm   openloop" in summary
    assert "iterations  2" in summary
    assert "retries     0" in summary and "diverged    0" in summary


def test_train_same_seed_gives_identical_logs(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    logs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--scenario", path, "--out", str(out)]) == 0
        rows = (out / "log.csv").read_text().splitlines()
        # the wall-clock column varies between runs; compare the rest
        logs.append([",".join(r.split(",")[:4]) for r in rows])
    assert logs[0] == logs[1]


def test_train_dnf_exit_code(tmp_path):
    doc = scenario_doc()
    doc["formula"] = "F[3,5](x0 > 1e9)"
    doc["train"]["max_iters"] = 3
    path = write_scenario(tmp_path, doc)
    rc = main(["train", "--scenario", path, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_monitor_reports_value_and_witness(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), [(1.0,), (2.0,), (3.0,), (1.0,)],
                    [(0.0,)] * 3)
    rc = main(["monitor", "F[0,3](x0 > 0)", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho        3" in out
    assert "satisfied  yes" in out
    assert "k_star     2" in out


def test_monitor_smooth_flag_prints_lower_bound(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), [(1.0,), (2.0,), (3.0,), (1.0,)],
                    [(0.0,)] * 3)
    rc = main(["monitor", "F[0,3](x0 > 0)", str(trace), "--smooth", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("rho_smooth")][0]
    assert float(line.split()[1]) <= 3.0


def test_monitor_short_trace_is_horizon_error(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), [(1.0,), (2.0,)], [(0.0,)])
    assert main(["monitor", "F[0,5](x0 > 0)", str(trace)]) == 2
    assert main(["monitor", "F[0,(x0", str(trace)]) == 2


def test_formula_naming_a_coordinate_past_the_state_is_invalid(tmp_path,
                                                               capsys):
    doc = scenario_doc(formula="F[3,5](x7 > 0.2)")  # integrator2d: x0, x1
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "formula" and "x7" in str(e.value)
    Scenario(scenario_doc(formula="F[3,5](x1 > 0.2)"))
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "formula" in capsys.readouterr().err

    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), [(1.0, 0.0), (2.0, 0.0)], [(0.0,)])
    assert main(["monitor", "x0 > 0 && x2 > 0", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "x2" in err


def test_monitor_rejects_a_row_shorter_than_the_header(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("k,s_0,s_1,a_0\n0,1.0,2.0,0.0\n1,1.0\n")
    assert main(["monitor", "x0 > 0", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "row 3" in err


@pytest.mark.parametrize("b", ["inf", "nan", "0", "-1"])
def test_monitor_rejects_bad_sharpness_before_printing(tmp_path, capsys, b):
    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), [(1.0,), (2.0,)], [(0.0,)])
    assert main(["monitor", "x0 > 0", str(trace), "--smooth", b]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "sharpness" in err


@pytest.mark.parametrize("b", [0.0, math.inf, math.nan])
def test_bad_training_sharpness_is_rejected_at_load(b):
    # a non-finite number is no number of the scenario's
    doc = scenario_doc()
    doc["train"]["b"] = b
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    if math.isfinite(b):
        assert e.value.field == "train" and "sharpness" in str(e.value)
    else:
        assert e.value.field == "train.b" and "finite" in str(e.value)


def test_verify_and_simulate_round_trip(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    run = tmp_path / "run"
    assert main(["train", "--scenario", path, "--out", str(run)]) == 0
    capsys.readouterr()
    ckpt = str(run / "checkpoint.json")

    vout = tmp_path / "verify"
    rc = main(["verify", "--scenario", path, "--checkpoint", ckpt,
               "--out", str(vout), "--m", "99", "--coverage", "0.9"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ell         90" in text
    assert "verdict     pass" in text
    assert "diverged    0" in text
    assert (vout / "report.txt").exists()

    sout = tmp_path / "sim"
    rc = main(["simulate", "--scenario", path, "--checkpoint", ckpt,
               "--out", str(sout), "--trials", "3"])
    assert rc == 0
    assert "success_rate  1.0000" in capsys.readouterr().out
    assert sorted(os.listdir(sout)) == [
        "manifest.json", "rate.txt", "trial_0000.csv", "trial_0001.csv",
        "trial_0002.csv"]


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("doc,field", [
    ([1, 2], "checkpoint"),
    ({"kind": "openloop", "actions": []}, "checkpoint.actions"),
    ({"kind": "openloop", "actions": "0.5"}, "checkpoint.actions"),
    ({"kind": "openloop", "actions": [[0.5, 0.0], [0.5]]}, "checkpoint.actions"),
    ({"kind": "openloop", "actions": [[]]}, "checkpoint.actions"),
    ({"kind": "openloop", "actions": [["0.5", 0.0]]}, "checkpoint.actions"),
    pytest.param({"theta": [1]}, "checkpoint.widths", id="doc6-widths"),
    pytest.param({"widths": [3, 4, 2]}, "checkpoint.theta", id="doc7-theta"),
    pytest.param({"widths": 3, "theta": [1]}, "checkpoint.widths",
                 id="doc8-widths"),
    pytest.param({"widths": [3, 4, 2], "theta": [0.0] * 26,
                  "activation": "relu"}, "checkpoint.activation",
                 id="doc9-activation"),
    pytest.param({"widths": [3, 4, 2], "theta": [math.nan] * 26},
                 "checkpoint.theta", id="doc10-theta"),
])
def test_malformed_checkpoint_is_invalid_input(tmp_path, capsys, command, doc,
                                               field):
    path = write_scenario(tmp_path, scenario_doc())
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    extra = ["--m", "5"] if command == "verify" else ["--trials", "1"]
    rc = main([command, "--scenario", path, "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "o")] + extra)
    assert rc == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("key,value,field", [
    ("theta", ["a"] + [0.0] * 25, "checkpoint.theta"),
    ("theta", [None] + [0.0] * 25, "checkpoint.theta"),
    ("theta", [True] + [0.0] * 25, "checkpoint.theta"),
    ("widths", ["3", 4, 2], "checkpoint.widths"),
    ("widths", [3.0, 4, 2], "checkpoint.widths"),
    ("include_time", "no", "checkpoint.include_time"),
    ("time_scale", "0.2", "checkpoint.time_scale"),
])
def test_checkpoint_field_of_the_wrong_type_is_invalid_input(
        tmp_path, capsys, key, value, field):
    path = write_scenario(tmp_path, scenario_doc())
    ckpt = tmp_path / "bad.json"
    from stlctrl.policy import init
    init([3, 4, 2], scheme="zero", time_scale=0.2).save(str(ckpt))
    doc = json.loads(ckpt.read_text())
    doc[key] = value
    ckpt.write_text(json.dumps(doc))
    rc = main(["simulate", "--scenario", path, "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "s"), "--trials", "1"])
    assert rc == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("kind", ["policy", "openloop"])
def test_checkpoint_for_another_plant_is_invalid_input(tmp_path, capsys,
                                                       command, kind):
    # dubins has integrator2d's dimensions: only the recorded plant differs
    path = write_scenario(tmp_path, scenario_doc())
    ckpt = tmp_path / "ckpt.json"
    if kind == "policy":
        from stlctrl.policy import init
        init([3, 4, 2], scheme="zero", time_scale=0.2).save(str(ckpt))
        doc = json.loads(ckpt.read_text())
    else:
        doc = {"kind": "openloop", "actions": [[0.5, 0.0]] * 5}
    extra = ["--m", "20"] if command == "verify" else ["--trials", "1"]
    for plant, rc in [("dubins", 2), ("integrator2d", 0), (None, 0),
                      ("absent", 0)]:
        doc["plant"] = plant
        if plant == "absent":
            del doc["plant"]
        ckpt.write_text(json.dumps(doc))
        assert main([command, "--scenario", path, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "o")] + extra) == rc
        err = capsys.readouterr().err
        assert ("error: checkpoint.plant: " in err) == (rc == 2), err


def test_verify_untrained_policy_fails_verdict(tmp_path, capsys):
    doc = scenario_doc()
    doc["formula"] = "G[0,5](x0 > 0)"  # start is at x0 = -1
    path = write_scenario(tmp_path, doc)
    ckpt = tmp_path / "zero.json"
    from stlctrl.policy import init
    init([3, 4, 2], scheme="zero", time_scale=0.2).save(str(ckpt))
    rc = main(["verify", "--scenario", path, "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "v"), "--m", "50"])
    assert rc == 0
    assert "verdict     fail" in capsys.readouterr().out


def test_simulate_zero_trials_is_error(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    ckpt = tmp_path / "zero.json"
    from stlctrl.policy import init
    init([3, 4, 2], scheme="zero", time_scale=0.2).save(str(ckpt))
    rc = main(["simulate", "--scenario", path, "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "s"), "--trials", "0"])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


def test_scenarios_list_and_bad_args(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "dubins_k100" in out
    assert main(["nonsense"]) == 2
    assert main(["train", "--scenario", "does_not_exist",
                 "--out", "/tmp/x"]) == 2


UNTYPED_NUMBERS = [
    ("initial.low", ["-1", 0.0]),      # exited 4 on comparing str to float
    ("initial.high", [-1.0, True]),    # loaded as 1.0
    ("initial.samples", [[True, 0.0]]),
    ("initial.samples", [["-1", 0.0]]),
    ("initial.samples", [-1.0, 0.0]),  # a state, not a list of states
    ("policy.theta", ["0.5"] * 26),
    ("policy.theta", [True] + [0.0] * 25),
    ("policy.theta", [None] * 26),
    ("waypoints.knots", [[2.7, [0.2, 0.0], [1, 0]]]),  # was truncated to 2
    ("waypoints.knots", [["3", [0.2, 0.0], [1, 0]]]),
    ("waypoints.knots", [[True, [0.2, 0.0], [1, 0]]]),
]


@pytest.mark.parametrize("path,value", UNTYPED_NUMBERS, ids=[
    f"{path}-{i}" for i, (path, _) in enumerate(UNTYPED_NUMBERS)])
def test_numbers_of_the_scenario_are_typed(tmp_path, capsys, path, value):
    doc = scenario_doc()
    if path == "policy.theta":
        doc["policy"]["init"] = "given"
    set_field(doc, path, value)
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == path
    out = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", out, "--out", str(tmp_path)]) == 2
    assert path in capsys.readouterr().err


def test_typed_numbers_still_load():
    doc = scenario_doc()
    doc["initial"] = {"low": [-1, 0], "high": [-1, 0.5],
                      "samples": [[-1, 0], [-1.0, 0.25]]}
    doc["policy"].update(init="given", theta=[1] * 13 + [0.5] * 13)
    doc["waypoints"] = {"knots": [[0, [0.2, 0.0], [1, 0]],
                                  [5, [0.3, 0.0], [1, 0]]]}
    sc = Scenario(doc)
    assert sc.init_set.samples == [(-1.0, 0.0), (-1.0, 0.25)]
    assert sc.build_policy(None).theta == [1.0] * 13 + [0.5] * 13
    assert [k[0] for k in sc.waypoints.knots] == [0, 5]


NON_FINITE_OR_NON_POSITIVE = [
    # (path, value, the field named): NaN and Infinity are valid json
    ("dt", math.nan, "dt"),                 # exited 4, a diverged rollout
    ("train.alpha", -0.05, "train"),        # trained downhill, exited 3
    ("train.alpha", 0.0, "train"),
    ("train.rho_bar", math.nan, "train.rho_bar"),  # never solved, exited 3
    ("policy.time_scale", math.inf, "policy.time_scale"),  # exited 4
    ("policy.time_scale", 10 ** 400, "policy.time_scale"),  # no float
    ("initial.low", [math.nan, 0.0], "initial.low"),  # exited 0
    ("noise.c1", math.inf, "noise.c1"),
    ("verify.coverage", math.nan, "verify.coverage"),
    ("waypoints.knots", [[5, ["0.2", 0.0], [1, 0]]], "waypoints.knots"),
    ("waypoints.knots", [[5, "ab", [1, 0]]], "waypoints.knots"),
    ("waypoints.knots", [[5, [math.nan, 0.0], [1, 0]]], "waypoints.knots"),
]


@pytest.mark.parametrize("path,value,field", NON_FINITE_OR_NON_POSITIVE, ids=[
    f"{path}-{i}" for i, (path, _, _) in enumerate(NON_FINITE_OR_NON_POSITIVE)])
def test_non_finite_numbers_and_untyped_targets_are_invalid_input(
        tmp_path, capsys, path, value, field):
    doc = scenario_doc()
    if "." in path:
        set_field(doc, path, value)
    else:
        doc[path] = value
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == field
    assert path.split(".")[-1] in str(e.value)
    out = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", out, "--out", str(tmp_path)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("args,field", [
    (["--coverage", "1.5"], "--coverage"),
    (["--coverage", "nan"], "--coverage"),
    (["--coverage", "0"], "--coverage"),
    (["--m", "0"], "--m"),
    (["--m", "3"], "verify"),               # coverage 0.9 needs ell = 4
    (["--m", "3000", "--coverage", "0.9999"], "verify"),
    ([], "verify"),                         # the scenario's own pair
])
def test_verify_rejects_m_and_coverage_before_any_rollout(
        tmp_path, capsys, monkeypatch, args, field):
    from stlctrl import cli
    from stlctrl.policy import init
    doc = scenario_doc()
    if not args:
        doc["verify"] = {"m": 5, "coverage": 0.9}
    path = write_scenario(tmp_path, doc)
    ckpt = tmp_path / "zero.json"
    init([3, 4, 2], scheme="zero", time_scale=0.2).save(str(ckpt))
    calls = []
    monkeypatch.setattr(cli, "calibrate", lambda *a, **k: calls.append(a))
    rc = main(["verify", "--scenario", path, "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "v")] + args)
    assert (rc, calls) == (2, [])
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_a_checkpoint_is_read_once(tmp_path, monkeypatch):
    # the policy is built from the document that was checked
    import builtins
    from stlctrl.policy import init
    path = write_scenario(tmp_path, scenario_doc())
    ckpt = str(tmp_path / "zero.json")
    init([3, 4, 2], scheme="zero", time_scale=0.2).save(ckpt)
    opened, real_open = [], builtins.open

    def counting_open(f, *args, **kw):
        opened.append(f)
        return real_open(f, *args, **kw)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["simulate", "--scenario", path, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "s"), "--trials", "1"]) == 0
    assert opened.count(ckpt) == 1

