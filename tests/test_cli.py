import hashlib
import json
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

from stlctrl.cli import (
    Scenario, ScenarioError, bundled_names, load_scenario, main,
    resolve_scenario, write_manifest,
)
from stlctrl.autodiff import Tape, ln
from stlctrl.plants import Plant, Rollout, write_trace_csv
from stlctrl.sampler import build_sampled
from stlctrl.stl import horizon
from stlctrl.trainer import _OpenLoop, train_openloop


def scenario_doc(**over):
    doc = {
        "name": "tiny",
        "plant": "integrator2d",
        "formula": "F[3,5](x0 > 0.2) && G[0,5](x0 > -2)",
        "seed": 7,
        "policy": {"widths": [3, 4, 2], "include_time": True,
                   "time_scale": 0.2, "init": "xavier"},
        "initial": {"low": [-1.0, 0.0], "high": [-1.0, 0.0],
                    "samples": [[-1.0, 0.0]]},
        "train": {"algorithm": "vanilla", "alpha": 0.1, "max_iters": 100,
                  "b": 10.0},
        "verify": {"m": 50, "coverage": 0.9},
        "noise": {"c1": 0.0, "c2": 0.0},
    }
    doc.update(over)
    return doc


def trainer_doc(algorithm):
    """scenario_doc for the trainer named: the open loop reads no policy."""
    doc = scenario_doc()
    doc["train"]["algorithm"] = algorithm
    if algorithm == "openloop":
        del doc["policy"]
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
        path = resolve_scenario(name)
        sc = load_scenario(path)
        assert sc.seed is not None
        assert sc.sha256 == _digest(path)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_the_manifest_digest_is_of_the_bytes_loaded(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    loaded = _digest(path)
    sc = load_scenario(path)
    doc = scenario_doc()
    doc["seed"] = 8
    write_scenario(tmp_path, doc)  # the file changes before its first read
    assert _digest(path) != loaded
    write_manifest(str(tmp_path), "train", sc, 7, [])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["scenario_sha256"] == loaded
    with pytest.raises(AttributeError):
        Scenario(scenario_doc()).sha256  # no file, no digest


def test_library_use_of_every_scenario_does_not_load_openssl():
    # a fresh interpreter: hashlib's _hashlib (OpenSSL) costs about 3.5 MB
    # of peak memory, and only write_manifest needs it
    script = textwrap.dedent("""
        import random, sys
        from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
        from stlctrl.plants import rollout
        from stlctrl.sampler import build_sampled
        from stlctrl.stl import Trace, horizon, robustness
        assert "stlctrl.stl_kernels" not in sys.modules, "kernels compiled"
        for name in bundled_names():
            sc = load_scenario(resolve_scenario(name))
            if sc.policy_cfg is None:
                continue
            pol = sc.build_policy(random.Random(sc.seed))
            K = horizon(sc.formula)
            ref = rollout(sc.plant, pol, sc.init_set.samples[0], K)
            robustness(sc.formula, Trace(ref.states))
            g = build_sampled(ref, [0, 1, K], pol, sc.plant).grad(
                [[1.0] * sc.plant.state_dim] * 2)
            assert len(g) == len(pol.theta) and any(g), name
        assert "_hashlib" not in sys.modules, "OpenSSL was loaded"
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["stlctrl"].__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_validation_errors_name_the_field(tmp_path):
    doc = scenario_doc()
    doc["policy"]["widths"] = [5, 4, 2]
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "policy.widths"

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
    ("dropout", "x0 > 1", 2),
])
def test_more_partition_sets_than_the_horizon_is_rejected_at_load(
        tmp_path, capsys, algorithm, formula, M):
    # partition_times would raise only at the first smooth step, unnamed
    doc = scenario_doc()
    doc["formula"] = formula or doc["formula"]
    doc["train"].update(algorithm=algorithm, M=M)
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
    doc = trainer_doc("openloop")
    doc["formula"] = "x0 > 1"
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "horizon >= 1, got 0" in capsys.readouterr().err


KNOTS = [[5, [0.2, 0.0], [1, 0]]]  # a valid waypoint path for scenario_doc
DROPOUT_ONLY = ("train.M", "train.N", "train.N1", "train.N2", "train.eps",
                "train.guard_smooth")
WRONG_TYPES = [
    ("train.M", 2.7),                  # int(2.7) would be 2
    ("train.max_iters", True),
    ("train.alpha", "0.1"),
    ("train.noise_training", "false"),
    ("policy.include_time", "false"),
    ("policy.time_scale", "0.2"),
    ("verify.m", 2.7),
    ("verify.m", True),                # int(True) would be 1
    ("verify.coverage", "0.9"),
    ("noise.c1", "0.1"),
    ("noise.c2", None),
]


def set_field(doc, path, value):
    section, key = path.split(".")
    if section == "waypoints" or path in DROPOUT_ONLY:
        doc["train"]["algorithm"] = "dropout"  # the trainer that reads it
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


UNKNOWN = [(None, path) for path in [
    "sede", "policy.include_tme", "initial.sample", "train.guard_smoth",
    "waypoints.interpolat", "verify.coverag", "noise.c3",
    # the formula's horizon is the run's; the plant's step is its own
    "K", "dt", "train.init_rule", "waypoints.interpolate"]]
# no trainer reads it: vanilla ascends over the whole horizon at once, and
# dropout partitions the horizon by train.M alone
UNKNOWN += [(algorithm, "train.time_sampling")
            for algorithm in ("dropout", "vanilla", "openloop")]


@pytest.mark.parametrize("algorithm,path", UNKNOWN, ids=[
    path if algorithm is None else f"{algorithm}-{path}"
    for algorithm, path in UNKNOWN])
def test_unknown_fields_are_rejected(tmp_path, capsys, algorithm, path):
    doc = scenario_doc() if algorithm is None else trainer_doc(algorithm)
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


@pytest.mark.parametrize("algorithm", ["vanilla", "openloop"])
def test_waypoints_are_rejected_where_no_trainer_reads_them(
        tmp_path, capsys, algorithm):
    doc = trainer_doc(algorithm)
    doc["waypoints"] = {"knots": KNOTS}
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == "waypoints"
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "error: waypoints: " in capsys.readouterr().err
    doc = scenario_doc(waypoints={"knots": KNOTS})
    doc["train"]["algorithm"] = "dropout"
    assert Scenario(doc).waypoints.knots == [(5, (0.2, 0.0), (1, 0))]


# each trainer with each section and train field that it does not read, at
# a value that would load for a trainer that reads it
UNREAD = [("dropout", "train.noise_training", False),
          ("vanilla", "waypoints", {"knots": KNOTS}),
          ("vanilla", "train.M", 1)]
UNREAD += [(algorithm, path, value)
           for algorithm in ("vanilla", "openloop")
           for path, value in [("train.N", 5), ("train.N1", 10),
                               ("train.N2", 3), ("train.eps", 1e-5),
                               ("train.guard_smooth", True)]]
UNREAD += [("openloop", "policy", scenario_doc()["policy"]),
           ("openloop", "waypoints", {"knots": KNOTS}),
           ("openloop", "train.M", 1)]


@pytest.mark.parametrize("algorithm,path,value", UNREAD, ids=[
    f"{algorithm}-{path}" for algorithm, path, _ in UNREAD])
def test_a_field_the_trainer_does_not_read_is_rejected(
        tmp_path, capsys, algorithm, path, value):
    doc = trainer_doc(algorithm)
    Scenario(doc)
    if path.startswith("train."):
        doc["train"][path[len("train."):]] = value
    else:
        doc[path] = value
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert e.value.field == path
    out = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", out, "--out", str(tmp_path)]) == 2
    assert (f"error: {path}: the {algorithm} trainer does not read it"
            in capsys.readouterr().err)


def test_a_top_level_key_spelt_as_a_train_field_is_unknown():
    doc = scenario_doc(**{"train.M": 1})
    with pytest.raises(ScenarioError) as e:
        Scenario(doc)
    assert (e.value.field, str(e.value)) == ("train.M",
                                             "train.M: unknown field")


def test_an_openloop_run_draws_no_policy(tmp_path):
    # a xavier controller was drawn from the training rng, so the noise of
    # each rollout depended on policy.widths
    doc = trainer_doc("openloop")
    doc["train"].update(noise_training=True, max_iters=4)
    doc["noise"] = {"c1": 0.05, "c2": 0.01}
    doc["formula"] = "F[3,5](x0 > 1e9)"  # never solved: 4 iterations
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 3
    sc = Scenario(doc)
    zeros = [[0.0] * sc.plant.action_dim] * horizon(sc.formula)
    _, log, _ = train_openloop(sc.plant, zeros, sc.formula,
                               sc.init_set.samples[0], sc.train_cfg,
                               random.Random(sc.seed))
    log.write_csv(str(tmp_path / "direct.csv"))
    rows = [[ln.split(",")[:4] for ln in (tmp_path / f).read_text()
             .splitlines()] for f in ("log.csv", "direct.csv")]
    assert len(rows[0]) == 5 and rows[0] == rows[1]


def nan_gradient(ref, kstar, hstar, N, policy, plant, rng):
    return [math.nan] * len(policy.theta)


def log_of_zero(ref, kstar, hstar, N, policy, plant, rng):
    return ln(Tape().const(0.0))


def recorder_guard(ref, kstar, hstar, N, policy, plant, rng):
    # a guard of a sampled trajectory's generated adjoint, which recomputes
    # a step from the reference's floats: grad's first anchor slot is
    # node 1, after the start state (an action table of no actions)
    odd = Plant("odd", 1, 0, 1.0, lambda s, u, dt: (1.0 / s[0],),
                lambda a: a)
    st = build_sampled(Rollout([(0.0,), (1.0,)], [()]), [0, 1],
                       _OpenLoop([[]]), odd)
    return st.grad([(1.0,)])


def test_training_from_an_incumbent_that_diverged_exits_4(tmp_path, capsys):
    # scalar_power's controller from 80.0 diverges, so any candidate would
    # pass its commit test at -inf >= -inf: the trainer fails at once,
    # naming the sample
    with open(resolve_scenario("scalar_power")) as fh:
        doc = json.load(fh)
    doc["initial"] = {"low": [80.0], "high": [80.0], "samples": [[80.0]]}
    doc["policy"]["theta"] = [0.0, -100.0]
    rc = main(["train", "--scenario", write_scenario(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("runtime failure:")
    assert "training sample (80.0,) diverged" in err


def test_vanilla_training_from_an_incumbent_that_diverged_exits_4(
        tmp_path, capsys):
    # the same controller under the vanilla trainer: its step would
    # differentiate the diverged run, so it fails at once, naming the
    # sample, instead of retrying the step
    with open(resolve_scenario("scalar_power")) as fh:
        doc = json.load(fh)
    doc["initial"] = {"low": [80.0], "high": [80.0], "samples": [[80.0]]}
    doc["policy"]["theta"] = [0.0, -100.0]
    doc["train"] = {k: v for k, v in doc["train"].items()
                    if k not in ("M", "N", "N1", "N2", "eps")}
    doc["train"]["algorithm"] = "vanilla"
    rc = main(["train", "--scenario", write_scenario(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("runtime failure:")
    assert "training sample (80.0,) diverged" in err


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
    assert manifest["scenario_sha256"] == _digest(path)


def test_openloop_train_writes_summary(tmp_path, capsys):
    doc = trainer_doc("openloop")
    doc["train"]["max_iters"] = 2
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


def test_monitor_output_is_that_of_robustness_critical_and_satisfies(
        tmp_path, capsys):
    # dubins_k10's reach-avoid formula, whose robustness takes the root
    # kernel, over rollouts of the scenario's seeded policy: monitor takes
    # the exact signals once and prints what the separate calls give
    from stlctrl.plants import rollout
    from stlctrl.smooth import SmoothConfig, smooth_robustness
    from stlctrl.stl import Trace, critical, robustness, satisfies
    path = resolve_scenario("dubins_k10")
    with open(path) as fh:
        text = json.load(fh)["formula"]
    sc = load_scenario(path)
    pol, rng = sc.build_policy(random.Random(sc.seed)), random.Random(2)
    trace = tmp_path / "trace.csv"
    for scale in (0.0, 0.5, 2.0):
        p = pol.with_theta([w + rng.gauss(0.0, scale) for w in pol.theta])
        r = rollout(sc.plant, p, sc.init_set.samples[0], horizon(sc.formula))
        write_trace_csv(str(trace), r.states, r.raw_actions)
        assert main(["monitor", text, str(trace), "--smooth", "5"]) == 0
        tr = Trace(r.states)
        w = critical(sc.formula, tr)
        assert capsys.readouterr().out == (
            f"rho        {robustness(sc.formula, tr):.6g}\n"
            f"satisfied  {'yes' if satisfies(sc.formula, tr) else 'no'}\n"
            f"k_star     {w.time}\n"
            f"h_star     {w.predicate.h.describe()}\n"
            f"rho_smooth "
            f"{smooth_robustness(sc.formula, tr, SmoothConfig(5.0)):.6g}\n")


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


@pytest.mark.parametrize("text", ["x+1 > 0", "x0 > 1e400"])
def test_monitor_rejects_a_misspelt_variable_or_an_infinite_number(
        tmp_path, capsys, text):
    # both monitored as some other predicate and exited 0
    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), [(1.0, 0.0), (2.0, 0.0)], [(0.0,)])
    assert main(["monitor", text, str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: formula: " in err


@pytest.mark.parametrize("rows,bad", [
    ("0,nan\n1,inf", "row 2 column s_0: 'nan'"),
    ("0,0\n1,abc", "row 3 column s_0: 'abc'")], ids=["nan-inf", "abc"])
def test_monitor_rejects_a_trace_cell_that_is_no_finite_number(
        tmp_path, capsys, rows, bad):
    # nan and inf printed rho nan, satisfied yes, and exited 0; abc exited
    # 2 naming no file, row or column
    trace = tmp_path / "trace.csv"
    trace.write_text(f"k,s_0\n{rows}\n")
    assert main(["monitor", "F[0,1](x0 > 0)", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {trace}: {bad} " in err


@pytest.mark.parametrize("text,why", [
    ("", "no state columns"), ("k,s_0,a_0\n", "no state rows")],
    ids=["empty", "header-only"])
def test_monitor_rejects_a_trace_that_holds_no_state(tmp_path, capsys, text,
                                                     why):
    # an empty file exited 4 (StopIteration); a header alone exited 2 with
    # a message that named no file
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    assert main(["monitor", "x0 > 0", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {trace}: {why}" in err


def test_a_variable_past_the_state_fails_at_its_token_without_building_it():
    # the whole coefficient list of x10000000 was built before the check
    import tracemalloc
    with open(resolve_scenario("dubins_k10")) as fh:
        doc = json.load(fh)
    doc["formula"] = "x10000000 > 0"
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError) as e:
            Scenario(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.field == "formula" and "x10000000" in str(e.value)
    assert peak < 10 ** 6


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
    # each of these exited 2 naming no field, or only at the first rollout
    pytest.param({"widths": [3, 0, 2], "theta": [0.0] * 6},
                 "checkpoint.widths", id="doc11-widths"),
    pytest.param({"widths": [3, 10 ** 400, 2], "theta": []},
                 "checkpoint.widths", id="doc12-widths"),
    pytest.param({"widths": [5, 4, 2], "theta": [0.0] * 34, "plant": None},
                 "checkpoint.widths", id="doc13-widths"),  # 4 states, not 2
    pytest.param({"widths": [3, 4, 2], "theta": [0.0] * 25},
                 "checkpoint.theta", id="doc14-theta"),
    pytest.param({"kind": "openloop", "actions": [[0, 0]]},
                 "checkpoint.actions", id="doc15-actions"),  # horizon 5
    pytest.param({"kind": "openloop", "actions": [[0, 0, 0]] * 5},
                 "checkpoint.actions", id="doc16-actions"),  # 2 actions
    # exited 2 with json's bare "Expecting value: line 1 column 1 (char 0)"
    pytest.param("no json", "checkpoint", id="doc17-not-json"),
])
def test_malformed_checkpoint_is_invalid_input(tmp_path, capsys, command, doc,
                                               field):
    path = write_scenario(tmp_path, scenario_doc())
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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
    ("widths", [3, 10 ** 300, 2], "checkpoint.widths"),
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


@pytest.mark.parametrize("hidden", [3333, 3334])
def test_a_controller_past_the_weight_cap_is_invalid_input(tmp_path, capsys,
                                                           hidden):
    # compiling a net's kernels takes memory in proportion to its weights
    # (README "Performance"); [3, h, 2] has 6h + 2, so 3333 is at the cap
    from stlctrl.cli import _load_checkpoint
    from stlctrl.policy import Policy, param_count
    widths = [3, hidden, 2]
    doc = scenario_doc()
    doc["policy"]["widths"] = widths
    ckpt = tmp_path / "ckpt.json"
    Policy(widths).save(str(ckpt))
    if param_count(widths) == 20_000:
        assert Scenario(doc).policy_cfg["widths"] == widths
        pol = _load_checkpoint(str(ckpt), Scenario(scenario_doc()))
        assert pol.widths == widths
        return
    path = write_scenario(tmp_path, doc)
    assert main(["train", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "error: policy.widths: " in capsys.readouterr().err
    path = write_scenario(tmp_path, scenario_doc())
    assert main(["simulate", "--scenario", path, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "s"), "--trials", "1"]) == 2
    assert "error: checkpoint.widths: " in capsys.readouterr().err


def test_a_horizon_past_the_cap_is_rejected_before_any_rollout(tmp_path,
                                                             capsys):
    # a run's memory grows with the horizon, so F[0,1e8] fails at load,
    # not in training; every bundled horizon and dubins K = 5000 load
    from stlctrl.cli import _MAX_HORIZON
    assert max(horizon(load_scenario(resolve_scenario(n)).formula)
               for n in bundled_names()) == 1500
    with open(resolve_scenario("dubins_k1000")) as fh:
        doc = json.load(fh)
    doc["formula"] = (doc["formula"].replace("F[900,1000]", "F[4500,5000]")
                      .replace("G[0,1000]", "G[0,5000]"))
    assert horizon(Scenario(doc).formula) == 5000
    with open(resolve_scenario("dubins_k10")) as fh:
        doc = json.load(fh)
    for h in (_MAX_HORIZON, _MAX_HORIZON + 1, 100_000_000):
        doc["formula"] = f"F[0,{h}](x0 > 0)"
        if h == _MAX_HORIZON:
            assert horizon(Scenario(doc).formula) == h
            continue
        with pytest.raises(ScenarioError) as e:
            Scenario(doc)
        assert e.value.field == "formula"
        path = write_scenario(tmp_path, doc)
        assert main(["train", "--scenario", path, "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: formula: horizon {h} exceeds" in err
        assert not (tmp_path / "out").exists()


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
    assert "error: --trials: " in capsys.readouterr().err


def test_scenarios_list_and_bad_args(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "dubins_k100" in out
    assert main(["scenarios", "bogus"]) == 2  # argparse's choices
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
    ("policy.widths", [3, True, 2]),   # loaded as a width of 1
    ("waypoints.knots", [[5, [0.2, 0.0], ["0", None]]]),  # loaded
    ("waypoints.knots", [[5, [0.2, 0.0], [True, 0]]]),
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
    doc["train"]["algorithm"] = "dropout"  # the trainer that reads waypoints
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
    ("train.eps", math.nan, "train.eps"),   # ell < nan: no smooth branch
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
    ("policy.widths", [3, 10 ** 400, 2], "policy.widths"),  # exited 4
    ("policy.widths", [3, 10 ** 300, 2], "policy.widths"),  # too many weights
    ("train.N1", 10 ** 400, "train.N1"),    # exited 4 for dropout
    ("waypoints.knots", [[5, [0.2, 0.0, 1.0], [1, 0, 1]]],  # 2 states
     "waypoints.knots"),
    ("waypoints.knots", [[5, [0.2, 0.0], [2, 0]]], "waypoints.knots"),
    ("waypoints.knots", [[5, [0.2, 0.0], [1.0, 0]]], "waypoints.knots"),
    ("policy.theta", "abc", "policy.theta"),  # loaded, unread with xavier
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


BAD_VALUES = ["x", True, {}, None, [], [[]], -1, 0, 1.5, -0.0, 10 ** 400]
# a field whose check may report a bad value of another: a TrainConfig value
# is reported on train
PARTNERS = {"initial.low": "initial", "initial.high": "initial",
            "initial.samples": "initial", "noise.c1": "noise",
            "noise.c2": "noise", "policy.include_time": "policy.widths",
            "checkpoint.include_time": "checkpoint.widths",
            "checkpoint.kind": "checkpoint.widths"}


def _leaves(doc, keys=()):
    """The key path of each value of doc that is no list or object."""
    for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(v, (dict, list)):
            yield from _leaves(v, keys + (k,))
        else:
            yield keys + (k,)


def _with(doc, keys, value):
    """A copy of doc with value at the key path keys."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return doc


def test_bad_values_in_every_leaf_exit_2_naming_the_field_or_run(tmp_path,
                                                                capsys):
    """Each value of BAD_VALUES in each leaf of three scenarios and of a
    checkpoint of each kind: a document that loads runs (2 iterations of
    train, or one simulate trial), and none exits 1 or 4."""
    cases = []  # (section, document, argv given the file's path)
    for name in ("dubins_k10", "scalar_power", "integrator2d"):
        with open(resolve_scenario(name)) as fh:
            doc = json.load(fh)
        doc["train"]["max_iters"] = 2
        cases.append((None, doc, lambda p: ["train", "--scenario", p]))
    sc = load_scenario(resolve_scenario("dubins_k10"))
    ckpt = str(tmp_path / "policy.json")
    sc.build_policy(random.Random(sc.seed)).save(
        ckpt, plant_name="dubins", metadata={"scenario": sc.name})
    with open(ckpt) as fh:
        policy_doc = json.load(fh)
    openloop_doc = {"kind": "openloop",
                    "actions": [[0.0, 0.0]] * horizon(sc.formula),
                    "plant": "dubins", "scenario": sc.name}
    for doc in (policy_doc, openloop_doc):
        cases.append(("checkpoint", doc, lambda p: [
            "simulate", "--scenario", "dubins_k10", "--checkpoint", p,
            "--trials", "1"]))
    path, out, wrong = str(tmp_path / "doc.json"), str(tmp_path / "o"), []
    for section, doc, argv in cases:
        for keys in _leaves(doc):
            written = ".".join(
                k for k in ((section,) if section else ()) + keys
                if isinstance(k, str))
            for value in BAD_VALUES:
                with open(path, "w") as fh:
                    json.dump(_with(doc, keys, value), fh)
                rc = main(argv(path) + ["--out", out])
                err = capsys.readouterr().err
                fields = {written, PARTNERS.get(written)}
                if written.startswith("train."):
                    fields.add("train")
                if rc not in (0, 2, 3) or rc == 2 and not any(
                        f"error: {f}: " in err for f in fields if f):
                    wrong.append((written, value, rc, err.strip()[:200]))
    assert wrong == []
