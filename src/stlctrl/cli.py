"""Command-line front end tying plants, formulas, training and verification
into reproducible experiments.

Scenario files are JSON documents naming a plant, a formula (whose
horizon is the run's), an initial box, a controller architecture and the
training/verification settings.  Every scenario carries a seed; runs write
a manifest with the scenario hash and seed so any log can be reproduced
bit for bit.  The hash is the SHA-256 of the bytes load_scenario parsed,
taken when Scenario.sha256 is first read, which only write_manifest does:
hashlib, and the OpenSSL library behind it (about 3.5 MB of memory), is
imported only then, so training or verifying from Python never loads it.

Exit codes: 0 success, 2 validation error, 3 training did not finish,
4 runtime failure.
"""

import argparse
import json
import os
import random
import sys
from dataclasses import fields
from functools import cached_property

from . import __version__
from .plants import (
    DivergedRollout, InitialSet, builtin, corners_and_center, rollout,
    write_trace_csv, read_trace_csv,
)
from .policy import Policy, init, param_count
from .smooth import SmoothConfig, smooth_robustness
from .stl import ParseError, Trace, critical, horizon, parse, satisfies, \
    signals
from .trainer import (
    TrainConfig, WaypointPath, train_dropout, train_openloop, train_vanilla,
)
from .verify import calibrate, choose_ell, report

# weights of a controller; the largest bundled net has 1700.  Compiling a
# net's rollout loop and trajectory kernels takes about 8.5 kB per weight.
_MAX_WEIGHTS = 20_000
# a formula's horizon; the largest bundled one is 1500.  A dubins rollout and
# one smooth walk over it take about 1.3 kB per step.
_MAX_HORIZON = 100_000
_TRAIN = {f.name: f.type for f in fields(TrainConfig)}  # train field types
# the scenario fields that every run reads, and that each trainer reads besides
_READ_BY_ALL = ("name", "plant", "seed", "formula", "initial", "initial.low",
                "initial.high", "initial.samples", "train", "train.algorithm",
                "train.rho_bar", "train.max_iters", "train.alpha", "train.b",
                "verify", "verify.m", "verify.coverage", "noise", "noise.c1",
                "noise.c2")
_POLICY = ("policy", "policy.widths", "policy.include_time",
           "policy.time_scale", "policy.init", "policy.theta")
_READS = {
    "dropout": (*_POLICY, "waypoints", "waypoints.knots", "train.M", "train.N",
                "train.N1", "train.N2", "train.eps", "train.guard_smooth"),
    "vanilla": (*_POLICY, "train.noise_training"),
    "openloop": ("train.noise_training",),
}


class ScenarioError(ValueError):
    """Scenario validation failure, pointing at the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class Scenario:
    _raw = None  # the bytes load_scenario parsed

    def __init__(self, doc):
        td = doc.get("train")
        if not isinstance(td, dict):
            raise ScenarioError("train", "missing or not an object")
        self.algorithm = algorithm = td.get("algorithm")
        if algorithm not in ("dropout", "vanilla", "openloop"):
            raise ScenarioError("train.algorithm",
                                f"unknown algorithm {algorithm!r}")
        reads = _READ_BY_ALL + _READS[algorithm]
        for field in (*doc, *(f"{key}.{k}" for key, v in doc.items()
                              if isinstance(v, dict) for k in v)):
            stray = field in doc and "." in field  # "train.M" at the top
            if stray or field not in reads:
                raise ScenarioError(field, (
                    f"the {algorithm} trainer does not read it"
                    if not stray and any(field in r for r in _READS.values())
                    else "unknown field"))
        self.name = _req(doc, "name", str)
        plant_name = _req(doc, "plant", str)
        try:
            self.plant = builtin(plant_name)
        except Exception as e:
            raise ScenarioError("plant", str(e))
        self.seed = _req(doc, "seed", int)
        text = _req(doc, "formula", str)
        try:
            self.formula = parse(text, dim=self.plant.state_dim)
        except ParseError as e:
            raise ScenarioError("formula", str(e))
        h = horizon(self.formula)
        if h > _MAX_HORIZON:
            raise ScenarioError("formula", f"horizon {h} exceeds the cap of "
                                f"{_MAX_HORIZON} steps")
        self.policy_cfg = (self._policy(doc.get("policy"))
                           if "policy" in reads else None)
        self.init_set = self._initial(doc.get("initial"))
        self.noise = self._noise(doc.get("noise"))
        self.train_cfg = self._train(td)
        if self.train_cfg.M > max(1, h):
            raise ScenarioError("train.M", f"M={self.train_cfg.M} partition "
                                f"sets exceed the formula horizon {h}")
        self.waypoints = self._waypoints(doc.get("waypoints"))
        self.verify_cfg = self._verify(doc.get("verify"))

    def _policy(self, pd):
        if not isinstance(pd, dict):
            raise ScenarioError("policy", "missing or not an object")
        scheme = pd.get("init", "xavier")
        if scheme not in ("xavier", "zero", "given"):
            raise ScenarioError("policy.init", f"unknown scheme {scheme!r}")
        if "theta" in pd and scheme != "given":
            raise ScenarioError("policy.theta", "read only with init "
                                f"\"given\", not {scheme!r}")
        widths, theta, include_time, time_scale = _net(
            "policy", pd, self.plant, scheme == "given")
        return {"widths": widths, "include_time": include_time,
                "time_scale": time_scale, "scheme": scheme, "theta": theta}

    def _initial(self, idoc):
        if not isinstance(idoc, dict):
            raise ScenarioError("initial", "missing or not an object")
        low = idoc.get("low")
        high = idoc.get("high")
        n = self.plant.state_dim
        for key, v in (("low", low), ("high", high)):
            if not isinstance(v, list) or len(v) != n:
                raise ScenarioError(f"initial.{key}",
                                    f"needs {n} coordinates")
        low, high = ([_typed(f"initial.{key}", x, float) for x in v]
                     for key, v in (("low", low), ("high", high)))
        if any(a > b for a, b in zip(low, high)):
            raise ScenarioError("initial", "low exceeds high")
        samples = idoc.get("samples")
        if samples == "corners_center":
            samples = corners_and_center(low, high)
        elif isinstance(samples, list) and samples:
            if any(not isinstance(s, list) or len(s) != n for s in samples):
                raise ScenarioError("initial.samples",
                                    f"each sample needs {n} coordinates")
            samples = [[_typed("initial.samples", x, float) for x in s]
                       for s in samples]
        else:
            raise ScenarioError(
                "initial.samples",
                'need a non-empty list of states or "corners_center"')
        try:
            return InitialSet(low, high, samples)
        except ValueError as e:
            raise ScenarioError("initial", str(e))

    def _train(self, td):
        kw = {key: _typed(f"train.{key}", v, _TRAIN[key])
              for key, v in td.items() if key in _TRAIN}
        if _typed("train.noise_training", td.get("noise_training", False),
                  bool):
            kw["noise"] = self.noise
        try:
            return TrainConfig(**kw)
        except ValueError as e:
            raise ScenarioError("train", str(e))

    def _waypoints(self, wd):
        if wd is None:
            return None
        field = "waypoints.knots"
        if not isinstance(wd, dict) or not isinstance(wd.get("knots"), list):
            raise ScenarioError(field, "missing or not a list")
        n = self.plant.state_dim
        for knot in wd["knots"]:  # [time, target, mask]
            if len(_typed(field, knot, list)) != 3:
                raise ScenarioError(field, "a knot is [time, target, mask]")
            _typed(field, knot[0], int)
            target, mask = (_typed(field, v, list) for v in knot[1:])
            if len(target) != n or len(mask) != n:
                raise ScenarioError(field, f"each target and mask needs {n} "
                                           "entries")
            for x in target:
                _typed(field, x, float)
            if any(_typed(field, m, int) not in (0, 1) for m in mask):
                raise ScenarioError(field, "a mask entry is 0 or 1")
        try:
            path = WaypointPath(wd["knots"])
        except ValueError as e:
            raise ScenarioError(field, str(e))
        return path

    def _verify(self, vd):
        vd = _optional_section("verify", vd)
        m = _typed("verify.m", vd.get("m", 2000), int)
        coverage = _typed("verify.coverage", vd.get("coverage", 0.995), float)
        _check_verify(m, coverage, "verify.")
        return {"m": m, "coverage": coverage}

    def _noise(self, nd):
        nd = _optional_section("noise", nd)
        c1 = _typed("noise.c1", nd.get("c1", 0.0), float)
        c2 = _typed("noise.c2", nd.get("c2", 0.0), float)
        if c1 < 0 or c2 < 0:
            raise ScenarioError("noise", "c1 and c2 must be non-negative")
        return (c1, c2)

    @cached_property
    def sha256(self):
        """Hex SHA-256 of the bytes load_scenario parsed, hashed when first
        read; a Scenario built from a dict has none."""
        if self._raw is None:
            raise AttributeError("a Scenario built from a dict has no sha256")
        import hashlib  # here, not at the top: see the module doc
        return hashlib.sha256(self._raw).hexdigest()

    def build_policy(self, rng):
        cfg = self.policy_cfg
        if cfg["scheme"] == "given":
            return Policy(cfg["widths"], cfg["theta"], cfg["include_time"],
                          cfg["time_scale"])
        return init(cfg["widths"], scheme=cfg["scheme"], rng=rng,
                    include_time=cfg["include_time"],
                    time_scale=cfg["time_scale"])


def _check_verify(m, coverage, prefix):
    """ScenarioError naming prefix + m or coverage unless m >= 1 and
    0 < coverage < 1."""
    if m < 1:
        raise ScenarioError(f"{prefix}m", "must be >= 1")
    if not 0.0 < coverage < 1.0:
        raise ScenarioError(f"{prefix}coverage", "must lie in (0, 1)")


def _req(doc, key, typ):
    if key not in doc:
        raise ScenarioError(key, "missing required field")
    return _typed(key, doc[key], typ)


def _optional_section(section, d):
    """The optional object d, {} when absent."""
    if d is None:
        return {}
    if not isinstance(d, dict):
        raise ScenarioError(section, "not an object")
    return d


def _typed(field, v, typ):
    """v as typ; a float field also takes an int, and a bool is no number.
    A number must lie in a float's range, and a float be finite: json reads
    NaN, Infinity and ints past 1e308."""
    ok = isinstance(v, (int, float) if typ is float else typ)
    if not ok or (isinstance(v, bool) and typ is not bool):
        raise ScenarioError(field, f"expected {typ.__name__}, "
                                   f"got {type(v).__name__}")
    if typ in (int, float) and not abs(v) <= sys.float_info.max:
        raise ScenarioError(field, "expected a finite number, of magnitude "
                                   f"at most {sys.float_info.max:.4g}")
    return typ(v)


def _net(section, doc, plant, given):
    """(widths, theta, include_time, time_scale) of a controller document,
    a scenario's policy section or a checkpoint, that fits plant; theta is
    read only if given.  Each error names section.<field>."""
    field = f"{section}.widths"
    widths = [_typed(field, w, int) for w in _typed(field, doc.get("widths"),
                                                    list)]
    if (len(widths) < 2 or min(widths) < 1
            or param_count(widths) > _MAX_WEIGHTS):
        raise ScenarioError(field, "expected 2 or more layer widths >= 1, "
                                   f"with at most {_MAX_WEIGHTS} weights")
    include_time = _typed(f"{section}.include_time",
                          doc.get("include_time", True), bool)
    want = plant.state_dim + include_time, plant.action_dim
    if (widths[0], widths[-1]) != want:
        raise ScenarioError(field, f"plant {plant.name} needs {want[0]} inputs "
                            f"(include_time={include_time}) and {want[1]} "
                            f"outputs, not {widths[0]} and {widths[-1]}")
    theta = None
    if given:
        field, n = f"{section}.theta", param_count(widths)
        theta = _typed(field, doc.get("theta"), list)
        if len(theta) != n:
            raise ScenarioError(field, f"needs {n} values for widths {widths}")
        theta = [_typed(field, w, float) for w in theta]
    return widths, theta, include_time, _typed(
        f"{section}.time_scale", doc.get("time_scale", 1.0), float)


def bundled_dir():
    return os.path.join(os.path.dirname(__file__), "scenarios")


def bundled_names():
    d = bundled_dir()
    return sorted(os.path.splitext(f)[0] for f in os.listdir(d)
                  if f.endswith(".json"))


def resolve_scenario(arg):
    """Path to a scenario file, accepting bundled names as shorthand."""
    if os.path.exists(arg):
        return arg
    cand = os.path.join(bundled_dir(), arg + ".json")
    if os.path.exists(cand):
        return cand
    raise ScenarioError("scenario", f"no such file or bundled scenario {arg!r}")


def _read_object(path, field):
    """(bytes, JSON object) of the file at path; an error names field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ScenarioError(field, f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        raise ScenarioError(field, "top level must be an object")
    return raw, doc


def load_scenario(path):
    raw, doc = _read_object(path, "scenario")
    sc = Scenario(doc)
    sc._raw = raw
    return sc


def write_manifest(out_dir, command, scenario, seed, argv):
    doc = {
        "command": command,
        "scenario": scenario.name,
        "scenario_sha256": scenario.sha256,
        "seed": seed,
        "version": __version__,
        "python": sys.version.split()[0],
        "argv": list(argv),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_checkpoint(path, sc):
    """Controller for scenario sc from a checkpoint: a Policy or actions."""
    doc = _read_object(path, "checkpoint")[1]
    if doc.get("plant") not in (None, sc.plant.name):
        raise ScenarioError("checkpoint.plant", f"trained for {doc['plant']!r}"
                            f", not the scenario's {sc.plant.name!r}")
    if doc.get("kind") == "openloop":
        from .trainer import _OpenLoop
        rows = _typed("checkpoint.actions", doc.get("actions"), list)
        n, m = max(1, horizon(sc.formula)), sc.plant.action_dim
        if len(rows) < n or any(not isinstance(r, list) or len(r) != m
                                for r in rows):
            raise ScenarioError("checkpoint.actions",
                                f"expected at least {n} rows of {m} numbers")
        return _OpenLoop([[_typed("checkpoint.actions", x, float) for x in r]
                          for r in rows])
    if doc.get("activation", "tanh") != "tanh":
        raise ScenarioError("checkpoint.activation",
                            f"unsupported activation {doc['activation']!r}")
    return Policy(*_net("checkpoint", doc, sc.plant, True))


def cmd_train(args, argv):
    sc = load_scenario(resolve_scenario(args.scenario))
    seed = sc.seed if args.seed is None else args.seed
    rng = random.Random(seed)
    os.makedirs(args.out, exist_ok=True)
    pol = sc.build_policy(rng) if sc.policy_cfg else None  # not for openloop
    if sc.algorithm == "dropout":
        ctrl, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                        sc.waypoints, sc.train_cfg, rng)
    elif sc.algorithm == "vanilla":
        ctrl, log, info = train_vanilla(sc.plant, pol, sc.formula, sc.init_set,
                                        sc.train_cfg, rng)
    else:
        zeros = [[0.0] * sc.plant.action_dim for _ in range(horizon(sc.formula))]
        actions, log, info = train_openloop(sc.plant, zeros, sc.formula,
                                            sc.init_set.samples[0],
                                            sc.train_cfg, rng)
        ctrl = None
    ckpt = os.path.join(args.out, "checkpoint.json")
    if ctrl is not None:
        ctrl.save(ckpt, plant_name=sc.plant.name,
                  metadata={"scenario": sc.name, "seed": seed})
    else:
        with open(ckpt, "w") as fh:
            json.dump({"kind": "openloop", "actions": actions,
                       "plant": sc.plant.name, "scenario": sc.name,
                       "seed": seed}, fh)
    log.write_csv(os.path.join(args.out, "log.csv"))
    write_manifest(args.out, "train", sc, seed, argv)
    counts = info["branch_counts"]
    lines = [
        f"scenario    {sc.name}",
        f"algorithm   {sc.algorithm}",
        f"seed        {seed}",
        f"iterations  {info['iters']}",
        f"final_rho   {info['final_rho']:.6g}",
        f"seconds     {info['seconds']:.1f}",
        f"status      {'dnf' if info['dnf'] else 'solved'}",
        f"retries     {info['retries']}",
        f"diverged    {info['diverged']}",
    ] + [f"branch[{b}]  {counts[b]}" for b in sorted(counts)]
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for ln in lines:
        print(ln)
    return 3 if info["dnf"] else 0


def cmd_monitor(args, argv):
    scfg = None if args.smooth is None else SmoothConfig(args.smooth)
    tr = Trace(read_trace_csv(args.trace))
    try:
        f = parse(args.formula, dim=tr.dim)
    except ParseError as e:
        raise ScenarioError("formula", str(e))
    rho = signals(f, tr)[-1][0]  # HorizonError is a ValueError: exit 2
    w = critical(f, tr)
    print(f"rho        {rho:.6g}")
    print(f"satisfied  {'yes' if satisfies(f, tr) else 'no'}")
    print(f"k_star     {w.time}")
    print(f"h_star     {w.predicate.h.describe()}")
    if scfg is not None:
        sval = smooth_robustness(f, tr, scfg)
        print(f"rho_smooth {sval:.6g}")
    return 0


def cmd_verify(args, argv):
    sc = load_scenario(resolve_scenario(args.scenario))
    seed = sc.seed if args.seed is None else args.seed
    m = sc.verify_cfg["m"] if args.m is None else args.m
    coverage = (sc.verify_cfg["coverage"] if args.coverage is None
                else args.coverage)
    ctrl = _load_checkpoint(args.checkpoint, sc)
    _check_verify(m, coverage, "--")  # the scenario's passed at load
    try:  # before any rollout: the pair may need more than m of them
        choose_ell(m, coverage)
    except ValueError as e:
        raise ScenarioError("verify", str(e))
    rng = random.Random(seed)
    os.makedirs(args.out, exist_ok=True)
    noise = sc.noise if args.noise else None
    calib = calibrate(sc.plant, ctrl, sc.formula, sc.init_set, m, rng,
                      noise=noise)
    rep = report(calib, coverage)
    write_manifest(args.out, "verify", sc, seed, argv)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write("\n".join(rep.lines()) + "\n")
    for ln in rep.lines():
        print(ln)
    return 0


def cmd_simulate(args, argv):
    sc = load_scenario(resolve_scenario(args.scenario))
    if args.trials < 1:
        raise ScenarioError("--trials", "must be >= 1, the success rate is "
                                        "undefined for an empty run")
    seed = sc.seed if args.seed is None else args.seed
    ctrl = _load_checkpoint(args.checkpoint, sc)
    rng = random.Random(seed)
    os.makedirs(args.out, exist_ok=True)
    K = horizon(sc.formula)
    ok = 0
    done = 0
    for t in range(args.trials):
        s0 = (sc.init_set.samples[0] if args.trials == 1
              else sc.init_set.sample_uniform(rng))
        noise = (sc.noise[0], sc.noise[1], rng) if args.noise else None
        try:
            r = rollout(sc.plant, ctrl, s0, K, noise=noise)
        except DivergedRollout:
            continue
        done += 1
        ok += satisfies(sc.formula, Trace(r.states))
        write_trace_csv(os.path.join(args.out, f"trial_{t:04d}.csv"),
                        r.states, r.raw_actions)
    write_manifest(args.out, "simulate", sc, seed, argv)
    rate = ok / args.trials
    print(f"trials        {args.trials}")
    print(f"completed     {done}")
    print(f"success_rate  {rate:.4f}")
    with open(os.path.join(args.out, "rate.txt"), "w") as fh:
        fh.write(f"{rate:.6f}\n")
    return 0


def cmd_scenarios(args, argv):
    for name in bundled_names():
        print(name)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="stlctrl",
        description="Train, monitor, verify and simulate neural feedback "
                    "controllers for temporal logic tasks.")
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("train", help="run the configured trainer")
    t.add_argument("--scenario", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    m = sub.add_parser("monitor", help="evaluate a formula over a trace CSV")
    m.add_argument("formula")
    m.add_argument("trace")
    m.add_argument("--smooth", type=float, nargs="?", const=15.0,
                   default=None, metavar="B",
                   help="also print the smooth lower bound at sharpness B")
    m.set_defaults(fn=cmd_monitor)

    v = sub.add_parser("verify", help="conformal verification report")
    v.add_argument("--scenario", required=True)
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out", required=True)
    v.add_argument("--m", type=int, default=None)
    v.add_argument("--coverage", type=float, default=None)
    v.add_argument("--noise", action="store_true")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("simulate", help="roll out a checkpoint")
    s.add_argument("--scenario", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--noise", action="store_true")
    s.set_defaults(fn=cmd_simulate)

    ls = sub.add_parser("scenarios", help="bundled scenario catalogue")
    ls.add_argument("action", choices=["list"])
    ls.set_defaults(fn=cmd_scenarios)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args, argv)
    except (OSError, ValueError) as e:  # ScenarioError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 4
    except Exception as e:
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
