"""Command-line front end tying plants, formulas, training and verification
into reproducible experiments.

Scenario files are JSON documents naming a plant, a formula, a horizon,
an initial box, a controller architecture and the training/verification
settings.  Every scenario carries a seed; runs write a manifest with the
scenario hash and seed so any log can be reproduced bit for bit.

Exit codes: 0 success, 2 validation error, 3 training did not finish,
4 runtime failure.
"""

import argparse
import hashlib
import json
import os
import random
import sys

from . import __version__
from .plants import (
    DivergedRollout, InitialSet, builtin, corners_and_center, rollout,
    write_trace_csv, read_trace_csv,
)
from .policy import Policy, init, param_count
from .smooth import SmoothConfig, smooth_robustness
from .stl import HorizonError, ParseError, Trace, critical, horizon, parse, \
    robustness, satisfies, width
from .trainer import (
    TrainConfig, WaypointPath, train_dropout, train_openloop, train_vanilla,
)
from .verify import calibrate, choose_ell, report


class ScenarioError(ValueError):
    """Scenario validation failure, pointing at the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class Scenario:
    def __init__(self, doc, path=None):
        self.doc = doc
        self.path = path
        _known_keys(None, doc, ("name", "plant", "dt", "K", "seed", "formula",
                                "policy", "initial", "train", "waypoints",
                                "verify", "noise"))
        self.name = _req(doc, "name", str)
        plant_name = _req(doc, "plant", str)
        try:
            self.plant = builtin(plant_name)
        except Exception as e:
            raise ScenarioError("plant", str(e))
        if "dt" in doc:
            dt = _req(doc, "dt", float)
            if dt <= 0:
                raise ScenarioError("dt", "must be positive")
            self.plant = self.plant.with_dt(dt)
        self.K = _req(doc, "K", int)
        if self.K < 1:
            raise ScenarioError("K", "must be >= 1")
        self.seed = _req(doc, "seed", int)
        text = _req(doc, "formula", str)
        try:
            self.formula = parse(text)
        except ParseError as e:
            raise ScenarioError("formula", str(e))
        n = width(self.formula)
        if n > self.plant.state_dim:
            raise ScenarioError(
                "formula", f"names x{n - 1} but plant {self.plant.name} has "
                           f"{self.plant.state_dim} state coordinates")
        h = horizon(self.formula)
        if h > self.K:
            raise ScenarioError(
                "formula", f"horizon {h} exceeds scenario horizon K={self.K}")
        self.policy_cfg = self._policy(doc.get("policy"))
        self.init_set = self._initial(doc.get("initial"))
        self.noise = self._noise(doc.get("noise"))
        self.train_cfg, self.algorithm = self._train(doc.get("train"))
        if self.train_cfg.M > max(1, h):
            raise ScenarioError("train.M", f"M={self.train_cfg.M} partition "
                                f"sets exceed the formula horizon {h}")
        self.waypoints = self._waypoints(doc.get("waypoints"))
        self.verify_cfg = self._verify(doc.get("verify"))

    def _policy(self, pd):
        if not isinstance(pd, dict):
            raise ScenarioError("policy", "missing or not an object")
        _known_keys("policy", pd, ("widths", "include_time", "time_scale",
                                   "init", "theta"))
        widths = pd.get("widths")
        if (not isinstance(widths, list) or len(widths) < 2
                or any(not isinstance(w, int) or w < 1 for w in widths)):
            raise ScenarioError("policy.widths", f"bad layer widths {widths!r}")
        include_time = _typed("policy.include_time",
                              pd.get("include_time", True), bool)
        want = self.plant.state_dim + (1 if include_time else 0)
        if widths[0] != want:
            raise ScenarioError(
                "policy.widths",
                f"widths[0]={widths[0]} but plant {self.plant.name} needs "
                f"{want} inputs (state_dim={self.plant.state_dim}, "
                f"include_time={include_time})")
        if widths[-1] != self.plant.action_dim:
            raise ScenarioError(
                "policy.widths",
                f"widths[-1]={widths[-1]} != action_dim="
                f"{self.plant.action_dim}")
        scheme = pd.get("init", "xavier")
        if scheme not in ("xavier", "zero", "given"):
            raise ScenarioError("policy.init", f"unknown scheme {scheme!r}")
        theta = pd.get("theta")
        if scheme == "given":
            if (not isinstance(theta, list)
                    or len(theta) != param_count(widths)):
                raise ScenarioError(
                    "policy.theta",
                    f"needs {param_count(widths)} values for widths {widths}")
            theta = [_typed("policy.theta", w, float) for w in theta]
        return {"widths": widths, "include_time": include_time,
                "time_scale": _typed("policy.time_scale",
                                     pd.get("time_scale", 1.0), float),
                "scheme": scheme, "theta": theta}

    def _initial(self, idoc):
        if not isinstance(idoc, dict):
            raise ScenarioError("initial", "missing or not an object")
        _known_keys("initial", idoc, ("low", "high", "samples"))
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
        if not isinstance(td, dict):
            raise ScenarioError("train", "missing or not an object")
        algorithm = td.get("algorithm")
        if algorithm not in ("dropout", "vanilla", "openloop"):
            raise ScenarioError("train.algorithm",
                                f"unknown algorithm {algorithm!r}")
        fields = {"rho_bar": float, "eps": float, "M": int, "N": int,
                  "N1": int, "N2": int, "b": float, "max_iters": int,
                  "init_rule": str, "alpha": float, "time_sampling": bool,
                  "guard_smooth": bool}
        _known_keys("train", td, ("algorithm", "noise_training", *fields))
        kw = {}
        for key, typ in fields.items():
            if key in td:
                kw[key] = _typed(f"train.{key}", td[key], typ)
        if _typed("train.noise_training", td.get("noise_training", False),
                  bool):
            if algorithm == "dropout":
                raise ScenarioError("train.noise_training",
                                    "the dropout trainer has no noisy training")
            kw["noise"] = self.noise
        try:
            return TrainConfig(**kw), algorithm
        except ValueError as e:
            raise ScenarioError("train", str(e))

    def _waypoints(self, wd):
        if wd is None:
            return None
        if not isinstance(wd, dict) or not isinstance(wd.get("knots"), list):
            raise ScenarioError("waypoints.knots", "missing or not a list")
        _known_keys("waypoints", wd, ("knots", "interpolate"))
        interpolate = _typed("waypoints.interpolate",
                             wd.get("interpolate", True), bool)
        for knot in wd["knots"]:
            if isinstance(knot, list) and knot:
                _typed("waypoints.knots", knot[0], int)  # its time
            if isinstance(knot, list) and len(knot) > 1:  # its target
                for x in _typed("waypoints.knots", knot[1], list):
                    _typed("waypoints.knots", x, float)
        try:
            return WaypointPath(wd["knots"], interpolate=interpolate)
        except (ValueError, TypeError) as e:
            raise ScenarioError("waypoints.knots", str(e))

    def _verify(self, vd):
        vd = _optional_section("verify", vd, ("m", "coverage"))
        m = _typed("verify.m", vd.get("m", 2000), int)
        coverage = _typed("verify.coverage", vd.get("coverage", 0.995), float)
        _check_verify(m, coverage, "verify.")
        return {"m": m, "coverage": coverage}

    def _noise(self, nd):
        nd = _optional_section("noise", nd, ("c1", "c2"))
        c1 = _typed("noise.c1", nd.get("c1", 0.0), float)
        c2 = _typed("noise.c2", nd.get("c2", 0.0), float)
        if c1 < 0 or c2 < 0:
            raise ScenarioError("noise", "c1 and c2 must be non-negative")
        return (c1, c2)

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


def _known_keys(section, d, keys):
    """Reject a key of d that the parser does not read, naming it."""
    for key in d:
        if key not in keys:
            raise ScenarioError(key if section is None else f"{section}.{key}",
                                "unknown field")


def _optional_section(section, d, keys):
    """The optional object d, {} when absent."""
    if d is None:
        return {}
    if not isinstance(d, dict):
        raise ScenarioError(section, "not an object")
    _known_keys(section, d, keys)
    return d


def _typed(field, v, typ):
    """v as typ; a float field also takes an int, and a bool is no number.
    A float must be finite: json reads NaN, Infinity and ints past 1e308."""
    ok = isinstance(v, (int, float) if typ is float else typ)
    if not ok or (isinstance(v, bool) and typ is not bool):
        raise ScenarioError(field, f"expected {typ.__name__}, "
                                   f"got {type(v).__name__}")
    if typ is float and not abs(v) <= sys.float_info.max:
        raise ScenarioError(field, "expected a finite number, of magnitude "
                                   f"at most {sys.float_info.max:.4g}")
    return typ(v)


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


def load_scenario(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ScenarioError("scenario", f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario", "top level must be an object")
    sc = Scenario(doc, path=path)
    sc.sha256 = hashlib.sha256(raw).hexdigest()
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


def _load_checkpoint(path, plant):
    """Controller for plant from a checkpoint file: a Policy or actions."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError("checkpoint", "top level must be an object")
    if doc.get("plant") not in (None, plant):
        raise ScenarioError("checkpoint.plant", f"trained for {doc['plant']!r}"
                            f", not the scenario's {plant!r}")
    if doc.get("kind") == "openloop":
        from .trainer import _OpenLoop
        rows = doc.get("actions")
        if (not isinstance(rows, list) or not rows or any(
                not isinstance(r, list) or not r or len(r) != len(rows[0])
                for r in rows)):
            raise ScenarioError("checkpoint.actions",
                                "expected a non-empty list of equal-length rows")
        return _OpenLoop([[_typed("checkpoint.actions", x, float) for x in r]
                          for r in rows])
    for key, typ in [("widths", int), ("theta", float)]:
        field = f"checkpoint.{key}"
        if key not in doc:
            raise ScenarioError(field, "missing required field")
        for x in _typed(field, doc[key], list):
            _typed(field, x, typ)
    for key, typ in [("include_time", bool), ("time_scale", float)]:
        if key in doc:
            _typed(f"checkpoint.{key}", doc[key], typ)
    if doc.get("activation", "tanh") != "tanh":
        raise ScenarioError("checkpoint.activation",
                            f"unsupported activation {doc['activation']!r}")
    return Policy(doc["widths"], doc["theta"], doc.get("include_time", True),
                  doc.get("time_scale", 1.0))


def cmd_train(args, argv):
    sc = load_scenario(resolve_scenario(args.scenario))
    seed = sc.seed if args.seed is None else args.seed
    rng = random.Random(seed)
    os.makedirs(args.out, exist_ok=True)
    pol = sc.build_policy(rng)
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
    try:
        f = parse(args.formula)
    except ParseError as e:
        print(f"error: formula: {e}", file=sys.stderr)
        return 2
    states = read_trace_csv(args.trace)
    tr = Trace(states)
    n = width(f)
    if n > tr.dim:
        print(f"error: formula names x{n - 1} but the trace has {tr.dim} "
              f"state columns", file=sys.stderr)
        return 2
    try:
        rho = robustness(f, tr)
        w = critical(f, tr)
    except HorizonError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
    ctrl = _load_checkpoint(args.checkpoint, sc.plant.name)
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
        print("error: trials: must be >= 1, the success rate is undefined "
              "for an empty run", file=sys.stderr)
        return 2
    seed = sc.seed if args.seed is None else args.seed
    ctrl = _load_checkpoint(args.checkpoint, sc.plant.name)
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
    if args.action != "list":
        print(f"error: unknown scenarios action {args.action!r}",
              file=sys.stderr)
        return 2
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
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 4
    except Exception as e:
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
