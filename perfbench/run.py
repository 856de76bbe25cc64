"""stlctrl benchmark: time to solve, verification throughput, per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run is one process, one thread and a closed loop with a single
caller: each solve or calibration set starts only after the previous one
has finished.  --seconds sizes the run: it fixes how many units of work
(training seeds or calibration sets) the run does, from each unit's cost
measured on the reference machine, so the same arguments always give the
same work and the same hardware-independent counters.

--trace 0 prints the end-to-end metrics.  Their times are scaled to a
reference machine speed by a Gauge that times a fixed kernel between the
pieces of work (see Gauge); the raw wall time and the machine's speed
relative to the reference are printed beside them.  --trace 1 does every
unit of work twice, first plainly and then under tracer.Tracer; it prints the
per-layer metrics of the traced units, the tracing overhead (traced minus
plain wall time) and checks that both produced identical outputs.

Outputs are checked: each solved controller is rolled out again from every
training sample and must reach robustness > rho_bar, and each calibration
certificate must match the values recorded at the reference commit.  A
mismatch counts its operation as failed and makes the exit code 1.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; run details go to .perfbench_out/.
"""

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PACKAGE = "stlctrl"
SETUP_REPEATS = 9
R_ELL_TOL = 1e-9  # relative; R_ell is a deterministic float at a fixed commit

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)), SRC]
from tracer import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    kind: str        # "train" or "verify"
    # wall time of one training seed or calibration set at the reference
    # commit on a 2-vCPU Intel Xeon with Python 3.11.7
    unit_s: float
    m: int = 0       # rollouts per calibration set
    expected: tuple = ()  # recorded (m, ell, verdict, R_ell) of each set


WORKLOADS = {w.name: w for w in (
    Workload("train-dubins-k100", "dubins_k100", "train", 2.3),
    Workload("verify-multi-dubins-10", "multi_dubins_10", "verify", 10.3,
             m=200, expected=(200, 200, False, 17.0996803943175)),
    Workload("verify-dubins-k1000", "dubins_k1000", "verify", 12.0,
             m=300, expected=(300, 300, False, 82.32417071161873)),
)}


class _Node:
    """Scalar node of the gauge kernel's expression graph."""

    __slots__ = ("v", "a", "b", "op", "g")

    def __init__(self, v, a=None, b=None, op=0):
        self.v, self.a, self.b, self.op, self.g = v, a, b, op, 0.0

    def __add__(self, o):
        o = o if isinstance(o, _Node) else _Node(o)
        return _Node(self.v + o.v, self, o, 1)

    def __mul__(self, o):
        o = o if isinstance(o, _Node) else _Node(o)
        return _Node(self.v * o.v, self, o, 2)

    def tanh(self):
        return _Node(math.tanh(self.v), self, None, 3)


class Gauge:
    """Machine-speed gauge: a fixed reference kernel timed between the work.

    On a shared host the CPU switches between a fast and a slow speed, in
    spells from a tenth of a second to minutes, and process CPU time slows
    with it: the same program work takes 1.5-1.8x longer in the slow mode,
    so raw times of equal runs spread past a 25% regression bound.  The
    kernel, a small network rolled forward on an expression graph of scalar
    nodes and differentiated by a reverse sweep, has the program's mix of
    object allocation, operator calls, float arithmetic and list work, and
    slows by 1.7-1.9x.

    probe() times one kernel run (2-4 ms); the benchmark probes before
    every training iteration and calibration rollout and after every
    set-up, solve and calibration set.  A gated time is reported at the
    reference speed: its raw seconds times the mean of REF_S over the
    kernel times of the probes inside its interval and the nearest one on
    each side (from five probes on, less the highest and the lowest).  The
    kernel belongs to the benchmark, not to the program, so a change of the
    program moves the scaled times as it moves the raw ones.
    """

    REF_S = 1.6e-3    # kernel time the scaled times are reported at
    STEPS = 8         # kernel length: about REF_S on a 2-vCPU Xeon at full speed

    def __init__(self):
        rng = random.Random(0)
        self.w = [rng.uniform(-1, 1) for _ in range(80)]
        self.starts, self.ends, self.times = [], [], []
        self.spent_s = 0.0

    def _kernel(self):
        w = [_Node(x) for x in self.w]
        s = [_Node(0.1), _Node(-0.2), _Node(0.3)]
        for _ in range(self.STEPS):
            h = [(w[3 * j] * s[0] + w[3 * j + 1] * s[1]
                  + w[3 * j + 2] * s[2]).tanh() for j in range(20)]
            u = h[0]
            for j in range(1, 20):
                u = u + h[j] * w[60 + j]
            s = [s[0] + u * 0.05, s[1] + s[2] * 0.05, s[2] + u.tanh() * 0.05]
        order, seen, stack = [], set(), [(s[0], False)]
        while stack:                      # post-order of the graph
            n, done = stack.pop()
            if done:
                order.append(n)
            elif id(n) not in seen:
                seen.add(id(n))
                stack.append((n, True))
                stack.extend((c, False) for c in (n.a, n.b)
                             if c is not None and id(c) not in seen)
        s[0].g = 1.0
        for n in reversed(order):         # reverse sweep
            if n.op == 1:
                n.a.g += n.g
                n.b.g += n.g
            elif n.op == 2:
                n.a.g += n.g * n.b.v
                n.b.g += n.g * n.a.v
            elif n.op == 3:
                n.a.g += n.g * (1.0 - n.v * n.v)
        return [x.g for x in w]

    def probe(self):
        # no collection inside the kernel: its cost would follow the size of
        # the program's heap, not the machine's speed
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        if gc_was_on:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self.spent_s += t1 - t0

    def scale(self, t0, t1):
        """Factor from raw seconds in [t0, t1] to seconds at the reference speed."""
        lo = bisect.bisect_right(self.ends, t0)     # probes before: [:lo]
        hi = bisect.bisect_left(self.starts, t1)    # probes after: [hi:]
        near = sorted(self.REF_S / x for x in self.times[max(0, lo - 1):hi + 1])
        if not near:
            raise RuntimeError("no gauge probe near the interval")
        if len(near) >= 5:
            near = near[1:-1]   # an interrupted probe is an outlier
        return statistics.fmean(near)


def units_for(workload, seconds):
    return max(1, round(seconds / workload.unit_s))


def unit_seeds(workload, seed, n):
    """Training seeds 1..n, or n calibration seeds drawn from the workload seed.

    Training uses a fixed seed list.  Solve time varies between training
    seeds with a coefficient of variation of about 0.54 (40 seeds), so
    sets of 13 drawn from the workload seed would spread solve_s by about
    20% (quartile distance over median) from the seed draw alone, which
    leaves no room for timing noise under a 25% regression bound.
    """
    if workload.kind == "train":
        return list(range(1, n + 1))
    rng = random.Random(seed)
    return [rng.randrange(2 ** 32) for _ in range(n)]


# -- set-up ---------------------------------------------------------------

class Modules:
    """The freshly imported stlctrl modules a pass calls through."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.cli = importlib.import_module(PACKAGE + ".cli")
        pkg_file = os.path.abspath(sys.modules[PACKAGE].__file__)
        if not pkg_file.startswith(SRC + os.sep):
            raise ImportError(f"{PACKAGE} imported from {pkg_file}, not {SRC}")
        for short in ("plants", "stl", "trainer", "verify"):
            setattr(self, short, sys.modules[f"{PACKAGE}.{short}"])

    def scenario(self, workload):
        return self.cli.load_scenario(self.cli.resolve_scenario(workload.scenario))


def setup(workload):
    """Import, load and validate the scenario, build its policy; (seconds, Modules)."""
    t0 = time.perf_counter()
    mods = Modules()
    sc = mods.scenario(workload)
    sc.build_policy(random.Random(sc.seed))
    return time.perf_counter() - t0, mods


# -- workload passes ----------------------------------------------------------

class GaugedInitialSet:
    """Initial set that marks the program's pieces of work and probes a
    gauge between them.

    train_dropout reads .samples once at the start of every iteration, in
    its min-rho check and before it starts the iteration's clock, once in
    the check that ends the loop and once in the final check.  calibrate
    draws one state right before each rollout.  Each read or draw closes
    the open span, probes the gauge and opens the next span, so a span is
    one iteration or one rollout with its robustness evaluation, and every
    probe falls between spans and outside the iteration clock.  A calibrate
    that drew every state up front would break the spans.  Everything else
    is delegated."""

    def __init__(self, base, gauge=None):
        self.base = base
        self.gauge = gauge
        self.spans = []      # [start, end] of each piece of work

    def close(self, t):
        if self.spans:
            self.spans[-1][1] = t

    def _mark(self):
        self.close(time.perf_counter())
        if self.gauge is not None:
            self.gauge.probe()
        self.spans.append([time.perf_counter(), None])

    @property
    def samples(self):
        self._mark()
        return self.base.samples

    def sample_uniform(self, rng):
        self._mark()
        return self.base.sample_uniform(rng)

    def __getattr__(self, name):
        return getattr(self.base, name)


def train_pass(mods, workload, seeds, gauge=None):
    """Solve the scenario once per training seed; one record per solve.

    With a gauge, probes fall between the iterations of a solve and one
    follows every solve; "seconds" leaves their time out."""
    sc = mods.scenario(workload)
    solves = []
    for s in seeds:
        init = GaugedInitialSet(sc.init_set, gauge)
        rng = random.Random(s)
        policy = sc.build_policy(rng)
        probe_s = gauge.spent_s if gauge is not None else 0.0
        t0 = time.perf_counter()
        try:
            ctrl, log, info = mods.trainer.train_dropout(
                sc.plant, policy, sc.formula, init, sc.waypoints,
                sc.train_cfg, rng)
        except Exception:
            traceback.print_exc()
            solves.append({"seed": s, "seconds": time.perf_counter() - t0,
                           "error": True})
            continue
        t1 = time.perf_counter()
        init.close(t1)
        if gauge is not None:
            probe_s = gauge.spent_s - probe_s
            gauge.probe()
        solves.append({
            "seed": s, "seconds": t1 - t0 - probe_s, "t0": t0, "t1": t1,
            "error": False, "ctrl": ctrl, "log": log, "info": info,
            "spans": init.spans, "iter_s": [rec.seconds for rec in log.records],
        })
    return sc, solves


def check_train(mods, sc, solves):
    """Roll out each returned controller from every training sample."""
    K = mods.stl.horizon(sc.formula)
    rho_bar = sc.train_cfg.rho_bar
    for sv in solves:
        ok = not sv["error"] and not sv["info"]["dnf"]
        if ok:
            for s0 in sc.init_set.samples:
                try:
                    r = mods.plants.rollout(sc.plant, sv["ctrl"], s0, K)
                except mods.plants.DivergedRollout:
                    rho = -math.inf
                else:
                    rho = mods.stl.robustness(sc.formula,
                                              mods.stl.Trace(r.states))
                if not rho > rho_bar:
                    print(f"check: seed {sv['seed']} solved but rho={rho!r} "
                          f"<= rho_bar={rho_bar!r} from {s0}", file=sys.stderr)
                    ok = False
        elif not sv["error"]:
            print(f"check: seed {sv['seed']} did not finish", file=sys.stderr)
        sv["ok"] = ok


def verify_pass(mods, workload, seeds, gauge=None):
    """calibrate + report on the scenario's seeded initial policy, once per seed."""
    m = workload.m
    sc = mods.scenario(workload)
    policy = sc.build_policy(random.Random(sc.seed))
    coverage = sc.verify_cfg["coverage"]
    sets = []
    for s in seeds:
        init = GaugedInitialSet(sc.init_set, gauge)
        probe_s = gauge.spent_s if gauge is not None else 0.0
        t0 = time.perf_counter()
        try:
            calib = mods.verify.calibrate(sc.plant, policy, sc.formula, init,
                                          m, random.Random(s))
            init.close(time.perf_counter())
            rep = mods.verify.report(calib, coverage)
        except Exception:
            traceback.print_exc()
            sets.append({"seed": s, "error": True, "m": m})
            continue
        t1 = time.perf_counter()
        if gauge is not None:
            probe_s = gauge.spent_s - probe_s
            gauge.probe()
        sets.append({
            "seed": s, "error": False, "m": m, "report": rep,
            "values": calib.values, "seconds": t1 - t0 - probe_s,
            "t0": t0, "t1": t1, "spans": init.spans,
            "diverged": sum(1 for v in calib.values if v == math.inf),
        })
    return sc, sets


def check_verify(workload, sets):
    for st in sets:
        ok = not st["error"]
        if ok and workload.expected:
            rep = st["report"]
            m, ell, verdict, r_ell = workload.expected
            got = (rep.m, rep.ell, rep.verdict)
            close = abs(rep.R_ell - r_ell) <= R_ELL_TOL * max(1.0, abs(r_ell))
            if got != (m, ell, verdict) or not close:
                print(f"check: set seed {st['seed']} gave (m, ell, verdict, "
                      f"R_ell)={got + (rep.R_ell,)}, recorded "
                      f"{workload.expected}", file=sys.stderr)
                ok = False
        st["ok"] = ok


def run_pass(mods, workload, seeds, gauge=None):
    """One pass over the units; (scenario, records, wall seconds)."""
    t0 = time.perf_counter()
    if workload.kind == "train":
        sc, recs = train_pass(mods, workload, seeds, gauge)
    else:
        sc, recs = verify_pass(mods, workload, seeds, gauge)
    return sc, recs, time.perf_counter() - t0


def check(mods, workload, sc, recs):
    """Check a pass's outputs; (attempted, failed) operations."""
    if workload.kind == "train":
        check_train(mods, sc, recs)
        return len(recs), sum(not r["ok"] for r in recs)
    check_verify(workload, recs)
    attempted = sum(r["m"] for r in recs)
    failed = sum(r["m"] if not r["ok"] else r["diverged"] for r in recs)
    return attempted, failed


def outputs(workload, recs):
    """What the program produced, without timings: compared across passes."""
    if workload.kind == "train":
        return [(r["seed"], r["error"]) if r["error"] else
                (r["seed"],
                 [(x.iter, x.rho, x.branch, x.lr) for x in r["log"].records],
                 {k: v for k, v in r["info"].items() if k != "seconds"},
                 r["ctrl"].theta) for r in recs]
    return [(r["seed"], r["error"]) if r["error"] else
            (r["seed"], vars(r["report"]), r["values"]) for r in recs]


# -- metrics ------------------------------------------------------------------

def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, recs, setups, gauge):
    """End-to-end metrics at the gauge's reference speed, and the figures
    printed beside them; setups holds the (start, seconds) of each set-up."""
    ok = [r for r in recs if not r["error"]]
    iter_s, solve_s, wall_s = [], 0.0, 0.0
    for r in ok:
        spans = r["spans"]
        factors = [gauge.scale(a, b) for a, b in spans]
        outside_s = r["seconds"] - sum(b - a for a, b in spans)
        solve_s += (sum((b - a) * f for (a, b), f in zip(spans, factors))
                    + outside_s * gauge.scale(r["t0"], r["t1"]))
        wall_s += r["seconds"]
        if workload.kind == "verify":
            iter_s += [(b - a) * f for (a, b), f in zip(spans, factors)]
        elif len(spans) == len(r["iter_s"]) + 2:
            iter_s += [x * f for x, f in zip(r["iter_s"], factors)]
        else:   # a retried iteration read the samples without a log record
            f = gauge.scale(r["t0"], r["t1"])
            iter_s += [x * f for x in r["iter_s"]]
    setup_s = statistics.median(dt * gauge.scale(t, t + dt) for t, dt in setups)
    extra = {}
    if workload.kind == "train":
        extra["iters_to_solve"] = (len(iter_s), "count")
    else:
        extra["rollouts_per_s"] = (
            len(iter_s) / sum(iter_s) if iter_s else 0.0, "1/s")
    extra["wall_s"] = (wall_s, "s")
    extra["speed_vs_ref"] = (
        gauge.REF_S / statistics.median(gauge.times), "ratio")
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "iter_ms_p50": (1e3 * percentile(iter_s, 50), "ms"),
        "iter_ms_p90": (1e3 * percentile(iter_s, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    return metrics, extra


def per_layer(tracer, recs, overhead_s):
    totals = tracer.totals()
    counts = tracer.counts
    out = {}
    for span, unit_calls in (
            ("autodiff.backward", True), ("policy.forward_plain", True),
            ("policy.forward_tape", True), ("policy.adam_update", False),
            ("plants.rollout", True), ("plants.step", True),
            ("stl.robustness", True), ("stl.critical", True),
            ("smooth.smooth_robustness", True), ("sampler.build_sampled", True),
            ("sampler.grad_critical", True), ("sampler.grad_smooth", True),
            ("verify.calibrate", False), ("verify.report", False),
            ("cli.load_scenario", False)):
        calls, self_s = totals[span]
        if unit_calls:
            out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (self_s, "s")
    backward_calls = totals["autodiff.backward"][0]
    nodes = counts["autodiff.tape_nodes"]
    out["autodiff.tape_nodes"] = (nodes, "count")
    out["autodiff.tape_nodes_per_backward"] = (
        nodes / backward_calls if backward_calls else 0.0, "nodes/backward")
    for key in ("plants.rollout.steps", "plants.rollout.diverged",
                "sampler.live_steps"):
        out[key] = (counts[key], "count")
    infos = [r["info"] for r in recs if "info" in r]
    iters = sum(i["iters"] for i in infos)
    out["trainer.iterations"] = (iters, "count")
    out["trainer.retries"] = (sum(i["retries"] for i in infos), "count")
    for branch in ("critical", "waypoint", "smooth"):
        out[f"trainer.branch.{branch}"] = (
            sum(i["branch_counts"].get(branch, 0) for i in infos), "count")
    rollouts = totals["plants.rollout"][0]
    out["trainer.rollouts_per_iter"] = (
        rollouts / iters if iters else 0.0, "rollouts/iter")
    out["trainer.self_s"] = (totals["trainer.train_dropout"][1], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# -- reporting ---------------------------------------------------------------

def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def write_details(run_dir, workload, recs, details, tracer):
    os.makedirs(run_dir, exist_ok=True)
    for r in recs:
        if r["error"]:
            continue
        if workload.kind == "train":
            r["log"].write_csv(os.path.join(run_dir, f"log_seed{r['seed']}.csv"))
        else:
            with open(os.path.join(run_dir, f"report_seed{r['seed']}.txt"), "w") as fh:
                fh.write("\n".join(r["report"].lines()) + "\n")
    if tracer is not None:
        tracer.write(os.path.join(run_dir, "spans.bin"))
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
        fh.write("\n")


def measure(workload, seed, seconds, trace):
    """Run one benchmark measurement; returns (result dict, records, tracer)."""
    n = units_for(workload, seconds)
    seeds = unit_seeds(workload, seed, n)
    if trace:
        # plain and traced passes alternate unit by unit, so that drifts in
        # machine speed fall on both sides of the overhead difference
        _, mods = setup(workload)
        tracer = Tracer(PACKAGE)
        plain_recs, recs = [], []
        overhead_s = 0.0
        restored = True
        for s in seeds:
            sc, plain, plain_wall = run_pass(mods, workload, [s])
            with tracer:
                _, traced, wall = run_pass(mods, workload, [s])
            restored &= all(getattr(owner, attr) is orig
                            for owner, attr, orig in tracer.patched)
            plain_recs += plain
            recs += traced
            overhead_s += wall - plain_wall
        _, plain_failed = check(mods, workload, sc, plain_recs)
        attempted, failed = check(mods, workload, sc, recs)
        same = outputs(workload, recs) == outputs(workload, plain_recs)
        if not same:
            print("check: traced outputs differ from untraced ones", file=sys.stderr)
        if not restored:
            print("check: tracer left a wrapper in place", file=sys.stderr)
        metrics = per_layer(tracer, recs, overhead_s)
        correct = same and restored and failed == 0 and plain_failed == 0
        extra = {}
    else:
        # set-ups are spread over the run, so that their median does not
        # rest on the machine's speed in one moment; all work runs on the
        # first set-up's modules, so later imports are dropped, not kept.
        # A gauge probe follows every set-up and every solve or set.
        gauge = Gauge()
        gauge.probe()
        setups, recs, mods = [], [], None
        per_unit = -(-SETUP_REPEATS // n)
        for s in seeds:
            for _ in range(per_unit):
                t0 = time.perf_counter()
                dt, fresh = setup(workload)
                gauge.probe()
                setups.append((t0, dt))
                mods = mods or fresh
            sc, unit_recs, _ = run_pass(mods, workload, [s], gauge)
            recs += unit_recs
        attempted, failed = check(mods, workload, sc, recs)
        metrics, extra = end_to_end(workload, recs, setups, gauge)
        correct = failed == 0
        tracer = None
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "machine": machine(), "workload": workload.name,
        "scenario": workload.scenario, "seed": seed, "seconds": seconds,
        "trace": int(trace), "units": n, "unit_seeds": seeds,
        "m": workload.m or None,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "result": result,
    }
    return details, recs, tracer


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        details, recs, tracer = measure(workload, args.seed, args.seconds,
                                        bool(args.trace))
    except ImportError as e:
        print(f"error: cannot import {PACKAGE} from {SRC}: {e}", file=sys.stderr)
        return 2
    result = details["result"]
    run_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    write_details(run_dir, workload, recs, details, tracer)
    mach = details["machine"]
    print(f"machine   python {mach['python']}, nproc {mach['nproc']}, {mach['cpu']}")
    print(f"workload  {workload.name} (scenario {workload.scenario}), seed "
          f"{args.seed}, {details['units']} units, trace {args.trace}")
    shown = dict(result["metrics"], **details["extra"])
    shown["error_rate"] = {"value": result["failed"] / result["attempted"],
                           "unit": "fraction"}
    for name, m in shown.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"details   {os.path.relpath(run_dir, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
