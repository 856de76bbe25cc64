"""Time sampling and controller dropout.

A sampled trajectory keeps the controller live (differentiable in theta)
only at chosen time-steps and freezes it to the reference rollout's raw
actions everywhere else, so gradient cost scales with the number of
sampled steps instead of the horizon.  Its states at the sample times
are the reference's, bit for bit if the reference is the policy's
rollout, and its gradient is a vector-Jacobian product (Griewank &
Walther, "Evaluating Derivatives", 2008, ch. 3): grad runs its adjoint
on an objective's adjoints at those states, taken on floats (the
waypoint objective; the smooth robustness by smooth.smooth_adjoints
when every predicate is Affine) or on a tape of their own
(state_adjoints: h*, and a smooth robustness with a Named predicate).
A sampled trajectory never goes onto a tape; a differentiable rollout
records its steps with the Var operators instead (plants.rollout).

Its two kernels are generated once per (plant, controller) from
plants._traced's step and policy.forward_source's net, or for a table of
raw actions (theta[k * m + j] is action j at step k) from the step alone.
build runs the controller at the live steps only, checks each action
against the reference's and saves the tanh values the adjoint reads.
The adjoint walks the live steps and the runs of frozen steps between
them in reverse, the state's adjoint in locals and theta's read from and
written back to adj.  It recomputes a step's locals from the reference's
floats where it reads them: at live steps, and at frozen ones for quad12
and scalar_power; the other builtin plants' frozen runs it counts
(quad6_platform) or skips.  A noisy step adds a constant, which passes
the state's adjoint through unchanged.  The sweep is the interpreter's
over the Var operators' records, term by term, and skips a step whose
outputs' adjoints are all zero.  A next state passed through gets its
adjoint added to its input's first, as the interpreter's one node does
where only one of the two carries an objective's adjoint; two next states
of one node are rejected.
"""

from itertools import repeat

from .autodiff import (
    Tape, Var, _adjoint, _bound, _names, _needed, compile_kernel,
    replay_source,
)
from .plants import _traced
from .policy import Policy, forward_source, param_count
from .smooth import smooth_adjoints, smooth_robustness
from .stl import Trace


def sample_times_to(kstar, N, K, rng):
    """{0, t_1..t_{N-1}, kstar} with interior points uniform from 1..kstar-1."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if kstar > K:
        raise ValueError(f"critical time {kstar} past horizon {K}")
    if kstar <= N:
        return list(range(kstar + 1))
    interior = rng.sample(range(1, kstar), N - 1)
    return [0] + sorted(interior) + [kstar]


def partition_times(K, M, rng):
    """M sample sets that pairwise intersect only at 0 and cover {0..K}."""
    if not 1 <= M <= K:
        raise ValueError(f"need 1 <= M <= K, got M={M}, K={K}")
    perm = list(range(1, K + 1))
    rng.shuffle(perm)
    sets = [[0] for _ in range(M)]
    for i, t in enumerate(perm):
        sets[i % M].append(t)
    for s in sets:
        s.sort()
    return sets


class SampledTrajectory:
    """A trajectory sampled at times: its generated adjoint and the args
    that reads (theta, ref's states and actions, times, saved, ts)."""

    def __init__(self, times, adjoint, args):
        self.times = times
        self.adjoint = adjoint
        self.args = args

    def grad(self, adjs):
        """d(objective)/d(theta), adjs[i] the objective's adjoint at each
        entry of the state at times[i + 1], laid out in adj after the
        slots of theta and of the start state, which adjoint fills."""
        th, states = self.args[:2]
        start = len(th) + len(states[0])
        adj = [0.0] * start + [g for a in adjs for g in a]
        if len(adj) != start + len(states[0]) * (len(self.times) - 1):
            raise ValueError("need one adjoint per entry of times[1:]'s states")
        self.adjoint(adj, start, self.args)
        return adj[:len(th)]


def state_adjoints(fn, states):
    """fn(*states)'s adjoint at each entry of each state, a list per state,
    by one backward over Vars of them on a tape of their own (zeros if fn
    reads no Var): an objective's adjoint at a trajectory's states."""
    n, tape = len(states[0]), Tape()
    ids = tape.consts(x for s in states for x in s)
    out = fn(*zip(*[map(Var, repeat(tape), ids)] * n))
    g = tape.backward(out, ids) if type(out) is Var else [0.0] * len(ids)
    return [g[i:i + n] for i in range(0, len(g), n)]


def build_sampled(ref, times, policy, plant):
    """The trajectory along `times` from ref; off-sample actions frozen.

    ref, the rollout of policy, supplies the frozen raw actions and the
    states: a live step's raw action that is not ref's raises ValueError.
    Its gradients are the Var operators' step by step (see the module doc).
    """
    if not times or times[0] != 0:
        raise ValueError("sample times must start at 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    if times[-1] > ref.K:
        raise ValueError(f"sample time {times[-1]} past reference horizon {ref.K}")
    plant.check_dims(ref.states[0], policy)
    build, adjoint = _kernels(plant, policy)
    th, states, acts = policy.theta, ref.states, ref.raw_actions
    ts = getattr(policy, "time_scale", None)
    return SampledTrajectory(list(times), adjoint, (
        th, states, acts, times, build(th, states, acts, times, ts), ts))


def _mismatch(k):
    raise ValueError(f"ref is not the rollout of policy: its raw action at "
                     f"step {k} is not the policy's")


def _kernels(plant, policy):
    """(build, adjoint) of a sampled trajectory of plant under policy: a
    Policy's net or else a table of raw actions, theta[k * m + j] action j
    at step k.  Generated once per (plant, controller); see the module
    doc.  The adjoint keeps the adjoints of the state at a step's output
    in G, at its input in H (from adj: the anchor's), of its raw actions
    in ga and of theta's weight r in b{r}."""
    trace, kernels = _traced(plant)
    net = (tuple(policy.widths), policy.include_time) if isinstance(
        policy, Policy) else None
    if net in kernels:
        return kernels[net]
    n, m = plant.state_dim, plant.action_dim
    xs = [(f"x{d}", f"s{d}") for d in range(n)]
    G, H = ([f"{c}{d}" for d in range(n)] for c in "GH")
    into_h = {i: h for (_, i), h in zip(xs, H)}
    ga = {f"a{e}": f"ga{e}" for e in range(m)}

    def step(k, live, local, sums):
        # the step's adjoint from G at step k, its raw actions Vars if
        # live: (the lines that recompute what it reads and it, sums, the
        # G it reads)
        ins = xs + [(f"u{e}", live and f"a{e}") for e in range(m)]
        lines, outs, consts, nodes = replay_source(trace, ins)
        seeds = [(o if o in nodes else ins[o], g) for (_, o), g in zip(outs, G)
                 if o in nodes or o is not None and o < n + m and ins[o][1]]
        shared = [o for o, _ in seeds if o in nodes]
        if len(set(shared)) < len(shared):
            raise ValueError(f"plant {plant.name}: two next states are one "
                             "node; make each its own")
        rev, sums = _adjoint(nodes, seeds, local, sums)
        unpack = [f"{', '.join(x for x, _ in ins[:n])}, = states[{k}]",
                  f"{', '.join(x for x, _ in ins[n:])}, = acts[{k}]"]
        return (_needed(unpack + lines, rev) + rev, sums,
                " or ".join(g for _, g in seeds) or "0", consts)

    back, sums, gs, consts = step("j", False, {i: f"N{d}" for d, (_, i) in
                                               enumerate(xs)}, {})
    nxt = [sums.get(i, "0.0") for _, i in xs]
    frozen = [] if not back and nxt == G else [  # no run, a count or a loop
        "for j in range(k1 - 1, k, -1):" if _names(back) & {"states", "acts"}
        else "for _ in range(k1 - k - 1):", f"    if not ({gs}): break",
        *("    " + line for line in back), f"    {', '.join(G)}, = {', '.join(nxt)},"]
    live, sums, gs, _ = step("k", True, {**into_h, **ga}, {**into_h, **{
        a: "0.0" if net else f"adj[k * {m} + {e}]" for e, a in enumerate(ga)}})
    acts = [sums[a] for a in ga]
    at_k = [f"{', '.join(x for x, _ in xs)}, = states[k]", "t = float(k) * ts"]
    if net:
        P = param_count(net[0])
        ws = [(f"w{r}", f"b{r}") for r in range(P)]
        into = {**into_h, **{b: b for _, b in ws}}
        fwd, outs, _, nodes = forward_source(*net, ws, xs)
        rev, _ = _adjoint(nodes, [(o, a) for (_, o), a in zip(outs, acts)],
                          into, into)
        reads, bs = _names(rev), ", ".join(b for _, b in ws)
        save = "".join(f"{x}, " for line in fwd for x in _bound(line)
                       if x in reads)
        head = [f"{', '.join(w for w, _ in ws)}, = th"]
        run = fwd + [f"if [{', '.join(a for a, _ in outs)}] != [*acts[k]]: "
                     "mismatch(k)", f"saved.append(({save}))"]
        ctrl = [f"if {' or '.join(acts)}:", *("    " + line for line in [
            f"{save}= saved[i]"] * bool(save) + _needed(at_k, rev) + rev)]
        load, store = [f"{bs}, = adj[:{P}]"], [f"adj[:{P}] = [{bs}]"]
    else:
        head = load = store = []
        ctrl = [f"adj[k * {m} + {e}] = {a}"
                for e, a in enumerate(acts) if a in ga.values()]
        run = [f"if th[k * {m}:k * {m} + {m}] != [*acts[k]]: mismatch(k)"]
    consts["mismatch"] = _mismatch
    build = compile_kernel("th, states, acts, times, ts", head + [
        "saved = []", "for k in times[:-1]:",
        *("    " + line for line in _needed(at_k, run) + run),
        "return saved"], consts)
    adjoint = compile_kernel("adj, n, args", [
        "th, states, acts, times, saved, ts, = args", *head, *load,
        "i = len(times) - 1", f"o = n + i * {n}",
        f"{', '.join(G)}, = adj[o - {n}:o]", "k1 = times[i]", "while i:",
        *("    " + line for line in [
            "i -= 1", f"o -= {n}", "k = times[i]", *frozen,
            f"{', '.join(H)}, = adj[o - {n}:o]", f"if {gs}:",
            *("    " + x for x in live + ctrl),
            f"adj[o - {n}:o] = {', '.join(G)}, = [{', '.join(H)}]",
            "k1 = k"]), *store], consts)
    kernels[net] = build, adjoint
    return build, adjoint


def grad_critical(ref, kstar, hstar, N, policy, plant, rng):
    """Sampled ascent direction of the critical predicate value h*(s_{k*}),
    zeros at k* = 0."""
    times = sample_times_to(kstar, N, ref.K, rng)
    st = build_sampled(ref, times, policy, plant)
    h = state_adjoints(hstar.h.eval, [ref.states[kstar]]) if kstar else []
    return st.grad([[0.0] * plant.state_dim] * (len(times) - 2) + h)


def grad_smooth(ref, partition, f, cfg, policy, plant):
    """Sum over partition sets of the sampled smooth-robustness gradient.

    Each set contributes the gradient of the smooth robustness over a
    full-horizon trace whose states are live anchors at the set's times
    and frozen reference values elsewhere.  Its adjoint at a live anchor
    is the same float in every set: it is taken once, at every state, on
    floats (smooth_adjoints), or on a tape if f has a Named predicate.
    """
    adjs = smooth_adjoints(f, ref, cfg)
    if adjs is None:
        adjs = state_adjoints(
            lambda *states: smooth_robustness(f, Trace(states), cfg),
            ref.states)
    total = [0.0] * len(policy.theta)
    for times in partition:
        st = build_sampled(ref, times, policy, plant)
        for i, gi in enumerate(st.grad([adjs[t] for t in times[1:]])):
            total[i] += gi
    return total
