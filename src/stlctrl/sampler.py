"""Time sampling and controller dropout.

A sampled trajectory keeps the controller live (differentiable in theta)
only at chosen time-steps and freezes it to the reference rollout's raw
actions everywhere else, so gradient cost scales with the number of
sampled steps instead of the horizon.  On the tape, theta and then the
start state are constants, so every recorder takes Vars: a live step is
two blocks (Policy.recorder, the controller's only tape path, and the
plant step) and each run of frozen steps between two live ones is one
block (plants.run_recorder) that pushes only its final state; its
adjoint carries the state's adjoint from step to step in locals, over
one tuple of saved locals per step if it reads any.  A frozen state is
the reference's, bit for bit, if the reference is the policy's rollout
(build_sampled checks each live step's raw action), so a run whose
adjoint keeps no tuple per step pushes the reference's state and steps
nothing; the others (quad12, scalar_power) loop.  Both are noise-free:
a noisy reference is live at every step, and build_sampled adds each
step's noise offsets to the recorded state by the Var operators.
"""

from .autodiff import Tape, Var
from .plants import run_recorder, step_recorder
from .smooth import smooth_robustness
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
    """Anchor states at the sampled times, on their own tape; theta_vars is
    the range of theta's node ids, the seeds of backward."""

    def __init__(self, times, anchors, tape, theta_vars):
        self.times = times
        self.anchors = anchors
        self.tape = tape
        self.theta_vars = theta_vars

    def grad(self, out):
        """d(out)/d(theta) by one backward, or zeros if out is a float: an
        objective that reads no Var (k* = 0, say) does not depend on theta."""
        if type(out) is not Var:
            return [0.0] * len(self.theta_vars)
        return self.tape.backward(out, self.theta_vars)


def build_sampled(ref, times, policy, plant):
    """Differentiable anchors along `times`; off-sample actions frozen.

    The reference rollout supplies the frozen raw actions and the start
    state, the first anchor as floats, which do not depend on theta, and
    on the tape the live chain's start.  Anchor primal values match the
    reference states exactly because live and frozen steps run the same
    scalar arithmetic, so ref must be the rollout of policy: a live
    step's raw action that is not ref's raises ValueError.  Each sample
    time but the last gets a live step, plus ref's noise offsets there
    as one Var add, then one run of frozen steps up to the next sample
    time, which pushes the reference's state there without stepping if
    its adjoint keeps no locals per step (run_recorder); anchors and
    gradients are those of the Var operators step by step.  A run has no
    noise: a noisy ref with a frozen step raises ValueError first.
    """
    if not times or times[0] != 0:
        raise ValueError("sample times must start at 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    if times[-1] > ref.K:
        raise ValueError(f"sample time {times[-1]} past reference horizon {ref.K}")
    plant.check_dims(ref.states[0], policy)
    frozen = len(times) <= times[-1]  # a step between two sample times
    offs = getattr(ref, "noise_offsets", None)
    if offs and frozen:
        raise ValueError("ref is noisy: every step before the last sample "
                         "time must be live")
    tape = Tape()
    theta = tape.consts(policy.theta)
    forward = policy.recorder(tape, theta)
    record, run = step_recorder(plant), frozen and run_recorder(plant)
    states, acts = ref.states, ref.raw_actions
    cur = tuple(Var(tape, i) for i in tape.consts(states[0]))
    anchors = [states[0]]
    vals = tape.vals
    for k, k1 in zip(times, times[1:]):
        a = forward(cur, k)
        if [vals[x.i] for x in a] != [*acts[k]]:
            raise ValueError(f"ref is not the rollout of policy: its raw "
                             f"action at step {k} is not the policy's")
        cur = record(tape, cur, a)
        if offs:
            cur = tuple(x + e for x, e in zip(cur, offs[k]))
        if k1 > k + 1:
            cur = run(tape, cur, acts[k + 1:k1], states[k1])
        anchors.append(cur)
    return SampledTrajectory(list(times), anchors, tape, theta)


def grad_critical(ref, kstar, hstar, N, policy, plant, rng):
    """Sampled ascent direction of the critical predicate value h*(s_{k*})."""
    times = sample_times_to(kstar, N, ref.K, rng)
    st = build_sampled(ref, times, policy, plant)
    return st.grad(hstar.h.eval(st.anchors[-1]))


def grad_smooth(ref, partition, f, cfg, policy, plant):
    """Sum over partition sets of the sampled smooth-robustness gradient.

    Each set contributes the gradient of the smooth robustness over a
    full-horizon trace whose states are live anchors at the set's times
    and frozen reference values elsewhere.
    """
    total = [0.0] * len(policy.theta)
    for times in partition:
        st = build_sampled(ref, times, policy, plant)
        states = list(ref.states)
        for t, anchor in zip(st.times, st.anchors):
            states[t] = anchor
        out = smooth_robustness(f, Trace(states), cfg)
        for i, gi in enumerate(st.grad(out)):
            total[i] += gi
    return total

