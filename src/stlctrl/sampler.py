"""Time sampling and controller dropout.

A sampled trajectory keeps the controller live (differentiable in theta)
only at chosen time-steps and freezes it to the reference rollout's raw
actions everywhere else, so gradient cost scales with the number of
sampled steps instead of the horizon.
"""

from .autodiff import Tape, Var
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
    """Anchor states at the sampled times, on their own tape."""

    def __init__(self, times, anchors, tape, theta_vars, ref):
        self.times = times
        self.anchors = anchors
        self.tape = tape
        self.theta_vars = theta_vars
        self.ref = ref


def build_sampled(ref, times, policy, plant):
    """Differentiable anchors along `times`; off-sample actions frozen.

    The reference rollout supplies the frozen raw actions and the start
    state.  Anchor primal values match the reference states exactly
    because live and frozen steps run the same scalar arithmetic.
    """
    if not times or times[0] != 0:
        raise ValueError("sample times must start at 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    if times[-1] > ref.K:
        raise ValueError(f"sample time {times[-1]} past reference horizon {ref.K}")
    plant.check_dims(ref.states[0], policy)
    tape = Tape()
    theta_vars = [tape.const(w) for w in policy.theta]
    live = set(times)
    offs = getattr(ref, "noise_offsets", None)
    cur = ref.states[0]
    anchors = [cur]
    for k in range(times[-1]):
        if k in live:
            a = tuple(policy.forward(cur, k, theta=theta_vars))
        else:
            a = ref.raw_actions[k]
        cur = plant.step(cur, a, k)
        if offs is not None:
            cur = tuple(x + o for x, o in zip(cur, offs[k]))
        if k + 1 in live:
            anchors.append(cur)
    return SampledTrajectory(list(times), anchors, tape, theta_vars, ref)


def grad_critical(ref, kstar, hstar, N, policy, plant, rng):
    """Sampled ascent direction of the critical predicate value h*(s_{k*})."""
    times = sample_times_to(kstar, N, ref.K, rng)
    st = build_sampled(ref, times, policy, plant)
    J = hstar.h.eval(st.anchors[-1])
    if not isinstance(J, Var):
        # k*=0 or a predicate that ignores every live coordinate
        return [0.0] * len(policy.theta)
    return st.tape.backward(J, st.theta_vars)


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
        if isinstance(out, Var):
            g = st.tape.backward(out, st.theta_vars)
            for i, gi in enumerate(g):
                total[i] += gi
    return total

