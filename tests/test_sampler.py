import random
import struct
from collections import Counter

import pytest

from stlctrl.autodiff import Tape, Var, value_of
from stlctrl.plants import Plant, builtin, rollout
from stlctrl.policy import Policy, init
from stlctrl.sampler import (
    build_sampled, grad_critical, grad_smooth, partition_times,
    sample_times_to,
)
from stlctrl.smooth import SmoothConfig, smooth_robustness
from stlctrl.stl import Trace, critical, parse
from tests.test_policy import loop_forward


def test_sample_times_forced_endpoints():
    rng = random.Random(0)
    for _ in range(50):
        t = sample_times_to(3, 3, 9, rng)
        assert t[0] == 0 and t[-1] == 3
        assert t == sorted(set(t))
    assert sample_times_to(0, 3, 9, rng) == [0]
    assert sample_times_to(2, 5, 9, rng) == [0, 1, 2]
    assert sample_times_to(3, 3, 9, rng)[0] == 0
    with pytest.raises(ValueError):
        sample_times_to(10, 3, 9, rng)
    with pytest.raises(ValueError):
        sample_times_to(3, 0, 9, rng)


def test_sample_times_interior_uniform():
    rng = random.Random(123)
    counts = {t: 0 for t in range(1, 9)}
    draws = 10_000
    for _ in range(draws):
        for t in sample_times_to(9, 3, 9, rng)[1:-1]:
            counts[t] += 1
    slots = draws * 2  # N-1 interior picks per draw
    for t, c in counts.items():
        assert abs(c / slots - 1 / 8) < 0.02


def test_partition_law():
    rng = random.Random(7)
    for K, M in [(9, 3), (4, 3), (10, 1), (12, 12), (60, 12)]:
        sets = partition_times(K, M, rng)
        assert len(sets) == M
        union = set()
        for i, a in enumerate(sets):
            assert a[0] == 0 and a == sorted(set(a))
            union |= set(a)
            for b in sets[i + 1:]:
                assert set(a) & set(b) == {0}
        assert union == set(range(K + 1))
    assert partition_times(5, 1, rng) == [[0, 1, 2, 3, 4, 5]]
    sizes = sorted(len(s) for s in partition_times(4, 3, rng))
    assert sizes == [2, 2, 3]
    with pytest.raises(ValueError):
        partition_times(4, 5, rng)
    with pytest.raises(ValueError):
        partition_times(4, 0, rng)


def test_partition_fresh_randomness():
    rng = random.Random(1)
    a = partition_times(30, 3, rng)
    b = partition_times(30, 3, rng)
    assert a != b


# shift plant: x' = x + a, handy for checking exactly which actions are live
def _shift_plant():
    return Plant("shift", 1, 1, 1.0,
                 lambda s, u, dt: (s[0] + u[0],), lambda a: a)


def test_example_frozen_action_structure():
    plant = _shift_plant()
    ref_actions = [(0.0,), (0.1,), (0.2,), (0.3,), (0.4,), (0.5,),
                   (0.6,), (0.7,), (0.8,)]

    def reference(actions):
        states = [(1.0,)]
        for a in actions:
            states.append((states[-1][0] + a[0],))

        class Ref:
            K = 9
            raw_actions = actions

        Ref.states = states
        return Ref

    pol = Policy([2, 1], theta=[0.0, 0.0, 2.0])  # constant action 2.0
    # not the policy's rollout: its action at the live step 0 is 0.0
    with pytest.raises(ValueError, match="raw action at step 0"):
        build_sampled(reference(ref_actions), [0, 1, 3, 6], pol, plant)
    # the policy's action 2.0 at the live steps 0, 1, 3; frozen 0.2 (k=2),
    # 0.4 (k=4), 0.5 (k=5) from the reference
    for k in (0, 1, 3):
        ref_actions[k] = (2.0,)
    st = build_sampled(reference(ref_actions), [0, 1, 3, 6], pol, plant)
    assert [a[0].value for a in st.anchors[1:]] == pytest.approx(
        [1.0 + 2.0, 1.0 + 2.0 + 2.0 + 0.2,
         1.0 + 2.0 + 2.0 + 0.2 + 2.0 + 0.4 + 0.5])
    (g,) = [st.tape.backward(st.anchors[-1][0], st.theta_vars)[2]]
    assert g == pytest.approx(3.0)  # three live steps, unit sensitivity each
    # a frozen step's action need not be the policy's, a live one's must
    ref_actions[3] = (0.3,)
    with pytest.raises(ValueError, match="raw action at step 3"):
        build_sampled(reference(ref_actions), [0, 1, 3, 6], pol, plant)


def test_full_sampling_equals_reference_bit_exact():
    plant = builtin("dubins")
    pol = init([3, 6, 2], rng=random.Random(2))
    ref = rollout(plant, pol, (0.0, 0.0), 15)
    st = build_sampled(ref, list(range(16)), pol, plant)
    for t, anchor in zip(st.times, st.anchors):
        assert tuple(x.value if hasattr(x, "value") else x for x in anchor) \
            == ref.states[t]


def test_anchor_primal_equality_partial_sampling():
    plant = builtin("quad6_platform")
    pol = init([8, 6, 4], rng=random.Random(3))
    s0 = (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
    ref = rollout(plant, pol, s0, 20)
    st = build_sampled(ref, [0, 2, 7, 13, 20], pol, plant)
    for t, anchor in zip(st.times, st.anchors):
        got = tuple(x.value if hasattr(x, "value") else x for x in anchor)
        assert got == ref.states[t]


def test_build_sampled_validation():
    plant = _shift_plant()
    pol = Policy([2, 1])
    ref = rollout(plant, pol, (0.0,), 5)
    with pytest.raises(ValueError):
        build_sampled(ref, [1, 2], pol, plant)
    with pytest.raises(ValueError):
        build_sampled(ref, [0, 2, 2], pol, plant)
    with pytest.raises(ValueError):
        build_sampled(ref, [0, 9], pol, plant)


def test_build_sampled_rejects_a_noisy_reference_with_a_frozen_step(
        monkeypatch):
    # a live step's noise offsets are added on the tape; a frozen run
    # steps without noise, so it is rejected before anything is pushed,
    # also after live steps that could have been recorded
    from stlctrl import sampler
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(1))
    tapes = []
    monkeypatch.setattr(sampler, "Tape",
                        lambda: tapes.append(Tape()) or tapes[-1])
    noisy = rollout(plant, pol, (0.0, 0.0), 8,
                    noise=(0.02, 0.0, random.Random(4)))
    for times in ([0, 2], [0, 1, 2, 5], [0, 1, 2, 3, 4, 5, 6, 8]):
        with pytest.raises(ValueError, match="ref is noisy"):
            build_sampled(noisy, times, pol, plant)
        assert not any(map(len, tapes))
    # every step live, or noise on the start state only: recorded
    assert len(build_sampled(noisy, [0, 1, 2], pol, plant).anchors) == 3
    start = rollout(plant, pol, (0.0, 0.0), 8,
                    noise=(0.0, 0.01, random.Random(4)))
    assert start.noise_offsets is None
    assert len(build_sampled(start, [0, 2, 8], pol, plant).anchors) == 3


def _fd_theta(fn, theta, idx, h=1e-6):
    hi = list(theta)
    lo = list(theta)
    hi[idx] += h
    lo[idx] -= h
    return (fn(hi) - fn(lo)) / (2 * h)


def test_grad_critical_full_sampling_matches_fd():
    plant = builtin("dubins")
    pol = init([3, 5, 2], rng=random.Random(4))
    f = parse("F[0,20](x0 > 0.05)")
    K = 20
    ref = rollout(plant, pol, (0.0, 0.0), K)
    w = critical(f, Trace(ref.states))
    rng = random.Random(0)
    g = grad_critical(ref, w.time, w.predicate, max(w.time, 1), pol, plant, rng)

    def value(theta):
        r = rollout(plant, pol.with_theta(theta), (0.0, 0.0), K)
        return w.predicate.h.eval(r.states[w.time])

    for idx in [0, 3, 11, len(pol.theta) - 1]:
        assert g[idx] == pytest.approx(_fd_theta(value, pol.theta, idx),
                                       rel=1e-4, abs=1e-9)


def test_grad_critical_k_zero_is_zero():
    plant = builtin("dubins")
    pol = init([3, 5, 2], rng=random.Random(4))
    ref = rollout(plant, pol, (0.0, 0.0), 5)
    f = parse("x0 > -1")
    w = critical(f, Trace(ref.states))
    assert w.time == 0
    g = grad_critical(ref, 0, w.predicate, 3, pol, plant, random.Random(0))
    assert g == [0.0] * len(pol.theta)


def test_grad_smooth_m1_matches_fd():
    plant = builtin("quad6_platform")
    pol = init([8, 5, 4], rng=random.Random(6))
    s0 = (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
    K = 10
    f = parse("G[0,10](x6 > 9.5) && F[5,10](x0 > -41)")
    cfg = SmoothConfig(8.0)
    ref = rollout(plant, pol, s0, K)
    part = partition_times(K, 1, random.Random(1))
    g = grad_smooth(ref, part, f, cfg, pol, plant)

    def value(theta):
        r = rollout(plant, pol.with_theta(theta), s0, K)
        return smooth_robustness(f, Trace(r.states), cfg)

    for idx in [0, 9, 27, len(pol.theta) - 1]:
        assert g[idx] == pytest.approx(_fd_theta(value, pol.theta, idx),
                                       rel=1e-4, abs=1e-8)


def test_grad_smooth_zero_influence_plant():
    plant = Plant("inert", 1, 1, 1.0, lambda s, u, dt: (s[0] * 0.9,),
                  lambda a: a)
    pol = init([2, 3, 1], rng=random.Random(1))
    ref = rollout(plant, pol, (1.0,), 6)
    f = parse("G[0,6](x0 > 0)")
    part = partition_times(6, 2, random.Random(2))
    g = grad_smooth(ref, part, f, SmoothConfig(10.0), pol, plant)
    assert all(x == 0.0 for x in g)


def test_chain_rule_decomposition_identity():
    """Summed per-group exact gradients equal the full gradient.

    For each partition set, contract the partial of the smooth value
    w.r.t. that set's states (states treated as free inputs) with the
    exact state sensitivities from the rollout tape.
    """
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(8))
    K = 8
    f = parse("F[0,8](x0 > 0.1) && G[0,8](x1 < 2)")
    cfg = SmoothConfig(6.0)
    diff = rollout(plant, pol, (0.0, 0.0), K, mode="differentiable")

    # full gradient: smooth value recorded straight on the rollout tape
    out = smooth_robustness(f, Trace(diff.states), cfg)
    full = diff.tape.backward(out, diff.theta_vars)

    # partials of the smooth value w.r.t. each state coordinate
    ptape = Tape()
    free = [tuple(ptape.const(value_of(x)) for x in s) for s in diff.states]
    pout = smooth_robustness(f, Trace(free), cfg)
    flat = [v for s in free for v in s]
    partials = ptape.backward(pout, flat)

    # state sensitivities d s_t[d] / d theta off the rollout tape
    nθ = len(pol.theta)
    total = [0.0] * nθ
    partition = partition_times(K, 3, random.Random(3))
    for times in partition:
        for t in times:
            if t == 0:
                continue
            for d in range(2):
                p = partials[t * 2 + d]
                if p == 0.0:
                    continue
                sens = diff.tape.backward(diff.states[t][d], diff.theta_vars)
                for i in range(nθ):
                    total[i] += p * sens[i]
    for a, b in zip(total, full):
        assert a == pytest.approx(b, abs=1e-8)


def _generic_build_sampled(ref, times, policy, plant):
    """build_sampled as one Var-operator Plant.step per step and a
    Policy.recorder step at each live one, from the start state on the
    tape after theta: (tape, anchors)."""
    tape = Tape()
    forward = policy.recorder(tape, tape.consts(policy.theta))
    live = set(times)
    offs = ref.noise_offsets
    cur = tuple(tape.const(x) for x in ref.states[0])
    anchors = [ref.states[0]]
    for k in range(times[-1]):
        if k in live:
            a = tuple(forward(cur, k))
        else:
            a = ref.raw_actions[k]
        cur = plant.step(cur, a, k)
        if offs is not None:
            cur = tuple(x + o for x, o in zip(cur, offs[k]))
        if k + 1 in live:
            anchors.append(cur)
    return tape, anchors


def _anchor_bits(tape, anchors, theta):
    """Each anchor entry's value, and a Var's gradient over theta, as bytes."""
    return _bits([[(x.value, tape.backward(x, theta)) if isinstance(x, Var)
                   else x for x in a] for a in anchors])


def _bits(x):
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, (list, tuple)):
        return [_bits(y) for y in x]
    return x


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name,widths,s0", [
    ("dubins", [3, 20, 2], (0.0, 0.0)),
    ("multi_dubins_10", [21, 40, 20], tuple(0.1 * i for i in range(20))),
    ("quad6_platform", [8, 20, 20, 10, 4],
     (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)),
    ("quad12", [13, 8, 4], (0.05,) * 3 + (0.0,) * 9),
    ("integrator2d", [3, 6, 2], (-1.0, -1.0)),
    ("scalar_power", [2, 3, 1], (1.15,)),
])
def test_build_sampled_records_what_var_operators_record(name, widths, s0,
                                                         noisy):
    plant = builtin(name)
    pol = init(widths, rng=random.Random(9))
    pol = pol.with_theta([0.5 * w for w in pol.theta])
    K = 12
    ref = rollout(plant, pol, s0, K,
                  noise=(0.02, 0.0, random.Random(4)) if noisy else None)
    for times in ([0, 1, 2, 5, 6, 11], [0, 4, 12], list(range(K + 1))):
        if noisy and len(times) <= times[-1]:  # a noisy frozen step
            with pytest.raises(ValueError, match="ref is noisy"):
                build_sampled(ref, times, pol, plant)
            continue
        st = build_sampled(ref, times, pol, plant)
        tape, anchors = _generic_build_sampled(ref, times, pol, plant)
        assert (_anchor_bits(st.tape, st.anchors, st.theta_vars)
                == _anchor_bits(tape, anchors, range(len(pol.theta))))
        assert st.theta_vars == range(len(pol.theta))


def test_policy_recorder_matches_forward():
    p = init([3, 7, 2], rng=random.Random(3))
    runs = []
    for taped in (True, False):
        tape = Tape()
        tape.const(2.0)
        theta = tape.consts(p.theta)
        x, y, z = (tape.const(v) for v in (0.1, 0.3, -0.2))
        fwd = (p.recorder(tape, theta) if taped else lambda s, k: loop_forward(
            p, s, k, theta=[Var(tape, i) for i in theta]))
        outs = [fwd(s, k) for s, k in [((y, z), 0), ((x, z), 5)]]
        seeds = [*(Var(tape, i) for i in theta), x, y, z]
        runs.append(_bits([[v.value, tape.backward(v, seeds)]
                           for o in outs for v in o]))
    assert runs[0] == runs[1]
    with pytest.raises(ValueError, match="different tapes"):
        p.recorder(tape, theta)((Tape().const(0.1), x), 1)


def test_each_net_and_plant_compiles_one_recorder(monkeypatch):
    # every recorder takes Vars: one controller recorder per net, and per
    # plant one step recorder and at most one run recorder, noise or not,
    # on every bundled scenario's seeded initial policy
    from stlctrl import plants, policy
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    monkeypatch.setattr(policy, "_KERNELS", {})
    monkeypatch.setattr(plants, "_TRACES", {})
    nets, steps, runs = [], [], []
    source, replay = policy.forward_source, plants.replay_source

    def forward_source(widths, include_time, theta, xs):
        if theta[0][1] is not None:  # theta's node ids: a recorder
            nets.append((tuple(widths), include_time))
        lines, outs, consts = source(widths, include_time, theta, xs)
        return lines, outs, consts  # one run, whatever the net's size

    def replay_source(trace, inputs, *args, loop=None, **kw):
        if any(i for _, i in inputs):  # Var inputs: a recorder
            [key] = [k for k, v in plants._TRACES.items() if v[0] is trace]
            (runs if loop else steps).append(key)
        return replay(trace, inputs, *args, loop=loop, **kw)

    monkeypatch.setattr(policy, "forward_source", forward_source)
    monkeypatch.setattr(plants, "replay_source", replay_source)
    made = set()  # the nets
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        pol = sc.build_policy(random.Random(sc.seed))
        for noisy in (False, True):
            ref = rollout(sc.plant, pol, sc.init_set.samples[0], 24, noise=(
                0.02, 0.0, random.Random(4)) if noisy else None)
            # a run right after the start: on quad6_platform its positions
            # depend on theta from its second step on; a noisy reference
            # is sampled at every step
            for times in [[0, 4, 5, 12, 24]] * (not noisy) + [
                    list(range(25))]:
                build_sampled(ref, times, pol, sc.plant)
        made.add((tuple(pol.widths), pol.include_time))
    assert sorted(nets) == sorted(made)
    # plants._TRACES: one traced step per plant
    once = Counter(plants._TRACES.keys())
    assert Counter(steps) == once and not Counter(runs) - once


def test_a_wide_net_records_one_controller_block_per_live_step():
    # [21,40,20] has 1,700 weights: its recorder is one function, as for
    # any net, and so one block per call
    from stlctrl import policy
    plant = builtin("multi_dubins_10")
    pol = init([21, 40, 20], rng=random.Random(6))
    adjoint = policy._recorder(pol.widths, True).__globals__["adjoint"]
    ref = rollout(plant, pol, tuple(0.1 * i for i in range(20)), 30)
    for times in ([0, 4, 5, 12, 30], [0, 1, 2], list(range(31))):
        st = build_sampled(ref, times, pol, plant)
        live = len(times) - 1
        nonempty = sum(b > a + 1 for a, b in zip(times, times[1:]))
        ours = [(a, b) for a, b, adj, _ in st.tape.blocks if adj is adjoint]
        assert len(ours) == live and all(b - a == 20 for a, b in ours)
        assert len(st.tape.blocks) == 2 * live + nonempty


def test_quad6_platform_records_each_frozen_run_as_one_block():
    plant = builtin("quad6_platform")
    pol = init([8, 20, 20, 10, 4], rng=random.Random(2))
    s0 = (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
    ref = rollout(plant, pol, s0, 40)
    for times in ([0, 4, 5, 12, 40], [0, 1, 2, 30], [0, 40]):
        st = build_sampled(ref, times, pol, plant)
        nonempty = sum(b > a + 1 for a, b in zip(times, times[1:]))
        # a controller and a plant step block per live step
        assert len(st.tape.blocks) == 2 * (len(times) - 1) + nonempty
        assert not any(st.tape.recs)
    # a noisy reference, every step live: the same two blocks per step,
    # and its noise offsets one Var add (a record) per state entry
    ref = rollout(plant, pol, s0, 40, noise=(0.02, 0.0, random.Random(4)))
    st = build_sampled(ref, range(41), pol, plant)
    assert len(st.tape.blocks) == 2 * 40
    assert sum(rec is not None for rec in st.tape.recs) == 7 * 40
