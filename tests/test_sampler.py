import random
import struct

import pytest

from stlctrl.autodiff import Tape, value_of
from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
from stlctrl.plants import Plant, builtin, rollout
from stlctrl.policy import Policy, init
from stlctrl.sampler import (
    build_sampled, grad_critical, grad_smooth, partition_times,
    sample_times_to, state_adjoints,
)
from stlctrl.smooth import SmoothConfig, smooth_robustness
from stlctrl.stl import Named, Trace, critical, horizon, parse
from stlctrl.trainer import TrainConfig
from tests.test_plants import (
    adjoint_anchors, oracle_sampled, rollout_with_offsets, var_anchors,
)
from tests.test_stl import nan_as_one


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
    anchors = adjoint_anchors(st)
    assert [a[0][0] for a in anchors] == pytest.approx(
        [1.0 + 2.0, 1.0 + 2.0 + 2.0 + 0.2,
         1.0 + 2.0 + 2.0 + 0.2 + 2.0 + 0.4 + 0.5])
    g = anchors[-1][0][1][2]
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
    for t, anchor in zip(st.times, oracle_sampled(ref, st.times, pol,
                                                  plant)[2]):
        assert tuple(map(value_of, anchor)) == ref.states[t]


def test_anchor_primal_equality_partial_sampling():
    plant = builtin("quad6_platform")
    pol = init([8, 6, 4], rng=random.Random(3))
    s0 = (-40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
    ref = rollout(plant, pol, s0, 20)
    st = build_sampled(ref, [0, 2, 7, 13, 20], pol, plant)
    for t, anchor in zip(st.times, oracle_sampled(ref, st.times, pol,
                                                  plant)[2]):
        assert tuple(map(value_of, anchor)) == ref.states[t]


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


def test_build_sampled_samples_a_noisy_reference_with_frozen_steps():
    # a frozen step of a noisy reference takes the reference's (noisy)
    # state and passes the state's adjoint through the noise offsets, as
    # the Var operators do step by step; noise on the start state only
    # leaves no offsets to add
    plant = builtin("dubins")
    pol = init([3, 4, 2], rng=random.Random(1))
    noisy, start = (rollout_with_offsets(plant, pol, (0.0, 0.0), 8, noise=(
        c1, c2, random.Random(4))) for c1, c2 in ((0.02, 0.0), (0.0, 0.01)))
    assert start[1] is None and noisy[1]
    seeds = range(len(pol.theta) + 2)  # theta, then the start state
    for ref, offsets in (noisy, start):
        for times in ([0, 2], [0, 1, 2, 5], [0, 1, 2, 3, 4, 5, 6, 8]):
            st = build_sampled(ref, times, pol, plant)
            assert _bits(adjoint_anchors(st)) == _bits(var_anchors(
                oracle_sampled(ref, times, pol, plant, offsets)[2], seeds))


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


def _taped_grad(st, fn):
    """The gradient of fn over the anchors after the start of the sampled
    trajectory st: one Tape.backward to Vars of them, then st's adjoint."""
    anchors = [st.args[1][t] for t in st.times[1:]]
    return st.grad(state_adjoints(fn, anchors) if anchors else [])


def _per_set_grad_smooth(ref, partition, f, cfg, pol, plant):
    """grad_smooth as each partition set's own tape: the smooth robustness
    over a full-horizon Trace with Vars of the set's anchors at its times,
    then one Tape.backward; the oracle of the adjoints taken once per
    reference."""
    total = [0.0] * len(pol.theta)
    for times in partition:
        def smooth(*anchors, times=times):
            states = list(ref.states)
            for t, anchor in zip(times[1:], anchors):
                states[t] = anchor
            return smooth_robustness(f, Trace(states), cfg)

        st = build_sampled(ref, times, pol, plant)
        for i, g in enumerate(_taped_grad(st, smooth)):
            total[i] += g
    return total


def _taped_grad_critical(ref, kstar, hstar, N, pol, plant, rng):
    """grad_critical with h* evaluated on a Var of the last anchor."""
    st = build_sampled(ref, sample_times_to(kstar, N, ref.K, rng), pol, plant)
    return _taped_grad(st, lambda *anchors: hstar.h.eval(anchors[-1]))


def _nan_bits(xs):
    # NaNs as one value: which NaN operand an add returns can differ
    # between a Var and a float operand (see tests/test_stl.py)
    return b"".join(map(nan_as_one, xs))


def _assert_gradients_match_the_tape(ref, f, cfg, N, Ms, pol, plant):
    # grad_smooth at each M, grad_critical at the critical time and at 0
    scfg = SmoothConfig(cfg.b)
    for M in Ms:
        part = partition_times(ref.K, M, random.Random(M))
        assert _nan_bits(grad_smooth(ref, part, f, scfg, pol, plant)) == \
            _nan_bits(_per_set_grad_smooth(ref, part, f, scfg, pol, plant)), M
    w = critical(f, Trace(ref.states))
    for kstar in (w.time, 0):
        got, want = (g(ref, kstar, w.predicate, N, pol, plant,
                       random.Random(N)) for g in (grad_critical,
                                                   _taped_grad_critical))
        assert _nan_bits(got) == _nan_bits(want), kstar
    assert grad_critical(ref, 0, w.predicate, N, pol, plant,
                         random.Random(0)) == [0.0] * len(pol.theta)


@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy"])
@pytest.mark.parametrize("name", bundled_names())
def test_gradients_match_the_per_set_tape(name, noisy):
    """Each bundled scenario at its full horizon from its seeded policy:
    grad_smooth at M = 1, 2 and the scenario's M (quad6_platform's 100
    included), and from a noisy reference all live, at M = 1 and N = K."""
    sc = load_scenario(resolve_scenario(name))
    pol, plant = sc.build_policy(random.Random(sc.seed)), sc.plant
    K, cfg = horizon(sc.formula), sc.train_cfg
    ref = rollout(plant, pol, sc.init_set.samples[0], K,
                  noise=(0.02, 0.001, random.Random(4)) if noisy else None)
    Ms = [1] if noisy else sorted({1, 2, min(cfg.M, K)})
    _assert_gradients_match_the_tape(ref, sc.formula, cfg, K if noisy
                                     else cfg.N, Ms, pol, plant)


def test_named_predicates_match_the_per_set_tape():
    # Named predicates through the autodiff math, as the critical one and
    # inside the smooth robustness; one reads no state, so the formula
    # that holds only it has zero gradients
    from stlctrl.autodiff import sin
    named = {"wave": Named("wave", lambda s: sin(s[0]) * s[1] - 0.05),
             "near": Named("near", lambda s: 0.5 - s[0] * s[0] - s[1] * s[1]),
             "flat": Named("flat", lambda s: 0.25)}
    plant = builtin("dubins")
    pol = init([3, 8, 2], rng=random.Random(3))
    cfg = TrainConfig(b=12.0)
    for text in ("F[3,15](pred(wave)) && G[0,20](pred(near))",
                 "G[0,20](pred(near) || pred(wave))", "F[2,20](pred(flat))"):
        f = parse(text, named)
        ref = rollout(plant, pol, (0.1, -0.2), horizon(f))
        _assert_gradients_match_the_tape(ref, f, cfg, 4, [1, 2, 7], pol,
                                         plant)
    part = partition_times(20, 3, random.Random(0))
    assert grad_smooth(ref, part, f, SmoothConfig(cfg.b), pol, plant) == \
        [0.0] * len(pol.theta)


def test_grad_smooth_of_affine_predicates_records_no_tape(monkeypatch):
    # every predicate Affine: the adjoints come from the float sweep, with
    # no smooth_robustness over Vars and no Tape.backward; a Named one
    # still takes the tape
    from stlctrl import sampler
    sc = load_scenario(resolve_scenario("dubins_k10"))
    pol = sc.build_policy(random.Random(sc.seed))
    K, calls = horizon(sc.formula), []
    ref = rollout(sc.plant, pol, sc.init_set.samples[0], K)
    part = partition_times(K, 2, random.Random(0))
    want = grad_smooth(ref, part, sc.formula, SmoothConfig(), pol, sc.plant)
    monkeypatch.setattr(sampler, "smooth_robustness", lambda *a: calls.append(
        1) or smooth_robustness(*a))
    monkeypatch.setattr(Tape, "backward", lambda *a: pytest.fail("taped"))
    assert grad_smooth(ref, part, sc.formula, SmoothConfig(), pol,
                       sc.plant) == want
    assert calls == []
    named = parse("F[0,10](pred(near))", {"near": Named(
        "near", lambda s: 0.5 - s[0] * s[0])})
    with pytest.raises(pytest.fail.Exception, match="taped"):
        grad_smooth(ref, part, named, SmoothConfig(), pol, sc.plant)
    assert calls == [1]


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
    ref, offsets = rollout_with_offsets(
        plant, pol, s0, K,
        noise=(0.02, 0.0, random.Random(4)) if noisy else None)
    seeds = range(len(pol.theta) + len(s0))  # theta, then the start state
    for times in ([0, 1, 2, 5, 6, 11], [0, 4, 12], list(range(K + 1))):
        st = build_sampled(ref, times, pol, plant)
        assert _bits(adjoint_anchors(st)) == _bits(var_anchors(
            oracle_sampled(ref, times, pol, plant, offsets)[2], seeds))


def test_policy_recorder_matches_forward():
    # a live step of the trajectory's adjoint: values and gradients over
    # theta and the start state are the reference loop's on Vars, at steps
    # 0 and 5, after a frozen run too
    p = init([3, 7, 2], rng=random.Random(3))
    plant = Plant("mix", 2, 2, 1.0, lambda s, u, dt: (
        s[0] * 0.5 + u[0], s[1] - u[1] * s[0]), lambda a: a)
    ref = rollout(plant, p, (0.3, -0.2), 6)
    seeds = range(len(p.theta) + 2)
    for times in ([0, 5, 6], [0, 1, 6], [0, 6]):
        st = build_sampled(ref, times, p, plant)
        assert _bits(adjoint_anchors(st)) == _bits(var_anchors(
            oracle_sampled(ref, times, p, plant)[2], seeds))


def test_each_net_and_plant_compiles_one_recorder(monkeypatch):
    # one build and one adjoint kernel per (plant, controller), noise or
    # not, on every bundled scenario's seeded initial policy, each net's
    # forward traced once per plant for it
    from stlctrl import plants, policy, sampler
    from stlctrl.cli import bundled_names, load_scenario, resolve_scenario
    monkeypatch.setattr(plants, "_TRACES", {})
    nets, kernels = [], []
    source, compile_kernel = policy.forward_source, sampler.compile_kernel

    def forward_source(widths, include_time, theta, xs):
        nets.append((tuple(widths), include_time))
        return source(widths, include_time, theta, xs)

    monkeypatch.setattr(sampler, "forward_source", forward_source)
    monkeypatch.setattr(sampler, "compile_kernel", lambda *a: kernels.append(
        a[0]) or compile_kernel(*a))
    made = set()  # the (plant, net) pairs
    for name in bundled_names():
        sc = load_scenario(resolve_scenario(name))
        pol = sc.build_policy(random.Random(sc.seed))
        for noisy in (False, True):
            ref = rollout(sc.plant, pol, sc.init_set.samples[0], 24, noise=(
                0.02, 0.0, random.Random(4)) if noisy else None)
            for times in ([0, 4, 5, 12, 24], list(range(25))):
                st = build_sampled(ref, times, pol, sc.plant)
                assert st.adjoint is sampler._kernels(sc.plant, pol)[1]
        made.add((sc.plant.name, tuple(pol.widths), pol.include_time))
    assert len(nets) == len(made) < len(bundled_names())
    assert sorted(kernels) == sorted(
        ["th, states, acts, times, ts", "adj, n, args"] * len(made))


def test_a_live_steps_adjoint_reads_the_forwards_cos_and_sin(monkeypatch):
    # a Dubins step keeps cos and sin of each heading in locals, and the
    # adjoint's SIN and COS terms read those: each is computed once per
    # heading, and the gradients stay the Var operators'
    from stlctrl import plants, sampler
    monkeypatch.setattr(plants, "_TRACES", {})
    sources, compile_kernel = [], sampler.compile_kernel
    monkeypatch.setattr(sampler, "compile_kernel", lambda *a: sources.append(
        "\n".join(a[1])) or compile_kernel(*a))
    for name, widths, headings in (("dubins", [3, 6, 2], 1),
                                   ("multi_dubins_10", [21, 8, 20], 10)):
        plant = builtin(name)
        pol = init(widths, rng=random.Random(7))
        ref = rollout(plant, pol, tuple(0.1 * i for i in range(
            widths[0] - 1)), 12)
        times = [0, 3, 4, 12]
        st = build_sampled(ref, times, pol, plant)
        adjoint = sources[-1]
        assert adjoint.count("cos(") == adjoint.count("sin(") == headings
        seeds = range(len(pol.theta) + plant.state_dim)
        assert _bits(adjoint_anchors(st)) == _bits(var_anchors(
            oracle_sampled(ref, times, pol, plant)[2], seeds))
