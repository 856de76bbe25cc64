"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
quantities so a full run doubles as a report.
"""

import math
import random
import time

import pytest

from test_stl import CORPUS, brute, brute_sat

from stlctrl.cli import load_scenario, resolve_scenario
from stlctrl.plants import DivergedRollout, builtin, rollout
from stlctrl.policy import init
from stlctrl.autodiff import Tape, value_of
from stlctrl.sampler import grad_smooth, partition_times
from stlctrl.smooth import SmoothConfig, smooth_robustness
from stlctrl.stl import (
    Trace, aggregation_shape, critical, horizon, parse, robustness, satisfies,
)
from stlctrl.trainer import (
    TrainConfig, train_dropout, train_openloop, train_vanilla,
)
from stlctrl.verify import beta_bound, beta_moments
from stlctrl.trainer import _OpenLoop


def _report(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_semantics_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    for f, states in CORPUS:
        tr = Trace(states)
        if robustness(f, tr) != brute(f, states, 0):
            mismatches += 1
        if satisfies(f, tr) != brute_sat(f, states, 0):
            mismatches += 1
    dt = time.time() - t0
    _report(1, mismatches == 0 and dt < 30.0,
            f"{len(CORPUS)} formulas, {mismatches} mismatches, {dt:.1f}s")


def test_criterion_2_critical_witness_identity():
    bad = 0
    for f, states in CORPUS:
        tr = Trace(states)
        w = critical(f, tr)
        if w.value != robustness(f, tr):
            bad += 1
        if w.value != w.predicate.h.eval(states[w.time]):
            bad += 1
    f = parse("F[0,3](x0 > 0)")
    tr = Trace([(1.0,), (2.0,), (3.0,), (1.5,)])
    w = critical(f, tr)
    example_ok = (w.time == 2 and w.value == 3.0)
    _report(2, bad == 0 and example_ok,
            f"{bad} identity violations, example k*={w.time} value={w.value}")


def test_criterion_3_smooth_soundness_and_gap():
    t0 = time.time()
    violations = 0
    for b in (5.0, 15.0):
        cfg = SmoothConfig(b)
        for f, states in CORPUS:
            tr = Trace(states)
            rho = robustness(f, tr)
            st = smooth_robustness(f, tr, cfg)
            depth, width = aggregation_shape(f)
            gap = depth * math.log(max(width, 1)) / b
            if st > rho + 1e-12:
                violations += 1
            if rho - st > gap + 1e-9:
                violations += 1
            if st > 0 and not satisfies(f, tr):
                violations += 1
    dt = time.time() - t0
    _report(3, violations == 0 and dt < 60.0,
            f"b in {{5, 15}}, {violations} violations, {dt:.1f}s")


def _fd_check(plant, K, f, b):
    rng = random.Random(11)
    widths = [plant.state_dim + 1, 8, plant.action_dim]
    pol = init(widths, rng=rng, time_scale=1.0 / K)
    n = len(pol.theta)
    probe = sorted({0, n // 4, n // 2, 3 * n // 4, n - 1})
    s0 = tuple(0.0 for _ in range(plant.state_dim))
    cfg = SmoothConfig(b)
    ref = rollout(plant, pol, s0, K)
    g = grad_smooth(ref, [list(range(K + 1))], f, cfg, pol, plant)

    def val(theta):
        r = rollout(plant, pol.with_theta(theta), s0, K)
        return smooth_robustness(f, Trace(r.states), cfg)

    worst = 0.0
    h = 1e-6
    for idx in probe:
        up = list(pol.theta)
        dn = list(pol.theta)
        up[idx] += h
        dn[idx] -= h
        fd = (val(up) - val(dn)) / (2 * h)
        err = abs(g[idx] - fd) / max(abs(fd), 1e-6)
        worst = max(worst, err)
    return worst


def test_criterion_4_gradient_correctness():
    dub = builtin("dubins")
    f_dub = parse("F[15,20](x0 > 1 && x1 > 0.5) && G[0,20](x1 > -3)")
    worst_d = _fd_check(dub, 20, f_dub, 10.0)

    quad = builtin("quad6_platform")
    f_quad = parse("F[5,10](x2 > 0.5) && G[0,10](x0 > -5)")
    worst_q = _fd_check(quad, 10, f_quad, 10.0)

    # chain rule: per-group exact gradients (value partials contracted
    # with state sensitivities) sum to the full gradient
    pol = init([3, 6, 2], rng=random.Random(3), time_scale=0.1)
    K = 10
    f = parse("F[6,10](x0 > 1) && G[0,10](x1 > -4)")
    cfg = SmoothConfig(10.0)
    diff = rollout(dub, pol, (0.0, 0.0), K, mode="differentiable")
    out = smooth_robustness(f, Trace(diff.states), cfg)
    g_full = diff.tape.backward(out, diff.theta_vars)
    ptape = Tape()
    free = [tuple(ptape.const(value_of(x)) for x in s) for s in diff.states]
    pout = smooth_robustness(f, Trace(free), cfg)
    partials = ptape.backward(pout, [v for s in free for v in s])
    n = len(pol.theta)
    g_sum = [0.0] * n
    for times in partition_times(K, 3, random.Random(9)):
        for t in times:
            if t == 0:
                continue
            for d in range(2):
                p = partials[t * 2 + d]
                if p == 0.0:
                    continue
                sens = diff.tape.backward(diff.states[t][d], diff.theta_vars)
                for i in range(n):
                    g_sum[i] += p * sens[i]
    worst_c = max(abs(a - b) for a, b in zip(g_full, g_sum))

    ok = worst_d <= 1e-4 and worst_q <= 1e-4 and worst_c <= 1e-8
    _report(4, ok, f"fd rel err dubins={worst_d:.2e} quad={worst_q:.2e}, "
                   f"chain rule abs err={worst_c:.2e}")


def test_criterion_5_partition_law():
    rng = random.Random(77)
    bad = 0
    for _ in range(10_000):
        K = rng.randint(1, 60)
        M = rng.randint(1, min(12, K))
        sets = [set(s) for s in partition_times(K, M, rng)]
        if set().union(*sets) != set(range(K + 1)):
            bad += 1
        for i in range(len(sets)):
            if 0 not in sets[i]:
                bad += 1
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j] != {0}:
                    bad += 1
    _report(5, bad == 0, f"10000 draws, {bad} violations")


def _run_scenario(name, algorithm=None, budget=None):
    sc = load_scenario(resolve_scenario(name))
    cfg = sc.train_cfg
    if budget is not None:
        cfg.max_iters = budget
    rng = random.Random(sc.seed)
    pol = sc.build_policy(rng)
    alg = algorithm or sc.algorithm
    t0 = time.time()
    if alg == "vanilla":
        ctrl, log, info = train_vanilla(sc.plant, pol, sc.formula,
                                        sc.init_set, cfg, rng)
    else:
        ctrl, log, info = train_dropout(sc.plant, pol, sc.formula,
                                        sc.init_set, sc.waypoints, cfg, rng)
    info["wall"] = time.time() - t0
    return info


def test_criterion_6_training_iteration_budgets():
    runs = [
        ("dubins_k10", "vanilla", 200),
        ("dubins_k100", "vanilla", 1500),
        ("dubins_k100", "dropout", 1000),
        ("dubins_k500", "dropout", 3000),
    ]
    details = []
    ok = True
    for name, alg, budget in runs:
        info = _run_scenario(name, algorithm=alg, budget=budget)
        good = (not info["dnf"] and info["final_rho"] > 0
                and info["wall"] < 1200.0)
        ok = ok and good
        details.append(f"{name}/{alg}: {info['iters']}it "
                       f"rho={info['final_rho']:.3g} {info['wall']:.0f}s")
    _report(6, ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_7_long_horizon_k1000():
    info = _run_scenario("dubins_k1000", budget=3000)
    ok = (not info["dnf"] and info["final_rho"] > 0
          and info["wall"] < 90 * 60)
    _report(7, ok, f"{info['iters']} iterations, rho={info['final_rho']:.3g}, "
                   f"{info['wall']:.0f}s")


def test_criterion_8_no_regressing_commits():
    sc = load_scenario(resolve_scenario("scalar_power"))
    cfg = sc.train_cfg
    cfg.max_iters = 30
    cfg.rho_bar = 1e9  # unreachable: every iteration must still commit safely
    rng = random.Random(sc.seed)
    pol = sc.build_policy(rng)
    ctrl, log, info = train_dropout(sc.plant, pol, sc.formula, sc.init_set,
                                    sc.waypoints, cfg, rng)
    rhos = [rec.rho for rec in log.records]
    drops = sum(1 for a, b in zip(rhos, rhos[1:]) if b < a - 1e-12)

    # a non-differentiable corner that forces the re-smoothing branch:
    # the redundant upper bounds bias the soft aggregation downhill, so
    # only the commit guard keeps the exact robustness from regressing
    from stlctrl.plants import InitialSet
    plant = builtin("integrator2d")
    corner_f = parse("G[1,1](x0 > -0.5 && x0 < 0.5 && x0 < 0.6 && x0 < 0.7)")
    iset = InitialSet((0.0, 0.0), (0.0, 0.0), [(0.0, 0.0)])
    cfg2 = TrainConfig(max_iters=10, N1=2, N2=3, M=1, N=1, alpha=0.05,
                       rho_bar=1e9, b=15.0)
    zero = init([3, 2, 2], scheme="zero")
    _, log_g, info_g = train_dropout(plant, zero, corner_f, iset, None,
                                     cfg2, random.Random(0))
    g_rhos = [rec.rho for rec in log_g.records]
    g_drops = sum(1 for a, b in zip(g_rhos, g_rhos[1:]) if b < a - 1e-12)
    smooth_iters = info_g["branch_counts"].get("smooth", 0)
    cfg2u = TrainConfig(max_iters=10, N1=2, N2=3, M=1, N=1, alpha=0.05,
                        rho_bar=1e9, b=15.0, guard_smooth=False)
    _, log_u, _ = train_dropout(plant, zero, corner_f, iset, None, cfg2u,
                                random.Random(0))
    unguarded_regresses = any(rec.rho < g_rhos[0] - 1e-12
                              for rec in log_u.records)

    ok = (drops == 0 and len(rhos) == 30 and g_drops == 0
          and min(g_rhos) >= g_rhos[0] and smooth_iters > 0
          and unguarded_regresses)
    _report(8, ok,
            f"{len(rhos)} scenario commits with {drops} drops; corner run: "
            f"{smooth_iters} re-smoothing commits, {g_drops} drops, "
            f"unguarded variant regresses={unguarded_regresses}")


def test_criterion_9_conformal_numbers():
    mean, var = beta_moments(10 ** 5, 99991)
    ok_mean = abs(mean - 0.9999) <= 0.5e-4
    ok_var = abs(var - 9.9987e-10) <= 0.5e-13
    b1 = beta_bound(10 ** 5, 99991, 0.9998)
    b2 = beta_bound(10 ** 5, 99991, 0.9999)
    ok_b = abs(b1 - 0.995) <= 1e-3 and abs(b2 - 0.54) <= 1e-2

    rng = random.Random(1234)
    m, ell, reps = 19, 15, 10_000
    hits = 0
    for _ in range(reps):
        scores = [rng.random() for _ in range(m + 1)]
        fresh = scores[-1]
        r_ell = sorted(scores[:m])[ell - 1]
        hits += fresh < r_ell
    p = ell / (m + 1)
    se = math.sqrt(p * (1 - p) / reps)
    ok_freq = abs(hits / reps - p) <= 3 * se
    _report(9, ok_mean and ok_var and ok_b and ok_freq,
            f"mean={mean:.6f} var={var:.4e} bounds=({b1:.4f},{b2:.3f}) "
            f"freq={hits / reps:.4f} vs {p:.4f}")


def _success_rate(plant, controller, f, s0, noise, trials, rng):
    """Fraction of noisy rollouts from s0 satisfying f; a diverged one
    fails."""
    ok = 0
    for _ in range(trials):
        try:
            r = rollout(plant, controller, s0, horizon(f),
                        noise=(*noise, rng))
        except DivergedRollout:
            continue
        ok += satisfies(f, Trace(r.states))
    return ok / trials


def test_criterion_10_noise_feedback_beats_openloop():
    sc = load_scenario(resolve_scenario("integrator2d"))
    noise = sc.noise
    rng = random.Random(sc.seed)
    pol = sc.build_policy(rng)
    fb, _, info_fb = train_vanilla(sc.plant, pol, sc.formula, sc.init_set,
                                   sc.train_cfg, rng)
    K = horizon(sc.formula)
    olcfg = TrainConfig(rho_bar=sc.train_cfg.rho_bar, alpha=sc.train_cfg.alpha,
                        b=sc.train_cfg.b, max_iters=sc.train_cfg.max_iters,
                        noise=noise)
    s0 = sc.init_set.samples[0]
    actions, _, info_ol = train_openloop(
        sc.plant, [[0.0] * sc.plant.action_dim for _ in range(K)],
        sc.formula, s0, olcfg, rng)
    r_fb = _success_rate(sc.plant, fb, sc.formula, s0, noise, 500,
                         random.Random(7))
    r_ol = _success_rate(sc.plant, _OpenLoop(actions), sc.formula, s0,
                         noise, 500, random.Random(7))
    gap = r_fb - r_ol
    _report(10, gap >= 0.30,
            f"feedback {r_fb:.1%} vs open loop {r_ol:.1%}, gap {gap * 100:.1f}pp")


@pytest.mark.parametrize("name", ["quad12", "multi_dubins_10",
                                  "quad6_platform"])
def test_smoke_ten_training_iterations(name):
    info = _run_scenario(name, budget=10)
    assert info["iters"] <= 10
    assert math.isfinite(info["final_rho"])
    print(f"\nsmoke {name}: {info['iters']} iterations, "
          f"rho={info['final_rho']:.3g}, {info['wall']:.0f}s")
