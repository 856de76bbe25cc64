import math
import random

import pytest

from stlctrl.plants import InitialSet, builtin
from stlctrl.policy import Policy, init
from stlctrl.stl import Named, Pred, parse
from stlctrl.verify import (
    CalibrationSet, beta_bound, beta_moments, calibrate, choose_ell, report,
)


def test_choose_ell():
    assert choose_ell(10 ** 5, 1 - 1e-4) == 99991
    assert choose_ell(9, 0.5) == 5
    assert choose_ell(99, 0.99) == 99
    with pytest.raises(ValueError):
        choose_ell(99, 0.999)


def test_beta_moments_reference_values():
    mean, var = beta_moments(10 ** 5, 99991)
    assert mean == pytest.approx(0.9999, rel=1e-4)
    assert var == pytest.approx(9.9987e-10, rel=1e-4)
    assert beta_moments(3, 2)[0] == pytest.approx(0.5)
    mean, var = beta_moments(1, 1)
    assert mean == pytest.approx(0.5)
    assert var == pytest.approx(1 / 12)
    with pytest.raises(ValueError):
        beta_moments(5, 6)


def test_beta_bound_reference_values():
    assert beta_bound(10 ** 5, 99991, 0.9998) == pytest.approx(0.995, abs=1e-3)
    assert beta_bound(10 ** 5, 99991, 0.9999) == pytest.approx(0.54, abs=1e-2)
    assert beta_bound(100, 50, 1e-12) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        beta_bound(10, 5, 0.0)
    with pytest.raises(ValueError):
        beta_bound(10, 11, 0.5)


def test_reg_inc_beta_against_mpmath():
    # I_x(a, b) = 1 - beta_bound(a + b - 1, a, x) for integer shapes
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = random.Random(0)
    cases = [(1, 1), (2, 5), (5, 2), (50, 50), (99, 2), (1, 100), (73, 28)]
    xs = [0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999]
    for a, b in cases:
        for x in xs:
            want = float(mp.betainc(a, b, 0, x, regularized=True))
            got = 1 - beta_bound(a + b - 1, a, x)
            assert got == pytest.approx(want, abs=1e-8)
    for _ in range(50):
        a = rng.randint(1, 100)
        b = rng.randint(1, 100)
        x = rng.random()
        want = float(mp.betainc(a, b, 0, x, regularized=True))
        assert 1 - beta_bound(a + b - 1, a, x) == pytest.approx(want,
                                                                abs=1e-8)


def test_lemma_coverage_frequency():
    # synthetic scores: the rank rule's coverage matches ell/(m+1)
    rng = random.Random(42)
    m, ell = 19, 15
    reps = 10_000
    hits = 0
    for _ in range(reps):
        scores = [rng.random() for _ in range(m + 1)]
        fresh = scores[-1]
        r_ell = sorted(scores[:m])[ell - 1]
        hits += fresh < r_ell
    p = ell / (m + 1)
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(hits / reps - p) <= 3 * se


def test_calibration_set_sorted_and_rank():
    c = CalibrationSet([3.0, -1.0, 2.0])
    assert c.values == [-1.0, 2.0, 3.0]
    assert c.rank(1) == -1.0
    assert c.rank(3) == 3.0
    with pytest.raises(ValueError):
        c.rank(0)
    with pytest.raises(ValueError):
        CalibrationSet([])


def test_calibrate_determinism_and_signs():
    plant = builtin("integrator2d")
    pol = init([3, 4, 2], scheme="zero")
    iset = InitialSet((-1.1, -1.1), (-0.9, -0.9),
                      [(-1.0, -1.0)])
    f = parse("G[0,5](x0 < 0)")  # satisfied by every start in the box
    c1 = calibrate(plant, pol, f, iset, 50, random.Random(5))
    c2 = calibrate(plant, pol, f, iset, 50, random.Random(5))
    assert c1.values == c2.values
    assert all(v < 0 for v in c1.values)
    g = parse("F[0,5](x0 > 0)")  # violated everywhere
    c3 = calibrate(plant, pol, g, iset, 20, random.Random(5))
    assert all(v > 0 for v in c3.values)


def test_report_verdict():
    good = CalibrationSet([-float(i + 1) / 100 for i in range(99)])
    rep = report(good, coverage=0.9)
    assert rep.ell == 90
    assert rep.verdict
    assert rep.mean == pytest.approx(90 / 100)
    assert 0.0 <= rep.confidence <= 1.0
    assert any("verdict     pass" in ln for ln in rep.lines())
    bad = CalibrationSet([float(i + 1) for i in range(99)])
    assert not report(bad, coverage=0.9).verdict


def test_report_counts_diverged_rollouts():
    # with zero input x -> 0.8 x^1.2 - 1 runs away from starts above ~7
    plant = builtin("scalar_power")
    pol = Policy([1, 1], theta=[0.0, 0.0], include_time=False)
    iset = InitialSet((1.0,), (20.0,), [(1.0,)])
    calib = calibrate(plant, pol, parse("G[0,40](x0 < 100)"), iset, 40,
                      random.Random(3))
    n_inf = sum(v == math.inf for v in calib.values)
    assert 0 < n_inf < calib.m
    rep = report(calib, coverage=0.5)
    assert rep.diverged == n_inf
    assert f"diverged    {n_inf}" in rep.lines()
    assert (rep.m, rep.ell, rep.R_ell, rep.verdict) == (
        40, 21, calib.values[20], calib.values[20] < 0.0)
    assert report(CalibrationSet([-1.0, 2.0]), coverage=0.5).diverged == 0



def test_calibrate_builds_no_trace(monkeypatch):
    # each calibration rollout goes to the root kernel as it is
    from stlctrl.cli import load_scenario, resolve_scenario
    from tests.test_stl import forbid_traces
    sc = load_scenario(resolve_scenario("dubins_k1000"))
    pol = sc.build_policy(random.Random(sc.seed))
    forbid_traces(monkeypatch)
    calib = calibrate(sc.plant, pol, sc.formula, sc.init_set, 3,
                      random.Random(1))
    assert calib.m == 3 and all(math.isfinite(v) for v in calib.values)


def test_calibrate_fails_on_a_nan_draw():
    # a NaN robustness would sort anywhere and could move R_ell: the
    # calibration fails at the first such draw, naming it
    plant = builtin("integrator2d")
    pol = init([3, 4, 2], scheme="zero")
    iset = InitialSet((-1.0, 0.0), (1.0, 0.0), [(-1.0, 0.0)])
    f = Pred(Named("h", lambda s: math.nan if s[0] > 0.0 else -1.0))
    rng = random.Random(4)
    first = next(i for i in range(50) if iset.sample_uniform(rng)[0] > 0.0)
    with pytest.raises(FloatingPointError,
                       match=rf"calibration draw {first + 1} of 50, from "):
        calibrate(plant, pol, f, iset, 50, random.Random(4))
