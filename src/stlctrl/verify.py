"""Statistical verification via conformal calibration.

With R_i the negative robustness of m i.i.d. rollouts sorted ascending,
the coverage Pr[R_{m+1} < R_ell] of a fresh rollout is Beta(ell, m+1-ell)
distributed, so R_ell < 0 certifies satisfaction with quantified
confidence.  The regularized incomplete beta function is evaluated
in-house with the continued-fraction expansion.
"""

import math

from .plants import DivergedRollout, rollout
from .stl import Record, Trace, horizon, robustness


class CalibrationSet:
    def __init__(self, values):
        self.values = sorted(values)
        self.m = len(self.values)
        if self.m < 1:
            raise ValueError("calibration set is empty")

    def rank(self, ell):
        if not 1 <= ell <= self.m:
            raise ValueError(f"need 1 <= ell <= {self.m}, got {ell}")
        return self.values[ell - 1]


class VerificationReport(Record):
    # diverged: the rollouts that diverged, counted as R = +inf
    _fields = ("m", "ell", "R_ell", "delta1", "confidence", "mean", "variance",
               "verdict", "diverged")

    def lines(self):
        return [
            f"m           {self.m}",
            f"ell         {self.ell}",
            f"R_ell       {self.R_ell:.6g}",
            f"delta1      {self.delta1}",
            f"confidence  {self.confidence:.6g}",
            f"mean        {self.mean:.6g}",
            f"variance    {self.variance:.6g}",
            f"verdict     {'pass' if self.verdict else 'fail'}",
            f"diverged    {self.diverged}",
        ]


def calibrate(plant, policy, f, init_set, m, rng, noise=None):
    """Negative robustness of m rollouts from uniform initial states; a
    rollout that diverges counts as R = +inf (see VerificationReport.diverged)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    K = horizon(f)
    vals = []
    for _ in range(m):
        s0 = init_set.sample_uniform(rng)
        nz = None if noise is None else (noise[0], noise[1], rng)
        try:
            r = rollout(plant, policy, s0, K, noise=nz)
            vals.append(-robustness(f, Trace(r.states)))
        except DivergedRollout:
            vals.append(math.inf)
    return CalibrationSet(vals)


def _betacf(a, b, x):
    # continued fraction for the incomplete beta (Lentz's method)
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for mm in range(1, 300):
        m2 = 2 * mm
        aa = mm * (b - mm) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + mm) * (qab + mm) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        if x < 0.0:
            raise ValueError("x out of range")
        return 0.0
    if x >= 1.0:
        if x > 1.0:
            raise ValueError("x out of range")
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _check_ell(m, ell):
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")


def beta_bound(m, ell, delta1):
    """Pr[coverage >= delta1] = 1 - I_delta1(ell, m+1-ell)."""
    _check_ell(m, ell)
    if not 0.0 < delta1 < 1.0:
        raise ValueError("delta1 must lie in (0, 1)")
    return 1.0 - reg_inc_beta(float(ell), float(m + 1 - ell), delta1)


def beta_moments(m, ell):
    _check_ell(m, ell)
    mean = ell / (m + 1)
    var = ell * (m + 1 - ell) / ((m + 1) ** 2 * (m + 2))
    return mean, var


def choose_ell(m, coverage):
    ell = math.ceil((m + 1) * coverage)
    if ell > m:
        raise ValueError(
            f"coverage {coverage} needs more than m={m} calibration rollouts")
    return ell


def report(calib, coverage, delta1=None):
    """Verification report at the chosen rank; delta1 defaults to coverage."""
    ell = choose_ell(calib.m, coverage)
    if delta1 is None:
        delta1 = coverage
    mean, var = beta_moments(calib.m, ell)
    r_ell = calib.rank(ell)
    return VerificationReport(
        m=calib.m, ell=ell, R_ell=r_ell, delta1=delta1,
        confidence=beta_bound(calib.m, ell, delta1),
        mean=mean, variance=var, verdict=r_ell < 0.0,
        diverged=calib.values.count(math.inf))

