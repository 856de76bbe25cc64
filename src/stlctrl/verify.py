"""Statistical verification via conformal calibration.

With R_i the negative robustness of m i.i.d. rollouts sorted ascending,
the coverage Pr[R_{m+1} < R_ell] of a fresh rollout is Beta(ell, m+1-ell)
distributed, so R_ell < 0 certifies satisfaction with quantified
confidence.  For these integer shapes the confidence Pr[coverage >=
delta1] = 1 - I_delta1(ell, m+1-ell) is a binomial CDF, Pr[Bin(m,
delta1) <= ell - 1], summed in-house.
"""

import math

from .plants import DivergedRollout, rollout
from .stl import Record, horizon, robustness


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
    rollout that diverges counts as R = +inf (see VerificationReport.diverged)
    and a NaN robustness, which no rank places, fails, naming its draw."""
    if m < 1:
        raise ValueError("m must be at least 1")
    K = horizon(f)
    vals = []
    for i in range(m):
        s0 = init_set.sample_uniform(rng)
        nz = None if noise is None else (noise[0], noise[1], rng)
        try:
            rho = robustness(f, rollout(plant, policy, s0, K, noise=nz))
        except DivergedRollout:
            rho = -math.inf
        if rho != rho:
            raise FloatingPointError(f"the robustness of calibration draw "
                                     f"{i + 1} of {m}, from {s0}, is nan")
        vals.append(-rho)
    return CalibrationSet(vals)


def _check_ell(m, ell):
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")


def beta_bound(m, ell, delta1):
    """Pr[coverage >= delta1] = 1 - I_delta1(ell, m+1-ell) = Pr[Bin(m,
    delta1) <= ell - 1]: math.fsum of the binomial pmf, each term from
    logs, over the shorter tail, k < ell or k >= ell."""
    _check_ell(m, ell)
    if not 0.0 < delta1 < 1.0:
        raise ValueError("delta1 must lie in (0, 1)")
    low = ell <= m + 1 - ell
    ks = range(ell) if low else range(ell, m + 1)
    a, b, c = math.log(delta1), math.log1p(-delta1), math.lgamma(m + 1)
    tail = math.fsum(math.exp(c - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                              + k * a + (m - k) * b) for k in ks)
    return tail if low else 1.0 - tail


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


def report(calib, coverage):
    """Verification report at the chosen rank, its delta1 the coverage."""
    ell = choose_ell(calib.m, coverage)
    mean, var = beta_moments(calib.m, ell)
    r_ell = calib.rank(ell)
    return VerificationReport(
        m=calib.m, ell=ell, R_ell=r_ell, delta1=coverage,
        confidence=beta_bound(calib.m, ell, coverage),
        mean=mean, variance=var, verdict=r_ell < 0.0,
        diverged=calib.values.count(math.inf))

