"""The decay-exponent optimization behind the vanishing existence bound.

The bound on the probability that any stable matching exists decays like
n^(-t*), where t* is a max-min over three parameters of four competing
exponent terms.  The closed form solves the equal-terms conditions, with
the stationary point expressed through the secondary real branch of the
Lambert W function; an independent nested grid search cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG2 = math.log(2.0)
# Finest grid resolution accepted: at 1e-5 the search takes seconds, while
# at 1e-6 its first zoom level has ~2.3e11 points and runs for hours.
GRID_FLOOR = 1e-5


def objective(alpha: float, gamma: float, s: float) -> float:
    """min of the four exponent terms at (alpha, gamma, s)."""
    if not 0.0 <= alpha <= 0.25:
        raise ValueError("alpha must lie in [0, 1/4]")
    if gamma < 0.0 or s < 0.0:
        raise ValueError("gamma and s must be nonnegative")
    return min(_terms(alpha, gamma, s))


def lambert_w_branch_minus1(z: float) -> float:
    """The real branch of the Lambert W function with values <= -1, i.e.
    the w <= -1 solving w * exp(w) = z for z in [-1/e, 0).

    Halley iteration from the asymptotic seed log(-z) - log(-log(-z)),
    switched to the branch-point expansion near z = -1/e; the residual
    |w e^w - z| is driven below 1e-12.  The branch point itself maps to -1.
    """
    if z >= 0.0 or z < -1.0 / math.e - 4e-17:
        raise ValueError(f"argument must lie in [-1/e, 0), got {z}")
    p2 = max(0.0, 2.0 * (1.0 + math.e * z))
    if p2 == 0.0:
        return -1.0
    if p2 < 1e-3:
        p = math.sqrt(p2)
        w = -1.0 - p - p2 / 6.0  # branch-point series, W_{-1} takes -sqrt
    else:
        lz = math.log(-z)
        w = lz - math.log(-lz)
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= 1e-13 * (abs(z) + 1e-300):
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) < 1e-16 * abs(w):
            break
    if abs(w * math.exp(w) - z) > 1e-12:
        raise ArithmeticError(f"Lambert iteration failed to converge at z={z}")
    return w


@dataclass(frozen=True)
class ExponentSolution:
    """A candidate optimum: the three parameters, the resulting exponent,
    and the four objective terms evaluated there."""

    s: float
    alpha: float
    gamma: float
    t_star: float
    objective_terms: tuple[float, float, float, float]


def _terms(alpha: float, gamma: float, s: float) -> tuple[float, float, float, float]:
    c = -math.expm1(-s)  # 1 - e^(-s)
    return (
        gamma * _LOG2,
        1.0 - 4.0 * alpha,
        alpha * c - s * gamma,
        1.0 / 3.0 - alpha * c - s * gamma,
    )


def tstar_closed_form() -> ExponentSolution:
    """Solve the equal-terms system for the first three objective terms.

    Equating them reduces to maximizing (1 - e^(-s)) / (log 2 + s), whose
    stationarity condition (s + log 2 + 1) e^(-s) = 1 is solved by
    s = -W(-1/(2e)) - 1 - log 2 on the branch with W <= -1 (the principal
    branch gives a negative s and is rejected).  The fourth term is checked
    to dominate at the optimum.
    """
    s = -lambert_w_branch_minus1(-1.0 / (2.0 * math.e)) - 1.0 - _LOG2
    rho = -math.expm1(-s) / (_LOG2 + s)
    alpha = 1.0 / (4.0 + rho * _LOG2)
    gamma = rho * alpha
    terms = _terms(alpha, gamma, s)
    return ExponentSolution(s, alpha, gamma, min(terms), terms)


def _objective_slice(alphas: np.ndarray, gammas: np.ndarray, s: float) -> np.ndarray:
    terms = _terms(alphas[:, None], gammas[None, :], s)
    return np.minimum.reduce(np.broadcast_arrays(*terms))


def tstar_grid_search(resolution: float = 1e-4) -> ExponentSolution:
    """Independent oracle for the closed form: dense grid over
    alpha in [0, 1/4], gamma in [0, 0.3], s in [0, 3], refined by two
    nested zoom levels down to a step of ``resolution`` (at least
    ``GRID_FLOOR``) per coordinate.

    Each zoom restricts to the bounding box of all grid points within a
    Lipschitz margin of the incumbent, so the flat ridge of the objective
    in s cannot strand the refinement away from the optimum.  Only each
    slice's row and column maxima are kept: a row or column holds a point
    above the margin exactly when its maximum does, and keeping the slices
    would hold the level's whole grid in memory.
    """
    if not GRID_FLOOR <= resolution < math.inf:
        raise ValueError(f"resolution must be finite and at least {GRID_FLOOR:g}, got {resolution}")
    step = max(resolution, min(100.0 * resolution, 0.01))
    box = [(0.0, 0.25), (0.0, 0.3), (0.0, 3.0)]
    best_val, best_pt = -math.inf, (0.0, 0.0, 0.0)
    for _level in range(3):
        alphas = np.arange(box[0][0], box[0][1] + step / 2.0, step)
        gammas = np.arange(box[1][0], box[1][1] + step / 2.0, step)
        svals = np.arange(box[2][0], box[2][1] + step / 2.0, step)
        best_val = -math.inf
        alpha_max, gamma_max = [], []
        for s in svals:
            vals = _objective_slice(alphas, gammas, s)
            alpha_max.append(vals.max(axis=1))
            gamma_max.append(vals.max(axis=0))
            k = int(np.argmax(vals))
            if vals.flat[k] > best_val:
                best_val = float(vals.flat[k])
                ai, gi = divmod(k, vals.shape[1])
                best_pt = (float(alphas[ai]), float(gammas[gi]), float(s))
        thresh = best_val - 4.0 * step
        alpha_hit = np.array(alpha_max) >= thresh  # (s, alpha)
        gamma_hit = np.array(gamma_max) >= thresh  # (s, gamma)
        kept = [alphas[alpha_hit.any(axis=0)], gammas[gamma_hit.any(axis=0)],
                svals[alpha_hit.any(axis=1)]]
        box = [(max(b[0], k[0] - step), min(b[1], k[-1] + step)) for b, k in zip(box, kept)]
        step = max(resolution, step / 10.0)
    alpha, gamma, s = best_pt
    terms = _terms(alpha, gamma, s)
    return ExponentSolution(s, alpha, gamma, min(terms), terms)
