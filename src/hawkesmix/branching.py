"""Multitype Poisson Galton-Watson generations and covariance-decay bounds.

In the cluster representation of a Hawkes process, the descendants of one
ancestor form a multitype Galton-Watson process: given generation ``k-1``
with counts ``z``, component ``j`` of generation ``k`` is Poisson with mean
``(z^T M)_j``.  This module evaluates the exact Laplace functional of the
generation sizes, builds a certified contraction estimate for its iterates,
and assembles from those ingredients a fully numeric upper bound on the
covariance between counts in windows separated by a lag.  The decay of that
covariance in the lag is what gives strong mixing of the process.

All infinite series carry certified geometric tail bounds, which are added
to the reported values so every number produced here is a true upper bound.
Past the generation cut ``K`` of :func:`mixing_bound`, the tails decay at
the rate of the Laplace iterates themselves: a Collatz-Wielandt bound
``rho_v`` on the spectral radius from strictly positive Perron weights
``v``, times the slope ``expm1(s) / s`` of ``e^x - 1`` over the iterates'
range ``s`` at the cut.  For ``d = 1``, ``v = 1`` and ``rho_v`` is the
spectral radius, so the cut stays near the generation where the series has
converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (HypothesisError, NumericError, SubcriticalityError,
                     real_number, real_numbers, require_index,
                     require_integer, require_seed, to_json)
from .model import HawkesModel, nonnegative_matrix, spectral_radius

__all__ = [
    "g_map",
    "laplace_generation",
    "ContractionCert",
    "contraction_certificate",
    "c1_constant",
    "tail_sum_generation",
    "arrival_tail_bound",
    "MixingBoundReport",
    "mixing_bound",
    "simulate_generations",
]

_KSCAN_MAX = 10_000
_DELTA_MAX = 2.0
_MAX_GENERATIONS = 4000  # cap on the generation cut of mixing_bound


def _laplace_argument(m: np.ndarray, u) -> np.ndarray:
    """``u`` as a float array: one finite nonnegative argument per type of
    the checked matrix ``m``."""
    u = np.asarray(u, dtype=float)
    if u.shape != m.shape[:1]:
        raise ValueError(f"expected one argument per type ({m.shape[0]}), "
                         f"got shape {u.shape}")
    if not np.all(np.isfinite(u) & (u >= 0.0)):
        raise ValueError(f"expected finite nonnegative arguments, got {u}")
    return u


def _capped(u: np.ndarray) -> np.ndarray:
    """``u``, after raising :class:`NumericError` if any entry is past 700.

    The cap sits below the exp overflow threshold so every reported
    transform is finite; iterates beyond it mean divergence anyway.
    """
    if np.any(u > 700.0):
        raise NumericError(
            "Laplace recursion overflowed; the matrix is supercritical "
            "or the argument is too large"
        )
    return u


def g_map(m: np.ndarray, u) -> np.ndarray:
    """One step of the Laplace-functional recursion: ``g(u) = M (e^u - 1)``.

    Raises :class:`NumericError` for an argument past the recursion's cap
    of 700 and for a result that is not finite.
    """
    m = nonnegative_matrix(m)
    with np.errstate(over="ignore"):
        out = m @ np.expm1(_capped(_laplace_argument(m, u)))
    if not np.all(np.isfinite(out)):
        raise NumericError(f"g(u) overflowed: {out}")
    return out


def _g_iterates(m, u, k):
    """``u, g(u), ..., g^k(u)`` for a checked matrix ``m`` and argument
    ``u``, as the rows of a ``(k + 1, d)`` array."""
    out = np.empty((k + 1, len(u)))
    out[0] = _capped(u)
    with np.errstate(over="ignore"):  # an infinite iterate fails the cap
        for j in range(1, k + 1):
            out[j] = _capped(m @ np.expm1(out[j - 1]))
    return out


def laplace_generation(m: np.ndarray, u, k: int, ancestor: int = 0) -> float:
    """``E exp(u . Z_k)`` for generation ``k`` from one type-``ancestor`` individual.

    Uses the exact recursion ``E exp(u . Z_k) = exp(g^k(u)_ancestor)`` where
    ``g(u) = M (e^u - 1)``.
    """
    m = nonnegative_matrix(m)
    require_integer(0, k=k)
    u = _laplace_argument(m, np.atleast_1d(u))
    require_index(m.shape[0], ancestor=ancestor)
    it = _g_iterates(m, u, k)
    return float(np.exp(it[k][ancestor]))


@dataclass(frozen=True)
class ContractionCert:
    """Certified contraction data for the Laplace recursion.

    Guarantees, for every ``k >= 0``:
    ``g^k(u) <= delta**k M**k u`` componentwise, and for ``k >= k0``
    ``||g^k(u)||_1 <= c**k ||u||_1`` with ``c < 1``.
    """

    rho: float
    delta: float
    eps: float
    u0: float
    u: np.ndarray
    c: float
    k0: int

    to_dict = to_json


def _linearization_root(delta: float) -> float:
    """Largest certified ``u0`` with ``e^x - 1 <= delta x`` on ``[0, u0]``."""
    f = lambda x: np.expm1(x) - delta * x
    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    lo = hi / 2.0 if f(hi / 2.0) <= 0.0 else 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def contraction_certificate(m) -> ContractionCert:
    """Build a :class:`ContractionCert` for a subcritical reproduction matrix.

    The slope is ``delta = (1 + 1/rho) / 2`` capped at 2 (the cap binds for
    very subcritical matrices, including ``M = 0``), the margin is
    ``eps = (1/delta - rho) / 2``, and the contraction rate ``c = delta (rho
    + eps) < 1``.  The threshold ``k0`` past which ``||M^k||_1 <= (rho +
    eps)**k`` is verified directly up to a finite index and certified beyond
    it by submultiplicativity.
    """
    m = np.asarray(m, dtype=float)
    rho = spectral_radius(m)
    if rho >= 1.0:
        raise SubcriticalityError(f"spectral radius {rho:.6g} >= 1")
    delta = min(0.5 * (1.0 + 1.0 / rho), _DELTA_MAX) if rho else _DELTA_MAX
    eps = 0.5 * (1.0 / delta - rho)
    c = delta * (rho + eps)
    u0 = _linearization_root(delta)

    # norm-decay threshold: scan ||M^k||_1 / (rho+eps)^k, then certify the
    # un-scanned tail from one strictly contracting power
    base = rho + eps
    powers = [np.eye(m.shape[0])]
    ratios = [1.0]
    k1 = None
    for k in range(1, _KSCAN_MAX + 1):
        powers.append(powers[-1] @ m)
        ratios.append(np.linalg.norm(powers[-1], 1) / base**k)
        if ratios[-1] < 1.0:
            k1 = k
            break
    if k1 is None:
        raise NumericError("could not certify norm decay of matrix powers")
    worst = max(ratios[:k1]) if k1 > 1 else 1.0
    needed = 0
    if worst > 1.0 and ratios[k1] > 0.0:  # M^k1 = 0 needs no more powers
        needed = int(np.ceil(np.log(worst) / -np.log(ratios[k1])))
    k_direct = needed * k1 + k1
    p = powers[k1]
    for k in range(k1 + 1, k_direct + 1):
        p = p @ m
        ratios.append(np.linalg.norm(p, 1) / base**k)
    good = np.asarray(ratios) <= 1.0 + 1e-14
    k0 = k_direct
    while k0 > 0 and good[k0 - 1]:
        k0 -= 1

    # isotropic u = s * ones, maximal with sup_k ||delta^k M^k u||_inf <= u0
    d = m.shape[0]
    v = np.ones(d)
    sup = 1.0
    k = 0
    while True:
        k += 1
        v = delta * (m @ v)
        sup = max(sup, float(np.max(v)))
        # past k0 the remaining iterates stay below c^k d, so the sup is final
        if k >= k0 and c**k * d < sup:
            break
        if k > _KSCAN_MAX:
            raise NumericError("sup over matrix powers did not stabilize")
    s = u0 / sup
    return ContractionCert(rho, delta, eps, u0, np.full(d, s), c, int(k0))


def c1_constant(u_i: float, p: float) -> float:
    """Upper bound on ``sum_{n>=1} (e^{u_i n} - 1)^{-1/p}``.

    Since ``e^{u n} - 1 >= e^{u n}(1 - e^{-u})`` for ``n >= 1``, the series
    is dominated termwise by a geometric one; the partial sum is extended by
    that certified geometric tail.  Each term is taken as ``e^{-u_i n / p}
    (1 - e^{-u_i n})^{-1/p}``, which does not overflow for ``u_i n`` past
    ~709 as ``e^{u_i n} - 1`` does.
    """
    if not (np.isfinite(u_i) and u_i > 0.0):
        raise ValueError(f"needs a strictly positive exponent, got {u_i}")
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError(f"needs p >= 1, got {p}")
    ratio = np.exp(-u_i / p)
    head = 0.0
    n = 0
    while True:
        n += 1
        term = np.exp(-u_i * n / p) * (-np.expm1(-u_i * n)) ** (-1.0 / p)
        head += term
        tail = (1.0 - np.exp(-u_i)) ** (-1.0 / p) * ratio ** (n + 1) / (1.0 - ratio)
        if tail <= 1e-12 * head:
            return float(head + tail)
        if n > 10_000_000:
            raise NumericError("series for the tail constant converges too slowly")


def tail_sum_generation(m, cert: ContractionCert, k: int, ancestor: int, p: float) -> float:
    """Bound on ``sum_{n>=1} P(Z_ki >= n)**(1/p)`` for any counted type ``i``.

    Combines the Markov bound ``P(Z_ki >= n) <= (E exp(u . Z_k) - 1) /
    (e^{u_i n} - 1)`` with :func:`c1_constant`; with the certificate's
    isotropic ``u`` the result does not depend on ``i``.
    """
    lap = laplace_generation(m, cert.u, k, ancestor)
    return c1_constant(float(np.min(cert.u)), p) * (lap - 1.0) ** (1.0 / p)


def arrival_tail_bound(nu: float, beta: float, gen_l: int, horizon: float) -> float:
    """Markov bound on the chance that a generation-``l`` event lands beyond
    ``horizon``: ``min(1, l**(1+beta) nu / horizon**(1+beta))``; zero for the
    ancestor generation, which never travels."""
    # negated so that NaN fails too
    if not (nu >= 0.0 and beta > 0.0 and horizon > 0.0):
        raise ValueError("need nu >= 0, beta > 0, horizon > 0")
    if not gen_l >= 0:
        raise ValueError("generation index must be >= 0")
    if gen_l == 0:
        return 0.0
    return float(min(1.0, gen_l ** (1.0 + beta) * nu / horizon ** (1.0 + beta)))


def _poly_geom_tail(cut: int, w: float, q: float, scale: float) -> float:
    """Certified bound on ``scale * sum_{l > cut} l**w q**(l - cut)``."""
    l1 = cut + 1
    ratio = q * ((l1 + 1) / l1) ** w
    if ratio >= 1.0:
        raise NumericError("series ratio not contracting; increase the cut")
    return scale * l1**w * q / (1.0 - ratio)


def _up(x: float) -> float:
    """``x`` raised by a few ulps, so that a bound computed in floating
    point stays a bound of the exact value it rounds."""
    return x * (1.0 + 8.0 * np.finfo(float).eps)


def _perron_weights(m: np.ndarray, rho: float) -> tuple[np.ndarray, float]:
    """A strictly positive ``v`` with ``max v = 1``, and ``rho_v`` with
    ``M v <= rho_v v`` in floating point.

    ``v`` is ``(r I - M)^{-1} 1`` for ``r = rho + (1 - rho) / 100``: the
    Perron vector of ``M + eps 11^T``, whose Perron root is ``r`` for
    ``eps = 1 / (1^T (r I - M)^{-1} 1)``.  So ``M v = r v - 1 < r v``, and
    by Collatz-Wielandt ``rho <= rho_v = max_i (M v)_i / v_i < r``; for
    ``d = 1``, ``rho_v = rho`` up to rounding.
    """
    d = m.shape[0]
    v = np.linalg.solve((rho + 0.01 * (1.0 - rho)) * np.eye(d) - m, np.ones(d))
    if not np.all(v > 0.0):
        raise NumericError(f"no positive Perron weights for the matrix: {v}")
    v = v / np.max(v)
    return v, _up(float(np.max((m @ v) / v)))


def _tail_rate(v: np.ndarray, rho_v: float, g_cut: np.ndarray
               ) -> tuple[float, float, float]:
    """``(s, delta, rate)`` of the iterates past the cut ``K``, for the
    weights ``v, rho_v`` of :func:`_perron_weights` and ``g_cut = g^K(u)``.

    With ``s = max_i g^K(u)_i / v_i`` and ``delta = expm1(s) / s`` (1 at
    ``s = 0``), ``e^y - 1 <= delta y`` on ``[0, s]``, because ``expm1(y) /
    y`` grows with ``y``.  So when ``rate = delta rho_v < 1``, induction on
    ``g(u) = M (e^u - 1)``, with every entry in ``[0, s]`` as ``max v =
    1``, gives ``g^(K+j)(u) <= rate**j s v`` and ``e^{g^k(u)} - 1 <= delta
    g^k(u)`` for every ``k >= K``.
    """
    s = _up(float(np.max(g_cut / v)))
    delta = _up(float(np.expm1(s) / s)) if s > 0.0 else 1.0
    return s, delta, _up(delta * rho_v)


@dataclass
class MixingBoundReport:
    """Numeric covariance-decay bounds on a grid of lags.

    ``bounds[t]`` dominates the covariance between any pair of bounded count
    functionals of the past and of the window starting ``lags[t]`` later;
    ``truncation[t]`` is the certified, already-included series remainder,
    and ``generations`` the cut ``K`` of the finite ``(k, l)`` grid.
    """

    beta: float
    gamma: float
    p: float
    q: float
    r: float
    nu: float
    c1_p: float
    c1_q: float
    c1_pair: float
    cert: ContractionCert
    lags: np.ndarray
    bounds: np.ndarray
    truncation: np.ndarray
    generations: int

    to_dict = to_json


def _max_product_sum(a1, b1, a2, b2) -> float:
    """``sum_{k, l} max(a1_k b1_l, a2_k b2_l)`` for nonnegative vectors, in
    ``O(K log K)`` time and ``O(K)`` memory.

    For each ``k`` the first product is the larger exactly for the ``l``
    with ``b2_l / b1_l <= a1_k / a2_k``, a prefix of the ``l`` sorted by that
    ratio, so prefix sums of ``b1`` and suffix sums of ``b2`` give the row.
    A ``0 / 0`` ratio, where both products vanish, is taken as 0, and one
    past the float range as infinite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.nan_to_num(b2 / b1, nan=0.0, posinf=np.inf)
        split = np.nan_to_num(a1 / a2, nan=0.0, posinf=np.inf)
    order = np.argsort(ratio)
    first = np.concatenate([[0.0], np.cumsum(b1[order])])
    second = np.concatenate([np.cumsum(b2[order][::-1])[::-1], [0.0]])
    n = np.searchsorted(ratio[order], split, side="right")
    return float(a1 @ first[n] + a2 @ second[n])


def _assemble(model: HawkesModel, cert: ContractionCert, gamma: float, terms,
              k_cut: int) -> tuple[float, float]:
    """The bound's ``eta``-weighted double series over the finite ``(k, l)``
    grid up to ``k_cut`` generations, and the certified geometric tails of
    the terms past it: ``(finite, truncation)``.

    ``cert`` is the contraction certificate of the reproduction matrix, and
    ``terms`` holds the exponent and ``c1`` constant of each of the three
    factors, ``((p, c1_p), (q, c1_q), (pair, c1_pair))``.

    The tails decay at the rate of the iterates themselves.  With the
    Perron weights ``v, rho_v`` of :func:`_perron_weights` and ``s, delta,
    rate`` of :func:`_tail_rate` at the cut ``K``, every ``k > K`` has
    ``e^{g^k(u)_z} - 1 <= delta s v_z rate**(k - K)`` and ``(M^k)_{zi} <=
    rho_v**k v_z / v_i``.  Raises :class:`NumericError` where ``rate >= 1``
    or the weighted tail series do not contract yet at this cut.
    """
    (p, c1_p), (q, c1_q), (pair, c1_pair) = terms
    m = model.reproduction
    d = model.d
    iters = _g_iterates(m, cert.u, k_cut)
    lap_minus1 = np.expm1(iters)  # exp(g^k(u)_z) - 1, shape (k_cut+1, d)
    v, rho_v = _perron_weights(m, cert.rho)
    s, delta, rate = _tail_rate(v, rho_v, iters[k_cut])
    if rate >= 1.0:
        raise NumericError(f"iterate tail rate {rate:.6g} >= 1 at cut {k_cut}")

    weight_l = np.arange(k_cut + 1) ** (1.0 + gamma)
    weight_l[0] = 0.0  # the ancestor generation never reaches the far window

    mk = np.empty((k_cut + 1, d, d))
    mk[0] = np.eye(d)
    for k in range(1, k_cut + 1):
        mk[k] = mk[k - 1] @ m

    def series_tail(lin, expo, c1, w):
        return _poly_geom_tail(k_cut, w, rate ** (1.0 / expo),
                               c1 * lin ** (1.0 / expo))

    total_finite = np.zeros(d)
    total_trunc = np.zeros(d)
    for z0 in range(d):
        lin = delta * s * v[z0]  # e^{g^k(u)_z0} - 1 <= lin rate^(k - K)
        a1_tail = series_tail(lin, p, c1_p, 0.0)
        b1_tail = series_tail(lin, q, c1_q, 1.0 + gamma)
        b2_tail = series_tail(lin, pair, c1_pair, 1.0 + gamma)
        a1 = c1_p * lap_minus1[:, z0] ** (1.0 / p)
        b1 = c1_q * lap_minus1[:, z0] ** (1.0 / q) * weight_l
        b2 = c1_pair * lap_minus1[:, z0] ** (1.0 / pair) * weight_l
        fin = 0.0
        trunc = 0.0
        for i in range(d):
            a2 = mk[:, z0, i]
            fin += _max_product_sum(a1, b1, a2, b2)
            mean_tail = _poly_geom_tail(k_cut, 0.0, rho_v,
                                        rho_v**k_cut * v[z0] / v[i])
            # outside the finite grid, max(x, y) <= x + y
            trunc += (
                a1_tail * (b1.sum() + b1_tail)
                + a1.sum() * b1_tail
                + mean_tail * (b2.sum() + b2_tail)
                + a2.sum() * b2_tail
            )
        total_finite[z0] = d * fin
        total_trunc[z0] = d * trunc
    return float(model.eta @ total_finite), float(model.eta @ total_trunc)


def check_exponents(model: HawkesModel, beta: float, gamma: float) -> None:
    """Refuse exponents of the decay bound that are not real numbers
    (:func:`~hawkesmix.errors.real_number`) with ``0 < gamma < beta``, and
    a model that :meth:`HawkesModel.validate` refuses at ``beta``: one that
    is not subcritical or lacks a finite kernel moment of order ``1 +
    beta``."""
    b, g = real_number("beta", beta), real_number("gamma", gamma)
    if not 0.0 < g < b:
        raise HypothesisError(f"need 0 < gamma < beta, got gamma={gamma}, beta={beta}")
    model.validate(b)


def mixing_bound(model: HawkesModel, beta: float, gamma: float,
                 lags: list[float]) -> MixingBoundReport:
    """Evaluate the covariance-decay bound at the given lags.

    The bound integrates, over immigrant arrival locations, a double series
    over ancestor and offspring generations.  Each ``(k, l)`` term is the
    larger of two branches: a three-factor Hoelder product of generation
    tail sums with the arrival tail raised to ``1/r``, and a mean-times-tail
    product covering the product-of-expectations part of the covariance.
    Conjugate exponents are ``r = (1+beta)/(1+gamma)`` and ``p = q =
    2(1+beta)/(beta-gamma)``.  The immigrant-location integral has the
    closed form ``tau**(-gamma) / gamma``, so every reported bound scales
    exactly like ``tau**(-gamma)``.

    The series is summed over generations up to a cut ``K`` and the rest
    is bounded by :func:`_assemble`'s certified tails, which decay at the
    rate of the Laplace iterates.  ``K`` starts at ``max(k0 + 1, 8)`` and
    grows by half until those tails are at most 0.5% of the bound; the
    report's ``generations`` is the ``K`` used.

    Parameters
    ----------
    model : HawkesModel
        Subcritical model whose kernels have a finite moment of order
        ``1 + beta``.
    beta : float
        Delay-moment exponent, ``beta > gamma``.
    gamma : float
        Decay exponent of the resulting bound, ``0 < gamma < beta``.
    lags : array_like
        Strictly positive separations at which to evaluate the bound.

    Raises
    ------
    HypothesisError
        If the exponents are inadmissible or a kernel moment is infinite.
    NumericError
        If the tails are not below 0.5% of the bound by the cap of 4000
        generations; the message names the last cut and its tail rate.
    """
    check_exponents(model, beta, gamma)
    # an integer beyond the float range reads as inf, which is refused
    lags = real_numbers("lags", lags)
    if lags.size == 0 or not np.all(np.isfinite(lags) & (lags > 0.0)):
        raise ValueError("lags must be nonempty and strictly positive")
    nu = model.delay_moment(1.0 + beta)
    cert = contraction_certificate(model.reproduction)

    p = 2.0 * (1.0 + beta) / (beta - gamma)
    q = p
    r = (1.0 + beta) / (1.0 + gamma)
    pair = (1.0 + beta) / (beta - gamma)  # conjugate of r alone
    u_i = float(np.min(cert.u))
    c1_p = c1_constant(u_i, p)
    c1_q = c1_constant(u_i, q)
    c1_pair = c1_constant(u_i, pair)

    # grow the cut until the weighted tail series contract and the certified
    # remainder is a sub-percent share of the reported bound
    terms = ((p, c1_p), (q, c1_q), (pair, c1_pair))
    k_cut = max(cert.k0 + 1, 8)
    eta_weight = trunc_weight = None
    while True:
        try:
            eta_weight, trunc_weight = _assemble(model, cert, gamma, terms,
                                                 k_cut)
        except NumericError:
            pass
        else:
            if trunc_weight <= 0.005 * (eta_weight + trunc_weight):
                break
        if k_cut >= _MAX_GENERATIONS:
            m = model.reproduction
            rate = _tail_rate(*_perron_weights(m, cert.rho),
                              _g_iterates(m, cert.u, k_cut)[k_cut])[2]
            raise NumericError(
                f"generation series truncation failed to converge: at the "
                f"last cut, {k_cut} generations, the iterate tail rate is "
                f"{rate:.6g}")
        k_cut = min(_MAX_GENERATIONS, max(k_cut + 8, int(1.5 * k_cut)))
    shape = nu ** (1.0 / r) * lags ** (-gamma) / gamma
    bounds = (eta_weight + trunc_weight) * shape
    truncation = trunc_weight * shape
    return MixingBoundReport(
        beta=beta,
        gamma=gamma,
        p=p,
        q=q,
        r=r,
        nu=nu,
        c1_p=c1_p,
        c1_q=c1_q,
        c1_pair=c1_pair,
        cert=cert,
        lags=lags,
        bounds=bounds,
        truncation=truncation,
        generations=k_cut,
    )


def simulate_generations(m, ancestor: int, k_max: int, n_runs: int,
                         seed=None) -> np.ndarray:
    """Monte Carlo generation sizes of the multitype Poisson Galton-Watson tree.

    ``seed`` (an integer, SeedSequence or generator) is the random stream.
    Returns an integer array of shape ``(n_runs, k_max + 1, d)``.
    """
    m = nonnegative_matrix(m)
    d = m.shape[0]
    require_index(d, ancestor=ancestor)
    require_integer(k_max=k_max, n_runs=n_runs)
    gen = np.random.default_rng(require_seed(seed))
    out = np.zeros((n_runs, k_max + 1, d), dtype=np.int64)
    out[:, 0, ancestor] = 1
    for k in range(1, k_max + 1):
        lam = out[:, k - 1, :].astype(float) @ m
        out[:, k, :] = gen.poisson(lam)
    return out
