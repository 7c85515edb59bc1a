"""Bartlett spectral density and long-run variances of centered statistics.

The spectral density of a stationary multivariate Hawkes process is

    gamma(xi) = (I - Ht(xi)^T)^{-1} diag(m) (I - conj(Ht(xi)))^{-1},

where ``Ht(xi)`` collects the kernel Fourier transforms and ``m`` the mean
intensities.  Variances of centered linear statistics are integrals of
window transforms against ``gamma``.  Writing ``gamma = diag(m) + G``
splits every such integral into a part that Plancherel evaluates exactly in
the time domain and a coupling part whose integrand decays fast enough for
panel quadrature with a certified closed-form tail.  Variances and count
covariances share one block loop and one Filon-type panel rule, which takes
a vector of carriers: exact for the oscillatory carrier of a count
covariance and for the carriers of a variance profile, and Gauss at
carrier 0.  A profile with constant weights writes its window transform
``(t sinc(xi t))^2`` as ``(1 - cos 2 pi xi t) / (2 pi^2 xi^2)`` past a short
head, so one grid of ``G`` serves every time ``t`` as a carrier, and the
panels there need not resolve ``1 / t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import spherical_jn
from .errors import (HypothesisError, NumericError, require_index,
                     require_integer, to_json)
from .model import HawkesModel
from .testfunctions import TestFunction

__all__ = [
    "fourier_matrix",
    "SpectrumMatrix",
    "bartlett_density",
    "bartlett_grid",
    "variance_profile",
    "variance_ST",
    "asymptotic_variance_const",
    "PeriodicVariance",
    "asymptotic_variance_periodic",
    "cov_counts",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)
# row k maps Gauss nodal values to the degree-k Legendre coefficient of the
# unique degree-7 interpolant (exact because the rule integrates degree 15)
_TO_LEGENDRE = (
    (2.0 * np.arange(8) + 1.0) / 2.0
)[:, None] * np.polynomial.legendre.legvander(_NODES, 7).T * _WEIGHTS[None, :]

_PANELS_PER_BLOCK = 2048
# the constant-weight profile: panels of the direct head rule, and cells of
# the (panels, times) carrier arrays of one tail block, about 1 MB each
_HEAD_PANELS = 256
_TAIL_CELLS = 64_000
_XI_CAP = 1e5


def fourier_matrix(model: HawkesModel, xi) -> np.ndarray:
    """Kernel transform matrix with entry ``(i, j)`` equal to ``Fh_ij(xi)``.

    For array ``xi`` of shape ``(n,)`` returns shape ``(n, d, d)``.
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    pts = np.atleast_1d(xi)
    d = model.d
    out = np.empty((pts.size, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[:, i, j] = model.kernels[i][j].fourier(pts)
    return out[0] if scalar else out


def _transfer_grid(model: HawkesModel, xis: np.ndarray) -> np.ndarray:
    """Batched ``(I - Ht(xi)^T)^{-1}``; invertible whenever the model is
    subcritical since the entrywise modulus of ``Ht`` is dominated by the
    reproduction matrix.  For ``d = 1`` it is ``1 / (1 - Ht)``."""
    ht = fourier_matrix(model, xis)
    if model.d == 1:
        return 1.0 / (1.0 - ht)
    eye = np.eye(model.d)
    return np.linalg.inv(eye[None, :, :] - np.swapaxes(ht, -1, -2))


def bartlett_grid(model: HawkesModel, xis) -> np.ndarray:
    """Spectral density matrices on a frequency grid, shape ``(n, d, d)``."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    a = _transfer_grid(model, xis)
    m = model.mean_intensity
    if model.d == 1:
        return (m[0] * (a.real**2 + a.imag**2)).astype(complex)
    return (a * m[None, None, :]) @ np.conj(np.swapaxes(a, -1, -2))


@dataclass(frozen=True)
class SpectrumMatrix:
    """Value of the Bartlett density at one frequency, or a stack of them:
    ``xi`` of shape ``(n,)`` with ``value`` of shape ``(n, d, d)``."""

    xi: float | np.ndarray
    value: np.ndarray

    def _adjoint(self) -> np.ndarray:
        return self.value.conj().swapaxes(-1, -2)

    def hermitian_defect(self) -> float:
        """Largest entry of ``|value - value^H|`` over the stack."""
        return float(np.max(np.abs(self.value - self._adjoint())))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian parts over the stack."""
        sym = 0.5 * (self.value + self._adjoint())
        return float(np.min(np.linalg.eigvalsh(sym)))

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "real": self.value.real.tolist(),
            "imag": self.value.imag.tolist(),
        }


def bartlett_density(model: HawkesModel, xi: float) -> SpectrumMatrix:
    """Bartlett spectral density matrix ``gamma(xi)``.

    Parameters
    ----------
    model : HawkesModel
        Subcritical model.
    xi : float
        Frequency in cycles per unit time.

    Returns
    -------
    SpectrumMatrix
        Hermitian positive semidefinite ``d x d`` matrix; at ``xi = 0`` it
        reproduces the long-run covariance density, and for a model without
        excitation it reduces to ``diag(eta)``.
    """
    model.validate()
    return SpectrumMatrix(float(xi), bartlett_grid(model, float(xi))[0])


def _g_grid(model: HawkesModel, xis: np.ndarray) -> np.ndarray:
    """Coupling part ``G(xi) = gamma(xi) - diag(m)``."""
    gam = bartlett_grid(model, xis)
    d = model.d
    idx = np.arange(d)
    gam[:, idx, idx] -= model.mean_intensity[None, :]
    return gam


def _envelope_consts(model: HawkesModel) -> tuple[float, float]:
    """Constants ``(ah, dn)`` with ``||Ht(xi)||_2 <= ah / xi`` (via the
    Frobenius norm of the kernel envelope constants) and
    ``dn = ||diag(m)||_2``."""
    consts = np.array(
        [[k.fourier_envelope() for k in row] for row in model.kernels]
    )
    return float(np.sqrt(np.sum(consts**2))), float(np.max(model.mean_intensity))


def _g_norm_const(model: HawkesModel, xi_from: float) -> float:
    """Constant ``kg`` with ``||G(xi)||_2 <= kg / xi`` for ``xi >= xi_from``.

    Follows from the Neumann expansion of the transfer matrix: with
    ``a = ah / xi <= 1/2``, the deviation ``R`` of the transfer matrix from
    the identity has ``||R|| <= a / (1 - a)``, and
    ``G = R D + D R^H + R D R^H``.
    """
    ah, dn = _envelope_consts(model)
    if ah == 0.0:
        return 0.0
    a0 = ah / xi_from
    if a0 > 0.5:
        raise ValueError("certified tail needs xi_from >= 2 * envelope constant")
    return dn * ah * (2.0 / (1.0 - a0) + a0 / (1.0 - a0) ** 2)


def _check_tolerances(rel_tol: float, abs_tol: float) -> None:
    tols = (rel_tol, abs_tol)
    if not (np.all(np.isfinite(tols)) and min(tols) >= 0.0 and max(tols) > 0.0):
        raise ValueError("tolerances must be finite, >= 0 and not both 0, "
                         f"got rel_tol={rel_tol}, abs_tol={abs_tol}")


def _panel_points(width: float, start_panel: int, n_panels: int):
    edges = width * (start_panel + np.arange(n_panels))
    centers = edges + 0.5 * width
    xis = (centers[:, None] + 0.5 * width * _NODES[None, :]).ravel()
    return xis


def _panel_rule(width: float, carriers=0.0):
    """Filon rule for ``vals(xi) exp(2i pi c xi)`` on panels of ``width``,
    one integral per carrier ``c`` in ``carriers``: exact carrier moments
    against each panel's degree-7 Legendre interpolant, which at carrier 0
    is the Gauss rule bit for bit.  Returns ``integrate(vals, start_panel)``,
    twice the real part of the integrals over the panels from
    ``start_panel`` sampled at :func:`_panel_points`, shaped like
    ``carriers``."""
    shape = np.shape(carriers)
    carriers = np.ravel(carriers).astype(float)
    half = 0.5 * width
    c = np.abs(2.0 * np.pi * carriers * half)
    order = np.arange(8)[:, None]
    moments = 2.0 * (1j ** order) * spherical_jn(7, c)
    moments[:, carriers < 0.0] = np.conj(moments[:, carriers < 0.0])
    weights = _TO_LEGENDRE.T @ moments
    oscillating = bool(np.any(carriers != 0.0))
    if not oscillating:
        weights = np.ascontiguousarray(weights.real)

    def integrate(vals: np.ndarray, start_panel: int):
        sums = vals.reshape(-1, 8) @ weights
        if oscillating:
            centers = width * (start_panel + np.arange(sums.shape[0])) + half
            phases = 2j * np.pi * carriers * centers[:, None]
            sums *= np.exp(phases, out=phases)
        return (2.0 * half * sums.sum(axis=0).real).reshape(shape)[()]

    return integrate


def _quadrature(name: str, model: HawkesModel, width: float, panel: int,
                xi_min: float, base, block, sums, rel_tol: float,
                abs_tol: float, per_block: int = _PANELS_PER_BLOCK
                ) -> np.ndarray:
    """``base`` plus the coupling integrals past ``panel``, one per statistic.

    Adds ``block(xis, g, panel)`` over blocks of ``per_block`` panels of
    ``width``, one ``G`` grid each, until past ``xi_min`` the certified
    tail ``2 kg (s_aa / (2 xi^2) + 2 s_ab / (3 xi^3) + s_bb / (4 xi^4))``
    of the envelope sums drops to ``max(rel_tol * min |value|, abs_tol)``;
    past ``_XI_CAP`` it raises :class:`NumericError`.
    """
    s_aa, s_ab, s_bb = sums
    total = np.zeros(np.shape(base))
    while True:
        xis = _panel_points(width, panel, per_block)
        total += block(xis, _g_grid(model, xis), panel)
        panel += per_block
        xi = panel * width
        if xi < xi_min:
            continue
        kg = _g_norm_const(model, xi)
        tail = 2.0 * kg * (s_aa / (2.0 * xi**2) + 2.0 * s_ab / (3.0 * xi**3)
                           + s_bb / (4.0 * xi**4))
        value = base + total
        smallest = float(np.min(np.abs(value)))
        if tail <= max(rel_tol * smallest, abs_tol):
            return value
        if xi > _XI_CAP:
            raise NumericError(
                f"{name} quadrature did not converge: range {xi:.3g}, "
                f"tail bound {tail:.3g}, smallest |value| {smallest:.3g}"
            )


def variance_profile(model: HawkesModel, f: TestFunction,
                     horizons: list[float], *, rel_tol: float = 1e-6,
                     abs_tol: float = 0.0) -> np.ndarray:
    """Variances ``sigma_t^2`` of the centered statistic on ``[0, t]`` for
    each ``t`` in ``horizons``, sharing one spectral grid across the
    profile.

    The ``diag(m)`` part of the spectrum contributes
    ``sum_i m_i int_0^t f_i^2`` exactly; the coupling part is integrated by
    composite 8-point panels, growing the frequency range until a
    closed-form tail bound drops below ``max(rel_tol * value, abs_tol)``
    for every requested ``t``.

    For general components the panel width resolves the window-transform
    oscillation at the largest ``t``, and each ``t`` has its own windowed
    transforms.  When every component is constant, one real quadratic form
    ``q`` of ``G`` serves every ``t``, and the frequency axis is split:

    * head ``[0, xi0]``, the first 256 of those fine panels: the same
      direct Gauss rule on ``(t sinc(xi t))^2 q`` for each ``t``;
    * tail past ``xi0``: ``(t sinc(xi t))^2 = (1 - cos 2 pi xi t) / (2 pi^2
      xi^2)``, so per block one Gauss sum of ``q / (2 pi^2 xi^2)`` and one
      Filon sum with carriers ``ts`` give every ``t``.  The panels are
      ``xi0 / n`` wide, for the smallest ``n >= 4`` that makes them at most
      ``1 / (3 (mean delay + 1))``: they resolve ``1 / xi^2`` and the
      kernel memory, not the horizon.  Blocks hold 64 panels, fewer past
      1000 times, which bounds the ``(panels, times)`` carrier arrays.

    Raises
    ------
    NumericError
        If the tail bound fails to meet the tolerance before the frequency
        cap, with the reached range in the message.
    """
    _check_tolerances(rel_tol, abs_tol)
    summary = model.validate()
    ts = np.asarray(horizons, dtype=float)
    if ts.size == 0 or not np.all(np.isfinite(ts) & (ts > 0.0)):
        raise ValueError("profile horizons must be nonempty, finite and "
                         "strictly positive")
    m = summary.mean_intensity
    ncomp = len(f)
    if ncomp != model.d:
        raise ValueError("test function dimension does not match the model")

    base = np.zeros(ts.size)
    for r, t in enumerate(ts):
        base[r] = sum(m[i] * f[i].squared_integral(t) for i in range(ncomp))

    ah, _ = _envelope_consts(model)
    if ah == 0.0:
        return base

    horizon = float(np.max(ts))
    memory = model.delay_moment(1.0) + 1.0
    width = 1.0 / (3.0 * (horizon + memory))
    envs = [f[i].envelope(horizon) for i in range(ncomp)]
    xi_min = max(2.0 * ah, max(e.xi_min for e in envs), 8.0 * width)
    sums = (sum(e.a**2 for e in envs), sum(e.a * e.b for e in envs),
            sum(e.b**2 for e in envs))

    rule = _panel_rule(width)
    weights = f.constant_weights()
    if weights is None:
        def block(xis, g, panel):
            out = []
            for t in ts:
                w = np.array([c.fourier_window(xis, t) for c in f.components],
                             dtype=complex)
                quad = np.einsum("ip,pij,jp->p", w, g, np.conj(w),
                                 optimize=True)
                out.append(rule(quad.real, panel))
            return out

        return _quadrature("variance", model, width, 0, xi_min, base, block,
                           sums, rel_tol, abs_tol)

    # all components share the plain [0, t] window, so one real quadratic
    # form q of G serves every t
    def form(g):
        return np.einsum("i,pij,j->p", weights, g, weights,
                         optimize=True).real

    # head [0, xi0]: the direct rule, whose width resolves sinc(xi t)
    xis = _panel_points(width, 0, _HEAD_PANELS)
    q = form(_g_grid(model, xis))
    head = np.array([rule((t * np.sinc(xis * t)) ** 2 * q, 0) for t in ts])

    # tail: (t sinc(xi t))^2 = (1 - cos 2 pi xi t) / (2 pi^2 xi^2), so one
    # Gauss sum and one Filon sum per carrier t of the smooth q / xi^2,
    # on panels that resolve only 1 / xi^2 and the kernel memory
    xi0 = _HEAD_PANELS * width
    start = max(4, int(np.ceil(3.0 * memory * xi0)))
    tail_width = xi0 / start
    flat, waves = _panel_rule(tail_width), _panel_rule(tail_width, ts)

    def tail_block(xis, g, panel):
        vals = form(g) / (2.0 * np.pi**2 * xis**2)
        return flat(vals, panel) - waves(vals, panel)

    per_block = max(1, _TAIL_CELLS // max(ts.size, 1000))
    return _quadrature("variance", model, tail_width, start, xi_min,
                       base + head, tail_block, sums, rel_tol, abs_tol,
                       per_block=per_block)


def variance_ST(model: HawkesModel, f: TestFunction, horizon: float,
                rel_tol: float = 1e-6, abs_tol: float = 0.0) -> float:
    """Variance of the centered statistic ``S_T`` on ``[0, horizon]``.

    Evaluates ``sum_ij int Ff_i conj(Ff_j) gamma_ij`` with the windowed
    transforms of ``f``; see :func:`variance_profile` for the method.
    """
    return float(variance_profile(model, f, np.array([horizon]),
                                  rel_tol=rel_tol, abs_tol=abs_tol)[0])


def asymptotic_variance_const(model: HawkesModel, weights) -> float:
    """Long-run variance slope ``k^T gamma(0) k`` for asymptotically constant
    statistics: ``Var(S_T) = T k^T gamma(0) k + o(T)``."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (model.d,):
        raise ValueError("weight vector length must equal the model dimension")
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"weights must be finite, got {weights}")
    gam0 = bartlett_grid(model, 0.0)[0].real
    return float(weights @ gam0 @ weights)


@dataclass(frozen=True)
class PeriodicVariance:
    """Long-run variance slope for a periodic statistic, with the certified
    magnitude of the discarded high-frequency terms."""

    value: float
    tail_estimate: float
    n_terms: int

    def __float__(self) -> float:
        return self.value

    to_dict = to_json


def asymptotic_variance_periodic(model: HawkesModel, f: TestFunction,
                                 period: float, n_max: int = 64) -> PeriodicVariance:
    """Long-run variance slope for periodic components:
    ``(1/period^2) sum_{|n| <= n_max} sum_ij Ff_i(n/p) conj(Ff_j(n/p))
    gamma_ij(n/p)`` with the one-period window transforms.

    Raises
    ------
    HypothesisError
        If the components sum to zero mean over the period; the asymptotic
        formula degenerates there.
    ValueError
        If ``n_max`` is not an integer ``>= 1`` or is too small for a
        certified tail estimate.
    """
    model.validate()
    if not (np.isfinite(period) and period > 0.0):
        raise ValueError(f"period must be positive and finite, got {period}")
    require_integer(1, n_max=n_max)
    ncomp = len(f)
    if ncomp != model.d:
        raise ValueError("test function dimension does not match the model")
    total_mean = sum(f[i].integral(period) for i in range(ncomp))
    if abs(total_mean) < 1e-12 * period:
        raise HypothesisError(
            "periodic statistic has zero mean over the period; "
            "the long-run variance slope formula degenerates"
        )

    freqs = np.arange(-n_max, n_max + 1) / period
    w = np.empty((ncomp, freqs.size), dtype=complex)
    for i in range(ncomp):
        w[i] = f[i].fourier_window(freqs, period)
    gam = bartlett_grid(model, freqs)
    value = float(
        np.real(np.einsum("ip,pij,jp->", w, gam, np.conj(w), optimize=True))
    ) / period**2

    # discarded |n| > n_max terms, bounded through the window envelopes and a
    # uniform spectral norm bound past the cut
    envs = [f[i].envelope(period) for i in range(ncomp)]
    xi_cut = n_max / period
    ah, dn = _envelope_consts(model)
    if xi_cut <= max(2.0 * ah, max(e.xi_min for e in envs)):
        raise ValueError("n_max too small for a certified tail estimate")
    gam_sup = dn / (1.0 - ah / xi_cut) ** 2
    p_a = sum(e.a for e in envs) * period
    p_b = sum(e.b for e in envs) * period**2
    # sum_{n > n_max} (p_a/n + p_b/n^2)^2 bounded by the integral comparison
    n_cut = xi_cut * period
    tail_windows = p_a**2 / n_cut + p_a * p_b / n_cut**2 + p_b**2 / (3.0 * n_cut**3)
    tail = 2.0 * gam_sup * tail_windows / period**2
    return PeriodicVariance(value, tail, n_max)


def cov_counts(model: HawkesModel, i: int, j: int, window_a, window_b,
               rel_tol: float = 1e-6, abs_tol: float = 0.0) -> float:
    """Covariance ``Cov(N_i(A), N_j(B))`` for half-open intervals.

    The ``diag(m)`` part contributes ``m_i |A intersect B|`` exactly when
    ``i = j``.  The coupling part is an oscillatory integral whose carrier
    frequency equals the separation of the window centers; a Filon-type rule
    removes that carrier so panel width only needs to resolve the window
    lengths and the kernel memory, keeping the cost flat in the lag.

    Parameters
    ----------
    model : HawkesModel
        Subcritical model.
    i, j : int
        Component indices.
    window_a, window_b : pair of floats
        Finite endpoints ``(a, b]`` with ``a < b``.
    rel_tol, abs_tol : float
        Tail targets; the tail must fall below ``max(rel_tol * |value so
        far|, abs_tol)``.  Supply ``abs_tol`` when the covariance itself is
        tiny, as at large lags.
    """
    _check_tolerances(rel_tol, abs_tol)
    summary = model.validate()
    d = model.d
    require_index(d, i=i, j=j)
    a_lo, a_hi = map(float, window_a)
    b_lo, b_hi = map(float, window_b)
    for name, lo, hi in (("A", a_lo, a_hi), ("B", b_lo, b_hi)):
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"window {name} = ({lo}, {hi}] must be finite "
                             "with positive length")
    len_a = a_hi - a_lo
    len_b = b_hi - b_lo

    overlap = max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))
    diag_part = summary.mean_intensity[i] * overlap if i == j else 0.0

    ah, _ = _envelope_consts(model)
    if ah == 0.0:
        return float(diag_part)

    # carrier = center separation; the residual integrand is smooth on the
    # scale of the window lengths and the kernel memory
    carrier = 0.5 * (b_lo + b_hi) - 0.5 * (a_lo + a_hi)
    bw = len_a + len_b + 4.0 * model.delay_moment(1.0) / (1.0 - model.rho)
    width = 1.0 / (3.0 * bw)

    def block(xis, g, panel, rule=_panel_rule(width, carrier)):
        smooth = len_a * len_b * np.sinc(xis * len_a) * np.sinc(xis * len_b)
        return rule(smooth * g[:, i, j], panel)

    # fractional smoothness of G at the origin for heavy-tailed kernels:
    # the first stretch gets eightfold finer panels, with their own rule
    start = int(np.ceil(2.0 / width))
    xis = _panel_points(width / 8.0, 0, 8 * start)
    fine = block(xis, _g_grid(model, xis), 0,
                 _panel_rule(width / 8.0, carrier))

    # each indicator window's transform is at most 1 / (pi xi)
    value = _quadrature("count-covariance", model, width, start, 2.0 * ah,
                        diag_part + fine, block, (1.0 / np.pi**2, 0.0, 0.0),
                        rel_tol, abs_tol)
    return float(value)
