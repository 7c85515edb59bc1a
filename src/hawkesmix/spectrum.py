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
carrier 0.  The loop walks runs of panels of possibly different widths,
one ``G`` grid per block of panels.  A variance profile writes each weight
over atoms: the lines of the components that are finite sums of lines,
then each component that is not.  One direct rule evaluates the quadratic
form of the atoms' window transforms for every time at once.  It covers
the whole range when some component has no lines; otherwise it covers a
short head past the lines, and past it each line's window transform is in
closed form, so one grid of ``G`` serves every time ``t`` as a carrier.
The panels there need not resolve ``1 / t``: they double in width with
``xi`` up to the kernel memory scale, so their count grows like
``log T`` rather than ``T``.

A variance or covariance pairs ``conj(w_i) w_j`` with ``gamma_ij``, for
window transforms ``w`` taken with ``exp(-2 i pi xi s)``, since
``gamma_ij`` is the transform of ``Cov(dN_i(s + tau), dN_j(s))`` in
``tau``.

The certified tails bound ``G`` past the reached frequency: ``||G|| =
O(1 / xi)`` in general, and ``G_ii = O(1 / xi^2)`` when every kernel
declares a :attr:`~hawkesmix.kernels.Kernel.fourier_remainder`, since the
``h(0+) / (2 i pi xi)`` term of the transforms drops out of the diagonal.
A count covariance of one component with itself stops on the second
bound, every other integral on the first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._special import spherical_jn
from .errors import (HypothesisError, NumericError, real_number,
                     real_numbers, require_index, require_integer, to_json)
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

# the 8-point Gauss-Legendre rule on [-1, 1], as numpy's ``leggauss(8)``
# gives it; written out, because importing ``numpy.polynomial`` costs every
# process ~1.2 MB
_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])


def _legendre_rows(x: np.ndarray, deg: int) -> np.ndarray:
    """``P_k(x)`` in row ``k`` for ``k = 0..deg >= 1``, by the three-term
    recurrence ``k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}`` in the
    order of operations of numpy's ``legvander``, so bit for bit its
    values."""
    v = np.empty((deg + 1, x.size))
    v[0] = 1.0
    v[1] = x
    for k in range(2, deg + 1):
        v[k] = (v[k - 1] * x * (2 * k - 1) - v[k - 2] * (k - 1)) / k
    return v


# row k maps Gauss nodal values to the degree-k Legendre coefficient of the
# unique degree-7 interpolant (exact because the rule integrates degree 15)
_TO_LEGENDRE = (
    (2.0 * np.arange(8) + 1.0) / 2.0
)[:, None] * _legendre_rows(_NODES, 7) * _WEIGHTS[None, :]

# panels per G grid of a count covariance, 2048 points: its (points, d, d)
# temporaries stay cache-sized, and at d = 2 and 3 it ran fastest of 128 to
# 2048 panels
_PANELS_PER_BLOCK = 256
# the variance profile: the fewest panels of the direct head rule for
# lines (at width 1 / (3 (T + memory)), so the head ends near 5 / T and the
# tail bands take over), and cells of the (panels, lines, times) carrier
# arrays of one tail block, about 1 MB each; the (points, times, atoms)
# arrays of a direct block hold half as many
_HEAD_PANELS = 16
_BLOCK_CELLS = 64_000
_XI_CAP = 1e5
# the largest profile time: the direct rule forms t^2 times the coupling
# spectrum, which overflows the float range past about 1e150
_T_CAP = 1e100


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
    a0 = ah / xi_from
    if a0 > 0.5:
        raise ValueError("certified tail needs xi_from >= 2 * envelope constant")
    return dn * ah * (2.0 / (1.0 - a0) + a0 / (1.0 - a0) ** 2)


def _g_diag_const(model: HawkesModel, xi_from: float) -> float | None:
    """Constant ``k2`` with ``|G_ii(xi)| <= k2 / xi^2`` for every ``i`` and
    ``xi >= xi_from``, or None when some kernel declares no
    :attr:`~hawkesmix.kernels.Kernel.fourier_remainder`.

    With ``X = Ht(xi)^T``, ``R = X + X^2 (I - X)^{-1}`` and
    ``G = R D + D R^H + R D R^H``.  The ``h(0+) / (2 i pi xi)`` part of
    ``X D + D X^H`` is ``(H0^T D - D H0) / (2 i pi xi)``, whose diagonal is
    0; the rest of ``X`` has norm at most ``B_F / xi^2``, for ``B_F`` the
    Frobenius norm of the remainder constants, and with ``a = ah / xi``
    the other terms are at most ``a^2 / (1 - a)`` and ``a^2 / (1 - a)^2``
    times ``dn``.
    """
    remainders = [[k.fourier_remainder for k in row] for row in model.kernels]
    if any(b is None for row in remainders for b in row):
        return None
    ah, dn = _envelope_consts(model)
    a0 = ah / xi_from
    if a0 > 0.5:
        raise ValueError("certified tail needs xi_from >= 2 * envelope constant")
    b_f = float(np.sqrt(np.sum(np.square(remainders))))
    return dn * (2.0 * b_f + 2.0 * ah**2 / (1.0 - a0)
                 + ah**2 / (1.0 - a0) ** 2)


def _envelope_tail(model: HawkesModel, sums):
    """The certified tail ``2 kg (s_aa / (2 xi^2) + 2 s_ab / (3 xi^3) +
    s_bb / (4 xi^4))`` past ``xi`` of a variance whose window transforms
    have the envelope sums ``(s_aa, s_ab, s_bb)``, as a function of
    ``xi``."""
    s_aa, s_ab, s_bb = sums

    def tail(xi):
        kg = _g_norm_const(model, xi)
        return 2.0 * kg * (s_aa / (2.0 * xi**2) + 2.0 * s_ab / (3.0 * xi**3)
                           + s_bb / (4.0 * xi**4))

    return tail


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
    twice the complex integrals over the panels from ``start_panel`` of
    ``vals`` sampled at :func:`_panel_points`, one per trailing index of
    ``vals`` and per carrier, shaped ``vals.shape[1:] + carriers.shape``;
    callers take the real part."""
    shape = np.shape(carriers)
    carriers = np.ravel(carriers).astype(float)
    half = 0.5 * width
    oscillating = bool(np.any(carriers != 0.0))
    if oscillating:
        c = np.abs(2.0 * np.pi * carriers * half)
        order = np.arange(8)[:, None]
        moments = 2.0 * (1j ** order) * spherical_jn(7, c)
        moments[:, carriers < 0.0] = np.conj(moments[:, carriers < 0.0])
        weights = _TO_LEGENDRE.T @ moments
    else:
        # the moments at carrier 0 are [2, 0, ..., 0], which the Legendre
        # map takes to the Gauss weights, whatever the width
        weights = np.repeat(_WEIGHTS[:, None], carriers.size, axis=1)

    def integrate(vals: np.ndarray, start_panel: int):
        extra = vals.shape[1:]
        sums = np.tensordot(vals.reshape(-1, 8, *extra), weights, (1, 0))
        if oscillating:
            centers = width * (start_panel + np.arange(sums.shape[0])) + half
            phases = 2j * np.pi * carriers * centers[:, None]
            np.exp(phases, out=phases)
            sums *= np.expand_dims(phases, tuple(range(1, vals.ndim)))
        return (2.0 * half * sums.sum(axis=0)).reshape(extra + shape)[()]

    return integrate


def _rules(carriers=0.0):
    """``width -> _panel_rule(width, carriers)``, kept for the last width:
    a run, or one band of the line tail, spans several blocks."""
    return functools.lru_cache(maxsize=1)(
        lambda width: _panel_rule(width, carriers))


def _pieces(model: HawkesModel, runs, per_block: int):
    """Walk ``runs`` of panels, each ``(width, first_panel, count)`` with
    ``count`` possibly infinite, in blocks of ``per_block`` panels and one
    ``G`` grid per block.  Yields ``(xis, g, width, panel)`` per piece, the
    part of one run inside one block, so that a block may join the ends
    of several short runs; a block's arrays are freed before the next."""
    runs = iter(runs)
    run = next(runs, None)
    while run is not None:
        block = []
        room = per_block
        while room and run is not None:
            width, panel, count = run
            take = int(min(count, room))
            block.append((width, panel, take))
            room -= take
            run = ((width, panel + take, count - take) if count > take
                   else next(runs, None))
        xis = np.concatenate([_panel_points(*piece) for piece in block])
        g = _g_grid(model, xis)
        at = 0
        for width, panel, take in block:
            span = slice(at, at + 8 * take)
            at = span.stop
            yield xis[span], g[span], width, panel


def _stretch(model: HawkesModel, runs, per_block: int, block):
    """``block(xis, g, width, panel)`` summed over the finite ``runs``."""
    total = 0.0
    for piece in _pieces(model, runs, per_block):
        total = total + block(*piece)
    return total


def _quadrature(name: str, model: HawkesModel, runs, xi_min: float, base,
                block, tail, rel_tol: float, abs_tol: float,
                per_block: int = _PANELS_PER_BLOCK) -> np.ndarray:
    """``base`` plus the coupling integrals over ``runs``, one per statistic.

    Adds ``block(xis, g, width, panel)`` over the pieces of ``runs`` (see
    :func:`_pieces`), whose last run is infinite, until past ``xi_min`` the
    certified bound ``tail(xi)`` on what lies past the reached ``xi`` drops
    to ``max(rel_tol * min |value|, abs_tol)``; ``tail`` is only asked at
    ``xi >= xi_min``.  Past ``_XI_CAP`` it raises :class:`NumericError`.
    """
    total = np.zeros(np.shape(base))
    for xis, g, width, panel in _pieces(model, runs, per_block):
        total += block(xis, g, width, panel)
        xi = (panel + xis.size // 8) * width
        if xi < xi_min:
            continue
        bound = tail(xi)
        value = base + total
        smallest = float(np.min(np.abs(value)))
        if bound <= max(rel_tol * smallest, abs_tol):
            return value
        if xi > _XI_CAP:
            raise NumericError(
                f"{name} quadrature did not converge: range {xi:.3g}, "
                f"tail bound {bound:.3g}, smallest |value| {smallest:.3g}"
            )


def _line_tail_runs(xi0: float, memory: float):
    """Panel runs past ``xi0`` for the line tail, one band from ``xi`` to
    ``2 xi`` at a time: ``n = max(4, ceil(3 memory xi))`` panels ``xi / n``
    wide, which resolve ``1 / xi^2`` and, once ``n > 4``, the kernel
    memory.  Band ``[xi, 2 xi]`` starts at panel ``n`` of its width, so
    up to the memory scale the panel count grows like ``log(xi / xi0)``,
    and past it like ``xi``."""
    xi = xi0
    while True:
        n = max(4, math.ceil(3.0 * memory * xi))
        yield xi / n, n, n
        xi *= 2.0


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

    A time where every weight vanishes on ``[0, t]`` has variance 0
    exactly and takes no quadrature.

    Each component is a sum over atoms, ``f_i = sum_a coef[i, a] atom_a``:
    an atom is one line of the union ``nu`` of the components' lines
    ``f_i = sum_k C_ik exp(2 i pi nu_k s)``
    (:meth:`~hawkesmix.testfunctions.ComponentFunction.harmonics`), or one
    component without lines.  One form ``Q = coef^T conj(G) conj(coef)``
    per frequency serves every ``t``.  One direct rule evaluates ``b Q b^H``
    on ``(points, times, atoms)`` arrays, on panels whose width resolves
    the window-transform oscillation at the largest ``t``: a line atom has
    ``b_k = t exp(i pi nu_k t) sinc(x_k t)``, ``x_k = xi - nu_k``, and any
    other atom its component's window transform in the same phase,
    ``exp(i pi xi t) F(f_i 1_[0,t])(xi)``.  Blocks hold
    ``4000 / (n_t atoms)`` panels, at least one.

    * When some component has no lines, the direct rule runs from 0 until
      the tail bound is met.
    * Otherwise it covers the head ``[0, xi0]``, the first 16 panels or
      enough to reach ``4 max |nu|``.  Past ``xi0`` line ``k``'s window
      transform is ``(1 - exp(-2 i pi x_k t)) / (2 i pi x_k)``, so per
      panel ``K^2`` Gauss sums and ``K`` Filon sums with carriers ``-ts``
      give every ``t``, for ``K`` lines.  The tail panels resolve
      ``1 / xi^2`` and the kernel memory, not the horizon: from ``xi0``
      on, bands take ``xi`` to ``2 xi`` on ``n`` panels ``xi / n`` wide,
      for the smallest ``n >= 4`` that makes them at most
      ``1 / (3 (mean delay + 1))``, until the tail bound is met.  Blocks
      hold ``64 / K`` panels, several short bands each, fewer past 1000
      times, which bounds the carrier arrays.

    Times must lie in ``(0, 1e100]``: the direct rule forms ``t^2`` times
    the coupling spectrum, which would overflow past about ``1e150``.

    Raises
    ------
    NumericError
        If the tail bound fails to meet the tolerance before the frequency
        cap, with the reached range in the message.
    """
    _check_tolerances(rel_tol, abs_tol)
    summary = model.validate()
    # an integer beyond the float range reads as inf, past the cap as well
    ts = real_numbers("horizons", horizons)
    bad = ts[~((ts > 0.0) & (ts <= _T_CAP))]
    if ts.size == 0 or bad.size:
        raise ValueError("profile horizons must be nonempty, finite and "
                         f"strictly positive, at most {_T_CAP:g}"
                         + (f", got {bad[0]:g}" if bad.size else ""))
    m = summary.mean_intensity
    ncomp = len(f)
    if ncomp != model.d:
        raise ValueError("test function dimension does not match the model")

    base = sum(m[i] * f[i].squared_integral(ts) for i in range(ncomp))

    ah, _ = _envelope_consts(model)
    if ah == 0.0:
        return base
    # gamma(xi) is positive definite, so sigma_t^2 is 0 exactly where the
    # diag(m) part is, and such a time, whose relative target is 0, takes
    # no quadrature
    live = base > 0.0
    if not live.all():
        out = np.zeros(ts.shape)
        if live.any():
            out[live] = variance_profile(model, f, ts[live], rel_tol=rel_tol,
                                         abs_tol=abs_tol)
        return out

    horizon = float(np.max(ts))
    memory = model.delay_moment(1.0) + 1.0
    width = 1.0 / (3.0 * (horizon + memory))
    envs = [f[i].envelope(horizon) for i in range(ncomp)]
    xi_min = max(2.0 * ah, max(e.xi_min for e in envs), 8.0 * width)
    tail = _envelope_tail(model, (sum(e.a**2 for e in envs),
                                  sum(e.a * e.b for e in envs),
                                  sum(e.b**2 for e in envs)))

    # atoms: the union nu of the lines (not np.unique, which imports
    # numpy.ma, ~0.6 MB of resident memory), then each component without
    # lines, so that f_i = sum_a coef[i, a] atom_a and w^H G w = b Q b^H
    # with Q = coef^T conj(G) conj(coef)
    lines = [c.harmonics() for c in f.components]
    general = [i for i, h in enumerate(lines) if h is None]
    nu = np.array(sorted(set().union(*(h[0] for h in lines if h is not None))))
    coef = np.zeros((ncomp, nu.size + len(general)), dtype=complex)
    for i, h in enumerate(lines):
        if h is None:
            coef[i, nu.size + general.index(i)] = 1.0
        else:
            coef[i, np.searchsorted(nu, h[0])] = h[1]

    def form(g):
        return coef.T @ np.conj(g) @ np.conj(coef)

    # the direct rule, whose width resolves every window at every t, on
    # b Q b^H: a line atom has b_k = t e^{i pi nu_k t} sinc(x_k t) with
    # x_k = xi - nu_k, any other atom its component's window in the same
    # phase, e^{i pi xi t} F(f_i 1_[0,t])(xi)
    rule = _rules()
    scale = ts[:, None] * np.exp(1j * np.pi * ts[:, None] * nu)
    per_direct = max(1, _BLOCK_CELLS // (16 * ts.size * coef.shape[1]))

    def direct(xis, g, width, panel):
        b = np.empty((xis.size, ts.size, coef.shape[1]), dtype=complex)
        b[..., :nu.size] = np.sinc((xis[:, None] - nu)[:, None, :]
                                   * ts[:, None]) * scale
        for atom, i in enumerate(general, start=nu.size):
            np.multiply(np.exp(1j * np.pi * xis[:, None] * ts),
                        f[i].fourier_window(xis[:, None], ts), out=b[..., atom])
        vals = b @ form(g)
        vals *= np.conj(b, out=b)
        # atom by atom: numpy reduces a short last axis one cell at a time
        return rule(width)(sum(vals[..., a] for a in range(b.shape[2])).real,
                           panel)

    if general:
        return _quadrature("variance", model, [(width, 0, math.inf)], xi_min,
                           base, direct, tail, rel_tol, abs_tol,
                           per_block=per_direct)

    # lines only: the direct rule on the head [0, xi0], then the tail split
    head_panels = max(_HEAD_PANELS,
                      int(np.ceil(4.0 * np.max(np.abs(nu)) / width)))
    head = _stretch(model, [(width, 0, head_panels)], per_direct, direct)

    # tail: with Q'_kl = Q_kl / (4 pi^2 x_k x_l) the integrand is
    # Re[sum_kl Q'_kl (1 + e^{2 i pi (nu_k - nu_l) t})
    #    - 2 e^{-2 i pi xi t} sum_k e^{2 i pi nu_k t} sum_l Q'_kl]
    beats = 1.0 + np.exp(2j * np.pi * ts[:, None, None]
                         * (nu[:, None] - nu[None, :]))
    shifts = np.exp(2j * np.pi * ts[:, None] * nu)

    flat, waves = _rules(), _rules(-ts)

    def tail_block(xis, g, width, panel):
        x = xis[:, None] - nu
        q = form(g) / (4.0 * np.pi**2 * x[:, :, None] * x[:, None, :])
        gauss = flat(width)(q, panel)
        filon = waves(width)(q.sum(axis=2), panel)
        return (np.einsum("rkl,kl->r", beats, gauss)
                - 2.0 * np.einsum("rk,kr->r", shifts, filon)).real

    per_block = max(1, _BLOCK_CELLS // (max(ts.size, 1000) * nu.size))
    return _quadrature("variance", model,
                       _line_tail_runs(head_panels * width, memory), xi_min,
                       base + head, tail_block, tail, rel_tol, abs_tol,
                       per_block=per_block)


def variance_ST(model: HawkesModel, f: TestFunction, horizon: float,
                rel_tol: float = 1e-6, abs_tol: float = 0.0) -> float:
    """Variance of the centered statistic ``S_T`` on ``[0, horizon]``.

    Evaluates ``sum_ij int conj(Ff_i) Ff_j gamma_ij`` with the windowed
    transforms of ``f``; see :func:`variance_profile` for the method.
    """
    return float(variance_profile(model, f,
                                  [real_number("horizon", horizon)],
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
    ``(1/period^2) sum_{|n| <= n_max} sum_ij conj(Ff_i(n/p)) Ff_j(n/p)
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
        np.real(np.einsum("ip,pij,jp->", np.conj(w), gam, w, optimize=True))
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
    lengths and the kernel memory, keeping the cost flat in the lag.  The
    stretch up to frequency ~2 takes eightfold finer panels, in blocks like
    the rest.

    Each window transform is at most ``1 / (pi xi)``.  When ``i = j`` and
    every kernel declares a
    :attr:`~hawkesmix.kernels.Kernel.fourier_remainder`, the quadrature
    stops on the tail ``2 k2 / (3 pi^2 xi^3)``, from ``|G_ii| <= k2 /
    xi^2``; otherwise (``i != j``, or a uniform kernel) on ``kg / (pi^2
    xi^2)``, from ``||G|| <= kg / xi``.

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
    a_lo, a_hi = real_numbers("window_a", window_a).tolist()
    b_lo, b_hi = real_numbers("window_b", window_b).tolist()
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

    rule = _rules(carrier)

    def block(xis, g, width, panel):
        smooth = len_a * len_b * np.sinc(xis * len_a) * np.sinc(xis * len_b)
        return rule(width)(smooth * g[:, j, i], panel).real

    # fractional smoothness of G at the origin for heavy-tailed kernels:
    # the first stretch gets eightfold finer panels
    start = int(np.ceil(2.0 / width))
    fine = _stretch(model, [(width / 8.0, 0, 8 * start)], _PANELS_PER_BLOCK,
                    block)

    # each indicator window's transform is at most 1 / (pi xi), so past xi
    # the coupling part is at most 2 int_xi^inf |G_ij| / (pi x)^2 dx
    if i == j and _g_diag_const(model, 2.0 * ah) is not None:
        def tail(xi):
            return 2.0 * _g_diag_const(model, xi) / (3.0 * np.pi**2 * xi**3)
    else:
        def tail(xi):
            return _g_norm_const(model, xi) / (np.pi**2 * xi**2)

    value = _quadrature("count-covariance", model, [(width, start, math.inf)],
                        2.0 * ah, diag_part + fine, block, tail, rel_tol,
                        abs_tol)
    return float(value)
