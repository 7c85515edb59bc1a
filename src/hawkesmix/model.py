"""Multivariate Hawkes model definition and stationarity checks.

A model couples a vector of baseline rates ``eta`` with a ``d x d`` array of
kernels.  Entry ``(i, j)`` of the kernel array is the influence of component
``i`` on component ``j``, so the reproduction matrix ``M`` with
``M[i, j] = l1_norm(h[i][j])`` acts on row vectors of ancestor counts.  The
process is stationary and all moment formulas below apply exactly when the
Perron root of ``M`` is strictly below one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (NumericError, SubcriticalityError, array, check_fields,
                     config_path, number_list, to_json)
from .kernels import Kernel, ZeroKernel, kernel_from_dict

__all__ = [
    "HawkesModel",
    "ModelSummary",
    "spectral_radius",
    "model_from_dict",
    "load_model",
]


def spectral_radius(m: np.ndarray) -> float:
    """Perron root of a nonnegative square matrix.

    The largest eigenvalue modulus from a direct eigenvalue solve; unlike
    power iteration it needs no primitivity, so imprimitive matrices (whose
    dominant eigenvalues come in modulus tuples) are handled alike.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"m must be finite, got {m!r}")
    if np.any(m < 0.0):
        raise ValueError("reproduction matrices are nonnegative")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


@dataclass(frozen=True)
class ModelSummary:
    """Validated stationarity data: reproduction matrix, Perron root, rates."""

    reproduction: np.ndarray
    rho: float
    mean_intensity: np.ndarray

    to_dict = to_json


class HawkesModel:
    """Baseline rates plus a ``d x d`` kernel array.

    Parameters
    ----------
    eta : list, tuple or 1-d array of float
        Strictly positive baseline rates, length ``d``.
    kernels : sequence of sequence of Kernel
        ``kernels[i][j]`` is the kernel through which component ``i`` excites
        component ``j``.

    Attributes
    ----------
    active : tuple of tuple of (int, Kernel)
        ``active[i]`` holds the pairs ``(j, kernels[i][j])`` whose kernel
        has positive mass, by increasing ``j``.  Only these kernels move
        events, so every simulator, burn-in and moment reads this table.
    """

    def __init__(self, eta, kernels):
        eta = np.array(number_list(eta, "/eta"))
        if eta.size == 0:
            raise ValueError("eta must be a nonempty vector")
        if np.any(eta <= 0.0):
            raise ValueError("baseline rates must be strictly positive")
        d = eta.size
        kernels = [array(row, f"/kernels/{i}")
                   for i, row in enumerate(array(kernels, "/kernels"))]
        if len(kernels) != d or any(len(row) != d for row in kernels):
            raise ValueError(f"kernel array must be {d} x {d}")
        if not all(isinstance(k, Kernel) for row in kernels for k in row):
            raise TypeError("kernel array entries must be Kernel instances")
        self.eta = eta
        self.kernels = tuple(tuple(row) for row in kernels)
        self.active = tuple(
            tuple((j, k) for j, k in enumerate(row) if k.l1_norm > 0.0)
            for row in self.kernels
        )
        self.d = d
        self._rho = None
        self._mean = None

    @property
    def reproduction(self) -> np.ndarray:
        """Matrix of kernel masses ``M[i, j] = int h_ij``."""
        return np.array(
            [[k.l1_norm for k in row] for row in self.kernels], dtype=float
        )

    @property
    def rho(self) -> float:
        if self._rho is None:
            self._rho = spectral_radius(self.reproduction)
        return self._rho

    def _check_subcritical(self) -> None:
        if self.rho >= 1.0:
            raise SubcriticalityError(
                f"spectral radius {self.rho:.6g} >= 1; the process has no "
                "stationary version"
            )

    @property
    def mean_intensity(self) -> np.ndarray:
        """Stationary rates ``m`` solving ``(I - M^T) m = eta``."""
        if self._mean is None:
            self._check_subcritical()
            m = self.reproduction
            sol = np.linalg.solve(np.eye(self.d) - m.T, self.eta)
            if np.any(sol <= 0.0):
                raise NumericError("mean intensity solve produced a nonpositive rate")
            self._mean = sol
        return self._mean.copy()

    def validate(self, beta: float | None = None) -> ModelSummary:
        """Check stationarity and, optionally, delay-moment hypotheses.

        Parameters
        ----------
        beta : float, optional
            When given, it must be positive and finite, and every non-zero
            kernel must have a finite normalized moment of order
            ``1 + beta``.

        Returns
        -------
        ModelSummary

        Raises
        ------
        SubcriticalityError
            If the Perron root of the reproduction matrix is >= 1.
        InfiniteMomentError
            If ``beta`` is given and a kernel lacks the required moment.
        NumericError
            If that moment exceeds the float range.
        """
        if beta is not None and not beta > 0.0:
            raise ValueError(f"beta must be > 0, got {beta}")
        if beta is not None and not np.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
        self._check_subcritical()
        if beta is not None:
            self.delay_moment(1.0 + beta)
        return ModelSummary(self.reproduction, self.rho, self.mean_intensity)

    def delay_moment(self, p: float) -> float:
        """Worst normalized delay moment ``sup_ij int t**p h_ij / alpha_ij``.

        Only the kernels of :attr:`active` count; a model with no active
        kernel returns 0.
        """
        worst = 0.0
        for row in self.active:
            for _, k in row:
                worst = max(worst, k.moment(p))
        return worst

    def to_dict(self) -> dict:
        return {
            "eta": self.eta.tolist(),
            "kernels": [[k.to_dict() for k in row] for row in self.kernels],
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def model_from_dict(spec: dict) -> HawkesModel:
    """Build a model from ``{"eta": [...], "kernels": [[...], ...]}``.

    Key and type failures raise :class:`~hawkesmix.errors.ConfigError`
    with a JSON pointer into ``spec``, such as ``/kernels/0/1/beta``.
    """
    check_fields(spec, ("eta", "kernels"))
    kernels = []
    for i, row in enumerate(array(spec["kernels"], "/kernels")):
        kernels.append([])
        for j, k in enumerate(array(row, f"/kernels/{i}")):
            with config_path("kernels", i, j):
                kernels[i].append(kernel_from_dict(k))
    return HawkesModel(spec["eta"], kernels)


def load_model(path) -> HawkesModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def zero_coupling(d: int) -> list[list[Kernel]]:
    """A ``d x d`` array of zero kernels (independent Poisson components)."""
    return [[ZeroKernel() for _ in range(d)] for _ in range(d)]
