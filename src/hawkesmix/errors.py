"""Exception types shared across the package, and the config checks.

Two failure modes are kept distinct: a model that violates the standing
hypotheses (subcriticality, finite kernel moments, admissible exponents) is
refused with :class:`HypothesisError`, while a computation that fails to
converge raises :class:`NumericError`.  The command line maps the former to
exit code 2 and everything else to exit code 1.

A JSON spec with an unknown or missing key, or a value of the wrong type,
raises :class:`ConfigError`.  The helpers after the exception types are the
readers that the constructors, the ``from_dict`` builders and the command
line share; ranges are left to the code that uses the values.  Kernels and
weight forms read their own fields by :func:`read_fields`, so Python and
JSON construction raise the same :class:`ConfigError`.

:func:`to_json` is the one serializer of the package's dataclasses: an
object's JSON shape is its dataclass fields, less those declared with
``metadata={"json": False}``, with arrays and tuples written as nested
lists and nested dataclasses and dicts converted the same way.
:func:`from_fields` checks kernel and weight-form spec keys by that rule.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


class HawkesError(Exception):
    """Base class for all package-specific errors."""


class HypothesisError(HawkesError):
    """A standing assumption of the theory is violated by the inputs."""


class SubcriticalityError(HypothesisError):
    """Spectral radius of the reproduction matrix is not below one."""


class InfiniteMomentError(HypothesisError):
    """A requested kernel moment does not exist."""


class NumericError(HawkesError):
    """An iterative computation failed to converge or overflowed."""


class ConfigError(HawkesError, ValueError):
    """A JSON spec has an unknown or missing key or a value of the wrong type.

    ``pointer`` is the JSON pointer of the offending value inside the spec
    handed to the builder that raised; each enclosing builder prefixes it
    with its own location through :func:`config_path`.
    """

    def __init__(self, pointer: str, reason: str):
        super().__init__(pointer, reason)
        self.pointer = pointer
        self.reason = reason

    def __str__(self) -> str:
        return f"config invalid at {self.pointer or '/'}: {self.reason}"


@contextmanager
def config_path(*path):
    """Prefix the pointer of a :class:`ConfigError` raised inside with ``path``."""
    try:
        yield
    except ConfigError as exc:
        exc.pointer = "".join(f"/{p}" for p in path) + exc.pointer
        raise


def check_fields(spec, required, optional=()) -> None:
    """Require an object holding every key of ``required`` and no key
    outside ``required`` and ``optional``."""
    if not isinstance(spec, dict):
        raise ConfigError("", f"expected an object, got {spec!r}")
    missing = [k for k in required if k not in spec]
    if missing:
        raise ConfigError("", f"missing fields {missing}")
    unknown = sorted(set(spec) - set(required) - set(optional))
    if unknown:
        raise ConfigError("", f"unknown fields {unknown}")


def _as_float(value: numbers.Real) -> float:
    """``float(value)``, where an integer beyond the float range, which
    ``float`` refuses with ``OverflowError``, reads as the infinity of its
    sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def finite_number(value, pointer: str = "") -> float:
    """``value`` as a float: any real number but a boolean, and finite."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        number = _as_float(value)
        if math.isfinite(number):
            return number
    raise ConfigError(pointer, f"expected a finite number, got {value!r}")


def array(value, pointer: str = ""):
    """``value`` itself, which must be a list, a tuple or a 1-d array."""
    if not (isinstance(value, (list, tuple))
            or isinstance(value, np.ndarray) and value.ndim == 1):
        raise ConfigError(pointer, f"expected an array, got {value!r}")
    return value


def number_list(value, pointer: str = "") -> list[float]:
    """``value`` as a list of floats, each checked by :func:`finite_number`."""
    return [finite_number(v, f"{pointer}/{n}")
            for n, v in enumerate(array(value, pointer))]


def read_fields(obj) -> None:
    """Replace each field of the frozen dataclass ``obj`` by its value read
    by its annotation: :func:`number_list`, as a tuple, for a ``tuple``
    field, :func:`finite_number` otherwise; a bad value raises
    :class:`ConfigError` at ``/<field>``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("tuple", tuple):
            value = tuple(number_list(value, f"/{f.name}"))
        else:
            value = finite_number(value, f"/{f.name}")
        object.__setattr__(obj, f.name, value)


def from_fields(spec, key: str, classes):
    """Build ``classes[spec[key]]`` from a spec shaped as :func:`to_json`
    writes it, plus the tag ``key``.

    The spec holds one key per dataclass field, required unless the field
    has a default.  The values go to the class as they are; its
    constructor reads them by :func:`read_fields`.
    """
    check_fields(spec, (key,), spec)  # the other keys are checked below
    name = spec[key]
    if not isinstance(name, str) or name not in classes:
        raise ConfigError(f"/{key}", f"unknown {key} {name!r}, expected one of "
                                     f"{sorted(classes)}")
    cls = classes[name]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    optional = [f.name for f in fields(cls) if f.default is not MISSING]
    check_fields(spec, [key, *required], optional)
    return cls(**{k: v for k, v in spec.items() if k != key})


def require_integer(minimum: int = 0, **params) -> None:
    """Raise ``ValueError`` naming the first parameter that is not an
    integer ``>= minimum``; booleans and integral floats fail too."""
    for name, value in params.items():
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, "
                             f"got {value!r}")


def real_number(name: str, value) -> float:
    """``value`` as a float, after raising ``ValueError`` under ``name`` if
    it is not a real number; booleans fail, and NaN and infinities pass.
    An integer beyond the float range reads as an infinity, so that the
    caller's range check refuses it by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return _as_float(value)


def real_numbers(name: str, values) -> np.ndarray:
    """``values`` as a one-dimensional float array: an integer or float
    array as it is, a single number or a 0-d array as an array of one,
    and any other sequence entry by entry through :func:`real_number`,
    each entry named ``name[k]``, so a string or a boolean is refused by
    name.  An array of more than one dimension is refused by name."""
    if isinstance(values, np.ndarray):
        if values.ndim > 1:
            raise ValueError(f"{name} must be one-dimensional, got shape "
                             f"{values.shape}")
        values = values.reshape(-1)
        if values.dtype.kind in "iuf":
            return values.astype(float)
    if isinstance(values, numbers.Real):
        return np.array([real_number(name, values)])
    return np.array([real_number(f"{name}[{k}]", v)
                     for k, v in enumerate(values)], dtype=float)


def require_seed(seed):
    """``seed`` itself, after refusing by name a negative integer and any
    other number that is not an integer; ``None``, a
    :class:`~numpy.random.SeedSequence` and a generator pass as they are."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if isinstance(seed, numbers.Number):
        require_integer(seed=seed)
    return seed


def require_index(d: int, **indices) -> None:
    """Raise ``ValueError`` unless each of ``indices`` is a component index
    in ``[0, d)``; a non-integer is refused before it is compared."""
    for name, value in indices.items():
        if isinstance(value, numbers.Integral) and not 0 <= value < d:
            raise ValueError(f"component index {value} out of range")
        require_integer(**{name: value})


def to_json(obj) -> dict:
    """The fields of dataclass ``obj`` as a JSON-ready dict.

    Fields declared with ``metadata={"json": False}`` are left out; arrays
    and tuples become nested lists, and nested dataclasses and dicts are
    converted the same way.  Dataclasses use it as ``to_dict = to_json``.
    """
    return {f.name: _json_value(getattr(obj, f.name))
            for f in fields(obj) if f.metadata.get("json", True)}


def _json_value(value):
    if is_dataclass(value):
        return to_json(value)
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value
