"""Exception types shared across the package, and the config checks.

Two failure modes are kept distinct: a model that violates the standing
hypotheses (subcriticality, finite kernel moments, admissible exponents) is
refused with :class:`HypothesisError`, while a computation that fails to
converge raises :class:`NumericError`.  The command line maps the former to
exit code 2 and everything else to exit code 1.

A JSON spec with an unknown or missing key, or a value of the wrong type,
raises :class:`ConfigError`.  The helpers after the exception types are the
checks that the ``from_dict`` builders and the command line share; ranges
are left to the constructors and functions that use the values.

:func:`to_json` is the one serializer of the package's dataclasses: an
object's JSON shape is its dataclass fields, less those declared with
``metadata={"json": False}``, with arrays and tuples written as nested
lists and nested dataclasses and dicts converted the same way.
:func:`from_fields` reads a kernel or weight-form spec by the same rule.
"""

from __future__ import annotations

import math
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


def finite_number(value, pointer: str = "") -> float:
    """``value`` as a float; booleans, strings and non-finite values fail."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(pointer, f"expected a finite number, got {value!r}")
    return float(value)


def array(value, pointer: str = "") -> list:
    """``value`` itself, which must be a JSON array."""
    if not isinstance(value, list):
        raise ConfigError(pointer, f"expected an array, got {value!r}")
    return value


def number_list(value, pointer: str = "") -> list[float]:
    """``value`` as a list of floats, each checked by :func:`finite_number`."""
    return [finite_number(v, f"{pointer}/{n}")
            for n, v in enumerate(array(value, pointer))]


def from_fields(spec, key: str, classes):
    """Build ``classes[spec[key]]`` from a spec shaped as :func:`to_json`
    writes it, plus the tag ``key``.

    The spec holds one key per dataclass field, required unless the field
    has a default.  A field annotated ``tuple`` is read by
    :func:`number_list`, every other field by :func:`finite_number`.
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
    values = {}
    for f in fields(cls):
        if f.name in spec:
            read = number_list if f.type in ("tuple", tuple) else finite_number
            values[f.name] = read(spec[f.name], f"/{f.name}")
    return cls(**values)


def require_finite(**params) -> None:
    """Raise ``ValueError`` naming the first parameter with a non-finite entry."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_integer(minimum: int = 0, **params) -> None:
    """Raise ``ValueError`` naming the first parameter that is not an
    integer ``>= minimum``; booleans and integral floats fail too."""
    for name, value in params.items():
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, "
                             f"got {value!r}")


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
