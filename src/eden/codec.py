"""The one save-state codec.

A type's persisted state is its dataclass init fields; runtime-only attributes
are ``init=False`` and never written. ``decode`` calls the constructor, so
``__post_init__`` coercion and validation run on every load, and every key
must be present. Fields convert by annotation; field metadata covers the
irregular ones: ``"key"`` renames the JSON key and ``"codec"`` gives an
``(encode, decode)`` pair, where a ``None`` decoder marks a reference the
caller passes to ``decode`` by field name. Each class's converter plan is
built once and cached, so saving does no per-value type dispatch.

Decoding refuses with ``ValueError`` what a run could not save: a non-finite
``float`` (``1e999`` parses to inf without a token), a fixed-length tuple of
another length, and a non-finite number anywhere inside a bare ``dict`` or
``list`` of free-form JSON.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing

import numpy as np


def encode(obj) -> dict:
    return {key: enc(getattr(obj, name)) for name, key, enc, _ in _plan(type(obj))}


def decode(cls, data: dict, **refs):
    return cls(**{name: refs[name] if dec is None else dec(data[key])
                  for name, key, _, dec in _plan(cls)})


@functools.cache
def _plan(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name),
                  *(f.metadata.get("codec") or _converters(hints[f.name])))
                 for f in dataclasses.fields(cls) if f.init)


def _identity(value):
    return value


def _optional(conv):
    return lambda v: None if v is None else conv(v)


def _finite_float(value) -> float:
    f = float(value)
    if not math.isfinite(f):
        raise ValueError(f"non-finite number {value!r}")
    return f


def _free_form(conv):
    """A free-form JSON decoder that refuses what `save` refuses: non-finite numbers."""
    def dec(value):
        value = conv(value)
        try:
            json.dumps(value, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"free-form JSON holding a non-finite number: {exc}") from exc
        return value
    return dec


def _sequence(origin, dec, length, value):
    """``value`` decoded item by item; a fixed-length tuple's ``length`` is checked."""
    if length is not None and len(value) != length:
        raise ValueError(f"{value!r} does not hold {length} values")
    return origin([dec(x) for x in value])


def _int_keyed(dec, value) -> dict:
    """A JSON object's string keys converted back to ints, each value by ``dec``."""
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not a JSON object")
    return {int(k): dec(x) for k, x in value.items()}


@functools.cache
def _converters(tp) -> tuple:
    """The (encode, decode) pair for one field annotation."""
    if dataclasses.is_dataclass(tp):
        return encode, functools.partial(decode, tp)
    if tp is float:
        return float, _finite_float
    if tp in (int, bool):
        return _identity, tp
    if tp is str:
        return _identity, _identity
    if tp is dict:  # a bare dict holds free-form JSON, copied on load
        return _identity, _free_form(dict)
    if tp is list:  # a bare list holds free-form JSON
        return _identity, _free_form(_identity)
    if tp is np.ndarray:  # the constructor fixes the dtype
        return np.ndarray.tolist, _identity
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        enc, dec = _converters(next(a for a in args if a is not type(None)))
        return _optional(enc), _optional(dec)
    if origin is set:
        enc, dec = _converters(args[0])
        return (lambda v: sorted(enc(x) for x in v)), (lambda v: {dec(x) for x in v})
    if origin in (list, tuple):
        enc, dec = _converters(args[0])
        length = None if origin is list or args[-1] is Ellipsis else len(args)
        return (lambda v: [enc(x) for x in v]), functools.partial(_sequence, origin, dec, length)
    if origin is dict and args[0] is int:  # JSON object keys are strings
        enc, dec = _converters(args[1])
        return ((lambda v: {str(k): enc(x) for k, x in v.items()}),
                functools.partial(_int_keyed, dec))
    raise TypeError(f"no save-state converter for {tp!r}")
