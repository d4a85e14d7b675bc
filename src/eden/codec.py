"""The one save-state codec.

A type's persisted state is its dataclass init fields; runtime-only attributes
are ``init=False`` and never written. ``decode`` calls the constructor, so
``__post_init__`` coercion and validation run on every load, and every key
must be present. Fields convert by annotation; field metadata covers the
irregular ones: ``"key"`` renames the JSON key, ``"codec"`` gives an
``(encode, decode)`` pair, where a ``None`` decoder marks a reference the
caller passes to ``decode`` by field name, and ``"reads"`` names an earlier
field the decoder takes as a second argument; `by_id` and `sorted_by` give
the metadata of collections saved as ordered lists. Each class's converter
plan is built once and cached, so saving does no per-value type dispatch.

Writing goes through `canonical_pieces`: ``json.dumps`` writes the document
with a marker where each ``np.ndarray`` stands, and `lattice_text` writes each
array with orjson's numpy serializer, the text spliced in at its marker; an
all-zero array's text is made once per shape. ``encode`` hands arrays, and
every value written as it is, through uncopied, and ``decode`` copies an
array it is handed, so a decoded object shares no memory with the original.

Decoding refuses with ``TypeError`` or ``ValueError`` what a run could not
save: another JSON type than the field's (an ``int`` takes only an integer, a
``bool`` only ``true`` or ``false``, a ``float`` any number), a non-finite
number (``1e999`` parses to inf without a token), a fixed-length tuple of
another length, and a non-finite number inside a bare ``dict`` or ``list`` of
free-form JSON. A ``Number`` keeps the type JSON gave it: ``1`` stays ``1``
where a ``float`` field saves ``1.0``.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import random
import typing

import numpy as np
import orjson

Number = typing.Union[int, float]


def encode(obj) -> dict:
    return {key: getattr(obj, name) if enc is None else enc(getattr(obj, name))
            for name, key, enc, _, _ in _plan(type(obj))}


def decode(cls, data: dict, **refs):
    for name, key, _, dec, reads in _plan(cls):  # `refs` gathers every field's value
        if dec is not None:
            refs[name] = dec(data[key], refs[reads]) if reads else dec(data[key])
    return cls(**refs)


def dumps_canonical(obj) -> str:
    """``obj`` as canonical JSON text: sorted keys, no spaces, no non-finite number."""
    return "".join(canonical_pieces(obj))


def canonical_pieces(obj) -> list[str]:
    """The text of `dumps_canonical` in pieces: each array's text apart, in
    document order, between the pieces ``json.dumps`` wrote around it.

    ``json.dumps`` writes a marker string for each array. A string in ``obj``
    that equals the marker shows as one piece too many, and the next marker is
    tried, so no input string can move an array's text.
    """
    for n in itertools.count():
        marker, arrays = f"\0ndarray {n}", []

        def hand_over(value):
            if not isinstance(value, np.ndarray):
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            arrays.append(value)
            return marker

        parts = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                           default=hand_over).split(json.dumps(marker))
        if len(parts) == len(arrays) + 1:
            break
    pieces = [parts[0]]
    for array, part in zip(arrays, parts[1:]):
        pieces += (lattice_text(array), part)
    return pieces


def lattice_text(a: np.ndarray) -> str:
    """``a`` as ``json.dumps(a.tolist(), separators=(",", ":"))`` writes it,
    written by orjson, for a C-contiguous float64 or integer array.

    orjson picks the same shortest round-trip digits as ``repr`` but writes
    ``0.00001`` for ``1e-05`` and ``1e16`` for ``1e+16``, so the values below
    1e-4 or from 1e16 in magnitude are written again with ``repr``. orjson
    writes each of them with an ``e`` or as ``0.0000…``, so a short text is
    scanned for them only when it holds one of the two. Split on commas, the
    text holds one value per piece, brackets included, in C order. Refuses a
    non-finite value, which orjson writes as ``null``, the only text with an
    ``n``. An array whose bits are all zero, every cell +0.0, has its shape's
    cached text.
    """
    if a.dtype.kind != "f":
        return orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    if not np.count_nonzero(a.view(np.uint64)):  # -0.0 has its sign bit set
        return _zeros_text(a.shape)
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    if len(text) > _SEARCH_BYTES or b"e" in text or b"0.0000" in text:
        magnitude = np.abs(a)
        rewrite = np.flatnonzero(((magnitude < 1e-4) & (a != 0)) | (magnitude >= 1e16))
        if rewrite.size:
            values = text.split(b",")
            for i in rewrite:
                token = values[i].strip(b"[]")
                values[i] = values[i].replace(token, repr(float(token)).encode())
            text = b",".join(values)
    return text.decode()


# A longer text is scanned without being searched first: on a 2-vCPU x86 host,
# searching for b"0.0000" took about 0.9 ns a byte, the numpy scan about 5 us
# plus 1 ns a value of about 20 bytes.
_SEARCH_BYTES = 4096


@functools.cache
def _zeros_text(shape: tuple) -> str:
    return orjson.dumps(np.zeros(shape), option=orjson.OPT_SERIALIZE_NUMPY).decode()


def by_id(cls, ident: str) -> dict:
    """The metadata of an ``{id: cls}`` dict saved as its values in the order
    stored, which the dict's owner keeps in id order."""
    return {"codec": (lambda objs: [encode(obj) for obj in objs.values()],
                      lambda items: keyed(ident, [decode(cls, d) for d in items]))}


def keyed(ident: str, objs: list) -> dict:
    """``objs`` keyed by their attribute ``ident``, refused if two share one."""
    by_key = {getattr(obj, ident): obj for obj in objs}
    if len(by_key) != len(objs):
        raise ValueError(f"two items share one {ident}")
    return by_key


def sorted_by(cls, attr: str) -> dict:
    """The metadata of a list of ``cls`` saved in order of the attribute ``attr``."""
    key = operator.attrgetter(attr)
    return {"codec": (lambda objs: [encode(obj) for obj in sorted(objs, key=key)],
                      lambda items: [decode(cls, d) for d in items])}


@functools.cache
def _plan(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name),
                  *(f.metadata.get("codec") or converters(hints[f.name])),
                  f.metadata.get("reads"))
                 for f in dataclasses.fields(cls) if f.init)


def _copied(value):
    """A copy of an array, which `encode` hands through: a decoded object must
    not share memory with the one encoded. Nested lists, as loaded, pass."""
    return value.copy() if isinstance(value, np.ndarray) else value


def _optional(conv):
    return None if conv is None else lambda v: None if v is None else conv(v)


def _exactly(tp):
    """The decoder of a ``tp``, taking only that JSON type: an ``int`` is no
    ``bool`` and no ``float``."""
    def dec(value):
        if type(value) is not tp:
            raise TypeError(f"{value!r} is not a JSON {tp.__name__}")
        return value
    return dec


def _number(value):
    """A finite number, kept an ``int`` or a ``float`` as JSON wrote it."""
    if type(value) is float and -math.inf < value < math.inf:  # NaN fails both
        return value
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    if not math.isfinite(value):  # an int too large for a float raises OverflowError
        raise ValueError(f"non-finite number {value!r}")
    return value


def _float(value) -> float:
    """A finite number as a ``float``."""
    if type(value) is float and -math.inf < value < math.inf:
        return value
    return float(_number(value))


def _rng(state: list) -> random.Random:
    """The generator in a saved state; its pending ``gauss`` is a number or null."""
    rng = random.Random()
    rng.setstate((state[0], tuple(state[1]), _optional(_number)(state[2])))
    return rng


def _finite_json(value):
    """``value``, refused with ``ValueError`` where a number in it is not
    finite, at any depth: what ``json.dumps(value, allow_nan=False)`` refuses
    of a value JSON parses to, walked with a stack instead of recursion."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, float):
            if not -math.inf < item < math.inf:
                raise ValueError(f"free-form JSON holding a non-finite number: {item!r}")
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return value


def _sequence(origin, tp, length):
    """The decoder of a list, tuple or set of ``tp``, which checks a
    fixed-length tuple's ``length``. Items all of the exact type ``float``
    (and finite), ``int``, ``bool`` or ``str`` are taken whole, checked by
    C-level passes instead of a call per item."""
    dec = converters(tp)[1]
    plain, only = tp in (float, int, bool, str), frozenset((tp,))

    def decode_items(value):
        if length is not None and len(value) != length:
            raise ValueError(f"{value!r} does not hold {length} values")
        if plain and set(map(type, value)) <= only and (
                tp is not float or all(map(math.isfinite, value))):
            return origin(value)
        return origin([dec(x) for x in value])
    return decode_items


def _int_keyed(dec, value) -> dict:
    """A JSON object's string keys converted back to ints, each value by ``dec``;
    a key must be an int as ``str`` writes it, so ``"01"`` is refused."""
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not a JSON object")
    keyed = {int(k): dec(x) for k, x in value.items()}
    if list(map(str, keyed)) != list(value):
        raise ValueError(f"a key of {value!r} is not an integer as it is saved")
    return keyed


@functools.cache
def converters(tp) -> tuple:
    """The (encode, decode) pair for one field annotation; an encoder of
    ``None`` writes the value as it is."""
    if dataclasses.is_dataclass(tp):
        return encode, functools.partial(decode, tp)
    if tp is float:
        return float, _float
    if tp == Number:
        return None, _number
    if tp in (int, bool, str):
        return None, _exactly(tp)
    if tp is dict:  # a bare dict holds free-form JSON, copied on load
        return None, lambda v: _finite_json(dict(v))
    if tp is list:  # a bare list holds free-form JSON
        return None, _finite_json
    if tp is np.ndarray:  # written by `lattice_text`; the constructor fixes the dtype
        return None, _copied
    if tp is random.Random:  # saved as [version, [state words], gauss]
        return (lambda rng: list(rng.getstate())), _rng
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        enc, dec = converters(next(a for a in args if a is not type(None)))
        return _optional(enc), _optional(dec)
    if origin in (list, tuple, set):  # a set is saved sorted
        enc = converters(args[0])[0]
        write = sorted if origin is set else list
        length = len(args) if origin is tuple and args[-1] is not Ellipsis else None
        return ((write if enc is None else lambda v: write(map(enc, v))),
                _sequence(origin, args[0], length))
    if origin is dict and args[0] is int:  # JSON object keys are strings
        enc, dec = converters(args[1])
        return ((lambda v: {str(k): x for k, x in v.items()}) if enc is None else
                (lambda v: {str(k): enc(x) for k, x in v.items()}),
                functools.partial(_int_keyed, dec))
    raise TypeError(f"no save-state converter for {tp!r}")
