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

Writing goes through `canonical_pieces`, in UTF-8 bytes: ``json.dumps``
writes the document with a marker where each ``np.ndarray`` stands, one
``np.isfinite`` pass checks every array, and `lattice_text` writes each array
with orjson's numpy serializer as its piece is taken, so a writer holds one
array's text at a time; an all-zero array's text is made once per shape.
``encode`` hands arrays, and every value written as it is, through uncopied,
and ``decode`` copies an array it is handed, so a decoded object shares no
memory with the original.

Reading a saved file is the mirror, in `read_lattices`: orjson parses each
array's bytes alone into an array, the file's buffer is emptied, and
``json.loads`` parses the rest, decoded as strict UTF-8, with a marker where
each array stood, which the array's decoder exchanges for it. A file the
reader cannot take exactly as the writer wrote it raises ``ValueError``, and
its caller reads it the old way, all of it by ``json``.

Decoding refuses with ``TypeError`` or ``ValueError`` what a run could not
save: another JSON type than the field's (an ``int`` takes only an integer, a
``bool`` only ``true`` or ``false``, a ``float`` any number), a non-finite
number (``1e999`` parses to inf without a token), a fixed-length tuple of
another length, and a non-finite number inside a bare ``dict`` or ``list`` of
free-form JSON. A ``Number`` keeps the type JSON gave it: ``1`` stays ``1``
where a ``float`` field saves ``1.0``.
"""
from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import json
import math
import operator
import random
import re
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
    return b"".join(canonical_pieces(obj)).decode()


def canonical_pieces(obj) -> typing.Iterator[bytes]:
    """The UTF-8 text of `dumps_canonical` in pieces: each array's text apart,
    in document order, between the pieces ``json.dumps`` wrote around it.

    ``json.dumps`` writes a marker string for each array. A string in ``obj``
    that equals the marker shows as one piece too many, and the next marker is
    tried, so no input string can move an array's text. What ``json.dumps``
    refuses, and an array holding a non-finite value, is refused here; each
    array's text is made only as its piece is taken.
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
    if not all(np.isfinite(a).all() for a in arrays if a.dtype.kind == "f"):
        raise ValueError("Out of range float values are not JSON compliant")
    return _spliced(parts, arrays)


def _spliced(parts: list[str], arrays: list[np.ndarray]) -> typing.Iterator[bytes]:
    """``parts`` with each array's text between two of them, made as it is taken."""
    yield parts[0].encode()
    for array, part in zip(arrays, parts[1:]):
        yield lattice_text(array)
        yield part.encode()


def lattice_text(a: np.ndarray) -> bytes:
    """``a`` as ``json.dumps(a.tolist(), separators=(",", ":"))`` writes it, in
    UTF-8, written by orjson, for a C-contiguous float64 or integer array.

    orjson picks the same shortest round-trip digits as ``repr`` but writes
    ``0.00001`` for ``1e-05`` and ``1e16`` for ``1e+16``, so the values below
    1e-4 or from 1e16 in magnitude are written again with ``repr``. orjson
    writes each of them with an ``e`` or as ``0.0000…``, so a short text is
    scanned for them only when it holds one of the two. Value ``i`` in C
    order stands after the text's ``i``-th comma, behind its opening brackets;
    the commas are found by one numpy pass, and only the text around the
    rewritten values is copied. Refuses a non-finite value, which orjson
    writes as ``null``, the only text with an ``n``. An array whose bits are
    all zero, every cell +0.0, has its shape's cached text.
    """
    if a.dtype.kind != "f":
        return orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    if not np.count_nonzero(a.view(np.uint64)):  # -0.0 has its sign bit set
        return _zeros_text(a.shape)
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    if len(text) > _SEARCH_BYTES or b"e" in text or b"0.0000" in text:
        magnitude = np.abs(a)
        rewrite = np.flatnonzero(((magnitude < 1e-4) & (a != 0)) | (magnitude >= 1e16))
        if rewrite.size:
            # not split on commas: a bytes object per cell had every save
            # fault in about 5 MB of fresh pages, more or less from run to run
            commas = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))
            pieces, pos = [], 0
            for i in rewrite.tolist():
                start = int(commas[i - 1]) + 1 if i else 0
                while text[start] == ord("["):
                    start += 1
                end = text.find(b",", start)
                token = text[start:end if end != -1 else len(text)].rstrip(b"]")
                pieces += (text[pos:start], repr(float(token)).encode())
                pos = start + len(token)
            pieces.append(text[pos:])
            text = b"".join(pieces)
    return text


# A longer text is scanned without being searched first: on a 2-vCPU x86 host,
# searching for b"0.0000" took about 0.9 ns a byte, the numpy scan about 5 us
# plus 1 ns a value of about 20 bytes.
_SEARCH_BYTES = 4096


@functools.cache
def _zeros_text(shape: tuple) -> bytes:
    return orjson.dumps(np.zeros(shape), option=orjson.OPT_SERIALIZE_NUMPY)


def read_lattices(data: bytearray, root: type, build):
    """``build(doc)``, ``doc`` the JSON document in the UTF-8 bytes ``data``,
    with the value of each ``np.ndarray`` field of ``root`` and of the
    dataclasses its fields hold parsed by orjson into an array as it is found.
    Raises ``ValueError``, or ``json``'s ``RecursionError``, where the file
    must be read the old way, all of it by ``json``, to give exactly what that
    gives. ``data`` is emptied once its lattices are taken, before the rest is
    parsed, or where it is refused, so its caller's buffer is freed then.

    A value is taken where its key (`_lattice_key`) is followed by ``:[``, and
    runs to the first run of as many ``]`` as it opens with. Where that is not
    the whole value, orjson refuses the text, which ends early or holds more.
    orjson then gives the numbers ``json`` gives, bit for bit, except an
    integer past 64 bits, which it reads as a float where ``json`` keeps an
    ``int`` that numpy cannot type. So numpy must find the array regular and
    of numbers; one of floats that reaches 2**63 in magnitude must hold no
    integer of 19 digits or more (`_LONG_INTEGER`), and its text must not
    hold ``true`` or ``false``, which numpy takes as 1 and 0 beside numbers.
    orjson parses each value in place, from a view of ``data``, and refuses
    bytes that are not UTF-8. An array whose text is `_zeros_text` of a shape
    met before is made as zeros of that shape.

    The rest is decoded as strict UTF-8, so a byte-order mark stays a
    character that ``json.loads`` refuses, as ``json`` refuses it in a file,
    and parsed by ``json.loads`` with a marker, NUL and the array's number,
    where each array stood; a text that spells NUL (``\\u0000``) or holds a
    ``NaN``, ``Infinity`` or ``-Infinity`` token is refused. While ``build``
    runs, the ``np.ndarray`` decoder exchanges each marker for its array,
    uncopied; a marker it was not handed, under such a key in free-form JSON,
    refuses the text after ``build`` returns. A refusal that ``build`` raises
    is its own.
    """
    arrays = {}
    token = _parsed.set(arrays)
    try:
        result = build(json.loads(_rest(data, _lattice_key(root).search, arrays),
                                  parse_constant=refuse_non_finite))
        if arrays:
            raise ValueError(f"{len(arrays)} lattices not read by an array field")
        return result
    finally:
        _parsed.reset(token)


def _rest(data: bytearray, search, arrays: dict) -> str:
    """The text of ``data`` with a marker where each lattice that ``search``
    finds stood, each lattice parsed into ``arrays`` by its marker. Empties
    ``data`` once it is scanned, or fails to be, before it joins and decodes
    the rest."""
    pieces, pos = [], 0
    try:
        with memoryview(data) as view:
            while match := search(data, pos):
                start = match.start(1)
                end = data.index(b"]" * len(match[1]), start) + len(match[1])
                shape = _zero_shapes.get(end - start)
                if shape is not None and data.startswith(_zeros_text(shape), start):
                    array = np.zeros(shape)
                # numpy reads true and false as numbers
                elif data.find(b"t", start, end) != -1 or data.find(b"f", start, end) != -1:
                    raise ValueError("a boolean among a lattice's cells")
                else:
                    with view[start:end] as span:  # parsed in place: a copy raised the peak memory
                        array = np.array(orjson.loads(span))
                        kind = array.dtype.kind
                        if kind not in "fiu":
                            raise ValueError(f"a lattice of {array.dtype}")
                        if (kind == "f" and not abs(array).max(initial=0.0) < 2.0 ** 63
                                and _LONG_INTEGER.search(span)):
                            raise ValueError("an integer that orjson reads as a float")
                    if kind == "f" and not array.any():
                        _zero_shapes[len(_zeros_text(array.shape))] = array.shape
                marker = f"\0{len(arrays)}"
                arrays[marker] = array
                pieces += (view[pos:start].tobytes(), json.dumps(marker).encode())
                pos = end
            pieces.append(view[pos:].tobytes())
    finally:
        data.clear()
    if any(b"\\u0000" in piece for piece in pieces[::2]):
        raise ValueError("a string that could spell a marker")
    return b"".join(pieces).decode()


# a number that starts with 19 digits: every integer of 2**63 or more in
# magnitude, which orjson reads as a float, and a float written so
_LONG_INTEGER = re.compile(rb"(?:^|[\[,\s])-?\d{19}")
# the arrays `read_lattices` has read, by marker, until `build` takes them
_parsed: contextvars.ContextVar[dict] = contextvars.ContextVar("parsed", default={})
# the shape of each `_zeros_text` that `read_lattices` has met, by the text's
# length, which it then reads as zeros without parsing it again
_zero_shapes: dict[int, tuple] = {}


def refuse_non_finite(token: str):
    """`json.loads`'s hook for the NaN, Infinity and -Infinity tokens, which
    neither a save state nor the session log holds: a run would fail at its next save."""
    raise ValueError(f"non-finite number {token}")


@functools.cache
def _lattice_key(root: type) -> re.Pattern:
    """The pattern that finds, with its opening brackets, the value of a key
    that names an ``np.ndarray`` field in ``root`` or the dataclasses its
    fields hold, and no other field there."""
    arrays, others, seen, todo = set(), set(), set(), [root]
    while todo:
        tp = todo.pop()
        todo += typing.get_args(tp)
        if dataclasses.is_dataclass(tp) and tp not in seen:
            seen.add(tp)
            hints = typing.get_type_hints(tp)
            for f in dataclasses.fields(tp):
                if f.init:
                    hint = hints[f.name]
                    is_array = hint in (np.ndarray, typing.Optional[np.ndarray])
                    (arrays if is_array else others).add(f.metadata.get("key", f.name))
                    todo.append(hint)
    keys = "|".join(map(re.escape, sorted(arrays - others)))
    return re.compile(f'"(?:{keys})":(\\[+)'.encode())


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


def _array(value):
    """The array that `read_lattices` read for the marker ``value``, or a copy
    of an array, which `encode` hands through: a decoded object must not share
    memory with the one encoded. Nested lists, as ``json`` loads them, pass."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return _parsed.get().pop(value, value) if type(value) is str else value


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
        return None, _array
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
