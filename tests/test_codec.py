"""The canonical writer against the one it replaced: `json.dumps` writing each
array through `tolist`, kept here as the oracle of the save-state bytes."""
import dataclasses
import functools
import json
import math
import os
import random
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eden import codec, store
from eden.cem import GoalPlane, PwrTensor
from eden.codec import (converters, decode, dumps_canonical, encode, lattice_text,
                        read_lattices)
from eden.config import EngineConfig
from eden.functome import Functome
from eden.grid import TRANSMITTER
from eden.node import ProcessNode
from eden.runner import InputProbe, run_epoch, seed_entity


def oracle(obj) -> str:
    """The canonical JSON text as written before orjson wrote the lattices,
    and before each `by_id` collection was written one record at a time."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=as_written)


def as_written(value):
    """An array as the list it writes, and the records of a `codec.Records` as
    the list of their encodings."""
    return list(value) if isinstance(value, codec.Records) else np.ndarray.tolist(value)


def oracle_save(entity) -> bytes:
    """The bytes `store.save` wrote before orjson wrote the lattices."""
    doc = {"format_version": store.FORMAT_VERSION, "locked": entity.locked,
           "rng_state": converters(random.Random)[0](entity.rng),
           "entity": store.entity_to_dict(entity)}
    return (oracle(doc) + "\n").encode()


def saved(entity, path) -> bytes:
    store.save(entity, str(path))
    return path.read_bytes()


# the values next to both notation boundaries of `lattice_text`, the signed
# zeros, the smallest subnormal and normal numbers and the largest finite
EDGES = np.array([v for x in (1e-4, 1e16)
                  for v in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))]
                 + [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
shapes = hnp.array_shapes(min_dims=1, max_dims=3, max_side=5)
# every finite float64, drawn as a random bit pattern: negatives and subnormals
# as often as they occur among patterns
bit_patterns = hnp.arrays(np.uint64, shapes).map(
    lambda bits: np.where(np.isfinite(bits.view(np.float64)), bits.view(np.float64), 0.0))


class TestLatticeText:
    @given(hnp.arrays(np.float64, shapes, elements=st.floats(allow_nan=False,
                                                             allow_infinity=False)))
    @example(EDGES)
    @example(np.concatenate([EDGES, -EDGES]).reshape(2, 1, -1))
    def test_floats_as_the_oracle_writes_them(self, a):
        assert lattice_text(a) == oracle(a).encode()

    @given(bit_patterns)
    def test_bit_patterns_as_the_oracle_writes_them(self, a):
        assert lattice_text(a) == oracle(a).encode()

    def test_many_bit_patterns_as_the_oracle_writes_them(self):
        bits = np.random.default_rng(20).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
        a = bits.view(np.float64)
        a = a[np.isfinite(a)][:99_000].reshape(-1, 10, 10)
        assert lattice_text(a) == oracle(a).encode()

    @given(hnp.arrays(np.int8, shapes))
    def test_routers_as_the_oracle_writes_them(self, a):
        assert lattice_text(a) == oracle(a).encode()

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 3), (4, 4, 8), (8, 8, 64)])
    def test_zero_lattices_as_the_oracle_writes_them(self, shape):
        a = np.zeros(shape)
        assert lattice_text(a) == oracle(a).encode()
        a.reshape(-1)[-1] = -0.0  # equal to +0.0, but written with its sign
        assert lattice_text(a) == oracle(a).encode()
        assert lattice_text(a).endswith(b"-0.0" + b"]" * len(shape))

    @given(hnp.arrays(np.float64, shapes, elements=st.sampled_from(
        [0.0, -0.0, 0.5, 10.00001, 3e-5, 1e-7, 2e17, *EDGES])))
    @example(np.array([10.00001, 0.5, 100.00002]))  # 0.0000 in a text scanned for nothing
    def test_zeros_among_other_cells_as_the_oracle_writes_them(self, a):
        assert lattice_text(a) == oracle(a).encode()

    @pytest.mark.parametrize("cells", [[0.5], [0.0], [-0.0], [3e-5], [0.5] * 999])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad, cells):
        with pytest.raises(ValueError):
            lattice_text(np.array([cells + [bad]]))


# the marker strings `canonical_pieces` tries first, and one hidden behind an
# escaped quote, whose JSON text ends in the first marker's
FORGED = ["\0ndarray 0", "\0ndarray 1", "\0ndarray 2", 'x"\0ndarray 0']


class TestDumpsCanonical:
    @given(st.dictionaries(st.text(max_size=12), st.text(max_size=12), max_size=4),
           st.lists(bit_patterns, max_size=3))
    @example({"note": FORGED[0]}, [EDGES])
    @example(dict(zip("abcd", FORGED)), [EDGES, EDGES[::-1].copy()])
    def test_strings_beside_arrays_as_the_oracle_writes_them(self, strings, arrays):
        doc = {"strings": strings, "arrays": arrays, "pair": [strings, arrays]}
        assert dumps_canonical(doc) == oracle(doc)


@st.composite
def trained_entities(draw):
    """A small trained entity whose lattices hold drawn values: weights near 0
    and 1, and goal targets across every notation of `lattice_text`."""
    entity = seed_entity(EngineConfig(
        initial_nodes=draw(st.integers(1, 3)), dim_xy=draw(st.integers(1, 3)),
        dim_z=draw(st.integers(1, 4)), min_e=draw(st.sampled_from([0.5, 1.5])),
        initial_dendrites=1, dr=0.0, seed=draw(st.integers(0, 2 ** 20))))
    for nid, node in entity.nodes.items():
        if node.dendrites:
            entity.input_probes.append(InputProbe(
                probe_id=nid, position=node.dendrites[0].position,
                frames=[[{"offset": [0, 0, 0], "magnitude": 2.0,
                          "index": min(node.dendrites[0].accepted_transmitter_indices)}]]))
    for _ in range(draw(st.integers(0, 3))):
        run_epoch(entity)
    weights = st.floats(0.0, 1.0) | st.floats(0.0, 1e-4) | st.sampled_from([0.0, 1e-4, 1.0])
    targets = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(list(EDGES))
    for node in entity.nodes.values():
        w = node.cem.w.reshape(-1)
        for k in draw(st.lists(st.integers(0, w.size - 1), max_size=4)):
            w[k] = draw(weights)
        if node.goal is not None:
            node.goal.target_p.reshape(-1)[0] = draw(targets)
    return entity


class TestSave:
    @settings(max_examples=30, deadline=None)
    @given(trained_entities())
    def test_bytes_as_the_oracle_writes_them(self, tmp_path_factory, entity):
        path = tmp_path_factory.mktemp("save") / "e.eden.json"
        assert saved(entity, path) == oracle_save(entity)

    @pytest.mark.parametrize("place", ["weight", "goal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_refused_before_the_file_is_touched(self, tmp_path, monkeypatch,
                                                                 place, bad):
        entity = seed_entity(EngineConfig(initial_nodes=2, dim_xy=2, dim_z=3, seed=4))
        path = tmp_path / "e.eden.json"
        before = saved(entity, path)
        node = entity.nodes[0]
        if place == "weight":
            node.cem.w[1, 0, 2] = bad
        else:  # among +0.0 cells
            node.goal = GoalPlane(z_index=1, target_p=np.zeros((2, 2)))
            node.goal.target_p[1, 1] = bad
        opened = []
        monkeypatch.setattr(store, "open", lambda *args, **kw: opened.append(args[0]),
                            raising=False)
        with pytest.raises(ValueError):
            store.save(entity, str(path))
        assert opened == []
        assert os.listdir(tmp_path) == ["e.eden.json"]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("text", FORGED)
    def test_property_equal_to_a_marker_saved_as_the_oracle_writes_it(self, tmp_path, text):
        entity = seed_entity(EngineConfig(initial_nodes=2, dim_xy=2, dim_z=3, seed=4))
        grid = entity.grid
        grid.stage(TRANSMITTER, 0, (1.0, 1.0, 1.0), 1.0, 3,
                   properties={"note": text, "excitatory": 1})
        grid.commit()
        data = saved(entity, tmp_path / "e.eden.json")
        assert data == oracle_save(entity)
        assert text in json.loads(data)["entity"]["grid"]["payloads"][0]["properties"]["note"]

    @settings(max_examples=30, deadline=None)
    @given(trained_entities(), st.lists(st.sampled_from(FORGED) | st.text(max_size=4),
                                        min_size=1, max_size=4))
    @example(seed_entity(EngineConfig(initial_nodes=2, dim_xy=2, dim_z=3, seed=4)), FORGED)
    def test_marker_strings_inside_records_saved_as_the_oracle_writes_them(
            self, tmp_path_factory, entity, strings):
        """Strings that equal a marker in the free-form JSON of a payload and
        of a functome, and among a node's architector targets: the node's
        record hands its lattices over, so its dump alone tries the next
        marker."""
        assume(entity.nodes)  # a trained entity can lose every node
        entity.grid.stage(TRANSMITTER, 0, (1.0, 1.0, 1.0), 1.0, 3,
                          properties={"excitatory": 1, **dict(zip("abcd", strings))})
        entity.grid.commit()
        entity.functomes[min(entity.functomes)].metadata.update(zip("abcd", strings))
        entity.nodes[min(entity.nodes)].allowed_arch_indices.update(enumerate(strings))
        path = tmp_path_factory.mktemp("save") / "e.eden.json"
        data = saved(entity, path)
        assert data == oracle_save(entity)
        assert saved(store.load(str(path)), path) == data


class TestDecodeCopies:
    """`encode` hands arrays through, so the decoded copy must own its own,
    except the all-+0.0 placeholders, which are one read-only array per shape."""

    def test_tensor(self):
        t = PwrTensor.random(3, 4, random.Random(1))
        copy = decode(PwrTensor, encode(t))
        for name in ("w", "r"):
            assert np.array_equal(getattr(copy, name), getattr(t, name))
            assert not np.shares_memory(getattr(copy, name), getattr(t, name))
        for name in ("p", "plane_energy_acc"):
            assert np.array_equal(getattr(copy, name), getattr(t, name))
            assert not getattr(copy, name).flags.writeable

    def test_node(self):
        node = ProcessNode(id=0, soma_position=(5, 5, 5), functome=Functome(fid=0),
                           cem=PwrTensor.random(3, 5, random.Random(2)), min_e=0.5, dr=0.0)
        node.step([(1, 1, 5.0)], 3, 0.05, 0.5)
        assert node.goal is not None
        copy = decode(ProcessNode, encode(node), functome=node.functome)
        assert dumps_canonical(encode(copy)) == dumps_canonical(encode(node))
        for mine, theirs in ((copy.cem.w, node.cem.w), (copy.cem.r, node.cem.r),
                             (copy.goal.target_p, node.goal.target_p)):
            assert not np.shares_memory(mine, theirs)
        assert not copy.cem.p.flags.writeable


def refused(dec, value) -> bool:
    try:
        dec(value)
    except ValueError:
        return True
    return False


# JSON trees as `json.loads` returns them, with inf and NaN at random depths
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=30)


def nested(depth: int, inner) -> list:
    """``inner`` inside ``depth`` lists."""
    for _ in range(depth):
        inner = [inner]
    return inner


class TestFreeForm:
    """A bare ``list`` or ``dict`` field holds free-form JSON."""

    @given(json_trees)
    @example(nested(30, {"a": [1.0, math.inf]}))
    @example({"a": [0.5, {"b": [math.nan]}], "c": "x"})
    def test_refuses_what_json_dumps_refuses(self, tree):
        dumps = functools.partial(json.dumps, allow_nan=False)
        assert refused(converters(list)[1], tree) == refused(dumps, tree)
        assert refused(converters(dict)[1], {"k": tree}) == refused(dumps, tree)

    def test_nested_deeper_than_the_recursion_limit(self):
        deep = nested(5000, [0.5, "x"])
        assert converters(list)[1](deep) is deep
        assert converters(dict)[1]({"k": deep}) == {"k": deep}
        with pytest.raises(ValueError):
            converters(list)[1](nested(5000, [0.5, math.inf]))


def outcome(dec, value):
    """What ``dec`` returns, each item with its type, or the type of what it raises."""
    try:
        return [(type(x), x) for x in dec(value)]
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc)


class TestSequences:
    """A sequence of plain values, taken whole when every item has the exact
    type, decodes as the item decoder decodes it item by item."""

    @given(st.sampled_from([float, int, bool, str]),
           st.lists(st.floats() | st.integers() | st.booleans() | st.text(max_size=2)
                    | st.none(), max_size=5))
    @example(float, [0.5, math.inf])
    @example(float, [1e308, 1e308])
    def test_as_item_by_item(self, tp, items):
        item = converters(tp)[1]
        assert outcome(converters(list[tp])[1], items) == outcome(
            lambda v: [item(x) for x in v], items)


@dataclasses.dataclass
class Lattice:
    """An array field beside free-form JSON that may hold the array's key."""
    w: np.ndarray
    meta: dict


def read(data: bytes) -> Lattice:
    return read_lattices(bytearray(data), Lattice, functools.partial(decode, Lattice))


def narrowed(a: np.ndarray) -> np.ndarray:
    """``a`` with the dtype `read_lattices` gives it: ``int8`` for integers
    that all lie from 0 to 9."""
    if a.dtype.kind in "iu" and ((a >= 0) & (a <= 9)).all():
        return a.astype(np.int8)
    return a


class TestReadLattices:
    """`read_lattices` reads each lattice as ``json.loads`` reads its text, bit
    for bit, and refuses a text it cannot read exactly."""

    @given(bit_patterns
           | hnp.arrays(np.float64, shapes, elements=st.sampled_from(list(EDGES)) | st.floats(
               allow_nan=False, allow_infinity=False))
           | hnp.arrays(np.int8, shapes, elements=st.integers(0, 8)))
    @example(EDGES)
    @example(np.concatenate([EDGES, -EDGES]).reshape(2, 1, -1))
    @example(np.zeros((2, 3)))
    def test_bit_for_bit_as_json_reads_lattice_text(self, a):
        text = lattice_text(a)
        want = narrowed(np.array(json.loads(text)))
        for _ in range(2):  # a lattice read once has its shape's layouts learned
            got = read(b'{"meta":{},"w":' + text + b"}").w
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("cells", [[0, -0, 7], [-(2 ** 63), 2 ** 63 - 1],
                                       [2 ** 64 - 1], [0.5, 1], [[1.5e300], [-2.0 ** 62]]])
    def test_numbers_as_json_reads_them(self, cells):
        text = json.dumps(cells, separators=(",", ":"))
        got = read(f'{{"meta":{{}},"w":{text}}}'.encode()).w
        want = narrowed(np.array(json.loads(text)))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("text", [
        b'{"meta":{"w":[0.5]},"w":[0.5]}',  # a lattice's key in free-form JSON
        b'{"meta":{"note":"\\u0000"},"w":[0.5]}',  # a string that spells a marker
        b'{"meta":{},"w":[0.5,true]}',  # numpy reads true as 1.0
        b'{"meta":{},"w":[[1],[false]]}',
        b'{"meta":{},"w":[1,100000000000000000000]}',  # orjson reads it as 1e20
        b'{"meta":{},"w":[-9223372036854775809]}',
        b'{"meta":{},"w":[1e300,100000000000000000000]}',
        b'{"meta":{},"w":[0.5,1e999]}',
        b'{"meta":{},"w":[0.5,null]}',
        b'{"meta":{},"w":[0.5,"0.5"]}',
        b'{"meta":{},"w":[[0.5],[0.5,0.5]]}',  # not regular
        b'{"meta":{},"w":[[0.5],0.5]}',  # no "]]" ends it
        b'{"meta":{},"w":[[0.5],0.5],"x":[[0.5]]}',  # "]]" ends another value
        b'{"meta":{"x":NaN},"w":[0.5]}',
    ])
    def test_refuses_what_it_cannot_read_exactly(self, text):
        with pytest.raises(ValueError):
            read(text)
        assert codec._parsed.get() == {}

    @pytest.mark.parametrize("text", [b'{"meta":{},"w":[0.5]}', b'{"meta":{},"w":[0.5,true]}',
                                      b'{"meta":{},"w":[0.5]', b'{"meta":{"note":"\xff"},"w":[0.5]}'])
    def test_empties_the_buffer_it_reads(self, text):
        """A caller's buffer is freed whether the text is read or refused."""
        data = bytearray(text)
        try:
            read_lattices(data, Lattice, functools.partial(decode, Lattice))
        except ValueError:
            pass
        assert data == b""


# what a near miss writes for one cell's digit, each parsed as json parses it
NEAR_MISSES = {
    "two-digit": lambda digit: b"1" + digit,
    "negative": lambda digit: b"-" + digit,
    "true": lambda digit: b"true",
    "1.0": lambda digit: b"1.0",
    "space": lambda digit: b" " + digit,
}


class TestFixedWidth:
    """Integer lattices of one digit a cell are read as ``int8`` whichever
    way they are read, and a near miss to such a lattice's layout is parsed
    as ``json`` reads it."""

    @pytest.fixture(scope="class", autouse=True)
    def one_dimensional_layouts(self):
        """Learned layouts for a 1-D lattice of every length a drawn text has
        or a near miss makes from it, so a near miss meets one of its length."""
        for n in range(1, 16):
            codec._learn((n,))

    @given(hnp.arrays(np.int8, shapes, elements=st.integers(0, 9)))
    @example(np.arange(10, dtype=np.int8).reshape(2, 5))
    def test_one_digit_integers_read_as_int8(self, a):
        text = lattice_text(a)
        want = np.array(orjson.loads(text))
        first = read(b'{"meta":{},"w":' + text + b"}").w  # parsed where its shape is new
        with mock.patch.object(orjson, "loads", side_effect=AssertionError("parsed again")):
            again = read(b'{"meta":{},"w":' + text + b"}").w
        for got in (first, again):
            assert got.dtype == np.int8 and got.shape == want.shape
            assert np.array_equal(got, want)

    @given(hnp.arrays(np.int8, shapes, elements=st.integers(0, 9)),
           st.sampled_from(sorted(NEAR_MISSES)), st.integers(0, 2 ** 16))
    @example(np.array([1, 2, 3], np.int8), "1.0", 0)  # as long as the text of 4 cells
    @example(np.array([[1, 2], [3, 4]], np.int8), "two-digit", 3)
    def test_near_miss_parsed_as_json_reads_it(self, a, miss, k):
        text = lattice_text(a)
        read(b'{"meta":{},"w":' + text + b"}")  # its own layouts are learned
        digits = [i for i, byte in enumerate(text) if chr(byte).isdigit()]
        i = digits[k % len(digits)]
        text = text[:i] + NEAR_MISSES[miss](text[i:i + 1]) + text[i + 1:]
        with mock.patch.object(orjson, "loads", wraps=orjson.loads) as loads:
            if miss == "true":
                with pytest.raises(ValueError):
                    read(b'{"meta":{},"w":' + text + b"}")
            else:
                got = read(b'{"meta":{},"w":' + text + b"}").w
                want = narrowed(np.array(json.loads(text)))
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert loads.call_count == 1
