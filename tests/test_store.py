"""Tests for save states, lock mode, session logs and environment rules."""
import errno
import json
import os
import tracemalloc

import numpy as np
import orjson
import pytest

from eden.cem import GoalPlane, PwrTensor
from eden.config import EngineConfig
from eden.grid import TRANSMITTER
from eden.node import ProcessNode
from eden.runner import OutputProbe, input_probe_from_spec, run_epoch, seed_entity
from eden import codec, store


def make_entity(**overrides):
    params = dict(initial_nodes=3, dim_xy=3, dim_z=4, seed=5)
    params.update(overrides)
    return seed_entity(EngineConfig(**params))


class TestSaveLoad:
    def test_byte_fixpoint(self, tmp_path):
        path = str(tmp_path / "e.eden.json")
        entity = make_entity()
        store.save(entity, path)
        first = open(path, "rb").read()
        store.save(store.load(path), path)
        assert open(path, "rb").read() == first

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            store.save(make_entity(), str(target))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        class FullDisk:
            """The file `open` made, on a disk with no room left."""
            def __init__(self, fh):
                self.fh = fh

            def write(self, _text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __enter__(self):
                return self

            def __exit__(self, *_exc):
                self.fh.close()

        monkeypatch.setattr(store, "open", lambda *args, **kw: FullDisk(open(*args, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            store.save(make_entity(), str(tmp_path / "e.eden.json"))
        assert list(tmp_path.iterdir()) == []

    def test_failure_in_mid_write_leaves_the_state_as_it_was(self, tmp_path, monkeypatch):
        """Each lattice's text is made while the temporary file is open, so a
        failure there must remove that file and leave the state untouched."""
        path = tmp_path / "e.eden.json"
        entity = make_entity()
        store.save(entity, str(path))
        before = path.read_bytes()
        run_epoch(entity)
        open_when_made, lattice_text = [], codec.lattice_text

        def third_fails(a):
            open_when_made.append(os.path.exists(f"{path}.tmp"))
            if len(open_when_made) == 3:
                raise RuntimeError("the third lattice")
            return lattice_text(a)

        monkeypatch.setattr(codec, "lattice_text", third_fails)
        with pytest.raises(RuntimeError, match="the third lattice"):
            store.save(entity, str(path))
        assert open_when_made == [True] * 3
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["e.eden.json"]

    def test_failure_in_a_record_leaves_the_state_as_it_was(self, tmp_path, monkeypatch):
        """Each node is encoded while the temporary file is open, so a failure
        there must remove that file and leave the state untouched."""
        path = tmp_path / "e.eden.json"
        entity = make_entity()
        store.save(entity, str(path))
        before = path.read_bytes()
        run_epoch(entity)
        open_when_encoded, encode = [], codec.encode

        def third_node_fails(obj):
            if isinstance(obj, ProcessNode):
                open_when_encoded.append(os.path.exists(f"{path}.tmp"))
                if len(open_when_encoded) == 3:
                    raise RuntimeError("the third node")
            return encode(obj)

        monkeypatch.setattr(codec, "encode", third_node_fails)
        with pytest.raises(RuntimeError, match="the third node"):
            store.save(entity, str(path))
        assert open_when_encoded == [True] * 3
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["e.eden.json"]

    def test_non_finite_number_in_a_record_leaves_the_state_as_it_was(self, tmp_path):
        """A non-finite number outside a lattice is met only as its record is
        dumped, in the open temporary file, and refused as `json` refuses it:
        in a node, in a payload's properties or in an input probe's frame
        item, each of which orjson writes as null."""
        path = tmp_path / "e.eden.json"
        for place in ("node", "payload", "probe"):
            entity = make_entity()
            store.save(entity, str(path))
            before = path.read_bytes()
            if place == "node":
                entity.nodes[max(entity.nodes)].stability_index = float("nan")
            elif place == "payload":
                entity.grid.stage(TRANSMITTER, 0, (1.0, 1.0, 1.0), 1.0, 3,
                                  properties={"excitatory": 1, "weight": [0.5, float("nan")]})
                entity.grid.commit()
            else:
                entity.input_probes.append(input_probe_from_spec({
                    "probe_id": 7, "position": [1.0, 1.0, 1.0],
                    "frames": [[{"offset": [0, 0, 0], "index": 0, "magnitude": 1.0}]]}))
                entity.input_probes[-1].frames[0][0]["note"] = {"x": None, "y": float("nan")}
            with pytest.raises(ValueError,
                               match="^Out of range float values are not JSON compliant"):
                store.save(entity, str(path))
            assert path.read_bytes() == before, place
            assert os.listdir(tmp_path) == ["e.eden.json"], place

    def test_missing_file(self, tmp_path):
        with pytest.raises(store.SaveStateError, match="not found"):
            store.load(str(tmp_path / "nope.eden.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.eden.json"
        path.write_text("{truncated")
        with pytest.raises(store.SaveStateError, match="malformed"):
            store.load(str(path))

    def test_value_too_deep_to_print_refused_as_input(self):
        """A decoder's message prints the value it refuses, which may be nested
        deeper than ``repr`` recurses."""
        position = []
        for _ in range(5000):
            position = [position]
        with pytest.raises(store.InputError, match="RecursionError"):
            with store.refused_as(store.InputError, "pattern"):
                input_probe_from_spec({"probe_id": 0, "position": position, "frames": []})

    def test_version_gate(self, tmp_path):
        path = str(tmp_path / "e.eden.json")
        store.save(make_entity(), path)
        doc = json.load(open(path))
        doc["format_version"] = 99
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(store.SaveStateError, match="format_version"):
            store.load(str(path))

    def test_dangling_functome_reference(self, tmp_path):
        path = str(tmp_path / "e.eden.json")
        store.save(make_entity(), path)
        doc = json.load(open(path))
        doc["entity"]["nodes"][0]["functome_id"] = 4242
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(store.SaveStateError, match="unknown functome"):
            store.load(str(path))

    def test_resume_matches_uninterrupted(self, tmp_path):
        path = str(tmp_path / "e.eden.json")
        store.save(make_entity(min_e=0.5), path)

        straight = store.load(path)
        expected = [run_epoch(straight).to_dict() for _ in range(8)]

        resumed = store.load(path)
        reports = [run_epoch(resumed).to_dict() for _ in range(4)]
        mid = str(tmp_path / "mid.eden.json")
        store.save(resumed, mid)
        resumed2 = store.load(mid)
        reports += [run_epoch(resumed2).to_dict() for _ in range(4)]
        assert reports == expected


def with_goal(entity):
    """``entity`` with a goal plane of 0.25 cells on its first node."""
    node = entity.nodes[min(entity.nodes)]
    node.goal = GoalPlane(z_index=1, target_p=np.full((node.cem.dim_xy,) * 2, 0.25))
    return entity


def edited(edit):
    """A damage that applies ``edit`` to the saved entity's document and lays
    the text out as `save` does."""
    def damage(text):
        doc = json.loads(text)
        edit(doc["entity"])
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return damage


def forge_marker(entity):
    """Move the first goal's cells into free-form metadata, the first lattice
    of the text, and give the goal the string of the marker they would get."""
    goal = entity["nodes"][0]["goal"]
    entity["functomes"][0]["metadata"]["target_p"] = goal["target_p"]
    goal["target_p"] = "\0" + "0"  # NUL and the number of the first marker


def first_cell(key, value):
    """A damage that writes ``value`` as the first cell of the first lattice
    ``key`` in the text as `save` writes it."""
    def damage(text):
        head, tail = text.split(f'"{key}":', 1)
        cells = tail.lstrip("[")
        return f'{head}"{key}":{tail[:len(tail) - len(cells)]}{value}{cells[cells.index(","):]}'
    return damage


def not_utf8(damage):
    """A damage that applies ``damage`` and writes the byte 0xff, which UTF-8
    never holds, where it wrote the one ``@`` of the text."""
    def damage_bytes(text):
        text = damage(text)
        assert text.count("@") == 1
        return text.encode().replace(b"@", b"\xff")
    return damage_bytes


class TestLatticeReader:
    """`store.load` reads the lattices of a state as `save` writes it with
    orjson or by their shape's fixed-width layout, and any other text the old
    way, all of it by `json`, to the same entity or the same refusal."""

    def test_engine_written_state_is_read_by_orjson(self, tmp_path, monkeypatch):
        path = str(tmp_path / "e.eden.json")
        store.save(with_goal(make_entity()), path)
        texts, loads = [], orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda text: texts.append(text) or loads(text))
        monkeypatch.setattr(store, "read_json", lambda *args: pytest.fail("read the old way"))
        routers, post_init = [], PwrTensor.__post_init__
        monkeypatch.setattr(PwrTensor, "__post_init__",
                            lambda tensor: routers.append(tensor.r) or post_init(tensor))
        entity = store.load(path)
        # every `w` and the goal's cells; of the all-zero `p` and
        # `plane_energy_acc` and of the one-digit `r`, at most the first of each shape
        assert len(entity.nodes) + 1 <= len(texts) <= len(entity.nodes) + 3
        # each `r` is handed over as int8 and kept, not cast
        assert [r.dtype for r in routers] == [np.int8] * len(entity.nodes)
        assert all(node.cem.r is r for node, r in zip(entity.nodes.values(), routers))
        first = open(path, "rb").read()
        store.save(entity, path)
        assert open(path, "rb").read() == first

    @pytest.mark.parametrize("damage", [
        lambda text: json.dumps(json.loads(text), indent=1),
        # a lattice's key in free-form JSON
        edited(lambda entity: entity["functomes"][0]["metadata"].update(w=[[[0.5]]])),
        # a string that could spell a marker, and one that does
        edited(lambda entity: entity["functomes"][0]["metadata"].update(note="\0")),
        edited(forge_marker),
        first_cell("w", "1e999"),  # orjson refuses it, json reads it as inf
        first_cell("w", "true"),  # numpy would read it as 1.0
        first_cell("r", "true"),
        first_cell("target_p", "true"),
        first_cell("target_p", "100000000000000000000"),  # orjson reads it as 1e20
        first_cell("r", "100000000000000000000"),
        first_cell("w", " 0.5"),  # whitespace, which save does not write
        # damage to the bytes: `json.loads` takes bytes with a byte-order mark
        # or in UTF-16, which `json` refuses in a file
        lambda text: "\ufeff" + text,
        lambda text: text.encode("utf-16"),
        not_utf8(edited(lambda entity: entity["functomes"][0]["metadata"].update(note="@"))),
        not_utf8(first_cell("w", "@")),
    ], ids=["indent-1", "metadata-w", "nul-string", "forged-marker", "weight-1e999",
            "weight-true", "router-true", "goal-true", "goal-huge-int", "router-huge-int",
            "weight-space", "utf-8-bom", "utf-16", "metadata-not-utf-8", "weight-not-utf-8"])
    def test_read_as_json_reads_it(self, tmp_path, monkeypatch, damage):
        path = str(tmp_path / "e.eden.json")
        store.save(with_goal(make_entity()), path)
        data = damage(open(path).read())
        open(path, "wb").write(data if isinstance(data, bytes) else data.encode())

        def outcome():
            try:
                store.save(store.load(path), str(tmp_path / "again.eden.json"))
            except store.SaveStateError as exc:
                return str(exc)
            return open(tmp_path / "again.eden.json", "rb").read()

        def old_way(*args):
            raise ValueError("not read by orjson")

        got = outcome()
        monkeypatch.setattr(store, "read_lattices", old_way)
        assert got == outcome()


DEEP_SIZED = dict(initial_nodes=16, max_nodes=16, dim_xy=8, dim_z=64, min_e=80.0,
                  initial_dendrites=8, initial_genes=0, growth_step=0.0, seed=3)


def traced_peak(work) -> int:
    """The most memory that ``work()`` held at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """`save` holds one record's text and one lattice's text at a time, and
    `load` frees the file's bytes before it parses the rest of the document
    and reads each router lattice straight to int8: each one's peak, and the
    memory the loaded entity holds, as a multiple of the size of a file of 16
    deep-sized nodes (1.7 MB).

    On Python 3.11 `save` peaked at 0.31 times the file, where encoding the
    whole document and dumping it but its lattices at once took 0.43 and
    joining every lattice's text before the write took 1.43 times, and
    `load` at 1.77 times, which includes the entity it returns, where parsing
    each router lattice to int64 took 2.03 and a reader that held the file
    decoded into a `str` until the entity was built took 2.17. The entity
    holds 0.45 times, where one all-+0.0 `p` and `plane_energy_acc` per node
    took 0.76.

    `save`'s peak does not grow with the number of records: 88 KiB for 16
    grow-shaped nodes and 92 KiB for 256, whose file is 15 times larger,
    where dumping the document at once took 449 KiB and 4.7 MiB. Nor with
    the number of input probes, each written as its own record: 88 KiB for
    8 probes of 32 frames beside 16 grow-shaped nodes and 89 KiB for 128,
    whose file is 2.9 times larger, where dumping the probes with the rest
    of the document took 261 KiB and 2.8 MiB."""

    @pytest.fixture(scope="class")
    def state(self, tmp_path_factory):
        entity = seed_entity(EngineConfig(**DEEP_SIZED))
        path = str(tmp_path_factory.mktemp("peak") / "e.eden.json")
        store.save(entity, path)
        store.load(path)  # fills the zero-lattice caches, as a session's first load does
        return entity, path

    def test_save(self, state):
        entity, path = state
        assert traced_peak(lambda: store.save(entity, path)) < 0.35 * os.path.getsize(path)

    def test_save_does_not_grow_with_the_records(self, tmp_path):
        peaks, sizes = [], []
        for nodes in (16, 256):
            entity = seed_entity(EngineConfig(initial_nodes=nodes, max_nodes=nodes,
                                              dim_xy=4, dim_z=8, seed=1))
            path = str(tmp_path / f"{nodes}.eden.json")
            store.save(entity, path)  # fills the zero-lattice caches
            peaks.append(traced_peak(lambda: store.save(entity, path)))
            sizes.append(os.path.getsize(path))
        assert sizes[1] > 12 * sizes[0]
        assert peaks[1] < 1.5 * peaks[0]

    def test_save_does_not_grow_with_the_probes(self, tmp_path):
        peaks, sizes = [], []
        for probes in (8, 128):
            entity = seed_entity(EngineConfig(initial_nodes=16, max_nodes=16,
                                              dim_xy=4, dim_z=8, seed=1))
            entity.input_probes = [input_probe_from_spec({
                "probe_id": pid, "position": [5.0, 5.0, 5.0],
                "frames": [[{"offset": [0.0, 0.0, 0.0], "index": f % 4, "magnitude": 2.0}]
                           for f in range(32)]}) for pid in range(probes)]
            path = str(tmp_path / f"{probes}.eden.json")
            store.save(entity, path)  # fills the zero-lattice caches
            peaks.append(traced_peak(lambda: store.save(entity, path)))
            sizes.append(os.path.getsize(path))
        assert sizes[1] > 2.5 * sizes[0]
        assert peaks[1] < 1.5 * peaks[0]

    def test_load(self, state):
        _, path = state
        assert traced_peak(lambda: store.load(path)) < 1.9 * os.path.getsize(path)

    def test_loaded_entity(self, state):
        _, path = state
        tracemalloc.start()
        try:
            entity = store.load(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(entity.nodes) == 16
        assert held < 0.55 * os.path.getsize(path)


class TestLock:
    def test_lock_flags_everything(self):
        entity = make_entity()
        store.set_locked(entity, True)
        assert entity.locked
        assert all(f.locked for f in entity.functomes.values())
        store.set_locked(entity, False)
        assert not entity.locked
        assert not any(f.locked for f in entity.functomes.values())

    def test_lock_survives_save_load(self, tmp_path):
        path = str(tmp_path / "e.eden.json")
        entity = make_entity()
        store.set_locked(entity, True)
        store.save(entity, path)
        loaded = store.load(path)
        assert loaded.locked
        assert all(f.locked for f in loaded.functomes.values())


class TestSessionLog:
    def test_one_record_per_epoch(self, tmp_path):
        log = str(tmp_path / "run.session.jsonl")
        entity = make_entity()
        for _ in range(5):
            report = run_epoch(entity)
            store.append_session_record(log, report, entity)
        records = store.read_session_log(log)
        assert [r["epoch"] for r in records] == [0, 1, 2, 3, 4]
        for rec in records:
            assert set(rec["nodes"]) == {str(n) for n in entity.nodes}
            for meta in rec["nodes"].values():
                assert len(meta["soma"]) == 3
                assert "stability" in meta and "goal_z" in meta

    def test_records_are_valid_json_lines(self, tmp_path):
        log = str(tmp_path / "run.session.jsonl")
        entity = make_entity()
        store.append_session_record(log, run_epoch(entity), entity,
                                    environment_events=[{"note": 1}])
        with open(log) as fh:
            lines = [json.loads(l) for l in fh if l.strip()]
        assert lines[0]["environment_events"] == [{"note": 1}]


class TestEnvironmentRules:
    def _rule(self, **kw):
        base = {"precondition": {"type": "epoch_at_least", "epoch": 2},
                "effect": {"type": "deposit_payload",
                           "payload": {"index": 0, "position": [5, 5, 5],
                                       "magnitude": 1.0}}}
        base.update(kw)
        return store.EnvironmentControlRule.from_dict(base, make_entity().grid)

    def test_fires_once_when_condition_holds(self):
        entity = make_entity()
        rule = self._rule()
        assert store.apply_environment_rules(entity, [rule]) == []
        entity.entity_clock = 2
        fired = store.apply_environment_rules(entity, [rule])
        assert len(fired) == 1
        assert len(entity.grid.payloads) == 1
        # one-shot: no second firing
        assert store.apply_environment_rules(entity, [rule]) == []

    def test_repeating_rule_fires_again(self):
        entity = make_entity()
        entity.entity_clock = 5
        rule = self._rule(repeating=True)
        store.apply_environment_rules(entity, [rule])
        store.apply_environment_rules(entity, [rule])
        assert len(entity.grid.payloads) == 2

    def test_probe_reading_precondition(self):
        entity = make_entity()
        entity.output_probes.append(OutputProbe(probe_id=3, position=(5, 5, 5),
                                                radius=1.0, history=[0.4]))
        rule = self._rule(precondition={"type": "probe_reading_at_least",
                                        "probe_id": 3, "value": 0.5})
        assert store.apply_environment_rules(entity, [rule]) == []
        entity.output_probes[0].history.append(0.6)
        assert len(store.apply_environment_rules(entity, [rule])) == 1

    def test_add_and_remove_input_probe_effects(self):
        entity = make_entity()
        entity.entity_clock = 9
        add = self._rule(effect={"type": "add_input_probe",
                                 "probe": {"probe_id": 7, "position": [1, 1, 1],
                                           "frames": [[]]}})
        store.apply_environment_rules(entity, [add])
        assert [p.probe_id for p in entity.input_probes] == [7]
        remove = self._rule(effect={"type": "remove_input_probe", "probe_id": 7})
        store.apply_environment_rules(entity, [remove])
        assert entity.input_probes == []

    def test_unknown_rule_types_rejected(self):
        with pytest.raises(store.RuleError):
            self._rule(precondition={"type": "full_moon"},
                       effect={"type": "deposit_payload", "payload": {}})
        with pytest.raises(store.RuleError):
            self._rule(precondition={"type": "epoch_at_least", "epoch": 0},
                       effect={"type": "explode"})

    @pytest.mark.parametrize("precondition, effect", [
        ({"type": "epoch_at_least"}, None),
        ({"type": "epoch_at_least", "epoch": "2"}, None),
        ({"type": "node_count_at_least"}, None),
        ({"type": "probe_reading_at_least", "value": 0.5}, None),
        ({"type": "probe_reading_at_least", "probe_id": 0}, None),
        (None, {"type": "add_input_probe"}),
        (None, {"type": "add_input_probe", "probe": {"probe_id": 1, "frames": []}}),
        (None, {"type": "add_input_probe", "probe": {
            "probe_id": 1, "position": [1, 1, 1], "frames": [[{"offset": [0, 0, 0]}]]}}),
        (None, {"type": "remove_input_probe"}),
        (None, {"type": "deposit_payload", "payload": {"position": [5, 5, 5],
                                                       "magnitude": 1.0}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "magnitude": 1.0}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [5, 5],
                                                       "magnitude": 1.0}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [11, 5, 5],
                                                       "magnitude": 1.0}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [5, 5, 5]}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [5, 5, 5],
                                                       "magnitude": 0.0}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [5, 5, 5],
                                                       "magnitude": 1.0, "kind": "dust"}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [5, 5, 5],
                                                       "magnitude": 1.0, "ttl": "long"}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [5, 5, 5],
                                                       "magnitude": 1.0, "ttl": -1}}),
        (None, {"type": "deposit_payload", "payload": {"index": 0, "position": [5, 5, 5],
                                                       "magnitude": 1e999}}),
        (None, {"type": "deposit_payload", "payload": {
            "index": 0, "position": [5, 5, 5], "magnitude": 1.0,
            "properties": {"excitatory": 1, "weight": [float("nan")]}}}),
        ({"type": ["epoch_at_least"], "epoch": 2}, None),  # not hashable
        (None, {"type": "add_input_probe", "probe": {
            "probe_id": 1, "position": [1, 1, 1], "noise": -0.5, "frames": []}}),
    ])
    def test_check_rejects_what_would_fail_mid_run(self, precondition, effect):
        kw = {k: v for k, v in (("precondition", precondition), ("effect", effect)) if v}
        with pytest.raises(store.RuleError):
            self._rule(**kw)

    def test_check_accepts_working_rules(self):
        for kw in ({},
                   {"precondition": {"type": "probe_reading_at_least",
                                     "probe_id": 3, "value": 0.5}},
                   {"precondition": {"type": "node_count_at_least", "count": 2.5}},
                   {"effect": {"type": "deposit_payload", "payload": {
                       "kind": "architector", "index": 1, "position": [0, 10, 2.5],
                       "magnitude": 2, "ttl": 4, "properties": {"target_action": "x"}}}},
                   {"effect": {"type": "add_input_probe", "probe": {
                       "probe_id": 7, "position": [1, 1, 1], "frames": [[], [
                           {"offset": [0, 0.5, 0], "index": 1, "magnitude": -1.0}]]}}},
                   {"effect": {"type": "remove_input_probe", "probe_id": 7}}):
            self._rule(**kw)

    def test_load_rules_requires_list(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{}")
        with pytest.raises(store.RuleError):
            store.load_rules(str(path), make_entity().grid)
