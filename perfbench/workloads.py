"""Input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` seeded by the workload name and
the ``--seed`` argument, so the same seed gives the same inputs. The engine
receives only what is generated here: an ``EngineConfig``, input and output
probes (in-process, or as a pattern file) and a rules file.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from eden import EngineConfig, InputProbe, OutputProbe, seed_entity, store

CENTRE = (5.0, 5.0, 5.0)  # middle of the default 10x10x10 grid bounds
OUTPUT_PROBE = {"probe_id": 0, "position": list(CENTRE), "radius": 2.0}

# grow: development under stimulus; the population climbs 64 -> 128 in about
# 15 epochs, so every phase runs and Develop (grid queries, gradients) dominates.
# The entity (genome and morphology) is the same for every --seed: with random
# genomes the cost of an episode varied 2.5x between seeds, because a parent
# whose neurite-adding genes always fire passes its genome to up to 64 clones.
GROW_CONFIG = dict(initial_nodes=64, dim_xy=4, dim_z=8, max_nodes=128)
GROW_ENTITY_SEED = 7
GROW_PROBES = 8
GROW_FRAMES = 4
GROW_MAGNITUDE = 2.0
GROW_EPISODE_EPOCHS = 20

# deep: learning on a fixed morphology; no genes and no growth, so the CEM
# forward pass over 64 planes dominates and density_gradient is never called.
DEEP_CONFIG = dict(initial_nodes=32, dim_xy=8, dim_z=64, min_e=80.0,
                   initial_dendrites=8, initial_genes=0, growth_step=0.0,
                   max_nodes=32)
DEEP_FRAMES = 4
DEEP_EPISODE_EPOCHS = 20

# resume: `eden train` sessions on a deep-sized save state; the store layer
# (load, save, session log) does most of the work.
RESUME_FRAMES = 2  # == epochs per session, so each session sees the whole pattern
RESUME_EPOCHS_PER_SESSION = 2
RESUME_SESSIONS_PER_CYCLE = 4


def workload_rng(name: str, seed) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _input_probes(specs: list[dict]) -> list[InputProbe]:
    return [InputProbe(probe_id=s["probe_id"], position=tuple(s["position"]),
                       frames=s["frames"]) for s in specs]


def _output_probe() -> OutputProbe:
    return OutputProbe(probe_id=OUTPUT_PROBE["probe_id"], position=CENTRE,
                       radius=OUTPUT_PROBE["radius"])


def dendrite_probe_specs(entity, rng: random.Random, frames: int) -> list[dict]:
    """One probe per node, at its soma, feeding each dendrite the index it accepts."""
    specs = []
    for nid in sorted(entity.nodes):
        node = entity.nodes[nid]
        soma = node.soma_position
        specs.append({
            "probe_id": nid,
            "position": list(soma),
            "frames": [[{"offset": [d - s for d, s in zip(den.position, soma)],
                         "index": min(den.accepted_transmitter_indices),
                         "magnitude": rng.uniform(0.5, 1.5)}
                        for den in node.dendrites]
                       for _ in range(frames)],
        })
    return specs


def build_grow(seed: int, variant: int):
    """The fixed grow entity under stimulus `variant` of those drawn from `seed`.

    Each of the 32 probe frames deposits one random index; over a cycle of
    frames every index is deposited equally often, so stimuli differ in which
    index arrives when, not in how much of each.
    """
    rng = workload_rng("grow", f"{seed}/{variant}")
    entity = seed_entity(EngineConfig(seed=GROW_ENTITY_SEED, **GROW_CONFIG))
    n_indices = entity.config.num_transmitter_indices
    indices = list(range(n_indices)) * (GROW_PROBES * GROW_FRAMES // n_indices)
    rng.shuffle(indices)
    entity.input_probes = _input_probes([
        {"probe_id": pid, "position": CENTRE,
         "frames": [[{"offset": [0.0, 0.0, 0.0], "index": indices[pid * GROW_FRAMES + f],
                      "magnitude": GROW_MAGNITUDE}] for f in range(GROW_FRAMES)]}
        for pid in range(GROW_PROBES)])
    entity.output_probes = [_output_probe()]
    return entity


def build_deep(seed: int):
    rng = workload_rng("deep", seed)
    entity = seed_entity(EngineConfig(seed=rng.randrange(2 ** 31), **DEEP_CONFIG))
    entity.input_probes = _input_probes(dendrite_probe_specs(entity, rng, DEEP_FRAMES))
    entity.output_probes = [_output_probe()]
    return entity


@dataclass
class ResumeInputs:
    state: str
    pattern: str
    rules: str
    log: str

    def train_argv(self) -> list[str]:
        return ["train", "--state", self.state,
                "--epochs", str(RESUME_EPOCHS_PER_SESSION),
                "--pattern", self.pattern, "--log", self.log, "--rules", self.rules]


def _deposit_rule(rng: random.Random, n_indices: int, repeating: bool) -> dict:
    return {"precondition": {"type": "epoch_at_least", "epoch": 0},
            "effect": {"type": "deposit_payload", "payload": {
                "index": rng.randrange(n_indices),
                "position": [rng.uniform(1.0, 9.0) for _ in range(3)],
                "magnitude": 1.0}},
            "repeating": repeating}


def build_resume(seed: int, workdir: str) -> ResumeInputs:
    """A deep-sized save state with its own seed, a 2-frame pattern and two rules.

    One rule repeats; the other is one-shot, but `fired` is not part of the
    save state, so it fires again in every session.
    """
    rng = workload_rng("resume", seed)
    entity = seed_entity(EngineConfig(seed=rng.randrange(2 ** 31), **DEEP_CONFIG))
    n_indices = entity.config.num_transmitter_indices
    inputs = ResumeInputs(state=os.path.join(workdir, "resume.eden.json"),
                          pattern=os.path.join(workdir, "pattern.json"),
                          rules=os.path.join(workdir, "rules.json"),
                          log=os.path.join(workdir, "resume.session.jsonl"))
    pattern = {"input_probes": dendrite_probe_specs(entity, rng, RESUME_FRAMES),
               "output_probes": [OUTPUT_PROBE]}
    rules = [_deposit_rule(rng, n_indices, True), _deposit_rule(rng, n_indices, False)]
    for path, doc in ((inputs.pattern, pattern), (inputs.rules, rules)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    store.save(entity, inputs.state)
    if os.path.exists(inputs.log):
        os.remove(inputs.log)
    return inputs
