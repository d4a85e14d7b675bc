"""Benchmark of the eden engine on the grow, deep and resume workloads.

Run from the repository root:

    python3 perfbench/run.py --workload grow --seed 1 --seconds 30 --trace 0

Each workload is closed-loop, single-process and single-threaded. A run
repeats rounds of deterministic units of work until `--seconds` have passed
(and at least REPEATS rounds): set the inputs up from the seed, then run an
episode of epochs (grow, deep) or a cycle of in-process `eden train` sessions
(resume). Grow draws several stimuli (variants) from the seed and runs one
unit of each per round. Every unit of a variant must produce the same
trajectory digest, the final state must be a save -> load -> save byte
fixpoint, and the simulated behaviour must match reference.json where it
records the workload and seed.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the engine's public functions are wrapped from outside during
each unit and the last line carries the per-layer split (see tracing.py).
The lines above it print every metric with its unit and sample count, the
trajectory digest and the simulated counts per unit.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(ROOT, ".perfbench_run")  # scratch files and span dumps

REPEATS = 4  # rounds per timing block; every timing is a block's slowest repeat
REFERENCE = os.path.join(HERE, "reference.json")
clock = time.perf_counter


class CountingHandler(logging.Handler):
    """Counts records per logger name instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record):
        self.counts[record.name] += 1


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Unit:
    """One episode or cycle: what it simulated and how long each part took."""

    variant: int
    digest: str = ""
    counts: Counter = field(default_factory=Counter)
    epochs: list[float] = field(default_factory=list)
    sessions: list[float] = field(default_factory=list)  # resume only
    setup_s: float = 0.0
    save_s: float = 0.0
    load_s: float = 0.0


def by_variant(units: list[Unit]) -> list[list[Unit]]:
    groups: dict[int, list[Unit]] = {}
    for unit in units:
        groups.setdefault(unit.variant, []).append(unit)
    return [groups[v] for v in sorted(groups)]


def slowest_steps(block: list[Unit], attr: str) -> list[float]:
    """Per variant and step index, the step's slowest repeat in the block."""
    return [max(col) for units in by_variant(block)
            for col in zip(*(getattr(u, attr) for u in units))]


def slowest(block: list[Unit], attr: str) -> float:
    """Mean over variants of the block's slowest value of a per-unit time."""
    per_variant = [max(getattr(u, attr) for u in units) for units in by_variant(block)]
    return sum(per_variant) / len(per_variant)


class Stats:
    """Everything measured or checked in one run.

    Step i of every unit of a variant (an epoch, or a session on resume) does
    the same simulated work, so its repeats differ only in the host. On a
    shared host they are bimodal: a contended mode, and bursts up to 2x faster
    while other load pauses, whose share changes from run to run. Medians
    move with the share of bursts, so every gated timing is taken per block of
    REPEATS rounds as the slowest repeat, which stays in the contended mode.
    The block has a fixed size, so the estimate does not depend on how many
    repeats the code's speed fits into a run; blocks are combined by median,
    and a last incomplete block is left out.
    """

    def __init__(self, workload: str, time_store: bool):
        self.workload = workload
        self.unit = "cycle" if workload == "resume" else "episode"
        self.step = "sessions" if workload == "resume" else "epochs"
        self.variants = WORKLOADS[workload][2]
        self.time_store = time_store
        self.units: list[Unit] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.state_bytes = 0
        self.fixpoint = False
        self.reference = "not recorded"

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def first_units(self) -> list[Unit]:
        return self.units[:self.variants]

    def blocks(self) -> list[list[Unit]]:
        size = self.variants * REPEATS
        return [self.units[i:i + size]
                for i in range(0, len(self.units) - size + 1, size)]

    def raw(self, attr: str) -> list[float]:
        return [x for unit in self.units for x in getattr(unit, attr)]

    def total(self, key: str) -> int:
        return sum(unit.counts[key] for unit in self.units)

    def node_epochs_per_s(self, units: list[Unit]) -> float:
        """Node-epochs of one round over the sum of its steps' slowest repeats."""
        node_epochs = sum(u.counts["runner.node_epochs"] for u in self.first_units())
        return node_epochs / sum(slowest_steps(units, self.step))

    def digests_agree(self) -> bool:
        first = self.first_units()
        return all(unit.digest == first[unit.variant].digest for unit in self.units)

    def trajectory_digest(self) -> str:
        """One digest over every variant's trajectory, in variant order."""
        return hashlib.sha256("".join(u.digest for u in self.first_units()).encode()).hexdigest()

    def behaviour(self) -> dict:
        """What a performance-only change must leave identical for the same seed."""
        counts = Counter()
        for unit in self.first_units():
            counts.update(unit.counts)
        return {"trajectory_digest": self.trajectory_digest(),
                "state_bytes": self.state_bytes,
                "counts": dict(sorted(counts.items()))}

    def check_reference(self, seed: int) -> None:
        with open(REFERENCE, encoding="utf-8") as fh:
            recorded = json.load(fh).get(self.workload, {}).get(str(seed))
        if recorded is not None:
            self.reference = "matches" if recorded == self.behaviour() else "DIFFERS"

    @property
    def correct(self) -> bool:
        return (self.failed == 0 and self.digests_agree() and self.fixpoint
                and self.reference != "DIFFERS")


def record_epoch(unit: Unit, report, nodes: int, seconds: float) -> None:
    unit.epochs.append(seconds)
    c = unit.counts
    c["runner.node_epochs"] += nodes
    c["runner.spikes"] += sum(len(s) for s in report.spikes.values())
    c["runner.births"] += len(report.born)
    c["runner.pruned"] += len(report.pruned)
    c["runner.payloads_deposited"] += report.payloads_deposited
    c["runner.payloads_consumed"] += report.payloads_consumed
    c["runner.payloads_expired"] += report.payloads_expired


# -- workloads ----------------------------------------------------------------

def run_episode(entity, unit: Unit, epochs: int, stats: Stats):
    """`epochs` epochs on a freshly set-up entity; returns the final entity."""
    digest = hashlib.sha256()
    for _ in range(epochs):
        stats.attempted += 1
        nodes = len(entity.nodes)
        t0 = clock()
        try:
            report = eden.runner.run_epoch(entity)
        except Exception as exc:  # noqa: BLE001 - a failed epoch is counted, not fatal
            stats.fail(f"epoch {entity.entity_clock} raised {exc!r}")
            break
        record_epoch(unit, report, nodes, clock() - t0)
        digest.update(dumps_canonical(report.to_dict()).encode())
        digest.update(b"\n")
    unit.digest = digest.hexdigest()
    return entity


def run_cycle(inputs, unit: Unit, stats: Stats):
    """`eden train` sessions on a freshly set-up save state; returns None."""
    inner = eden.cli.run_epoch

    def timed_epoch(entity):
        nodes = len(entity.nodes)
        t0 = clock()
        report = inner(entity)
        record_epoch(unit, report, nodes, clock() - t0)
        return report

    eden.cli.run_epoch = timed_epoch
    try:
        for _ in range(workloads.RESUME_SESSIONS_PER_CYCLE):
            stats.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with redirect_stdout(out), redirect_stderr(err):
                code = eden.cli.main(inputs.train_argv())
            dt = clock() - t0
            if code != 0:
                stats.fail(f"eden train exited {code}: {err.getvalue().strip()}")
                break
            unit.sessions.append(dt)
    finally:
        eden.cli.run_epoch = inner
    with open(inputs.log, "rb") as fh:
        log = fh.read()
    unit.counts["store.rule_events"] += sum(
        len(json.loads(line)["environment_events"]) for line in log.splitlines())
    unit.digest = hashlib.sha256(log).hexdigest()
    return None


# name: (set-up(seed, variant, workdir), unit(inputs, unit, stats), variants).
# Grow's trajectory is chaotic: episodes under stimuli from different seeds
# differ in cost by ~10%, so a run averages over 4 stimuli.
WORKLOADS = {
    "grow": (lambda seed, variant, _dir: workloads.build_grow(seed, variant),
             lambda entity, unit, stats: run_episode(
                 entity, unit, workloads.GROW_EPISODE_EPOCHS, stats),
             4),
    "deep": (lambda seed, _variant, _dir: workloads.build_deep(seed),
             lambda entity, unit, stats: run_episode(
                 entity, unit, workloads.DEEP_EPISODE_EPOCHS, stats),
             1),
    "resume": (lambda seed, _variant, workdir: workloads.build_resume(seed, workdir),
               run_cycle, 1),
}


# -- store timing and the fixpoint check -----------------------------------------

def time_store(unit: Unit, workdir: str, final, inputs) -> None:
    """The faster of two back-to-back saves and loads of the unit's final
    state, which drops a save or load the host interrupted."""
    path = os.path.join(workdir, "timed.eden.json")
    if final is None:  # resume: the state the last `eden train` session saved
        final = store.load(inputs.state)
    saves, loads = [], []
    for _ in range(2):
        gc.collect()
        t0 = clock()
        store.save(final, path)
        t1 = clock()
        store.load(path)
        t2 = clock()
        saves.append(t1 - t0)
        loads.append(t2 - t1)
    unit.save_s, unit.load_s = min(saves), min(loads)


def check_fixpoint(final, inputs, workdir: str, stats: Stats) -> None:
    """The final state must survive save -> load -> save byte for byte."""
    path_a = os.path.join(workdir, "final_a.eden.json")
    path_b = os.path.join(workdir, "final_b.eden.json")
    if final is None:
        path_a = inputs.state
    else:
        store.save(final, path_a)
    with open(path_a, "rb") as fh:
        first = fh.read()
    store.save(store.load(path_a), path_b)
    with open(path_b, "rb") as fh:
        stats.fixpoint = fh.read() == first
    stats.state_bytes = len(first)
    if not stats.fixpoint:
        stats.fail("final state is not a save -> load -> save byte fixpoint")


def measure(seed: int, seconds: int, stats: Stats, workdir: str, tracer,
            rounds: int = REPEATS) -> None:
    """Rounds of one unit per variant until time is up and at least `rounds`
    are done; the last unit's state is checked."""
    setup, run_unit, variants = WORKLOADS[stats.workload]
    deadline = clock() + seconds
    while len(stats.units) < rounds * variants or clock() < deadline:
        for variant in range(variants):
            # From a collected heap the cyclic collector runs at the same
            # points in every repeat, instead of wherever its counters left off.
            gc.collect()
            unit = Unit(variant)
            t0 = clock()
            inputs = setup(seed, variant, workdir)
            unit.setup_s = clock() - t0
            if tracer:
                tracer.install()
            try:
                final = run_unit(inputs, unit, stats)
            finally:
                if tracer:
                    tracer.uninstall()
            if stats.time_store:
                time_store(unit, workdir, final, inputs)
            stats.units.append(unit)
    check_fixpoint(final, inputs, workdir, stats)


# -- metrics ------------------------------------------------------------------

def end_to_end(stats: Stats) -> dict:
    blocks = stats.blocks()
    n = f"{len(blocks)} block(s) of {REPEATS} rounds"

    def median_over_blocks(fn):
        return statistics.median(fn(block) for block in blocks)

    epochs = [x for block in blocks for x in slowest_steps(block, "epochs")]
    return {
        "setup_s": (median_over_blocks(lambda b: slowest(b, "setup_s")), "s", n),
        "node_epochs_per_s": (median_over_blocks(stats.node_epochs_per_s), "1/s", n),
        "epoch_ms.p50": (statistics.median(epochs) * 1000.0, "ms", f"{len(epochs)} epochs, {n}"),
        "save_s.max": (median_over_blocks(lambda b: slowest(b, "save_s")), "s", n),
        "load_s.max": (median_over_blocks(lambda b: slowest(b, "load_s")), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def informational(stats: Stats) -> dict:
    """Percentiles of the raw samples, printed but not gated: they move with
    the share of host bursts, and p90 has fewer than 10 samples beyond it on
    resume."""
    epoch_ms = [s * 1000.0 for s in stats.raw("epochs")]
    info = {"raw epoch_ms.p50": (statistics.median(epoch_ms), "ms", len(epoch_ms)),
            "raw epoch_ms.p90": (percentile(epoch_ms, 90), "ms", len(epoch_ms))}
    if stats.workload == "resume":
        session_ms = [s * 1000.0 for s in stats.raw("sessions")]
        info["raw session_ms.p50"] = (statistics.median(session_ms), "ms", len(session_ms))
        info["raw session_ms.p75"] = (percentile(session_ms, 75), "ms", len(session_ms))
    return info


SELF_TIMES = (
    "runner.run_epoch", "runner.propagate_phase", "runner.evaluate_prune_phase",
    "runner.develop_phase", "grid.query_radius", "grid.density_gradient", "grid.commit",
    "grid.decay_and_expire", "cem.forward_propagate", "cem.backprop_to_goal",
    "cem.update_routers_on_spike", "cem.randomize_stale_routers", "node.collect_inputs",
    "node.emit_payloads", "node.grow", "functome.scan_available_actions",
    "functome.execute_action", "functome.mutate", "store.save", "store.load",
    "store.entity_to_dict", "store.dumps_canonical", "store.entity_from_dict",
    "store.append_session_record", "store.apply_environment_rules",
)
CALLS = ("grid.query_radius", "grid.density_gradient", "grid.commit",
         "cem.forward_propagate", "cem.backprop_to_goal",
         "functome.scan_available_actions", "functome.execute_action")
RUNNER_COUNTS = ("runner.node_epochs", "runner.spikes", "runner.births", "runner.pruned",
                 "runner.payloads_deposited", "runner.payloads_consumed",
                 "runner.payloads_expired")
TRACE_COUNTS = ("grid.query_radius.returned", "grid.density_gradient.payloads_scanned",
                "node.grow.cones_moved", "node.emissions_blocked",
                "functome.execute_action.refused")
MODULES = ("runner", "grid", "cem", "node", "functome", "store", "cli")


def per_layer(tracer, stats: Stats, warnings: Counter) -> dict:
    """Per-layer split of a traced run; times and counts are per simulated epoch."""
    spans, c = tracer.totals(), tracer.counts
    epochs = len(stats.raw("epochs"))

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (span(name, "self_s") / epochs, "s/epoch")
    for name in CALLS:
        m[f"{name}.calls"] = (span(name, "calls") / epochs, "1/epoch")
    for name in RUNNER_COUNTS:
        m[name] = (stats.total(name) / epochs, "1/epoch")
    for name in TRACE_COUNTS:
        m[name] = (c[name] / epochs, "1/epoch")
    m["node.warnings_logged"] = (warnings["eden.node"] / epochs, "1/epoch")
    m["cli.train.total_s"] = (span("cli.train", "total_s") / epochs, "s/epoch")
    m["grid.density_gradient.match_ratio"] = (ratio(
        c["grid.density_gradient.payloads_matched"],
        c["grid.density_gradient.payloads_scanned"]), "ratio")
    m["grid.payloads.mean"] = (ratio(c["grid.payloads.sampled"],
                                     span("grid.commit", "calls")), "count")
    passes = span("cem.forward_propagate", "calls")
    m["cem.planes_per_pass"] = (ratio(c["cem.planes"], passes), "count")
    m["cem.hops_per_pass"] = (ratio(c["cem.hops"], passes), "count")
    m["node.emit_useful_ratio"] = (ratio(
        c["node.terminals"] - c["node.emissions_blocked"], c["node.terminals"]), "ratio")
    m["functome.genes_passed_ratio"] = (ratio(
        c["functome.genes_passed"], c["functome.genes_scanned"]), "ratio")
    m["store.state_bytes"] = (stats.state_bytes, "B")
    for module in MODULES:
        m[f"{module}.self_s"] = (sum(v["self_s"] for k, v in spans.items()
                                     if k.startswith(module + ".")) / epochs, "s/epoch")
    m["trace.overhead_s"] = (span(tracing.OVERHEAD, "self_s") / epochs, "s/epoch")
    wrapped_calls = sum(v["calls"] for k, v in spans.items() if k != tracing.OVERHEAD)
    m["trace.wrapper_s"] = (wrapped_calls * tracing.wrapper_cost() / epochs, "s/epoch")
    m["traced.node_epochs_per_s"] = (statistics.median(
        stats.node_epochs_per_s(block) for block in stats.blocks()), "1/s")
    return m


# -- report -------------------------------------------------------------------

def print_report(args, stats: Stats, metrics: dict, warnings: Counter) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(stats.units)} {stats.unit}s of {stats.variants} "
          f"variant(s), {len(stats.raw('epochs'))} epochs")
    print(f"  attempted {stats.attempted} {stats.step}, failed {stats.failed}, "
          f"failed_ratio {stats.failed / max(stats.attempted, 1)}")
    for message in stats.errors[:5]:
        print(f"  error: {message}")
    for name, (value, unit, *samples) in metrics.items():
        n = f"  n={samples[0]}" if samples else ""
        print(f"  {name:42s} {value:<22.10g} {unit}{n}")
    if not args.trace:
        print("  not gated:")
        for name, (value, unit, n) in informational(stats).items():
            print(f"  {name:42s} {value:<22.10g} {unit}  n={n}")
    behaviour = stats.behaviour()
    same = "identical" if stats.digests_agree() else "DIFFERENT"
    print(f"  trajectory_digest {behaviour['trajectory_digest']} "
          f"({same} in every {stats.unit} of each variant; reference.json: {stats.reference})")
    counts = behaviour["counts"]
    print(f"  per round (one {stats.unit} of each variant): "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    if "store.rule_events" in counts:
        repeating = workloads.RESUME_SESSIONS_PER_CYCLE * workloads.RESUME_EPOCHS_PER_SESSION
        print(f"  one-shot rule fired {counts['store.rule_events'] - repeating} times per "
              f"cycle: once per session, because EnvironmentControlRule.fired is not saved")
    print(f"  store.state_bytes {stats.state_bytes}; save->load->save fixpoint "
          f"{'holds' if stats.fixpoint else 'BROKEN'}; "
          f"warnings logged {dict(sorted(warnings.items()))}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_engine() -> None:
    """Import the engine from ./src and nowhere else."""
    global eden, store, dumps_canonical, workloads, tracing
    if not os.path.isfile(os.path.join(SRC, "eden", "__init__.py")):
        sys.exit(f"perfbench: no engine sources at {SRC}; run from the repository root")
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, HERE]
    import eden
    import eden.cli
    import eden.runner
    from eden import store
    from eden.store import dumps_canonical  # the original, never the traced wrapper
    import tracing
    import workloads
    if not os.path.abspath(eden.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported eden from {eden.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_engine()
    stats = Stats(args.workload, time_store=not args.trace)
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    handler = CountingHandler()
    logging.getLogger("eden").addHandler(handler)
    tracer = tracing.Tracer() if args.trace else None
    try:
        measure(args.seed, args.seconds, stats, workdir, tracer)
    finally:
        logging.getLogger("eden").removeHandler(handler)
        shutil.rmtree(workdir, ignore_errors=True)
    stats.check_reference(args.seed)
    warnings = handler.counts
    if tracer:
        metrics = per_layer(tracer, stats, warnings)
        tracer.write(os.path.join(RUN_DIR, f"spans-{args.workload}.npz"))
    else:
        metrics = end_to_end(stats)
    print_report(args, stats, metrics, warnings)
    print(json.dumps({
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": entry[0], "unit": entry[1]}
                    for name, entry in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
