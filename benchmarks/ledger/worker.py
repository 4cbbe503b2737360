"""One workload in one fresh interpreter (a child of ``run.py``).

    python worker.py timed     --workload W --seed S --seconds T [--smoke]
    python worker.py traced    ...
    python worker.py both      ...   (the smoke self-test: one set-up for both passes)
    python worker.py reference ...

Protocol: the child prints ``READY`` when set-up (imports, workload
build, warm-up) is done — the parent timestamps that line to get
``setup_s`` — and a single JSON document as its last line.

``timed`` measures with no instrumentation installed.  ``traced`` first
times a few plain operations (the untraced side of
``instrument.trace_overhead_ratio``), then installs the span wrappers of
``spans.py`` and runs the per-layer pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
from metrics import INTERACTIONS, PER_LAYER

#: operations of the per-layer pass (the campaign runs one 48-point repeat)
TRACED_OPS = 5
#: self times must add up to the wall clock around the traced operations
SELF_SUM_TOLERANCE = 0.02


def timed(workload, seconds: float, min_ops: int) -> dict:
    """Closed loop, one client: batches back to back until the window ends."""
    walls: list[float] = []
    failures: list[str] = []
    attempted = 0
    timed_s = 0.0
    batches = 0
    start = time.perf_counter()
    while True:
        batch = workload.batch()
        batches += 1
        walls += batch.walls
        failures += batch.failures
        attempted += batch.attempted
        timed_s += batch.timed_s
        elapsed = time.perf_counter() - start
        # start another batch only if at least half of it fits the window
        if attempted >= min_ops and elapsed + 0.5 * elapsed / batches > seconds:
            break
    return {
        "walls": walls,
        "timed_s": timed_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def binding_guard(workload_name: str, recorder: spans.SpanRecorder) -> list[str]:
    """Every layer runs where the interaction table says, and nowhere else."""
    problems = []
    for layer in spans.LAYERS:
        expected = workload_name in INTERACTIONS[layer][1]
        calls = recorder.calls[layer]
        if expected and calls == 0:
            problems.append(f"binding guard: {layer} was never called on {workload_name}")
        if not expected and calls != 0:
            problems.append(f"binding guard: {layer} ran {calls}x on {workload_name}, expected bypass")
    if recorder.min_self < 0.0:
        problems.append(f"binding guard: negative self time {recorder.min_self:g} s")
    return problems


def layer_metrics(recorder: spans.SpanRecorder, n_ops: int, mesh_points: int) -> dict:
    """Per-operation values of every span layer and its derived rates.

    Every declared metric is present: one a workload has no source for
    (a bypassed layer, a campaign-only measurement) reads 0.
    """
    out: dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    self_s = {layer: recorder.self_s[layer] / n_ops for layer in spans.LAYERS}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = recorder.calls[layer] / n_ops
    counts = {name: recorder.target_calls[name] / n_ops for name, _, _ in spans.COUNTERS}
    out.update(counts)
    events, messages = counts["sim.events"], counts["mpi.messages"]
    out["sim.us_per_event"] = 1e6 * self_s["sim"] / events if events else 0.0
    substrate = self_s["sim"] + self_s["mpi"] + self_s["cmpi"]
    out["mpi.us_per_message"] = 1e6 * substrate / messages if messages else 0.0
    pairs = recorder.work["md.nonbonded"] / n_ops
    out["md.nonbonded.pairs"] = pairs
    out["md.nonbonded.ns_per_pair"] = 1e9 * self_s["md.nonbonded"] / pairs if pairs else 0.0
    out["md.neighborlist.builds"] = recorder.target_calls["NeighborList.build"] / n_ops
    grid_s = sum(self_s[f"pme.grid.{part}"] for part in ("stencil", "spread", "interpolate"))
    out["pme.grid.ns_per_mesh_point"] = 1e9 * grid_s / mesh_points if mesh_points else 0.0
    return out


def traced(workload, smoke: bool, mesh_points: int) -> dict:
    is_md = workload.ops_per_batch == 1
    n_batches = 1 if (smoke or not is_md) else TRACED_OPS

    plain: list[float] = []
    for _ in range(n_batches):
        plain += workload.batch().walls

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    walls: list[float] = []
    failures: list[str] = []
    attempted = 0
    wall = 0.0
    for _ in range(n_batches):
        # the traced campaign repeat also runs the drift and coverage analyses
        batch = workload.batch() if is_md else workload.batch(("drift", "coverage"))
        walls += batch.walls
        failures += batch.failures
        attempted += batch.attempted
        wall += batch.timed_s

    # snapshot before the extras below run more operations through the wrappers
    n_ops = n_batches * workload.ops_per_batch
    metrics = layer_metrics(recorder, n_ops, mesh_points)
    problems = binding_guard(workload.name, recorder)
    # the checks between operations touch no wrapped callable, so the
    # spans must account for the timed wall and nothing else
    covered = recorder.total_self()
    if abs(wall - covered) > SELF_SUM_TOLERANCE * wall:
        problems.append(
            f"binding guard: self times sum to {covered:.4f} s, root wall is {wall:.4f} s"
        )
    if is_md:
        counts = {k: int(metrics[k]) for k in ("mpi.messages", "mpi.bytes", "mpi.collectives")}
        problems += workload.check(workload.last_result, counts)

    extras, extra_problems = workload.traced_extras()
    metrics.update(extras)
    metrics["instrument.trace_overhead_ratio"] = statistics.median(walls) / statistics.median(plain)
    failures += problems + extra_problems
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "n_traced_ops": n_ops,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("timed", "traced", "both", "reference"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    # importing the workloads imports the program: part of set-up
    from workloads import REGISTRY, mesh_points_per_op

    workload = REGISTRY[args.workload]
    if args.smoke:
        workload.warmups = 1
    workload.prepare(args.seed, args.smoke, args.work_dir)
    if args.mode == "reference":
        print(json.dumps(workload.reference_entry()))
        return 0
    workload.warm_up()
    print("READY", flush=True)

    doc = {"warmups": workload.warmups}
    if args.mode in ("timed", "both"):
        doc["timed"] = timed(workload, args.seconds, args.min_ops)
    if args.mode in ("traced", "both"):
        doc["traced"] = traced(
            workload, args.smoke, mesh_points_per_op(workload.system, workload.n_steps)
        )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
