"""Real-seconds benchmark of the characterization run: the perf trajectory.

Unlike the figure benchmarks (which regenerate the paper's *virtual*
timings), this script measures **wall-clock** — how fast the simulator
itself executes the p = 1 and p = 8 myoglobin-PME 10-step runs.  It
seeds and then guards the repo's performance trajectory:

* ``python benchmarks/bench_wallclock.py``
      measure and (re)write ``BENCH_wallclock.json`` at the repo root —
      the committed baseline future PRs regress against;
* ``python benchmarks/bench_wallclock.py --check BENCH_wallclock.json``
      measure and exit non-zero if any gated key — the p = 8 run or
      the spatial/replicated pair — is more than ``--factor`` (default
      1.25x) slower than the committed baseline (the CI gate).

Every measurement also records the p = 8 decomposition-strategy pair on
the classic myoglobin workload — replicated vs spatial on identical
physics — under the ``spatial`` key, so the baseline tracks what the
halo-exchange schedule costs in host seconds relative to the
replicated allreduce.

With ``--breakdown``, the document also records each gated point's
per-phase **virtual** splits (classic/PME computation, communication,
synchronization) so ``repro campaign analyze trend`` can attribute a
wall-clock regression to a phase — or prove it host-side when the
splits are unchanged.

The workload build is excluded from the timing; each point is run
``--repeats`` times and the minimum is kept (the usual best-of-N guard
against scheduler noise).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_wallclock.json"

WORKLOAD = "myoglobin-pme"
SPATIAL_WORKLOAD = "myoglobin-shift"
N_STEPS = 10
RANK_COUNTS = (1, 8)
SCHEMA = 1


def measure(repeats: int, shared_compute: bool = True) -> dict[str, float]:
    """Best-of-``repeats`` wall seconds per rank count."""
    from repro import MDRunConfig, RunOptions, build_workload, run_parallel_md
    from repro.cluster import ClusterSpec, tcp_gigabit_ethernet

    system, positions = build_workload(WORKLOAD)
    options = RunOptions(config=MDRunConfig(n_steps=N_STEPS), shared_compute=shared_compute)
    seconds: dict[str, float] = {}
    for p in RANK_COUNTS:
        spec = ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet())
        # untimed warm-up: populates the process-level lru_caches (cell
        # pairs, B-spline moduli, influence function) so the first timed
        # repeat is not charged for one-off setup
        run_parallel_md(system, positions, spec, options)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_parallel_md(system, positions, spec, options)
            best = min(best, time.perf_counter() - t0)
        seconds[f"p{p}"] = round(best, 4)
    return seconds


def measure_spatial(repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` p = 8 wall seconds, replicated vs spatial.

    Uses the classic (cutoff) myoglobin workload — the spatial strategy
    covers the classic path only — so the pair isolates the cost of the
    halo-exchange schedule against the replicated allreduce on identical
    physics (the two runs produce bit-identical energies and
    trajectories; only the communication schedule differs).
    """
    from repro import MDRunConfig, RunOptions, build_workload, run_parallel_md
    from repro.cluster import ClusterSpec, tcp_gigabit_ethernet

    system, positions = build_workload(SPATIAL_WORKLOAD)
    spec = ClusterSpec(n_ranks=8, network=tcp_gigabit_ethernet())
    seconds: dict[str, float] = {}
    for strategy in ("replicated", "spatial"):
        options = RunOptions(config=MDRunConfig(n_steps=N_STEPS), strategy=strategy)
        run_parallel_md(system, positions, spec, options)  # warm-up
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_parallel_md(system, positions, spec, options)
            best = min(best, time.perf_counter() - t0)
        seconds[f"{strategy}_p8"] = round(best, 4)
    return seconds


def measure_breakdown() -> dict[str, dict]:
    """Per-phase *virtual* splits of the gated points, one run each.

    Wall seconds say a point regressed; these deterministic virtual
    splits say **where**.  ``campaign analyze trend`` compares the
    splits of a baseline and a candidate bench document: a grown split
    names the phase (classic / PME / comm+sync) responsible, unchanged
    splits prove the slowdown is host-side.  One run suffices — the
    virtual timeline is bit-reproducible, so repeats would measure the
    same numbers.
    """
    from repro import MDRunConfig, RunOptions, build_workload, run_parallel_md
    from repro.cluster import ClusterSpec, tcp_gigabit_ethernet

    system, positions = build_workload(WORKLOAD)
    options = RunOptions(config=MDRunConfig(n_steps=N_STEPS))
    breakdown: dict[str, dict] = {}
    for p in RANK_COUNTS:
        spec = ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet())
        result = run_parallel_md(system, positions, spec, options)
        classic = result.component("classic")
        pme = result.component("pme")
        breakdown[f"p{p}"] = {
            "classic_comp": classic.comp,
            "classic_comm": classic.comm,
            "classic_sync": classic.sync,
            "pme_comp": pme.comp,
            "pme_comm": pme.comm,
            "pme_sync": pme.sync,
            "virtual_total": classic.total + pme.total,
        }
    return breakdown


def trace_ab(repeats: int, overhead_factor: float) -> tuple[dict, int]:
    """Traced-vs-untraced A/B on the p = 8 point.

    Asserts the observability invariant at the wall-clock level:

    * tracing **disabled** (the default ``RunOptions``) is the exact same
      code path as the committed baseline — the virtual results must be
      bit-identical (zero measurable delta);
    * tracing **enabled** must cost < ``overhead_factor`` (default 1.05,
      i.e. 5 %) extra wall time and still produce bit-identical virtual
      results (zero virtual seconds charged).
    """
    from repro import MDRunConfig, RunOptions, build_workload, run_parallel_md
    from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
    from repro.instrument.tracing import SpanTracer

    system, positions = build_workload(WORKLOAD)
    config = MDRunConfig(n_steps=N_STEPS)
    spec = ClusterSpec(n_ranks=8, network=tcp_gigabit_ethernet())

    def best_of(make_options) -> tuple[float, object, RunOptions]:
        run_parallel_md(system, positions, spec, make_options())  # warm-up
        best, result, options = float("inf"), None, None
        for _ in range(repeats):
            options = make_options()  # fresh tracer per repeat: spans from
            t0 = time.perf_counter()  # one run only, not accumulated
            result = run_parallel_md(system, positions, spec, options)
            best = min(best, time.perf_counter() - t0)
        return best, result, options

    plain_s, plain, _ = best_of(lambda: RunOptions(config=config))
    off_s, off, _ = best_of(
        lambda: RunOptions(config=config, span_tracer=None)
    )
    traced_s, traced, traced_opts = best_of(
        lambda: RunOptions(config=config, span_tracer=SpanTracer())
    )
    tracer = traced_opts.span_tracer

    problems: list[str] = []
    for name, other in (("disabled", off), ("enabled", traced)):
        if [e.total for e in other.energies] != [e.total for e in plain.energies]:
            problems.append(f"tracing {name}: energies differ from baseline")
        if other.timelines != plain.timelines:
            problems.append(f"tracing {name}: virtual timelines differ")
    for rank, tl in enumerate(traced.timelines):
        span_total = tracer.virtual_seconds(rank)
        if abs(span_total - tl.total_seconds()) > 1e-9:
            problems.append(
                f"rank {rank}: spans cover {span_total} virtual s but the "
                f"timeline attributed {tl.total_seconds()}"
            )
    overhead = traced_s / plain_s if plain_s > 0 else float("inf")
    if overhead > overhead_factor:
        problems.append(
            f"traced run {traced_s:.3f} s vs untraced {plain_s:.3f} s: "
            f"{overhead:.3f}x exceeds the {overhead_factor:.2f}x budget"
        )

    doc = {
        "untraced_s": round(plain_s, 4),
        "disabled_s": round(off_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead": round(overhead, 4),
        "spans": len(tracer.spans),
        "problems": problems,
    }
    print(f"  trace A/B (p=8, best of {repeats}):")
    print(f"    untraced: {plain_s:.3f} s   tracer=None: {off_s:.3f} s")
    print(f"    traced:   {traced_s:.3f} s  ({overhead:.3f}x, "
          f"{len(tracer.spans)} spans)")
    for p in problems:
        print(f"    PROBLEM: {p}")
    if not problems:
        print("    virtual results bit-identical; overhead within budget: ok")
    return doc, 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=None,
        help=f"where to write the measurement (default {DEFAULT_OUTPUT}; in "
        "--check mode, only written when given explicitly)",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="BASELINE",
        help="compare against a committed baseline instead of writing one",
    )
    parser.add_argument(
        "--factor", type=float, default=1.25,
        help="allowed p=8 slowdown vs the baseline in --check mode (default 1.25)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--breakdown", action="store_true",
        help="also record per-phase virtual-time splits (classic/PME/comm) "
        "per gated point, so trend reports can attribute a wall regression "
        "to a phase",
    )
    parser.add_argument(
        "--with-shared-off", action="store_true",
        help="also measure with the shared-compute cache disabled (A/B context)",
    )
    parser.add_argument(
        "--trace-ab", action="store_true",
        help="traced-vs-untraced A/B: fail if span tracing costs more than "
        "--trace-overhead extra wall time or perturbs the virtual results",
    )
    parser.add_argument(
        "--trace-overhead", type=float, default=1.05,
        help="allowed traced/untraced wall ratio in --trace-ab mode (default 1.05)",
    )
    args = parser.parse_args(argv)

    if args.trace_ab:
        ab_doc, ab_status = trace_ab(args.repeats, args.trace_overhead)
        if args.output is not None:
            args.output.write_text(json.dumps(ab_doc, indent=2) + "\n")
            print(f"wrote {args.output}")
        return ab_status

    seconds = measure(args.repeats)
    doc = {
        "schema": SCHEMA,
        "workload": WORKLOAD,
        "n_steps": N_STEPS,
        "network": "tcp-gige",
        "middleware": "mpi",
        "repeats": args.repeats,
        "seconds": seconds,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if args.with_shared_off:
        doc["seconds_shared_off"] = measure(args.repeats, shared_compute=False)
    if args.breakdown:
        doc["breakdown"] = measure_breakdown()
    doc["spatial"] = {
        "workload": SPATIAL_WORKLOAD,
        "seconds": measure_spatial(args.repeats),
    }
    for key, value in seconds.items():
        print(f"  {key}: {value:.3f} s wall")
    if "seconds_shared_off" in doc:
        for key, value in doc["seconds_shared_off"].items():
            print(f"  {key} (shared-compute off): {value:.3f} s wall")
    for key, value in doc["spatial"]["seconds"].items():
        print(f"  {key} ({SPATIAL_WORKLOAD}): {value:.3f} s wall")

    if args.check is not None:
        if args.output is not None:  # fresh measurement for trend tracking
            args.output.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"wrote {args.output}")
        baseline = json.loads(args.check.read_text())
        regressions: list[str] = []

        def gate(label: str, fresh: float, base: float) -> None:
            limit = base * args.factor
            status = "ok" if fresh <= limit else "REGRESSION"
            print(
                f"check: {label} {fresh:.3f} s vs baseline {base:.3f} s "
                f"(limit {limit:.3f} s at {args.factor:.2f}x): {status}"
            )
            if status != "ok":
                regressions.append(label)

        # every timing key the baseline carries is gated; keys absent
        # from an older baseline are simply not compared
        gate("p8", seconds["p8"], float(baseline["seconds"]["p8"]))
        spatial_base = baseline.get("spatial", {}).get("seconds", {})
        for key in ("replicated_p8", "spatial_p8"):
            if key in spatial_base:
                gate(
                    f"spatial.{key}",
                    doc["spatial"]["seconds"][key],
                    float(spatial_base[key]),
                )
        return 0 if not regressions else 1

    output = args.output if args.output is not None else DEFAULT_OUTPUT
    output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
