"""Per-operation memory of one MD workload: minor page faults and the
in-op tracemalloc peak.

    python tools/op_memory.py WORKLOAD        (~1 min at p = 8)

WORKLOAD is ``myo_pme_p1``, ``myo_pme_p8`` or ``myo_shift_spatial_p8``:
ten MD steps of the named system on p simulated TCP-GigE ranks, one
``run_parallel_md`` call per operation, as the benchmark ledger defines
them.  A fresh interpreter builds the system, runs two warm-up
operations, then five operations under ``resource.getrusage`` (the
``ru_minflt`` delta of each: pages the step's transient arrays mapped)
and five under ``tracemalloc`` (the peak of the bytes allocated inside
each).  Prints each as median and min-max.  Measurement only: nothing
is gated on it.
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: workload -> (campaign workload, ranks, strategy)
WORKLOADS = {
    "myo_pme_p1": ("myoglobin-pme", 1, "replicated"),
    "myo_pme_p8": ("myoglobin-pme", 8, "replicated"),
    "myo_shift_spatial_p8": ("myoglobin-shift", 8, "spatial"),
}
N_STEPS = 10
WARMUPS = 2
OPS = 5
SEED = 2002


def measure(workload: str) -> dict[str, list[float]]:
    """Run in the fresh interpreter: warm up, then measure per op."""
    sys.path.insert(0, str(SRC))
    from repro.campaign.workloads import build_workload
    from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
    from repro.parallel import MDRunConfig, RunOptions, run_parallel_md

    name, n_ranks, strategy = WORKLOADS[workload]
    system, positions = build_workload(name)
    spec = ClusterSpec(n_ranks=n_ranks, network=tcp_gigabit_ethernet(), seed=SEED)
    options = RunOptions(config=MDRunConfig(n_steps=N_STEPS), strategy=strategy)

    def op() -> None:
        run_parallel_md(system, positions, spec, options)

    for _ in range(WARMUPS):
        op()
    faults = []
    for _ in range(OPS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        op()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    peaks = []
    for _ in range(OPS):
        tracemalloc.start()
        try:
            op()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    return {"ru_minflt": faults, "peak_mb": peaks}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        got = pool.apply(measure, (args.workload,))
    faults, peaks = got["ru_minflt"], got["peak_mb"]
    print(
        f"{args.workload}: {OPS} ops after {WARMUPS} warm-ups, fresh interpreter\n"
        f"  ru_minflt per op       median {statistics.median(faults):8.0f}"
        f"  [{min(faults):.0f} - {max(faults):.0f}]\n"
        f"  in-op tracemalloc peak median {statistics.median(peaks):8.1f} MB"
        f"  [{min(peaks):.1f} - {max(peaks):.1f}]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
