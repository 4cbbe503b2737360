"""The repo's benchmark: a four-workload host-time ledger.

    python benchmarks/ledger/run.py                       # all four workloads, both passes
    python benchmarks/ledger/run.py --out A.json          # ... and keep the results for compare.py
    python benchmarks/ledger/run.py --workload myo_pme_p8 --seed 7 --seconds 15 --trace 0
    python benchmarks/ledger/run.py --smoke               # plumbing check, < 30 s
    python benchmarks/ledger/run.py --write-reference     # regenerate reference.json

Every workload runs in fresh child interpreters (``worker.py``), one
process at a time, BLAS/OpenMP pinned to one thread, closed loop, one
client.  End-to-end metrics are **host** seconds with no instrumentation
installed; per-layer metrics come from a separate traced child.  With
``--workload`` the last line of standard output is the one JSON object
the benchmark driver reads.  See README.md for the protocol.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: fresh interpreters per timed run: set-up is measured once in each and
#: the measuring window is split evenly between them
CHILDREN = 3
#: the platform's default noise seed, and the one reference.json pins
DEFAULT_SEED = 2002
DEFAULT_SECONDS = 15
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
UNITS = {name: unit for name, unit, _, _ in END_TO_END}


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
def fingerprint() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "thread_pins": {name: "1" for name in THREAD_PINS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def run_child(mode: str, workload: str, seed: int, work_dir: Path, *,
              seconds: float = 0.0, min_ops: int = 1, smoke: bool = False) -> tuple[float, dict]:
    """Run one worker to completion; returns (set-up seconds, its document).

    Set-up is interpreter start to the child's READY line: imports,
    workload build, warm-up.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--min-ops", str(min_ops),
           "--work-dir", str(work_dir)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = (first + rest).strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child for {workload} exited with code {proc.returncode}")
    return setup_s, json.loads(lines[-1])


# ---------------------------------------------------------------------------
def _spread(values: list[float]) -> dict:
    """min / p25 / p75 / max of one metric across the children of a run."""
    # the inclusive method interpolates inside the sample range, which is
    # the sane reading of "quartiles" for three children
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"min": min(values), "p25": q[0], "p75": q[2], "max": max(values), "samples": values}


def timed_result(setups: list[float], docs: list[dict]) -> dict:
    """End-to-end metrics of one timed run from its children's documents."""
    runs = [d["timed"] for d in docs]
    walls = [w for r in runs for w in r["walls"]]
    if not walls:
        raise ChildFailed("no operation completed")

    def p75(samples):
        if len(samples) == 1:
            return samples[0]
        return statistics.quantiles(samples, n=4, method="inclusive")[2]

    completed = [r for r in runs if r["walls"]]
    per_child = {
        "setup_s": setups,
        "op_wall_s_p50": [statistics.median(r["walls"]) for r in completed],
        "op_wall_s_p75": [p75(r["walls"]) for r in completed],
        "ops_per_s": [len(r["walls"]) / r["timed_s"] for r in completed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    values = {
        "setup_s": statistics.median(setups),
        # sample statistics come from the pooled operations of all children
        "op_wall_s_p50": statistics.median(walls),
        "op_wall_s_p75": p75(walls),
        "ops_per_s": len(walls) / sum(r["timed_s"] for r in runs),
        "peak_rss_mb": statistics.median(per_child["peak_rss_mb"]),
    }
    return {
        "n": len(walls),
        "children": len(docs),
        "warmups": docs[0]["warmups"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [line for r in runs for line in r["failures"]][:5],
        "end_to_end": {
            name: {"value": values[name], "unit": UNITS[name], **_spread(per_child[name])}
            for name in values
        },
    }


def traced_result(doc: dict) -> dict:
    """Per-layer metrics of one traced child, every declared name present."""
    run = doc["traced"]
    units = {m.name: m.unit for m in PER_LAYER}
    missing = sorted(set(units) - set(run["metrics"]))
    if missing:
        raise ChildFailed(f"traced child did not report {missing}")
    return {
        "n_traced_ops": run["n_traced_ops"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "per_layer": {
            name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }


def measure_timed(workload: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """The end-to-end pass: CHILDREN fresh interpreters, no instrumentation."""
    setups, docs = zip(*(
        run_child("timed", workload, seed, work_dir, seconds=seconds / CHILDREN)
        for _ in range(CHILDREN)
    ))
    return timed_result(list(setups), list(docs))


def measure_traced(workload: str, seed: int, work_dir: Path) -> dict:
    """The per-layer pass: one child with the span wrappers installed."""
    _, doc = run_child("traced", workload, seed, work_dir)
    return traced_result(doc)


def measure_smoke(workload: str, seed: int, work_dir: Path) -> tuple[dict, dict]:
    """Both passes in one child, two operations each: plumbing, not numbers."""
    setup_s, doc = run_child("both", workload, seed, work_dir, min_ops=2, smoke=True)
    return timed_result([setup_s], [doc]), traced_result(doc)


def noisy_reasons(result: dict, fp: dict) -> list[str]:
    reasons = []
    if fp["loadavg_at_start"][0] > fp["nproc"]:
        reasons.append(f"load average {fp['loadavg_at_start'][0]:.2f} exceeds nproc {fp['nproc']}")
    for name in ("op_wall_s_p50", "op_wall_s_p75"):
        m = result["end_to_end"][name]
        if (m["p75"] - m["p25"]) / m["value"] > BOUNDS[name]:
            reasons.append(f"{name} quartile spread across children exceeds its bound")
    return reasons


# ---------------------------------------------------------------------------
def print_protocol(workload: str, seed: int, seconds: float, fp: dict, smoke: bool) -> None:
    print(f"== {workload}: {WORKLOADS[workload]}")
    print(f"   protocol: seed {seed} (platform noise seed only), window {seconds:g} s, "
          f"closed loop, one client, one process at a time"
          f"{', SMOKE (2 steps, not a measurement)' if smoke else ''}")
    print(f"   machine: {fp['cpu']} x{fp['nproc']}, load {fp['loadavg_at_start'][0]:.2f}; "
          f"python {fp['python']}, numpy {fp['numpy']}, scipy {fp['scipy']}; "
          f"threads pinned to 1 ({', '.join(THREAD_PINS)})")


def print_end_to_end(result: dict) -> None:
    print(f"   end to end (host clock, tracing off): N={result['n']} operations over "
          f"{result['children']} fresh interpreters, {result['warmups']} warm-up(s) each; "
          f"failed {result['failed']}/{result['attempted']} "
          f"(failed_share {result['failed'] / result['attempted']:.4f})")
    for name, m in result["end_to_end"].items():
        print(f"     {name:<16} {m['value']:>12.5f} {m['unit']:<4} "
              f"[children: min {m['min']:.5f}  p25 {m['p25']:.5f}  p75 {m['p75']:.5f}  "
              f"max {m['max']:.5f}]  bound {BOUNDS[name]:.0%}")
    for line in result["failures"]:
        print(f"     FAILED: {line}")


def print_per_layer(result: dict) -> None:
    print(f"   per layer (traced pass, {result['n_traced_ops']} operations, values per operation; "
          f"host clock unless virtual.* or a count): failed {result['failed']}")
    for name, m in result["per_layer"].items():
        if m["value"]:
            print(f"     {name:<44} {m['value']:>16.6f} {m['unit']}")
    zero = [name for name, m in result["per_layer"].items() if not m["value"]]
    print(f"     ({len(zero)} metrics are 0 on this workload: bypassed layers)")
    for line in result["failures"]:
        print(f"     FAILED: {line}")


def driver_line(result: dict, section: str) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result[section].items()},
    })


# ---------------------------------------------------------------------------
def write_reference(work_dir: Path) -> int:
    entries = {}
    for name in WORKLOADS:
        if name.startswith("campaign"):
            continue  # audited store against store, no committed numbers
        _, entries[name] = run_child("reference", name, DEFAULT_SEED, work_dir)
        print(f"{name}: E0 = {entries[name]['energies'][0]:.6f}, "
              f"{entries[name]['mpi.messages']} messages")
    p1, p8 = entries["myo_pme_p1"]["energies"], entries["myo_pme_p8"]["energies"]
    if any(abs(a - b) > 1e-9 * abs(a) for a, b in zip(p1, p8)):
        print("myo_pme_p8 energies do not match myo_pme_p1 to rtol 1e-9", file=sys.stderr)
        return 1
    doc = {"schema": 1, "n_steps": 10, "seed": DEFAULT_SEED, "workloads": entries}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run one workload and end with the driver's JSON line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload generation seed: the simulated platform's noise seed")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measuring window of one timed run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="N=2, 2 MD steps, a 6-point campaign: checks the plumbing only")
    ap.add_argument("--strict", action="store_true", help="exit non-zero when a run is noisy")
    ap.add_argument("--out", type=Path, help="write the full-run results here (for compare.py)")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.trace is not None and args.workload is None:
        ap.error("--trace selects the driver's JSON line and needs --workload")

    if not (SRC / "repro").is_dir():
        print(f"{SRC / 'repro'} not found: the ledger measures the program in src/", file=sys.stderr)
        return 2
    # compile up front so no child is charged for writing .pyc files
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    work_dir = ROOT / ".ledger_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    seconds = 0.0 if args.smoke else args.seconds
    try:
        if args.write_reference:
            return write_reference(work_dir)

        fp = fingerprint()
        names = list(WORKLOADS) if args.workload is None else [args.workload]
        results = {"schema": 1, "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
                   "fingerprint": fp, "workloads": {}}
        failed = 0
        noisy_any = False
        for name in names:
            print_protocol(name, args.seed, seconds, fp, args.smoke)
            timed = layers = None
            if args.smoke:
                timed, layers = measure_smoke(name, args.seed, work_dir)
            else:
                if args.trace != 1:
                    timed = measure_timed(name, args.seed, seconds, work_dir)
                if args.trace != 0:
                    layers = measure_traced(name, args.seed, work_dir)
            result = {"noisy": []}
            if timed is not None:
                print_end_to_end(timed)
                result.update(timed, noisy=noisy_reasons(timed, fp))
                failed += timed["failed"]
            if layers is not None:
                print_per_layer(layers)
                failed += layers["failed"]
                result.update(
                    per_layer=layers["per_layer"], n_traced_ops=layers["n_traced_ops"],
                    failed_traced=layers["failed"],
                    failures=result.get("failures", []) + layers["failures"],
                )
            for reason in result["noisy"]:
                print(f"   NOISY: {reason}")
            noisy_any |= bool(result["noisy"])
            results["workloads"][name] = result
        if args.out is not None:
            args.out.write_text(json.dumps(results, indent=1) + "\n")
            print(f"wrote {args.out}")
        if args.trace is not None:
            # the benchmark driver's contract: one JSON object, last line
            section, run = ("per_layer", layers) if args.trace == 1 else ("end_to_end", timed)
            print(driver_line(run, section))
        else:
            print(f"ledger: {failed} failed operation(s){', NOISY' if noisy_any else ''}")
        if args.strict and noisy_any:
            return 1
        return 0 if (args.trace is not None or not failed) else 1
    except ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # leave nothing behind unless another run is live
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
