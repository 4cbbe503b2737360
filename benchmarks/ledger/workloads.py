"""The four ledger workloads: inputs, one operation each, and its checks.

Imported only by ``worker.py`` (a child interpreter): importing this
module imports the program, which is part of what ``setup_s`` times.

Every workload offers the same three calls — ``prepare`` (build inputs
from the seed, load the reference), ``warm_up`` and ``batch`` (run the
smallest repeatable unit and return its per-operation walls and any
check failures).  An *operation* is one ``run_parallel_md`` call for the
MD workloads and one executed design point for the campaign.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import repro.parallel.run as prun
from repro.campaign import analytics, federation
from repro.campaign.coordinator import CoordinatorThread, HttpBoardClient
from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore, record_digest
from repro.campaign.workloads import build_workload
from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
from repro.core.design import full_factorial
from repro.parallel.pmd import MDRunConfig

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: the paper's measurement window; the smoke self-test shortens it
N_STEPS = 10
SMOKE_STEPS = 2
RTOL = 1e-9

__all__ = [
    "Batch", "CampaignWorkload", "MDWorkload", "REGISTRY", "mesh_points_per_op", "virtual_stats",
]


@dataclass
class Batch:
    """What one ``batch()`` call measured."""

    walls: list[float] = field(default_factory=list)  # host seconds per operation
    timed_s: float = 0.0  # total timed wall, overheads included
    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # one line per failed operation


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def virtual_stats(result) -> dict[str, float]:
    """Simulated-cluster seconds of one run (mean over ranks), exact.

    Phases are summed in sorted order: ``total_breakdown`` iterates a set
    of phase names, whose order follows the per-process string hash.
    """
    phases = sorted({p for tl in result.timelines for p in tl.phases})
    parts = {p: result.component(p) for p in phases}
    total = sum(parts[p].total for p in phases)
    overhead = sum(parts[p].comm + parts[p].sync for p in phases)
    return {
        "total_s": total,
        "comp_s": sum(parts[p].comp for p in phases),
        "classic_s": parts["classic"].total if "classic" in parts else 0.0,
        "pme_s": parts["pme"].total if "pme" in parts else 0.0,
        "comm_sync_share": 100.0 * overhead / total if total else 0.0,
    }


def mesh_points_per_op(system, n_steps: int) -> int:
    """PME mesh points swept per operation (0 without PME)."""
    if not system.uses_pme:
        return 0
    kx, ky, kz = system.pme.grid_shape
    return kx * ky * kz * n_steps


def result_digest(result) -> str:
    """Energies, final positions and virtual timelines of one run."""
    h = hashlib.sha256()
    h.update(repr([e.total for e in result.energies]).encode())
    h.update(result.final_positions.tobytes())
    h.update(
        repr(
            [
                sorted((name, t.comp, t.comm, t.sync) for name, t in tl.phases.items())
                for tl in result.timelines
            ]
        ).encode()
    )
    return h.hexdigest()


# ---------------------------------------------------------------------------
@dataclass
class MDWorkload:
    """Ten MD steps of one system on one simulated platform."""

    name: str
    system_name: str
    n_ranks: int
    strategy: str = "replicated"
    #: a second reference entry whose energies this workload must also match
    energies_also_match: str | None = None
    warmups: int = 2
    ops_per_batch: int = 1

    def prepare(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = seed
        self.n_steps = SMOKE_STEPS if smoke else N_STEPS
        self.system, self.positions = build_workload(self.system_name)
        # the seed reaches the program only as the platform's noise seed:
        # energies and message counts are the same at every seed, the
        # virtual network timings are not
        self.spec = ClusterSpec(
            n_ranks=self.n_ranks, network=tcp_gigabit_ethernet(), seed=seed
        )
        self.options = prun.RunOptions(
            config=MDRunConfig(n_steps=self.n_steps), strategy=self.strategy
        )
        self.first_digest: str | None = None
        self.last_result = None

    @cached_property
    def reference(self) -> dict:
        return json.loads(REFERENCE_PATH.read_text())

    def run_once(self, options=None):
        # resolved through the module at call time, so the traced pass
        # reaches the wrapper installed on ``repro.parallel.run``
        return prun.run_parallel_md(
            self.system, self.positions, self.spec, options or self.options
        )

    def warm_up(self) -> None:
        for _ in range(self.warmups):
            self.run_once()

    def batch(self) -> Batch:
        out = Batch(attempted=1)
        t0 = time.perf_counter()
        try:
            result = self.run_once()
        except Exception:
            out.timed_s = time.perf_counter() - t0
            out.failures.append(f"raised: {traceback.format_exc(limit=3)}")
            return out
        out.timed_s = time.perf_counter() - t0
        out.walls.append(out.timed_s)
        self.last_result = result
        problems = self.check(result)
        if problems:
            out.failures.append("; ".join(problems))
        return out

    # -- correctness ----------------------------------------------------
    def check(self, result, counts: dict | None = None) -> list[str]:
        """Digest against the first repeat, then the committed reference."""
        problems = []
        digest = result_digest(result)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("result digest differs from the first repeat")

        energies = [e.total for e in result.energies]
        for name in filter(None, (self.name, self.energies_also_match)):
            expected = self.reference["workloads"][name]["energies"][: self.n_steps]
            if len(energies) != len(expected) or not all(map(_close, energies, expected)):
                problems.append(f"per-step energies miss the {name} reference")

        if self.n_steps != self.reference["n_steps"]:
            return problems  # smoke: shorter window, counts and virtual time differ
        ref = self.reference["workloads"][self.name]
        got = {
            "transfers": len(result.transfers),
            "transfer_bytes": sum(t.nbytes for t in result.transfers),
            **(counts or {}),
        }
        for key, value in got.items():
            if value != ref[key]:
                problems.append(f"{key} = {value}, reference {ref[key]}")
        virtual = virtual_stats(result)
        if not _close(virtual["comp_s"], ref["virtual.comp_s"]):
            problems.append("virtual computation seconds miss the reference")
        # network noise is drawn from the seed, so the virtual total is
        # pinned only at the seed the reference was written with
        if self.seed == self.reference["seed"] and not _close(
            virtual["total_s"], ref["virtual.total_s"]
        ):
            problems.append("virtual.total_s misses the reference")
        return problems

    def reference_entry(self) -> dict:
        """This workload's ``reference.json`` entry, from the program's own trace."""
        from repro.instrument.commstats import CommTrace

        trace = CommTrace()
        result = self.run_once(self.options.replace(trace=trace))
        sends = trace.by_kind("send")
        virtual = virtual_stats(result)
        return {
            "energies": [e.total for e in result.energies],
            "virtual.total_s": virtual["total_s"],
            "virtual.comp_s": virtual["comp_s"],
            "transfers": len(result.transfers),
            "transfer_bytes": sum(t.nbytes for t in result.transfers),
            "mpi.messages": len(sends),
            "mpi.bytes": sum(e.nbytes for e in sends),
            "mpi.collectives": len(trace.by_kind("collective")),
        }

    # -- traced-pass extras ---------------------------------------------
    def traced_extras(self) -> tuple[dict, list[str]]:
        """Virtual statistics of the last traced run; no extra measurements."""
        v = virtual_stats(self.last_result)
        return {f"virtual.{k}": v[k] for k in ("total_s", "classic_s", "pme_s", "comm_sync_share")}, []


# ---------------------------------------------------------------------------
def _digests(store: ResultStore) -> dict[str, str]:
    return {entry.key: record_digest(entry.record) for entry in store.entries()}


def _smoke_points():
    """Six points: every network, both middlewares, p=2 on uni nodes."""
    return [p for p in full_factorial() if p.n_ranks == 2 and p.config.cpus_per_node == 1]


@dataclass
class CampaignWorkload:
    """The paper's factorial as a federated campaign on a tiny system."""

    name: str
    system_name: str = "peptide-tiny"
    warmups: int = 1

    def prepare(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.points = _smoke_points() if smoke else full_factorial()
        self.config = MDRunConfig(n_steps=SMOKE_STEPS if smoke else N_STEPS)
        self.n_steps = self.config.n_steps
        self.system, _ = build_workload(self.system_name)
        self.expected_keys = {self.engine(ResultStore(None)).key_for(p) for p in self.points}
        self.warm_digests: dict[str, str] = {}
        self.first_digests: dict[str, str] | None = None
        self.last_root: Path | None = None  # the latest repeat's directories

    @property
    def ops_per_batch(self) -> int:
        return len(self.points)

    def engine(self, store: ResultStore) -> CampaignEngine:
        # the seed reaches the program as the campaign's base seed, from
        # which every point's platform noise seed (and store key) derives
        return CampaignEngine(
            workload=self.system_name, config=self.config, base_seed=self.seed, store=store
        )

    def warm_up(self) -> None:
        """Inline pass over the p in {1, max} points; also the check's reference."""
        extremes = {min(p.n_ranks for p in self.points), max(p.n_ranks for p in self.points)}
        store = ResultStore(None)
        result = self.engine(store).run([p for p in self.points if p.n_ranks in extremes])
        if not result.ok:
            raise RuntimeError("campaign warm-up pass failed")
        self.warm_digests = _digests(store)

    def batch(self, extra_analyses: tuple[str, ...] = ()) -> Batch:
        out = Batch(attempted=len(self.points))
        if self.last_root is not None:
            shutil.rmtree(self.last_root, ignore_errors=True)
        root = self.last_root = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.work_dir))
        stamps: list[float] = []
        t0 = time.perf_counter()
        try:
            with CoordinatorThread(root / "board.json") as coord:
                federation.publish_campaign(
                    self.engine(ResultStore(None)), self.points, coord.url
                )
                worker_store = ResultStore(root / "worker")
                t_work = time.perf_counter()
                stats = federation.work_campaign(
                    coord.url, worker_store, "w0",
                    progress=lambda _line: stamps.append(time.perf_counter()),
                )
                worker_store.close()
            merged = ResultStore(root / "merged")
            federation.merge_into_store(merged, [root / "worker"])
            reports = [
                analytics.run_analysis(kind, root / "merged")
                for kind in ("report", *extra_analyses)
            ]
            merged.close()
            out.timed_s = time.perf_counter() - t0
        except Exception:
            out.timed_s = time.perf_counter() - t0
            out.failures = [f"raised: {traceback.format_exc(limit=3)}"] * len(self.points)
            return out

        out.walls = [b - a for a, b in zip([t_work, *stamps], stamps)]
        lost = stats["failed"] + stats["lost"]
        out.failures += [f"{lost} point(s) failed or lost their lease"] * lost
        problems = self.check(_digests(merged), reports)
        if problems and not out.failures:
            out.failures = ["; ".join(problems)] * len(problems)
        return out

    # -- correctness ----------------------------------------------------
    def check(self, digests: dict[str, str], reports: list[dict]) -> list[str]:
        """The merged store against the published points, the inline
        warm-up pass (the single-host path) and the first repeat.

        Plain digest comparisons: the check must not run through the
        store calls the traced pass is counting.
        """
        problems = []
        if set(digests) != self.expected_keys:
            problems.append(
                f"merged store holds {len(digests)} keys, "
                f"{len(set(digests) ^ self.expected_keys)} differ from the published points"
            )
        problems += [
            f"key {key[:16]}: record differs from the inline warm-up pass"
            for key, digest in sorted(self.warm_digests.items())
            if digests.get(key) != digest
        ]
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("merged records differ from the first repeat")
        problems += [
            f"analysis {doc.get('analysis_id', '?')} is not ok"
            for doc in reports
            if not doc.get("ok", True)
        ]
        return problems

    # -- traced-pass extras ---------------------------------------------
    def traced_extras(self) -> tuple[dict, list[str]]:
        """Measurements only the traced pass takes, plus the full store audit."""
        n = len(self.points)
        root = Path(tempfile.mkdtemp(prefix="campaign-extras-", dir=self.work_dir))
        extras: dict[str, float] = {}
        problems: list[str] = []
        try:
            # one inline single-host run of the same points: the reference
            # every federated store is audited against
            inline = ResultStore(root / "inline")
            engine = self.engine(inline)
            t0 = time.perf_counter()
            cold = engine.run(self.points)
            extras["campaign.engine.inline_points_per_s"] = n / (time.perf_counter() - t0)
            t0 = time.perf_counter()
            warm = engine.run(self.points)
            extras["campaign.store.warm_hit_s"] = (time.perf_counter() - t0) / n
            if not (cold.ok and warm.ok):
                problems.append("inline engine run failed")
            if warm.manifest.counts["hit"] != n:
                problems.append("warm re-run did not hit the store for every point")
            # the audit the federation layer ships: the last federated
            # repeat's merged store against the single-host run, key for key
            merged = ResultStore(self.last_root / "merged")
            problems += federation.verify_stores_match(merged, inline)
            merged.close()

            records = [inline.get(k) for k in sorted(self.expected_keys)]
            total = sum(r.total_time for r in records)
            overhead = sum(r.total_comm + r.total_sync for r in records)
            extras["virtual.total_s"] = total / n
            extras["virtual.classic_s"] = sum(r.classic_time for r in records) / n
            extras["virtual.pme_s"] = sum(r.pme_time for r in records) / n
            extras["virtual.comm_sync_share"] = 100.0 * overhead / total
            inline.close()

            extras.update(self._round_trips(root))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return extras, problems

    def _round_trips(self, root: Path) -> dict[str, float]:
        """claim / heartbeat / complete latency over one keep-alive connection."""
        rtt: dict[str, list[float]] = {"claim": [], "heartbeat": [], "complete": []}
        with CoordinatorThread(root / "rtt-board.json") as coord:
            federation.publish_campaign(self.engine(ResultStore(None)), self.points, coord.url)
            with HttpBoardClient(coord.url) as client:
                for _ in self.points:
                    t0 = time.perf_counter()
                    lease = client.claim("rtt")
                    t1 = time.perf_counter()
                    client.heartbeat(lease.key, "rtt")
                    t2 = time.perf_counter()
                    client.complete(lease.key, "rtt")
                    t3 = time.perf_counter()
                    rtt["claim"].append(t1 - t0)
                    rtt["heartbeat"].append(t2 - t1)
                    rtt["complete"].append(t3 - t2)
        out = {}
        for verb, samples in rtt.items():
            samples.sort()
            for q, label in ((0.50, "p50"), (0.95, "p95")):
                index = min(len(samples) - 1, int(q * len(samples)))
                out[f"campaign.coordinator.{verb}.rtt_ms_{label}"] = 1e3 * samples[index]
        return out


REGISTRY = {
    w.name: w
    for w in (
        MDWorkload("myo_pme_p1", "myoglobin-pme", n_ranks=1),
        MDWorkload("myo_pme_p8", "myoglobin-pme", n_ranks=8, energies_also_match="myo_pme_p1"),
        MDWorkload("myo_shift_spatial_p8", "myoglobin-shift", n_ranks=8, strategy="spatial"),
        CampaignWorkload("campaign_peptide_48"),
    )
}
