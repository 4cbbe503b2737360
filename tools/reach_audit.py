"""Function-level reachability audit of ``src/repro``.

    python tools/reach_audit.py [--out AUDIT.json]          (~7 min)

Drives every entry point the characterization has — ``figures --all``,
the ledger's four workloads, every ``campaign`` verb on the file board
and on the HTTP coordinator, every CLI flag that selects code, ``trace``,
``run``, ``workload`` and ``examples/`` — under ``sys.setprofile`` and
records each function entered.  Forked children (pooled campaign
workers, the coordinator) report back through a multiprocessing
finalizer.

Prints reached/total and every unreached function that DESIGN.md's
"Kept though unreached" list does not name, and exits 1 if there is
one.  ``--out`` writes the unreached functions as JSON.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import multiprocessing
import multiprocessing.util
import os
import re
import runpy
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PKG = SRC / "repro"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(REPO / "benchmarks" / "ledger"))

SEEN: set = set()  # code objects entered
_add = SEEN.add
CHILD_DIR = Path()  # where forked children leave theirs (set by main)


def prof(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump_child():
    sys.setprofile(None)
    codes = list(SEEN)
    path = CHILD_DIR / f"{os.getpid()}.json"
    path.write_text(json.dumps(_keys(codes)))


class _Holder:  # register_after_fork keys on a weak reference
    pass


_HOLDER = _Holder()


def _after_fork(_obj):
    # multiprocessing clears the finalizer registry in a fresh child, then
    # runs the after-fork hooks: register the dump from one of them
    SEEN.clear()
    multiprocessing.util.Finalize(None, _dump_child, exitpriority=-100)


multiprocessing.util.register_after_fork(_HOLDER, _after_fork)


def _keys(codes):
    out = []
    for c in codes:
        fn = c.co_filename
        if fn.startswith(str(PKG)):
            out.append([str(Path(fn).relative_to(SRC)), c.co_qualname])
    return out


def all_functions():
    """(file, qualname) -> line count for every def under src/repro."""
    funcs = {}
    for path in sorted(PKG.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    q = prefix + child.name
                    funcs[(rel, q)] = child.end_lineno - child.lineno + 1
                    visit(child, q + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return funcs


def cli(*argv):
    from repro.cli import main

    print(">>> repro", " ".join(argv), file=sys.stderr, flush=True)
    buf = io.StringIO()
    t0 = time.time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = "EXC"
    print(f"    rc={rc} {time.time() - t0:.1f}s", file=sys.stderr, flush=True)
    return buf.getvalue()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def drive(work: Path):
    os.chdir(work)
    steps = "2"
    # -- figures, run, trace, workload --------------------------------------
    cli("figures")
    cli("figures", "nope")
    out = cli("figures", "--all")
    ok = out == (REPO / "EXPERIMENTS.tables.txt").read_text()
    print(f"    figures --all == EXPERIMENTS.tables.txt: {ok}", file=sys.stderr)
    cli("run", "--steps", steps)
    cli("run", "--steps", steps, "--middleware", "cmpi", "--ranks", "3", "--cpus-per-node", "2")
    cli("run", "--steps", steps, "--strategy", "spatial", "--ranks", "8")
    cli("run", "--network", "bogus")
    cli("trace", "--steps", steps, "-o", str(work / "trace.json"))
    cli("trace", "--network", "bogus")
    cli("workload")

    # -- ledger workloads -----------------------------------------------------
    import workloads as ledger

    for name, w in ledger.REGISTRY.items():
        print(">>> ledger", name, file=sys.stderr, flush=True)
        d = work / f"ledger-{name}"
        d.mkdir()
        w.prepare(2002, False, d)
        b = w.batch()
        print(f"    {len(b.walls)} ops, failures {b.failures}", file=sys.stderr, flush=True)

    # -- analyze ---------------------------------------------------------------
    cli("analyze", str(SRC), str(REPO / "tests"), "--github")
    cli("analyze", "/nonexistent")
    cli("analyze", "--sanitize-run", str(SRC / "repro" / "sim"))
    cli("analyze", "--static", "--bound", "32", "--github",
        "--sarif", str(work / "out.sarif"), str(SRC))
    cli("analyze", "--static", "--bound", "0", str(SRC))
    cli("analyze", "--static", "--sarif", str(work / "missing" / "out.sarif"), str(SRC))
    hazard = work / "hazard" / "repro" / "mpi" / "hazard.py"  # findings to report
    hazard.parent.mkdir(parents=True)
    hazard.write_text("t = time.time()\nfor k in set(a) | set(b):\n    f(k)\n")
    cli("analyze", "--static", "--bound", "2", "--github",
        "--sarif", str(work / "hazard.sarif"), str(work / "hazard"))

    # -- campaign on the file board --------------------------------------------
    wl = ["--workload", "peptide-tiny", "--steps", steps]
    a, b, c = str(work / "A"), str(work / "B"), str(work / "C")
    cli("campaign", "run", "--store", a, *wl, "--design", "full")
    cli("campaign", "run", "--store", b, *wl, "--design", "full", "--workers", "2",
        "--timeout", "600")
    cli("campaign", "run", "--store", a, *wl, "--design", "paper")
    cli("campaign", "run", "--store", str(work / "S"), *wl, "--design", "sweep",
        "--ranks", "1,2", "--sanitize-run", "--trace-dir", str(work / "traces"))
    cli("campaign", "run", "--store", str(work / "W"), "--workload", "water-box",
        "--steps", steps, "--strategy", "spatial", "--ranks", "1,8")
    cli("campaign", "run", "--store", str(work / "SW"), "--workload", "water-box",
        "--steps", steps, "--strategy", "spatial", "--ranks", "2", "--sanitize-run")
    cli("campaign", "run", "--store", a, "--ranks", "x")
    cli("campaign", "status", "--store", a, "--metrics")
    cli("campaign", "gc", "--store", b)
    for kind in ("report", "drift", "coverage"):
        for fmt in ("json", "md", "html"):
            cli("campaign", "analyze", kind, "--store", a, "--format", fmt,
                "-o", str(work / f"{kind}.{fmt}"))
    cli("campaign", "analyze", "report", "--store", a, "--series", "network", "--no-save")
    cli("campaign", "verify", "--store", a, *wl, "--sample", "2")
    cli("campaign", "verify", "--store", a, *wl, "--sample", "2", "--workers", "2")
    board = f"file:{work / 'leases.json'}"
    cli("campaign", "serve", "--store", c, *wl, "--design", "full", "--board", board)
    cli("campaign", "status", "--store", c, "--board", board, "--runlog", str(work / "none.jsonl"))
    cli("campaign", "work", "--store", str(work / "w1"), "--board", board, "--worker", "w1",
        "--max-points", "6")
    cli("campaign", "work", "--store", str(work / "w2"), "--board", board, "--worker", "w2")
    cli("campaign", "work", "--store", str(work / "w2"))
    g = str(work / "G")  # serve's default board: <store>/leases.json
    cli("campaign", "serve", "--store", g, *wl, "--ranks", "1,2")
    cli("campaign", "status", "--store", g)
    cli("campaign", "merge", str(work / "w1"), str(work / "w2"), "--store", c, "--expect", a)
    cli("campaign", "merge", str(work / "w1"), "--store", str(work / "D"), "--expect", a)
    shard = sorted((work / "w1").glob("*.jsonl"))[0]
    cli("campaign", "merge", str(shard), "--store", str(work / "F"))

    # -- campaign on the HTTP coordinator ---------------------------------------
    port = free_port()
    from repro.cli import main as cli_main

    def serve():  # stops on SIGINT
        with contextlib.suppress(SystemExit):
            cli_main(["campaign", "coordinator", "--port", str(port),
                      "--state", str(work / "coord.json"), "--reports", str(Path(a) / "reports")])

    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=serve)
    proc.start()
    url = f"http://127.0.0.1:{port}"
    for _ in range(100):
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            break
        except OSError:
            time.sleep(0.1)
    e = str(work / "E")
    cli("campaign", "serve", "--store", e, *wl, "--design", "full", "--board", url)
    cli("campaign", "status", "--store", e, "--board", url)
    cli("campaign", "work", "--store", str(work / "h1"), "--board", url, "--worker", "h1",
        "--max-points", "12", "--ttl", "60")
    cli("campaign", "work", "--store", str(work / "h2"), "--board", url, "--worker", "h2")
    cli("campaign", "status", "--store", e, "--board", url)
    cli("campaign", "merge", str(work / "h1"), str(work / "h2"), "--store", e, "--expect", a)
    from repro.campaign.coordinator import HttpBoardClient

    client = HttpBoardClient(url)
    for verb in ("report", "metrics", "health", "status", "runlog_tail", "counts"):
        try:
            getattr(client, verb)()
        except Exception as exc:
            print(f"    client.{verb}: {exc!r}", file=sys.stderr)
    os.kill(proc.pid, signal.SIGINT)
    proc.join(30)

    # -- examples -----------------------------------------------------------
    for ex in sorted((REPO / "examples").glob("*.py")):
        print(">>> example", ex.name, file=sys.stderr, flush=True)
        t0 = time.time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(ex), run_name="__main__")
        except Exception:
            traceback.print_exc()
        print(f"    {time.time() - t0:.1f}s", file=sys.stderr, flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write the unreached functions here")
    args = ap.parse_args()
    out = args.out.resolve() if args.out else None
    global CHILD_DIR
    CHILD_DIR = Path(tempfile.mkdtemp(prefix="reach-audit-children-"))
    work = Path(tempfile.mkdtemp(prefix="reach-audit-"))
    threading.setprofile(prof)
    sys.setprofile(prof)
    try:
        drive(work)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        os.chdir(REPO)
    reached = {tuple(k) for k in _keys(SEEN)}
    for f in CHILD_DIR.glob("*.json"):
        reached |= {tuple(k) for k in json.loads(f.read_text())}
    funcs = all_functions()
    hit = {k for k in funcs if k in reached}
    unreached = sorted(k for k in funcs if k not in reached)
    if out:
        out.write_text(json.dumps({
            "total": len(funcs),
            "reached": len(hit),
            "unreached_lines": sum(funcs[k] for k in unreached),
            "unreached": [[f, q, funcs[(f, q)]] for f, q in unreached],
        }, indent=1))
    design = (REPO / "DESIGN.md").read_text()
    kept = design.partition("### Kept though unreached")[2].partition("\n## ")[0]
    names = set(re.findall(r"`([^`]+)`", kept))

    def listed(f, q):
        # by qualified name, last component, or enclosing function
        last = q.split(".")[-1]
        outer = q.split(".<locals>.")[0]
        return bool({q, last, outer, outer.split(".")[-1], "repro." + q} & names)

    unlisted = [k for k in unreached if not listed(*k)]
    for f, q in unlisted:
        print(f"NOT KEPT: {f} {q}", file=sys.stderr)
    print(f"{len(unlisted)} unreached functions missing from DESIGN's kept list",
          file=sys.stderr)
    print(f"reached {len(hit)}/{len(funcs)}; unreached {len(unreached)} "
          f"({sum(funcs[k] for k in unreached)} lines)", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(CHILD_DIR, ignore_errors=True)
    return 1 if unlisted else 0


if __name__ == "__main__":
    raise SystemExit(main())
