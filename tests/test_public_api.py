"""The package's public surface: every ``__all__`` name resolves lazily."""

from __future__ import annotations

import subprocess
import sys

import pytest

import repro


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_all_is_sorted_and_complete():
    assert repro.__all__ == ["__version__", *sorted(repro._PUBLIC_API)]
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        repro.no_such_name


def test_star_import_exposes_the_documented_surface():
    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in ("run_parallel_md", "RunOptions", "CampaignEngine", "ResultStore",
                 "merge_into_store", "work_campaign", "publish_campaign",
                 "lint_paths", "build_workload",
                 "Board", "board_from_url", "HttpBoardClient", "CoordinatorServer",
                 "run_analysis", "AnalysisError"):
        assert name in namespace, name


def test_board_surface_is_coherent():
    """The coordinator API redesign's exports: one protocol, two
    interchangeable backends, one URL factory."""
    from repro import Board, HttpBoardClient, board_from_url
    from repro.campaign import LeaseBoard

    assert issubclass(LeaseBoard, Board)
    assert issubclass(HttpBoardClient, Board)
    assert isinstance(board_from_url("http://host:1"), HttpBoardClient)
    assert isinstance(board_from_url("file:board.json"), LeaseBoard)


def test_import_repro_stays_lazy():
    """``import repro`` must not drag in numpy-heavy subpackages (CLI startup)."""
    code = (
        "import sys, repro; "
        "heavy = [m for m in sys.modules if m.startswith('repro.parallel') "
        "or m.startswith('repro.campaign') or m.startswith('repro.experiments')]; "
        "print(','.join(heavy) or 'CLEAN')"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "CLEAN"


def test_md_nonbonded_does_not_load_the_parallel_package():
    """``md`` sits below ``parallel``: importing the nonbonded kernel and
    constructing one must not pull any ``repro.parallel*`` module in."""
    code = (
        "import sys; "
        "from repro.md.nonbonded import NonbondedKernel; "
        "from repro.md import CutoffScheme, PeriodicBox, default_forcefield; "
        "NonbondedKernel(default_forcefield(), ['NH1', 'H'], [0.3, -0.3], "
        "PeriodicBox(20.0, 20.0, 20.0), CutoffScheme(r_cut=8.0, skin=1.5)); "
        "loaded = [m for m in sys.modules if m.startswith('repro.parallel')]; "
        "print(','.join(loaded) or 'CLEAN')"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "CLEAN"


def test_core_does_not_load_the_campaign_package():
    """``core`` sits below ``campaign``: importing the characterization
    method must not pull any ``repro.campaign*`` module in."""
    code = (
        "import sys, repro.core; "
        "loaded = [m for m in sys.modules if m.startswith('repro.campaign')]; "
        "print(','.join(loaded) or 'CLEAN')"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "CLEAN"
