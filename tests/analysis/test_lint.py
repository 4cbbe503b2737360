"""Golden bad programs: each fixture must trigger its lint rule."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

VIRTUAL = "src/repro/mpi/fake.py"
TOOLING = "src/repro/report/fake.py"


def _rules(diags):
    return [d.rule for d in diags]


def _lint_fixture(name):
    source = (FIXTURES / name).read_text()
    return lint_source(source, path=name, respect_skip=False)


class TestDroppedGenerator:
    def test_every_dropped_call_is_flagged(self):
        diags = _lint_fixture("bad_dropped_generator.py")
        assert _rules(diags) == ["REP101"] * 4
        lines = sorted(d.line for d in diags)
        assert len(set(lines)) == 4, "one diagnostic per dropped call site"

    def test_driven_and_yielded_calls_are_clean(self):
        diags = _lint_fixture("bad_dropped_generator.py")
        flagged = {d.line for d in diags}
        source = (FIXTURES / "bad_dropped_generator.py").read_text()
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "must NOT be flagged" in line:
                assert lineno not in flagged, line


class TestStoredGenerator:
    def test_stored_never_consumed_flagged(self):
        diags = _lint_fixture("bad_stored_generator.py")
        assert _rules(diags) == ["REP105"] * 2
        messages = " ".join(d.message for d in diags)
        assert "'g = " in messages and "'pending = " in messages

    def test_consumed_spawned_and_captured_locals_are_clean(self):
        diags = _lint_fixture("bad_stored_generator.py")
        flagged = {d.line for d in diags}
        source = (FIXTURES / "bad_stored_generator.py").read_text()
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "must NOT be flagged" in line:
                assert lineno not in flagged, line

    def test_assignment_no_longer_misfires_rep101(self):
        src = (
            "def f(ep, sim):\n"
            "    g = ep.compute(1.0)\n"
            "    sim.spawn(g)\n"
        )
        assert lint_source(src) == []

    def test_reassignment_without_read_still_flags_last(self):
        src = (
            "def f(ep):\n"
            "    g = ep.compute(1.0)\n"
            "    g = ep.compute(2.0)\n"
            "    yield from g\n"
        )
        # the first store is shadowed before any read; conservative
        # name-level dataflow treats the later read as consuming 'g'
        assert lint_source(src) == []

    def test_module_level_store_flagged(self):
        src = "g = ep.compute(1.0)\n"
        assert _rules(lint_source(src)) == ["REP105"]

    def test_noqa_suppresses_rep105(self):
        src = "def f(ep):\n    g = ep.compute(1.0)  # noqa: REP105\n"
        assert lint_source(src) == []


class TestDiscardedResult:
    def test_discarded_collectives_flagged(self):
        diags = _lint_fixture("bad_discarded_result.py")
        assert _rules(diags) == ["REP102"] * 2

    def test_barrier_and_recv_discard_allowed(self):
        diags = _lint_fixture("bad_discarded_result.py")
        messages = " ".join(d.message for d in diags)
        assert "barrier" not in messages
        assert "recv" not in messages


class TestUnseededRandomness:
    def test_all_three_generators_flagged(self):
        diags = _lint_fixture("bad_unseeded_rng.py")
        assert _rules(diags) == ["REP103"] * 3

    def test_seeded_rng_is_clean(self):
        diags = lint_source("import numpy as np\nrng = np.random.default_rng(2002)\n")
        assert diags == []

    @pytest.mark.parametrize(
        "source, path, expected",
        [
            ("rng = np.random.default_rng()\n", VIRTUAL, ["REP103"]),
            ("rng = np.random.default_rng(2002)\n", VIRTUAL, []),
            ("x = np.random.normal(0, 1)\n", VIRTUAL, ["REP103"]),
        ],
        ids=[
            "unseeded_default_rng",
            "seeded_default_rng",
            "legacy_global_generator",
        ],
    )
    def test_each_source(self, source, path, expected):
        assert _rules(lint_source(source, path)) == expected


class TestWallClock:
    def test_wallclock_reads_flagged(self):
        diags = _lint_fixture("bad_wallclock.py")
        assert _rules(diags) == ["REP104"] * 3

    @pytest.mark.parametrize(
        "source, path",
        [("t = datetime.now()\n", VIRTUAL), ("t = time.perf_counter()\n", TOOLING)],
        ids=["datetime_now", "tooling_path_too"],
    )
    def test_each_source(self, source, path):
        assert _rules(lint_source(source, path)) == ["REP104"]


class TestParseError:
    def test_syntax_error_becomes_rep100(self):
        diags = lint_source("def broken(:\n", path="broken.py")
        assert _rules(diags) == ["REP100"]
        assert diags[0].path == "broken.py"


class TestSuppression:
    def test_noqa_with_matching_code(self):
        src = "def f(ep):\n    ep.compute(1.0)  # noqa: REP101\n"
        assert lint_source(src) == []

    def test_repro_noqa_spelling(self):
        src = "import time\nt = time.time()  # repro: noqa[REP104]\n"
        assert lint_source(src) == []

    def test_noqa_bare_suppresses_all(self):
        src = "def f(ep):\n    ep.compute(1.0)  # noqa\n"
        assert lint_source(src) == []

    def test_noqa_with_other_code_does_not_suppress(self):
        src = "def f(ep):\n    ep.compute(1.0)  # noqa: REP104\n"
        assert _rules(lint_source(src)) == ["REP101"]

    def test_skip_file_marker(self):
        src = "# repro-analyze: skip-file\ndef f(ep):\n    ep.compute(1.0)\n"
        assert lint_source(src) == []
        assert lint_source(src, respect_skip=False) != []


class TestLintPaths:
    def test_fixture_files_are_skipped_on_disk(self):
        assert lint_paths([FIXTURES]) == []

    def test_single_file_path(self, tmp_path):
        bad = tmp_path / "prog.py"
        bad.write_text("def f(ep):\n    ep.send(1, b'x')\n")
        diags = lint_paths([bad])
        assert _rules(diags) == ["REP101"]
        assert diags[0].path == str(bad)
