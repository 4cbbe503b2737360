"""The lint's determinism rules (REP103, REP104, REP503–REP505) and the
self-clean gate over them."""

from pathlib import Path

from repro.analysis.lint import is_virtual_time_path, lint_paths, lint_source
from repro.analysis.rules import RULES

REPO = Path(__file__).resolve().parents[2]

VIRTUAL = "src/repro/mpi/fake.py"
TOOLING = "src/repro/report/fake.py"


def _rules(source, path=VIRTUAL):
    return [d.rule for d in lint_source(source, path)]


class TestScoping:
    def test_virtual_time_packages(self):
        assert is_virtual_time_path("src/repro/sim/engine.py")
        assert is_virtual_time_path("src/repro/parallel/pmd.py")
        assert not is_virtual_time_path("src/repro/report/tables.py")
        assert not is_virtual_time_path("src/repro/cli.py")


class TestRep501Randomness:
    """REP501 retired into REP103, which flags the same sources everywhere."""

    def test_stdlib_random(self):
        assert _rules("x = random.random()\n") == ["REP103"]

    def test_applies_outside_virtual_time_too(self):
        assert _rules("x = random.random()\n", TOOLING) == ["REP103"]


class TestRep502Wallclock:
    """REP502 retired into REP104, which flags the same reads everywhere."""

    def test_wallclock_in_virtual_time(self):
        assert _rules("t = time.perf_counter()\n") == ["REP104"]


class TestRep503SetIteration:
    def test_for_over_set_call(self):
        assert _rules("for k in set(xs):\n    f(k)\n") == ["REP503"]

    def test_for_over_set_union(self):
        assert _rules("for k in set(a) | set(b):\n    f(k)\n") == ["REP503"]

    def test_for_over_set_literal(self):
        assert _rules("for k in {1, 2}:\n    f(k)\n") == ["REP503"]

    def test_comprehension_over_set(self):
        assert _rules("ys = [f(k) for k in set(a) - set(b)]\n") == ["REP503"]

    def test_sorted_fixes_it(self):
        assert _rules("for k in sorted(set(a) | set(b)):\n    f(k)\n") == []

    def test_set_comprehension_output_stays_a_set(self):
        # {f(k) for k in set(a)} builds a set: order never escapes
        assert _rules("ys = {f(k) for k in set(a)}\n") == []

    def test_list_iteration_is_fine(self):
        assert _rules("for k in [1, 2]:\n    f(k)\n") == []


class TestRep504FloatAccumulation:
    def test_sum_over_set(self):
        assert _rules("e = sum(set(energies))\n") == ["REP504"]

    def test_sum_generator_over_set(self):
        assert _rules("e = sum(x * x for x in set(xs))\n") == ["REP504"]

    def test_fsum_over_set(self):
        assert _rules("e = math.fsum({a, b, c})\n") == ["REP504"]

    def test_reduce_over_set(self):
        assert _rules("e = functools.reduce(f, set(xs))\n") == ["REP504"]

    def test_sum_over_sorted_is_fine(self):
        assert _rules("e = sum(sorted(set(xs)))\n") == []

    def test_sum_over_list_is_fine(self):
        assert _rules("e = sum(xs)\n") == []


class TestRep505HostDependence:
    def test_getpid(self):
        assert _rules("seed = os.getpid()\n") == ["REP505"]

    def test_uuid4(self):
        assert _rules("run_id = uuid.uuid4()\n") == ["REP505"]

    def test_hostname(self):
        assert _rules("h = socket.gethostname()\n") == ["REP505"]

    def test_builtin_id_and_hash(self):
        assert _rules("k = id(obj)\n") == ["REP505"]
        assert _rules("k = hash(name)\n") == ["REP505"]

    def test_tooling_layer_may_know_its_host(self):
        # federation provenance legitimately records hostname/pid
        assert _rules("h = socket.gethostname()\n", TOOLING) == []


class TestSuppression:
    def test_repro_noqa_spelling(self):
        src = "for k in set(xs):  # repro: noqa[REP503]\n    f(k)\n"
        assert _rules(src) == []

    def test_legacy_noqa_spelling(self):
        src = "for k in set(xs):  # noqa: REP503\n    f(k)\n"
        assert _rules(src) == []

    def test_noqa_for_a_different_rule_does_not_suppress(self):
        src = "for k in set(xs):  # repro: noqa[REP501]\n    f(k)\n"
        assert _rules(src) == ["REP503"]

    def test_skip_file_marker(self):
        src = "# repro-analyze: skip-file\nfor k in set(xs):\n    f(k)\n"
        assert lint_source(src, VIRTUAL) == []


class TestSelfCleanGate:
    """src/repro raises no determinism finding its inline noqa does not
    justify."""

    def test_src_is_determinism_clean(self):
        determinism = {"REP103", "REP104"} | {r for r in RULES if r.startswith("REP5")}
        diags = [
            d for d in lint_paths([REPO / "src" / "repro"]) if d.rule in determinism
        ]
        formatted = "\n".join(d.format() for d in diags)
        assert diags == [], f"determinism findings in src/repro:\n{formatted}"
