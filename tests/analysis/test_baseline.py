"""Finding identity and suppression: SARIF fingerprints and inline noqa,
the analyzer's one suppression mechanism (the module's name predates
the retired baseline file)."""

from repro.analysis.lint import inline_suppressions
from repro.analysis.rules import Diagnostic

D1 = Diagnostic(rule="REP503", message="set order leaks", path="src/a.py", line=10)
D2 = Diagnostic(rule="REP501", message="unseeded rng", path="src/b.py", line=3)


class TestFingerprint:
    def test_line_free(self):
        moved = Diagnostic(rule="REP503", message="set order leaks", path="src/a.py", line=99)
        assert moved.fingerprint() == D1.fingerprint()

    def test_distinguishes_rule_path_message(self):
        assert D1.fingerprint() != D2.fingerprint()

    def test_path_separator_normalized(self):
        windows = Diagnostic(rule="REP503", message="set order leaks", path="src\\a.py")
        assert windows.fingerprint() == D1.fingerprint()


class TestInlineSuppressions:
    def test_repro_spelling(self):
        assert inline_suppressions("x = 1  # repro: noqa[REP503]") == {"REP503"}

    def test_multiple_codes(self):
        assert inline_suppressions("# repro: noqa[REP503, REP504]") == {"REP503", "REP504"}

    def test_bare_suppresses_all(self):
        assert inline_suppressions("x = 1  # repro: noqa") == set()

    def test_legacy_spelling(self):
        assert inline_suppressions("x = 1  # noqa: REP503") == {"REP503"}

    def test_no_comment(self):
        assert inline_suppressions("x = 1") is None
