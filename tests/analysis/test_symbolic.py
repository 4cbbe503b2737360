"""The symbolic value domain of the static schedule verifier."""

from repro.analysis.symbolic import Block, SymSize, SymTag, summarize_p_set


class TestSymTag:
    def test_absolute_reconstructs_the_runtime_tag(self):
        # the Nth next_collective_tag() draw is BASE + 16*N at runtime
        base = 1 << 20
        assert SymTag(base=0).absolute(base) == base
        assert SymTag(base=3).absolute(base) == base + 48

    def test_integer_offsets_compose(self):
        t = SymTag(base=2) + 5
        assert t.offset == 5
        assert t.absolute(1 << 20) == (1 << 20) + 32 + 5
        assert (3 + SymTag(base=0)).offset == 3

    def test_plain_offset_tag(self):
        assert SymTag(base=None, offset=7).absolute(1 << 20) == 7

    def test_str(self):
        assert "T2" in str(SymTag(base=2))


class TestSymSize:
    def test_concrete(self):
        assert SymSize(name="n", value=24).concrete
        assert not SymSize(name="n").concrete


class TestBlock:
    def test_copy_is_identity(self):
        b = Block("origin", SymSize(name="s"), "float64")
        assert b.copy() is b


class TestSummarizePSet:
    def test_all(self):
        assert summarize_p_set({1, 2, 3, 4}, 4) == "all p in [1, 4]"

    def test_tail(self):
        assert summarize_p_set({2, 3, 4}, 4) == "all p in [2, 4]"

    def test_odd(self):
        assert summarize_p_set({3, 5, 7, 9}, 9) == "odd p in [3, 9]"

    def test_even(self):
        assert summarize_p_set({2, 4, 6, 8}, 8) == "even p in [2, 8]"

    def test_powers_of_two(self):
        assert "power-of-two" in summarize_p_set({2, 4, 8, 16}, 16)

    def test_non_powers_of_two(self):
        failing = {p for p in range(2, 17) if p & (p - 1)}
        assert "non-power-of-two" in summarize_p_set(failing, 16)

    def test_explicit_list(self):
        s = summarize_p_set({3, 7}, 16)
        assert "3" in s and "7" in s

    def test_single_p(self):
        """One failing p is named, not worded as a range."""
        assert summarize_p_set({5}, 6) == "p in {5}"
        assert summarize_p_set({6}, 6) == "p in {6}"

    def test_empty(self):
        assert summarize_p_set(set(), 8) == "no p"
