"""Timeline accounting: phases, categories, overrides."""

import pytest

from repro.instrument import KNOWN_PHASES, Category, PhaseTotals, Timeline, register_phase


class TestPhaseTotals:
    def test_add_and_total(self):
        t = PhaseTotals()
        t.add("comp", 1.0)
        t.add("comm", 0.5)
        t.add("sync", 0.25)
        assert t.total == pytest.approx(1.75)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PhaseTotals().add("comp", -1.0)

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            PhaseTotals().add("io", 1.0)

    def test_addition_operator(self):
        a = PhaseTotals(comp=1.0, comm=2.0)
        b = PhaseTotals(comp=0.5, sync=1.0)
        c = a + b
        assert (c.comp, c.comm, c.sync) == (1.5, 2.0, 1.0)


class TestTimeline:
    def test_default_phase(self):
        tl = Timeline()
        tl.add(Category.COMP, 1.0)
        assert tl.phase_totals("default").comp == 1.0

    def test_phase_context(self):
        tl = Timeline()
        with tl.phase("classic"):
            tl.add(Category.COMP, 2.0)
            with tl.phase("pme"):
                tl.add(Category.COMM, 1.0)
            tl.add(Category.SYNC, 0.5)
        assert tl.phase_totals("classic").comp == 2.0
        assert tl.phase_totals("classic").sync == 0.5
        assert tl.phase_totals("pme").comm == 1.0

    def test_grand_total(self):
        tl = Timeline()
        with tl.phase("classic"):
            tl.add(Category.COMP, 1.0)
        with tl.phase("pme"):
            tl.add(Category.COMM, 2.0)
        g = tl.grand_total()
        assert g.total == pytest.approx(3.0)
        assert tl.total_seconds() == pytest.approx(3.0)

    def test_category_override(self):
        tl = Timeline()
        with tl.as_category(Category.SYNC):
            tl.add(Category.COMM, 1.0)
            tl.add(Category.COMP, 0.5)
        assert tl.grand_total().sync == pytest.approx(1.5)
        assert tl.grand_total().comm == 0.0

    def test_override_restores(self):
        tl = Timeline()
        with tl.as_category(Category.SYNC):
            pass
        tl.add(Category.COMM, 1.0)
        assert tl.grand_total().comm == 1.0

    def test_override_validates(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            with tl.as_category("nope"):
                pass

    def test_unknown_phase_is_empty(self):
        assert Timeline().phase_totals("missing").total == 0.0


class TestKnownPhases:
    def test_phase_context_rejects_unregistered_name(self):
        tl = Timeline()
        with pytest.raises(ValueError, match="unknown phase"):
            with tl.phase("typo-phase"):
                pass

    def test_add_rejects_unregistered_current_phase(self):
        tl = Timeline(_current="typo-phase")  # bypass the context manager
        with pytest.raises(ValueError, match="unknown phase"):
            tl.add(Category.COMP, 1.0)

    def test_register_phase_opens_a_new_bucket(self):
        register_phase("ewald-test-phase")
        try:
            tl = Timeline()
            with tl.phase("ewald-test-phase"):
                tl.add(Category.COMP, 1.0)
            assert tl.phase_totals("ewald-test-phase").comp == 1.0
        finally:
            KNOWN_PHASES.discard("ewald-test-phase")

    def test_register_phase_validates_the_name(self):
        with pytest.raises(ValueError):
            register_phase("")
        with pytest.raises(ValueError):
            register_phase(None)


class TestSink:
    def test_sink_sees_every_attribution_without_changing_totals(self):
        seen = []
        tl = Timeline()
        tl.attach_sink(lambda phase, cat, dt: seen.append((phase, cat, dt)))
        tl.add(Category.COMP, 1.0)
        with tl.phase("pme"):
            tl.add(Category.COMM, 0.5)
        assert seen == [("default", "comp", 1.0), ("pme", "comm", 0.5)]
        assert tl.total_seconds() == pytest.approx(1.5)

    def test_sink_sees_the_forced_category(self):
        seen = []
        tl = Timeline()
        tl.attach_sink(lambda phase, cat, dt: seen.append(cat))
        with tl.as_category(Category.SYNC):
            tl.add(Category.COMM, 1.0)
        assert seen == ["sync"]

    def test_traced_timeline_equals_untraced(self):
        a, b = Timeline(), Timeline()
        b.attach_sink(lambda *args: None)
        a.add(Category.COMP, 1.0)
        b.add(Category.COMP, 1.0)
        assert a == b
