"""Unit tests for the shared vector-clock primitives.

Pins the sparse-clock edge cases the extraction to
``repro.core.clocks`` must preserve: absent components read as 0,
self-join is a no-op, and ticks are unbounded Python ints (no
overflow ceiling).
"""

import pytest

from repro.core.clocks import VectorClock, vc_copy, vc_dominates, vc_join


class TestVectorClock:
    def test_get_of_absent_tid_is_zero(self):
        vc = VectorClock({1: 5})
        assert vc.get(1) == 5
        assert vc.get(2) == 0
        assert vc.get(0) == 0

    def test_empty_clock_reads_zero_everywhere(self):
        vc = VectorClock()
        assert vc.get(7) == 0

    def test_tick_creates_then_increments(self):
        vc = VectorClock()
        vc.tick(3)
        assert vc.get(3) == 1
        vc.tick(3)
        assert vc.get(3) == 2

    def test_tick_is_overflow_free(self):
        # Components are plain Python ints — no 32/64-bit ceiling.
        huge = 2**64 - 1
        vc = VectorClock({1: huge})
        vc.tick(1)
        assert vc.get(1) == huge + 1
        vc.tick(1)
        assert vc.get(1) == huge + 2

    def test_join_with_self_is_noop(self):
        vc = VectorClock({1: 3, 2: 7})
        changed = vc.join(vc)
        assert changed is False
        assert vc.get(1) == 3 and vc.get(2) == 7

    def test_join_takes_pointwise_max_and_reports_change(self):
        a = VectorClock({1: 3, 2: 7})
        b = VectorClock({1: 5, 3: 1})
        assert a.join(b) is True
        assert a.get(1) == 5 and a.get(2) == 7 and a.get(3) == 1
        # A dominated join reports no change.
        assert a.join(b) is False

    def test_join_with_empty_reports_no_change(self):
        a = VectorClock({1: 1})
        assert a.join(VectorClock()) is False
        assert a.get(1) == 1

    def test_copy_is_independent(self):
        a = VectorClock({1: 1})
        b = a.copy()
        b.tick(1)
        assert a.get(1) == 1
        assert b.get(1) == 2

    def test_dominates_treats_absent_as_zero(self):
        assert VectorClock({1: 1}).dominates(VectorClock())
        assert VectorClock({1: 2, 2: 1}).dominates(VectorClock({1: 2}))
        assert not VectorClock({1: 2}).dominates(VectorClock({2: 1}))
        assert VectorClock().dominates(VectorClock())

    def test_repr_is_sorted_by_tid(self):
        assert repr(VectorClock({2: 1, 1: 4})) == "VC(t1:4, t2:1)"


class TestDictHelpers:
    def test_vc_join_in_place_changed(self):
        dst = {1: 3}
        assert vc_join(dst, {1: 5, 2: 1}) is True
        assert dst == {1: 5, 2: 1}

    def test_vc_join_dominated_is_unchanged(self):
        dst = {1: 5, 2: 2}
        assert vc_join(dst, {1: 4, 2: 2}) is False
        assert dst == {1: 5, 2: 2}

    def test_vc_join_with_itself_is_noop(self):
        dst = {1: 2}
        assert vc_join(dst, dst) is False
        assert dst == {1: 2}

    def test_vc_copy_is_fresh(self):
        src = {1: 1}
        dup = vc_copy(src)
        dup[1] = 9
        assert src == {1: 1}

    def test_vc_dominates(self):
        assert vc_dominates({1: 2}, {1: 2})
        assert vc_dominates({1: 2}, {})
        assert not vc_dominates({}, {1: 1})


class TestDeprecationReexport:
    def test_race_baseline_consumes_the_shared_class(self):
        from repro.baselines.vectorclock import HappensBeforeRaces

        backend = HappensBeforeRaces()
        assert isinstance(backend.clock(1), VectorClock)
