"""EventQueue cancellation compaction (repro.sim.kernel).

Chaos runs cancel a timeout for every transaction that completes; the
cancelled entries must not accumulate in the heap for the rest of the
run, and compaction must never change firing order.
"""

from repro.obs.prof import PROF
from repro.sim.kernel import _COMPACT_FLOOR, Clock, EventQueue


def make_queue():
    clock = Clock()
    return clock, EventQueue(clock)


def live(queue):
    """Events still due to fire (tombstones excluded)."""
    return sum(1 for _time, _seq, event in queue._heap if not event.cancelled)


class TestCompaction:
    def test_mass_cancellation_shrinks_heap(self):
        _, queue = make_queue()
        handles = [queue.schedule(i * 0.1, lambda: None) for i in range(100)]
        for handle in handles[:80]:
            handle.cancel()
        # Tombstones can never exceed live entries for long.
        assert len(queue._heap) <= 2 * live(queue) + _COMPACT_FLOOR
        assert live(queue) == 20

    def test_small_queues_skip_compaction(self):
        _, queue = make_queue()
        before = PROF.get("eventq_compactions")
        handles = [queue.schedule(i * 0.1, lambda: None) for i in range(4)]
        for handle in handles:
            handle.cancel()
        assert PROF.get("eventq_compactions") == before
        assert len(queue._heap) == 4  # below the floor: left lazy

    def test_cancel_is_idempotent(self):
        _, queue = make_queue()
        handle = queue.schedule(1.0, lambda: None)
        handle.cancel()
        tombstones = queue._cancelled
        handle.cancel()
        assert queue._cancelled == tombstones
        assert handle.cancelled

    def test_firing_order_survives_compaction(self):
        _, queue = make_queue()
        fired = []
        handles = [
            queue.schedule(i * 0.01, (lambda i=i: fired.append(i)))
            for i in range(200)
        ]
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        queue.run_all()
        assert fired == [i for i in range(200) if i % 3 == 0]

    def test_pop_of_tombstone_decrements_counter(self):
        _, queue = make_queue()
        first = queue.schedule(0.0, lambda: None)
        queue.schedule(1.0, lambda: None)
        first.cancel()
        assert queue._cancelled == 1
        queue.step()  # pops the tombstone, then fires the live event
        assert queue._cancelled == 0

    def test_next_time_skips_tombstones(self):
        clock, queue = make_queue()
        early = queue.schedule(0.5, lambda: None)
        queue.schedule(2.0, lambda: None)
        early.cancel()
        assert queue.step() and clock.now == 2.0

    def test_interleaved_schedule_cancel_fire(self):
        _, queue = make_queue()
        fired = []
        for round_no in range(20):
            handles = [
                queue.schedule(
                    round_no + i * 0.01,
                    (lambda r=round_no, i=i: fired.append((r, i))),
                )
                for i in range(10)
            ]
            for handle in handles[1:]:
                handle.cancel()
        queue.run_all()
        assert fired == [(r, 0) for r in range(20)]
        assert live(queue) == 0
