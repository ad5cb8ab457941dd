"""Tests for the round-robin scheduler."""

from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.ids import ProcessId
from repro.kernel.scheduler import RoundRobinScheduler


def pid(n):
    return ProcessId(0, n)


class TestRoundRobin:
    def test_fifo_order(self):
        sched = RoundRobinScheduler()
        sched.enqueue(pid(1))
        sched.enqueue(pid(2))
        assert sched.pick_next() == pid(1)
        sched.release_cpu(pid(1))
        assert sched.pick_next() == pid(2)

    def test_enqueue_is_idempotent(self):
        sched = RoundRobinScheduler()
        sched.enqueue(pid(1))
        sched.enqueue(pid(1))
        assert len(sched) == 1

    def test_running_process_not_requeued(self):
        sched = RoundRobinScheduler()
        sched.enqueue(pid(1))
        assert sched.pick_next() == pid(1)
        sched.enqueue(pid(1))  # still marked running
        assert len(sched) == 0
        sched.release_cpu(pid(1))
        sched.enqueue(pid(1))
        assert len(sched) == 1

    def test_remove_from_queue(self):
        sched = RoundRobinScheduler()
        sched.enqueue(pid(1))
        sched.enqueue(pid(2))
        sched.remove(pid(1))
        assert sched.pick_next() == pid(2)

    def test_remove_absent_is_noop(self):
        sched = RoundRobinScheduler()
        sched.remove(pid(9))

    def test_pick_from_empty_is_none(self):
        assert RoundRobinScheduler().pick_next() is None

    def test_load_counts_queue_plus_running(self):
        sched = RoundRobinScheduler()
        assert sched.load == 0
        sched.enqueue(pid(1))
        sched.enqueue(pid(2))
        assert sched.load == 2
        sched.pick_next()
        assert sched.load == 2  # one running + one queued
        sched.release_cpu(pid(1))
        assert sched.load == 1

    def test_queued_pids_in_order(self):
        sched = RoundRobinScheduler()
        for n in (3, 1, 2):
            sched.enqueue(pid(n))
        assert sched.queued_pids() == [pid(3), pid(1), pid(2)]

    def test_release_other_pid_keeps_running(self):
        sched = RoundRobinScheduler()
        sched.enqueue(pid(1))
        sched.pick_next()
        sched.release_cpu(pid(2))
        assert sched.running == pid(1)


class ListScheduler:
    """The reference model: one list of ``(priority, pid)`` in arrival
    order, scanned in full on every call, with equality (never
    identity) deciding membership."""

    def __init__(self):
        self.queue = []
        self.running = None

    def enqueue(self, pid, priority):
        if pid == self.running or any(p == pid for _, p in self.queue):
            return
        self.queue.append((priority, pid))

    def remove(self, pid):
        self.queue = [(pr, p) for pr, p in self.queue if p != pid]

    def pick_next(self):
        if not self.queue:
            return None
        top = max(pr for pr, _ in self.queue)
        at = next(i for i, (pr, _) in enumerate(self.queue) if pr == top)
        self.running = self.queue.pop(at)[1]
        return self.running

    def release_cpu(self, pid):
        if self.running == pid:
            self.running = None

    def queued_pids(self):
        return [p for _, p in sorted(self.queue, key=lambda e: -e[0])]


operations = st.lists(
    st.tuples(
        st.sampled_from(["enqueue", "remove", "pick_next", "release_cpu"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-1, max_value=2),
    ),
    max_size=60,
)


class TestAgainstListModel:
    @given(operations)
    def test_same_answers_with_equal_but_distinct_pids(self, ops):
        """Every call gets a freshly built pid, equal to but never the
        object the scheduler stored, so an identity shortcut that
        skipped the equality fallback would diverge from the model."""
        sched, model = RoundRobinScheduler(), ListScheduler()
        for op, local_id, priority in ops:
            if op == "pick_next":
                assert sched.pick_next() is model.pick_next()
            elif op == "enqueue":
                fresh = pid(local_id)
                sched.enqueue(fresh, priority)
                model.enqueue(fresh, priority)
            else:
                getattr(sched, op)(pid(local_id))
                getattr(model, op)(pid(local_id))
            assert sched.running == model.running
            assert sched.queued_pids() == model.queued_pids()
            assert len(sched) == len(model.queue)
            assert sched.load == len(model.queue) + (model.running is not None)
