//! Deterministic event scheduler.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::prof;
use crate::time::SimTime;

/// A pending event in the scheduler's queue.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties are broken by insertion sequence for full determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The queue a [`Scheduler`] runs on: a binary min-heap, the only one.
///
/// Kept, with [`Scheduler::with_backend`], only because the repository
/// benchmark (`benchmark/src/trace.rs`) names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerBackend {
    /// A binary min-heap ordered by `(time, seq)`.
    #[default]
    Heap,
}

/// A deterministic discrete-event scheduler.
///
/// Events are popped in non-decreasing time order; events scheduled for the
/// same instant are delivered in insertion order, which makes simulation runs
/// bit-for-bit reproducible for a given spec.
///
/// # FIFO tie-breaking is a contract, not an accident
///
/// Every event carries a monotonically increasing sequence number assigned
/// at [`schedule_at`](Scheduler::schedule_at) time, and the binary heap
/// orders by `(time, seq)`. Two guarantees follow, and the experiment
/// runner's event loop (`xcc_framework::runner`) depends on both:
///
/// 1. **Insertion order at equal timestamps.** When a block commit notifies
///    every relayer process, the runner schedules one `RelayerWake` per
///    process at the same instant; FIFO delivery runs the processes in
///    ascending id order, deterministically.
/// 2. **FIFO survives interleaved pops.** The sequence counter is global and
///    never reset, so an event scheduled *while same-instant events are
///    being delivered* sorts after everything already queued at that
///    instant. The runner uses this to make a block event yield to pending
///    relayer wakes: re-scheduling the block at the current time places it
///    behind every wake already queued there.
///
/// Both properties are pinned by unit tests
/// (`simultaneous_events_pop_in_insertion_order`,
/// `fifo_order_survives_interleaved_scheduling_and_pops`), and a property
/// test in `tests/property_invariants.rs` holds random same-instant bursts
/// interleaved with pops to FIFO order.
///
/// The scheduler also keeps the current simulation time: popping an event
/// advances the clock to that event's timestamp, and an event scheduled
/// before it is delivered at it.
///
/// # Example
///
/// ```rust
/// use xcc_sim::{Scheduler, SimTime};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_at(SimTime::from_secs(2), "second");
/// sched.schedule_at(SimTime::from_secs(1), "first");
/// assert_eq!(sched.pop(), Some((SimTime::from_secs(1), "first")));
/// ```
pub struct Scheduler<E> {
    queue: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// [`Scheduler::new`] under the name the repository benchmark calls.
    pub fn with_backend(_backend: SchedulerBackend) -> Self {
        Self::new()
    }

    /// Schedules `payload` for delivery at the absolute instant `time`.
    ///
    /// Scheduling an event in the past is clamped to the current time; the
    /// event will be delivered on the next pop.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        prof::bump_event_scheduled();
        self.queue.push(Scheduled { time, seq, payload });
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "scheduler time went backwards");
        self.now = ev.time;
        prof::bump_event_popped();
        Some((ev.time, ev.payload))
    }
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(s: &mut Scheduler<E>) -> Vec<E> {
        std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), 3u32);
        s.schedule_at(SimTime::from_secs(1), 1u32);
        s.schedule_at(SimTime::from_secs(2), 2u32);
        assert_eq!(drain(&mut s), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            s.schedule_at(t, i);
        }
        assert_eq!(drain(&mut s), (0..100).collect::<Vec<_>>());
    }

    /// Pins the second half of the FIFO contract the experiment runner
    /// relies on: an event scheduled at time `t` *while same-instant events
    /// are being popped* is delivered after every event already queued at
    /// `t`, because the sequence counter is global and never reset. This is
    /// what lets a block event "yield" to pending relayer wakes by
    /// re-scheduling itself at the current time.
    #[test]
    fn fifo_order_survives_interleaved_scheduling_and_pops() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        s.schedule_at(t, "block-b");
        s.schedule_at(t, "wake-0");
        s.schedule_at(t, "wake-1");
        // The runner pops block-b, sees wakes pending at the same
        // instant, and re-schedules it: the requeued event must sort
        // after both wakes (and after anything a wake schedules at the
        // same instant).
        assert_eq!(s.pop().unwrap().1, "block-b");
        s.schedule_at(t, "block-b-requeued");
        assert_eq!(s.pop().unwrap().1, "wake-0");
        s.schedule_at(t, "scheduled-by-wake-0");
        assert_eq!(s.pop().unwrap().1, "wake-1");
        assert_eq!(drain(&mut s), ["block-b-requeued", "scheduled-by-wake-0"]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), "a");
        assert_eq!(s.pop(), Some((SimTime::from_secs(5), "a")));
        assert_eq!(s.now, SimTime::from_secs(5));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), "later");
        assert_eq!(s.pop(), Some((SimTime::from_secs(10), "later")));
        // Scheduling before the clock must not rewind it.
        s.schedule_at(SimTime::from_secs(1), "past");
        assert_eq!(s.pop(), Some((SimTime::from_secs(10), "past")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn scheduling_counts_into_prof() {
        prof::reset();
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), ());
        s.schedule_at(SimTime::from_secs(2), ());
        s.pop();
        let snap = prof::snapshot();
        assert_eq!(snap.events_scheduled, 2);
        assert_eq!(snap.events_popped, 1);
    }
}
