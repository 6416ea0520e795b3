//! The stable event queue at the heart of the simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered event queue with stable FIFO ordering for ties.
///
/// Events scheduled for the same instant are popped in the order they were
/// pushed. This stability is what makes whole-system runs deterministic:
/// two protocol actions scheduled "now" never race on heap internals.
///
/// An event is written once and read once: `push` stores it in a slab
/// slot and `pop` takes it back out, while the binary heap orders 24-byte
/// `(time, seq, slot)` keys — sifting never moves an event, however large
/// `E` is. Emptied slots are reused last-out-first-in, so a queue that
/// has held its peak pushes and pops without reaching the allocator
/// (pinned by `tests/queue_alloc.rs`).
///
/// # Example
///
/// ```
/// use mp2p_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(7), 'b');
/// q.push(SimTime::from_millis(3), 'a');
/// assert_eq!(q.pop(), Some((SimTime::from_millis(3), 'a')));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(7), 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// Event bodies; `None` marks a slot listed in `free`.
    slab: Vec<Option<E>>,
    /// Emptied slots, reused from the back.
    free: Vec<usize>,
    next_seq: u64,
    pops: u64,
    peak_len: usize,
    peak_capacity: usize,
}

/// Lifetime telemetry of one [`EventQueue`]: totals and high-water
/// marks. Strictly observational — the counters never influence
/// scheduling order, so reading them cannot perturb a seeded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub pushes: u64,
    /// Events popped over the queue's lifetime.
    pub pops: u64,
    /// Largest number of events ever pending at once.
    pub peak_len: usize,
    /// Largest capacity the slab of event bodies ever reserved.
    pub peak_capacity: usize,
}

/// What the heap sifts: when, in which order among ties, and where the
/// event itself waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // wins. `seq` is unique, so `slot` never decides.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            next_seq: 0,
            pops: 0,
            peak_len: 0,
            peak_capacity: capacity,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                // Every slot may end up listed here at once; reserving
                // now keeps `pop` off the allocator.
                self.free.reserve(self.slab.capacity());
                self.peak_capacity = self.peak_capacity.max(self.slab.capacity());
                self.slab.len() - 1
            }
        };
        self.heap.push(Entry { time, seq, slot });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { time, slot, .. } = self.heap.pop()?;
        let event = self.slab[slot]
            .take()
            .expect("a queued key names a full slot");
        self.free.push(slot);
        self.pops += 1;
        Some((time, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }

    /// Lifetime telemetry: push/pop totals and high-water marks.
    /// `pushes` equals the number of sequence numbers ever issued, so
    /// `pushes - pops` is the current backlog plus anything cleared.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushes: self.next_seq,
            pops: self.pops,
            peak_len: self.peak_len,
            peak_capacity: self.peak_capacity,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (time, event) in iter {
            self.push(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut queue = EventQueue::new();
        queue.extend(iter);
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, e) in [(5, "e5"), (1, "e1"), (3, "e3"), (2, "e2"), (4, "e4")] {
            q.push(SimTime::from_millis(t), e);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["e1", "e2", "e3", "e4", "e5"]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "late");
        q.push(SimTime::from_millis(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_millis(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.is_empty());
    }

    #[test]
    fn stats_track_totals_and_high_water() {
        let mut q = EventQueue::with_capacity(4);
        assert_eq!(
            q.stats(),
            QueueStats {
                pushes: 0,
                pops: 0,
                peak_len: 0,
                peak_capacity: 4,
            }
        );
        for i in 0..3u64 {
            q.push(SimTime::from_millis(i), i);
        }
        q.pop();
        q.push(SimTime::from_millis(9), 9);
        let s = q.stats();
        assert_eq!(s.pushes, 4);
        assert_eq!(s.pops, 1);
        assert_eq!(s.peak_len, 3);
        assert!(s.peak_capacity >= 4);
        // Draining to empty: pops catch up with pushes, peaks persist.
        while q.pop().is_some() {}
        assert_eq!(q.pop(), None);
        let s = q.stats();
        assert_eq!(s.pops, s.pushes);
        assert_eq!(s.peak_len, 3, "high-water mark survives the drain");
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<u8> = (0..4).map(|i| (SimTime::from_millis(i), i as u8)).collect();
        assert_eq!(q.len(), 4);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// What the queue is specified as: a `Vec` stably sorted by
    /// `(time, insertion index)`, popped from the front.
    #[derive(Default)]
    struct Model {
        pending: Vec<(u64, usize)>,
        pushed: usize,
    }

    impl Model {
        fn push(&mut self, time: u64) -> usize {
            self.pending.push((time, self.pushed));
            self.pushed += 1;
            self.pushed - 1
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            // Entries arrive in insertion order, so the stable sort
            // leaves equal times FIFO.
            self.pending.sort_by_key(|&(time, _)| time);
            (!self.pending.is_empty()).then(|| {
                let (time, index) = self.pending.remove(0);
                (SimTime::from_millis(time), index)
            })
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(u64),
        /// That many events at one instant.
        Burst(u64, usize),
        Pop,
        /// Pops to empty with a clone popped in lockstep; what follows
        /// refills slots that were all handed back.
        Drain,
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Few distinct times, so ties are the rule; drains and clears
        // are rare, so the queue gets deep between them.
        (0u8..16, 0u64..12, 2usize..20).prop_map(|(kind, t, n)| match kind {
            0..=5 => Op::Push(t),
            6..=7 => Op::Burst(t, n),
            8..=13 => Op::Pop,
            14 => Op::Drain,
            _ => Op::Clear,
        })
    }

    proptest! {
        /// Any interleaving of pushes, pops, drains and clears pops what
        /// the model pops, and the telemetry counts what happened.
        #[test]
        fn prop_matches_the_sorted_vec_model(ops in proptest::collection::vec(op(), 0..300)) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut pops = 0u64;
            for op in ops {
                match op {
                    Op::Push(t) => q.push(SimTime::from_millis(t), model.push(t)),
                    Op::Burst(t, n) => {
                        q.extend((0..n).map(|_| (SimTime::from_millis(t), model.push(t))));
                    }
                    Op::Pop => {
                        let want = model.pop();
                        pops += u64::from(want.is_some());
                        prop_assert_eq!(q.pop(), want);
                    }
                    Op::Drain => {
                        let mut twin = q.clone();
                        while let Some(want) = model.pop() {
                            pops += 1;
                            prop_assert_eq!(q.pop(), Some(want));
                            prop_assert_eq!(twin.pop(), Some(want));
                        }
                        prop_assert_eq!((q.pop(), twin.pop()), (None, None));
                    }
                    Op::Clear => {
                        q.clear();
                        model.pending.clear();
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            }
            let stats = q.stats();
            prop_assert_eq!((stats.pushes, stats.pops), (model.pushed as u64, pops));
            prop_assert!(stats.peak_len <= stats.peak_capacity);
        }
    }

    proptest! {
        /// The queue is a *stable* priority queue: output is the input
        /// stably sorted by timestamp.
        #[test]
        fn prop_stable_priority_order(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort(); // (time, insertion index): stable sort order
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop()).map(|(t, i)| (t.as_millis(), i)).collect();
            prop_assert_eq!(got, expected);
        }

        /// Popping never yields a timestamp earlier than the previous one.
        #[test]
        fn prop_monotone_pop(times in proptest::collection::vec(0u64..1_000, 1..100)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime::from_millis(t), ());
            }
            let mut last = SimTime::ZERO;
            while let Some((t, ())) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }
    }
}
