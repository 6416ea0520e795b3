//! The stable event queue at the heart of the simulator.
//!
//! Simulated time is whole milliseconds, and most events are hop
//! delays. Of the pushes a benchmark run makes, 85–90 % (`table1-50`,
//! `scale-2000`) and 67 % (`journal-write-50`) land 2–16 ms after the
//! latest pop; under 0.1 % land 0–1 or 17–64 ms out, and the rest,
//! timers, 65 ms or more. So the queue keeps the next `WHEEL` ms in a
//! timing wheel (Varghese & Lauck, SOSP 1987): one FIFO per millisecond,
//! found through a one-word occupancy bitmap. Everything else — timers,
//! and any push before the latest pop — waits in a binary heap of
//! `(time, seq, slot)` keys, and `pop` takes the smaller `(time, seq)`
//! of the two fronts.
//!
//! The wheel cannot change the pop order, which is `(time, seq)` with
//! `seq` the push count:
//! - a wheel slot holds one exact millisecond and its list is in push
//!   order, so its head is the slot's least `seq`;
//! - the first occupied slot from the latest pop on is the wheel's
//!   earliest millisecond;
//! - a wheel event due at `t` was pushed when the latest pop lay in
//!   `(t − 64, t]`, a heap key due at `t` when it lay at `t − 64` or
//!   earlier, and the latest pop never runs backwards, so on a tie the
//!   heap's key is the older and pops first (a key due before the latest
//!   pop ties with no wheel event: those all popped before it passed).
//!
//! The sorted-vec model tests below are the specification.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Milliseconds the wheel covers, from the latest popped time on: one
/// slot each, one bit each of the occupancy word.
const WHEEL: u64 = u64::BITS as u64;

/// The end of a wheel slot's list.
const NIL: usize = usize::MAX;

/// A time-ordered event queue with stable FIFO ordering for ties.
///
/// Events scheduled for the same instant are popped in the order they were
/// pushed. This stability is what makes whole-system runs deterministic:
/// two protocol actions scheduled "now" never race on heap internals.
///
/// An event is written once and read once: `push` stores it in a slab
/// slot and `pop` takes it back out. An event due within `WHEEL` ms of
/// the latest pop is linked into that millisecond's list through its
/// slot; any other is keyed in the binary heap by 24-byte `(time, seq,
/// slot)` keys. Neither ever moves an event, however large `E` is.
/// Emptied slots are reused last-out-first-in, so a queue that has held
/// its peak pushes and pops without reaching the allocator (pinned by
/// `tests/queue_alloc.rs`).
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
    slab: Vec<Slot<E>>,
    /// Emptied slots, reused from the back.
    free: Vec<usize>,
    /// `(head, tail)` slab slots of the list of events due at each
    /// millisecond of `[cursor, cursor + WHEEL)`, at index `time % WHEEL`.
    wheel: [(usize, usize); WHEEL as usize],
    /// Bit `i` is set iff wheel slot `i` holds an event.
    occupied: u64,
    /// The latest popped time in ms: the wheel's first millisecond.
    cursor: u64,
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

/// One event body and, while it waits in the wheel, the slot after it
/// in its millisecond's list.
#[derive(Debug, Clone)]
struct Slot<E> {
    /// `None` marks a slot listed in `free`.
    event: Option<E>,
    next: usize,
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
            wheel: [(NIL, NIL); WHEEL as usize],
            occupied: 0,
            cursor: 0,
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
        let body = Slot {
            event: Some(event),
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = body;
                slot
            }
            None => {
                self.slab.push(body);
                // Every slot may end up listed in `free`, or keyed in the
                // heap, at once; reserving now keeps both off the
                // allocator.
                self.free.reserve(self.slab.capacity());
                self.heap.reserve(self.slab.capacity() - self.heap.len());
                self.peak_capacity = self.peak_capacity.max(self.slab.capacity());
                self.slab.len() - 1
            }
        };
        // A time before the cursor wraps far past the wheel.
        let ms = time.as_millis();
        if ms.wrapping_sub(self.cursor) < WHEEL {
            let at = (ms % WHEEL) as usize;
            if self.occupied & 1 << at == 0 {
                self.occupied |= 1 << at;
                self.wheel[at] = (slot, slot);
            } else {
                let tail = self.wheel[at].1;
                self.slab[tail].next = slot;
                self.wheel[at].1 = slot;
            }
        } else {
            self.heap.push(Entry { time, seq, slot });
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // On a tie the heap's key is the older (module doc).
        let (ms, slot) = match self.wheel_front() {
            Some((ms, head)) if self.heap.peek().is_none_or(|top| ms < top.time.as_millis()) => {
                let at = (ms % WHEEL) as usize;
                match self.slab[head].next {
                    NIL => self.occupied &= !(1 << at),
                    next => self.wheel[at].0 = next,
                }
                (ms, head)
            }
            _ => {
                let Entry { time, slot, .. } = self.heap.pop()?;
                (time.as_millis(), slot)
            }
        };
        // A push before the cursor pops from the heap and leaves the
        // cursor where it is: the wheel never runs backwards.
        self.cursor = self.cursor.max(ms);
        let event = self.slab[slot]
            .event
            .take()
            .expect("a queued key names a full slot");
        self.free.push(slot);
        self.pops += 1;
        Some((SimTime::from_millis(ms), event))
    }

    /// The earliest millisecond the wheel holds, with the first slab
    /// slot of its list.
    fn wheel_front(&self) -> Option<(u64, usize)> {
        if self.occupied == 0 {
            return None;
        }
        let ahead = self
            .occupied
            .rotate_right((self.cursor % WHEEL) as u32)
            .trailing_zeros();
        let ms = self.cursor + u64::from(ahead);
        Some((ms, self.wheel[(ms % WHEEL) as usize].0))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
        self.occupied = 0;
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

    /// Pushes placed against the latest time popped so far, `last`.
    #[derive(Debug, Clone)]
    enum Near {
        /// One event at `last − 5 + offset`: from just before `last`
        /// to well past the next 64 ms.
        Push(u64),
        /// That many events at exactly `last + 63`, `+ 64` or `+ 65`.
        Edge(u64, usize),
        /// One event `back` ms before `last`, where that is not before 0.
        Past(u64),
        Pop,
        /// Up to that many pops, with a clone popped in lockstep.
        Lockstep(usize),
    }

    fn near() -> impl Strategy<Value = Near> {
        (0u8..16, 0u64..205, 63u64..66, 2usize..12).prop_map(|(kind, offset, edge, n)| match kind {
            0..=5 => Near::Push(offset),
            6..=7 => Near::Edge(edge, n),
            8 => Near::Past(1 + offset % 100),
            9..=14 => Near::Pop,
            _ => Near::Lockstep(n),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushes that straddle the next 64 ms after the latest pop —
        /// just before it, inside, at its last millisecond, just past it,
        /// far past it and in the past — pop what the model pops, and a
        /// clone taken mid-drain pops the same.
        #[test]
        fn prop_pushes_around_the_latest_pop_match_the_model(
            ops in proptest::collection::vec(near(), 0..300),
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut last = 0u64;
            let pop_both = |q: &mut EventQueue<usize>, model: &mut Model, last: &mut u64| {
                let want = model.pop();
                if let Some((t, _)) = want {
                    *last = (*last).max(t.as_millis());
                }
                (q.pop(), want)
            };
            for op in ops {
                match op {
                    Near::Push(offset) => {
                        let t = (last + offset).saturating_sub(5);
                        q.push(SimTime::from_millis(t), model.push(t));
                    }
                    Near::Edge(ahead, n) => {
                        let t = last + ahead;
                        q.extend((0..n).map(|_| (SimTime::from_millis(t), model.push(t))));
                    }
                    Near::Past(back) => {
                        let t = last.saturating_sub(back);
                        q.push(SimTime::from_millis(t), model.push(t));
                    }
                    Near::Pop => {
                        let (got, want) = pop_both(&mut q, &mut model, &mut last);
                        prop_assert_eq!(got, want);
                    }
                    Near::Lockstep(n) => {
                        let mut twin = q.clone();
                        for _ in 0..n {
                            let (got, want) = pop_both(&mut q, &mut model, &mut last);
                            prop_assert_eq!(got, want);
                            prop_assert_eq!(twin.pop(), want);
                        }
                        prop_assert_eq!(twin.len(), q.len());
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
            }
            loop {
                let (got, want) = pop_both(&mut q, &mut model, &mut last);
                prop_assert_eq!(got, want);
                if want.is_none() {
                    break;
                }
            }
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
