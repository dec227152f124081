//! The event queue at the heart of the simulator.
//!
//! The scheduler is a hierarchical timing wheel keyed on integer
//! microseconds. Event payloads live in a slab of reusable entries; the
//! wheel has 11 levels of 64 buckets, which covers every `u64` time, and
//! each bucket is a FIFO list threaded through the slab as `next`/`prev`
//! indices. Level `L` holds the events whose time first differs from the
//! current time in bits `6L..6L+6`, so level 0 buckets each hold exactly
//! one microsecond, and the lowest occupied bucket of the lowest occupied
//! level holds the earliest events. One `u64` occupancy mask per level
//! finds that bucket with a `trailing_zeros`.
//!
//! * **Schedule** appends to a bucket list: O(1).
//! * **Cancel** unlinks the entry from its list: O(1), and no stale entry
//!   is left behind, so nothing is ever compacted.
//! * **Pop** takes the head of the lowest level-0 bucket. When the
//!   earliest events sit in a higher level, that one bucket is cascaded
//!   first: its entries are re-filed, in list order, into lower levels
//!   relative to the new current time.
//!
//! Lists are appended in scheduling order and a cascade keeps list order,
//! so events at the same microsecond are delivered FIFO, exactly as a
//! `(time, seq)` heap would deliver them. An [`EventId`] carries its slab
//! index plus the *generation* (the global schedule sequence number) the
//! entry held when the event was created, so a recycled entry can never
//! be confused with the event that previously occupied it.

use crate::time::{SimDuration, SimTime};

/// Bits of time each wheel level resolves.
const LEVEL_BITS: u32 = 6;
/// Buckets per level (one per value of the level's bits).
const BUCKETS: usize = 1 << LEVEL_BITS;
/// Levels needed to cover all 64 bits of a [`SimTime`].
const LEVELS: usize = 64_usize.div_ceil(LEVEL_BITS as usize);
/// The null slab index: end of a list, or no entry.
const NIL: u32 = u32::MAX;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// Event ids are unique for the lifetime of a [`Scheduler`]; a cancelled
/// or fired id is never reused (the generation stamp is the global
/// schedule counter, which never repeats), including across cascades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    generation: u64,
}

/// One slab entry. `generation` is the stamp of the event the entry
/// currently (or most recently) held; `event` is `Some` only while that
/// event is pending. A pending entry is linked into exactly one bucket
/// list through `prev`/`next`; a vacant one is on the free list through
/// `next`.
#[derive(Debug)]
struct Entry<E> {
    generation: u64,
    time: SimTime,
    prev: u32,
    next: u32,
    event: Option<E>,
}

/// A bucket's FIFO list: the slab indices of its first and last entries.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// The wheel level and bucket an event at `at` is filed under while the
/// clock reads `now`: the level holding the highest bit in which the two
/// differ (level 0 when they are equal), and the event's own bits there.
fn bucket_of(now: SimTime, at: SimTime) -> (usize, usize) {
    let (now, at) = (now.as_micros(), at.as_micros());
    let highest = 63 - ((now ^ at) | (BUCKETS as u64 - 1)).leading_zeros();
    let level = highest / LEVEL_BITS;
    (
        level as usize,
        ((at >> (level * LEVEL_BITS)) as usize) & (BUCKETS - 1),
    )
}

/// A deterministic discrete-event scheduler.
///
/// Events are delivered in nondecreasing time order; ties are broken by
/// scheduling order (FIFO). Scheduling, cancellation and delivery are
/// O(1) apart from the occasional one-bucket cascade.
///
/// # Example
///
/// ```
/// use airguard_sim::{Scheduler, SimDuration};
///
/// let mut sched = Scheduler::new();
/// let keep = sched.schedule_in(SimDuration::from_micros(10), "keep");
/// let drop = sched.schedule_in(SimDuration::from_micros(5), "drop");
/// assert!(sched.cancel(drop));
/// let (_, ev) = sched.pop().unwrap();
/// assert_eq!(ev, "keep");
/// # let _ = keep;
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    /// The current virtual time, which is also the wheel's cursor: every
    /// pending event is filed relative to it.
    now: SimTime,
    entries: Vec<Entry<E>>,
    /// Per level, one bit per non-empty bucket.
    occupied: [u64; LEVELS],
    lists: [[List; BUCKETS]; LEVELS],
    /// Head of the list of vacant entries, ready for reuse.
    free: u32,
    next_seq: u64,
    popped: u64,
    /// Pending (not cancelled, not delivered) events.
    live: usize,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    #[must_use]
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            entries: Vec::new(),
            occupied: [0; LEVELS],
            lists: [[List::EMPTY; BUCKETS]; LEVELS],
            free: NIL,
            next_seq: 0,
            popped: 0,
            live: 0,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`Scheduler::now`] — scheduling into the
    /// past is always a logic error in a causal simulation.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        let generation = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            generation,
            time: at,
            prev: NIL,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.entries.len())
                .ok()
                .filter(|&idx| idx != NIL)
                // lint:allow(panic-expect) — 4 billion *simultaneously pending* events exceeds any machine's memory long before this fires
                .expect("more than u32::MAX - 1 pending events");
            self.entries.push(entry);
            idx
        } else {
            let idx = self.free;
            self.free = self.entries[idx as usize].next;
            self.entries[idx as usize] = entry;
            idx
        };
        self.link(idx);
        self.live += 1;
        EventId {
            slot: idx,
            generation,
        }
    }

    /// Schedules `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event in O(1).
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let pending = self
            .entries
            .get(id.slot as usize)
            .is_some_and(|e| e.generation == id.generation && e.event.is_some());
        if !pending {
            return false;
        }
        self.unlink(id.slot);
        self.release(id.slot);
        true
    }

    /// Removes and returns the next pending event, advancing the clock to
    /// its timestamp. Returns `None` when no pending events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the next pending event if it is due at or
    /// before `horizon`, advancing the clock to its timestamp. Returns
    /// `None`, leaving the scheduler untouched, when the next event is
    /// later than `horizon` or none is pending.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let level = self.occupied.iter().position(|&mask| mask != 0)?;
        let bucket = self.occupied[level].trailing_zeros() as usize;
        let head = &self.entries[self.lists[level][bucket].head as usize];
        let mut at = head.time;
        if level > 0 {
            // A higher bucket spans many microseconds: find its earliest
            // event before deciding anything, so a refusal changes no state.
            let mut idx = head.next;
            while idx != NIL {
                let entry = &self.entries[idx as usize];
                at = at.min(entry.time);
                idx = entry.next;
            }
        }
        if at > horizon {
            return None;
        }
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        if level > 0 {
            self.cascade(level, bucket);
        }
        let (_, bucket) = bucket_of(self.now, at);
        let idx = self.lists[0][bucket].head;
        self.unlink(idx);
        let event = self.release(idx);
        self.popped += 1;
        Some((at, event))
    }

    /// Re-files every entry of one bucket relative to the current time,
    /// in list order, so FIFO order among equal times is kept.
    fn cascade(&mut self, level: usize, bucket: usize) {
        let mut idx = self.lists[level][bucket].head;
        self.lists[level][bucket] = List::EMPTY;
        self.occupied[level] &= !(1 << bucket);
        while idx != NIL {
            let next = self.entries[idx as usize].next;
            self.link(idx);
            idx = next;
        }
    }

    /// Appends entry `idx` to the tail of the bucket its time files under.
    fn link(&mut self, idx: u32) {
        let (level, bucket) = bucket_of(self.now, self.entries[idx as usize].time);
        let list = &mut self.lists[level][bucket];
        let tail = list.tail;
        if tail == NIL {
            list.head = idx;
            self.occupied[level] |= 1 << bucket;
        } else {
            self.entries[tail as usize].next = idx;
        }
        list.tail = idx;
        let entry = &mut self.entries[idx as usize];
        entry.prev = tail;
        entry.next = NIL;
    }

    /// Removes pending entry `idx` from its bucket list. The bucket is
    /// recomputed from the entry's time: the clock never passes a
    /// bucket's range without cascading it, so the filing is still valid.
    fn unlink(&mut self, idx: u32) {
        let entry = &self.entries[idx as usize];
        let (prev, next) = (entry.prev, entry.next);
        let (level, bucket) = bucket_of(self.now, entry.time);
        let list = &mut self.lists[level][bucket];
        if prev == NIL {
            list.head = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.entries[next as usize].prev = prev;
        }
        if list.head == NIL {
            self.occupied[level] &= !(1 << bucket);
        }
    }

    /// Takes the payload out of unlinked entry `idx` and puts the entry
    /// on the free list; its generation stays, so old ids stay dead.
    fn release(&mut self, idx: u32) -> E {
        let entry = &mut self.entries[idx as usize];
        entry.next = self.free;
        self.free = idx;
        self.live -= 1;
        // lint:allow(panic-expect) — only pending entries are linked, and every caller unlinks one
        entry.event.take().expect("released entry was pending")
    }

    /// Number of pending (not cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (diagnostic counter).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_micros(30), 3);
        s.schedule_at(SimTime::from_micros(10), 1);
        s.schedule_at(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            s.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_micros(7), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_micros(7));
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_micros(1), "a");
        let b = s.schedule_at(SimTime::from_micros(2), "b");
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel reports false");
        assert_eq!(s.pop().map(|(_, e)| e), Some("b"));
        assert!(!s.cancel(b), "cancel after fire reports false");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut s: Scheduler<()> = Scheduler::new();
        let id = {
            let mut other: Scheduler<()> = Scheduler::new();
            other.schedule_at(SimTime::from_micros(1), ())
        };
        assert!(!s.cancel(id), "id from an empty slab is unknown");
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut s = Scheduler::new();
        let a = s.schedule_in(SimDuration::from_micros(1), ());
        s.schedule_in(SimDuration::from_micros(2), ());
        assert_eq!(s.len(), 2);
        s.cancel(a);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        s.pop();
        assert!(s.is_empty());
    }

    #[test]
    fn pop_until_refuses_later_events_without_moving_the_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_micros(5_000), "far");
        assert_eq!(s.pop_until(SimTime::from_micros(4_999)), None);
        assert_eq!(s.now(), SimTime::ZERO, "a refused pop must not advance");
        // The clock stayed put, so an earlier event is still schedulable
        // and still comes out first.
        s.schedule_at(SimTime::from_micros(100), "near");
        assert_eq!(
            s.pop_until(SimTime::from_micros(4_999)).map(|(_, e)| e),
            Some("near")
        );
        assert_eq!(
            s.pop_until(SimTime::from_micros(5_000)),
            Some((SimTime::from_micros(5_000), "far"))
        );
        assert_eq!(s.pop_until(SimTime::MAX), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_micros(10), ());
        s.pop();
        s.schedule_at(SimTime::from_micros(5), ());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_micros(100), "first");
        s.pop();
        s.schedule_in(SimDuration::from_micros(10), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(110));
    }

    #[test]
    fn events_processed_counts_only_delivered() {
        let mut s = Scheduler::new();
        let a = s.schedule_in(SimDuration::from_micros(1), ());
        s.schedule_in(SimDuration::from_micros(2), ());
        s.cancel(a);
        while s.pop().is_some() {}
        assert_eq!(s.events_processed(), 1);
    }

    #[test]
    fn recycled_slots_do_not_resurrect_old_ids() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_micros(1), "a");
        assert!(s.cancel(a));
        // The slot is reused by a fresh event; the dead id must stay dead.
        let b = s.schedule_at(SimTime::from_micros(2), "b");
        assert!(!s.cancel(a), "recycled slot must not revive the old id");
        assert_ne!(a, b);
        assert_eq!(s.pop().map(|(_, e)| e), Some("b"));
    }

    /// The wheel level an event at `at` is currently filed under.
    fn level_holding<E>(s: &Scheduler<E>, at: u64) -> usize {
        bucket_of(s.now(), SimTime::from_micros(at)).0
    }

    #[test]
    fn same_time_stays_fifo_across_a_cascade() {
        let mut s = Scheduler::new();
        // 5000 µs differs from time zero in bit 12: filed at level 2,
        // in the same bucket as the 4999 µs trigger.
        s.schedule_at(SimTime::from_micros(5_000), "first");
        s.schedule_at(SimTime::from_micros(4_999), "trigger");
        assert_eq!(level_holding(&s, 5_000), 2);
        assert_ne!(s.occupied[2], 0);
        assert_eq!(s.pop().map(|(_, e)| e), Some("trigger"));
        assert_eq!(s.occupied[2], 0, "popping the trigger cascaded the bucket");
        assert_eq!(level_holding(&s, 5_000), 0);
        // Scheduled after the cascade, at the same microsecond: it must
        // still come out after the cascaded event.
        s.schedule_at(SimTime::from_micros(5_000), "second");
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second"]);
    }

    #[test]
    fn cascaded_entries_stay_cancellable() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_micros(300_000), "a");
        let b = s.schedule_at(SimTime::from_micros(300_001), "b");
        s.schedule_at(SimTime::from_micros(299_999), "trigger");
        assert_eq!(level_holding(&s, 300_000), 3);
        assert_eq!(s.pop().map(|(_, e)| e), Some("trigger"));
        assert_eq!(s.occupied[3], 0, "the level-3 bucket was cascaded");
        assert!(s.cancel(a), "a cascaded entry is still pending");
        assert!(!s.cancel(a));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((SimTime::from_micros(300_001), "b")));
        assert!(!s.cancel(b), "cancel after fire reports false");
        assert!(s.is_empty());
        assert_eq!(s.occupied, [0; LEVELS], "no entry left behind");
    }

    #[test]
    fn ids_are_never_reused_across_cascades() {
        let mut s = Scheduler::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut pending = Vec::new();
        // Deltas straddling every level edge up to level 4, with pops and
        // cancels interleaved so slab entries are recycled many times.
        let deltas = [0, 1, 63, 64, 65, 4_095, 4_096, 262_143, 262_144, 1 << 30];
        for round in 0..400u64 {
            let delta = deltas[(round % deltas.len() as u64) as usize];
            let id = s.schedule_in(SimDuration::from_micros(delta), round);
            assert!(seen.insert(id), "an EventId was reused");
            pending.push(id);
            if round % 3 == 0 {
                s.pop();
            }
            if round % 7 == 0 {
                s.cancel(pending[(round as usize * 31) % pending.len()]);
            }
        }
        let mut last = s.now();
        while let Some((t, _)) = s.pop() {
            assert!(t >= last, "delivery went backwards");
            last = t;
        }
        assert!(s.is_empty());
        assert_eq!(s.occupied, [0; LEVELS]);
        assert!(
            s.entries.len() < seen.len(),
            "slab entries were recycled, so ids had to come from generations"
        );
    }
}
