//! Equivalence property: the timing-wheel scheduler behaves exactly like
//! the reference semantics of the original `BinaryHeap` + `BTreeSet`
//! implementation under arbitrary schedule/cancel/pop/pop-until
//! interleavings — same delivery sequence (time, FIFO-seq), same cancel
//! return values, same refusals at a horizon, same live counts — and ids
//! are never reused.
//!
//! Delays are drawn around every wheel level edge (64^k ± 1) and absolute
//! times reach far past the low levels, so entries are filed on every
//! level and cascaded down from it, including cancels of cascaded entries
//! and refusals that must leave the wheel's clock untouched.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

use airguard_sim::{EventId, Scheduler, SimDuration, SimTime};
use proptest::prelude::*;

/// Reference model: a verbatim re-implementation of the pre-slab
/// scheduler's semantics (heap of full entries + side set of live ids).
#[derive(Default)]
struct ModelScheduler {
    now: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    payloads: Vec<u64>,
    live: BTreeSet<u64>,
    next_seq: u64,
}

impl ModelScheduler {
    fn schedule_at(&mut self, at: u64, payload: u64) -> u64 {
        assert!(at >= self.now);
        let id = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, id)));
        self.payloads.push(payload);
        self.live.insert(id);
        id
    }

    fn cancel(&mut self, id: u64) -> bool {
        self.live.remove(&id)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.pop_until(u64::MAX)
    }

    fn pop_until(&mut self, horizon: u64) -> Option<(u64, u64)> {
        while let Some(&Reverse((time, id))) = self.heap.peek() {
            if !self.live.contains(&id) {
                self.heap.pop();
                continue;
            }
            if time > horizon {
                return None;
            }
            self.heap.pop();
            self.live.remove(&id);
            self.now = time;
            return Some((time, self.payloads[id as usize]));
        }
        None
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delta` (absolute times stay causal).
    Schedule {
        delta: u64,
    },
    /// Schedule at `max(now, at)`: far-future absolute times.
    ScheduleAt {
        at: u64,
    },
    /// Cancel the nth id ever returned (live or dead — exercising
    /// double-cancel and cancel-after-fire equally).
    CancelNth {
        idx: usize,
    },
    Pop,
    /// Pop only if the next event is due by `now + ahead`.
    PopUntil {
        ahead: u64,
    },
}

/// Delays on and around the wheel's level edges: level 0 holds times
/// within 63 µs of now's 64 µs block, level 1 within 4095 µs, level 2
/// within 262143 µs, and so on.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..=3,
        63u64..=65,
        4_095u64..=4_097,
        262_143u64..=262_145,
        Just(1u64 << 30),
        0u64..50,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Schedule-heavy mix with many zero/equal deltas to stress FIFO
        // tie-breaking, plus frequent cancels.
        delta_strategy().prop_map(|delta| Op::Schedule { delta }),
        delta_strategy().prop_map(|delta| Op::Schedule { delta }),
        (0u64..=u64::MAX >> 4).prop_map(|at| Op::ScheduleAt { at }),
        (0usize..512).prop_map(|idx| Op::CancelNth { idx }),
        (0usize..512).prop_map(|idx| Op::CancelNth { idx }),
        Just(Op::Pop),
        delta_strategy().prop_map(|ahead| Op::PopUntil { ahead }),
    ]
}

/// The absolute time a schedule op asks for, given the current time.
fn schedule_time(op: &Op, now: SimTime) -> SimTime {
    match *op {
        Op::ScheduleAt { at } => now.max(SimTime::from_micros(at)),
        Op::Schedule { delta } => now + SimDuration::from_micros(delta),
        _ => unreachable!("not a schedule op: {op:?}"),
    }
}

proptest! {
    #[test]
    fn slab_scheduler_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut model = ModelScheduler::default();
        let mut wheel: Scheduler<u64> = Scheduler::new();
        let mut model_ids: Vec<u64> = Vec::new();
        let mut wheel_ids: Vec<EventId> = Vec::new();
        let mut payload = 0u64;

        for op in ops {
            match op {
                Op::Schedule { .. } | Op::ScheduleAt { .. } => {
                    let at = schedule_time(&op, wheel.now());
                    model_ids.push(model.schedule_at(at.as_micros(), payload));
                    wheel_ids.push(wheel.schedule_at(at, payload));
                    payload += 1;
                }
                Op::CancelNth { idx } => {
                    if !model_ids.is_empty() {
                        let i = idx % model_ids.len();
                        let m = model.cancel(model_ids[i]);
                        let s = wheel.cancel(wheel_ids[i]);
                        prop_assert_eq!(m, s, "cancel verdict diverged at id #{}", i);
                    }
                }
                Op::Pop => {
                    let m = model.pop();
                    let s = wheel.pop().map(|(t, p)| (t.as_micros(), p));
                    prop_assert_eq!(m, s, "delivery diverged");
                }
                Op::PopUntil { ahead } => {
                    let horizon = wheel.now() + SimDuration::from_micros(ahead);
                    let m = model.pop_until(horizon.as_micros());
                    let s = wheel.pop_until(horizon).map(|(t, p)| (t.as_micros(), p));
                    prop_assert_eq!(m, s, "delivery up to {} diverged", horizon);
                }
            }
            prop_assert_eq!(model.now, wheel.now().as_micros(), "clock diverged");
            prop_assert_eq!(model.len(), wheel.len(), "live count diverged");
            prop_assert_eq!(model.len() == 0, wheel.is_empty());
        }

        // Drain both: the tails must match element for element.
        loop {
            let m = model.pop();
            let s = wheel.pop().map(|(t, p)| (t.as_micros(), p));
            prop_assert_eq!(&m, &s, "drain diverged");
            if m.is_none() {
                break;
            }
        }

        // Id uniqueness: every id ever returned is distinct, across the
        // wheel reuse and cascades the churn above provoked.
        let distinct: HashSet<EventId> = wheel_ids.iter().copied().collect();
        prop_assert_eq!(distinct.len(), wheel_ids.len(), "an EventId was reused");
    }

    #[test]
    fn cancelled_never_fires(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut wheel: Scheduler<u64> = Scheduler::new();
        let mut ids: Vec<EventId> = Vec::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut payload = 0u64;

        for op in ops {
            match op {
                Op::Schedule { .. } | Op::ScheduleAt { .. } => {
                    ids.push(wheel.schedule_at(schedule_time(&op, wheel.now()), payload));
                    payload += 1;
                }
                Op::CancelNth { idx } => {
                    if !ids.is_empty() {
                        let i = idx % ids.len();
                        if wheel.cancel(ids[i]) {
                            cancelled.insert(i as u64);
                        }
                    }
                }
                Op::Pop => {
                    if let Some((_, p)) = wheel.pop() {
                        delivered.push(p);
                    }
                }
                Op::PopUntil { ahead } => {
                    let horizon = wheel.now() + SimDuration::from_micros(ahead);
                    if let Some((_, p)) = wheel.pop_until(horizon) {
                        delivered.push(p);
                    }
                }
            }
        }
        while let Some((_, p)) = wheel.pop() {
            delivered.push(p);
        }

        // Every payload is delivered at most once, and a successfully
        // cancelled payload is never delivered at all.
        let unique: HashSet<u64> = delivered.iter().copied().collect();
        prop_assert_eq!(unique.len(), delivered.len(), "duplicate delivery");
        for p in &delivered {
            prop_assert!(!cancelled.contains(p), "cancelled event {} fired", p);
        }
        prop_assert_eq!(
            delivered.len() + cancelled.len(),
            payload as usize,
            "every event is either delivered or cancelled after a drain"
        );
    }
}
