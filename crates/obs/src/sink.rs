//! Event sink with a lock-free disabled path.
//!
//! [`EventSink::emit`] loads an atomic category bitmask (`Relaxed`)
//! before doing anything else; when the event's category bit is clear
//! the call returns immediately — no allocation, no lock, one atomic
//! load. Only enabled events pay for the mutex push.
//!
//! An optional ring-buffer capacity bounds memory on long runs: once
//! full, the oldest record is evicted and a drop counter incremented.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{Category, ObsEvent, Record};

/// Mask with every category bit set.
const ALL_ON: u32 = {
    let mut mask = 0u32;
    let mut i = 0;
    while i < Category::ALL.len() {
        mask |= Category::ALL[i].bit();
        i += 1;
    }
    mask
};

#[derive(Debug, Default)]
struct SinkState {
    records: VecDeque<Record>,
    capacity: Option<usize>,
    dropped: u64,
}

#[derive(Debug)]
struct SinkInner {
    /// Per-category enable bits; zero means fully disabled.
    mask: AtomicU32,
    /// Number of times the state mutex was acquired — test
    /// instrumentation backing the "no lock when disabled" guarantee.
    lock_acquisitions: AtomicU64,
    state: Mutex<SinkState>,
}

/// Shared, thread-safe collector of typed telemetry [`Record`]s.
///
/// Clones share the same buffer and enable mask, so a sink can be
/// handed to every node in a simulation and drained once at the end.
///
/// ```
/// use airguard_obs::{EventSink, ObsEvent};
///
/// let sink = EventSink::enabled();
/// sink.emit(10, 1, ObsEvent::RtsTx { dst: 2, seq: 0, attempt: 1, xid: 0 });
/// assert_eq!(sink.len(), 1);
/// assert_eq!(sink.records()[0].time_us, 10);
/// ```
#[derive(Debug, Clone)]
pub struct EventSink {
    inner: Arc<SinkInner>,
}

impl EventSink {
    /// A sink with all categories disabled (emission is a no-op).
    #[must_use]
    pub fn new() -> Self {
        Self::with_mask(0)
    }

    /// A sink with every category enabled.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_mask(ALL_ON)
    }

    /// A sink with exactly the given category bits enabled.
    #[must_use]
    pub fn with_mask(mask: u32) -> Self {
        EventSink {
            inner: Arc::new(SinkInner {
                mask: AtomicU32::new(mask),
                lock_acquisitions: AtomicU64::new(0),
                state: Mutex::new(SinkState::default()),
            }),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, SinkState> {
        self.inner.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// True when at least one category is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.mask.load(Ordering::Relaxed) != 0
    }

    /// True when `cat` specifically is enabled — the same check `emit`
    /// performs, exposed so call sites can skip building expensive
    /// payloads.
    #[must_use]
    pub fn wants(&self, cat: Category) -> bool {
        self.inner.mask.load(Ordering::Relaxed) & cat.bit() != 0
    }

    /// Enables (`true`) or disables (`false`) every category.
    pub fn set_enabled(&self, on: bool) {
        self.inner
            .mask
            .store(if on { ALL_ON } else { 0 }, Ordering::Relaxed);
    }

    /// Replaces the whole enable mask.
    pub fn set_mask(&self, mask: u32) {
        self.inner.mask.store(mask, Ordering::Relaxed);
    }

    /// The current enable mask.
    #[must_use]
    pub fn mask(&self) -> u32 {
        self.inner.mask.load(Ordering::Relaxed)
    }

    /// Bounds the buffer to `capacity` records (ring behaviour: once
    /// full, the oldest record is evicted). `None` removes the bound.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        let mut state = self.lock_state();
        state.capacity = capacity;
        if let Some(cap) = capacity {
            while state.records.len() > cap {
                state.records.pop_front();
                state.dropped += 1;
            }
        }
    }

    /// Records evicted by the ring bound so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock_state().dropped
    }

    /// Records an event at virtual time `time_us` attributed to `node`.
    ///
    /// When the event's category is disabled this returns after a
    /// single relaxed atomic load — no allocation, no lock.
    pub fn emit(&self, time_us: u64, node: u32, event: ObsEvent) {
        if self.inner.mask.load(Ordering::Relaxed) & event.category().bit() == 0 {
            return;
        }
        let mut state = self.lock_state();
        if let Some(cap) = state.capacity {
            if cap == 0 {
                state.dropped += 1;
                return;
            }
            if state.records.len() >= cap {
                state.records.pop_front();
                state.dropped += 1;
            }
        }
        state.records.push_back(Record {
            time_us,
            node,
            event,
        });
    }

    /// Snapshot of every buffered record, in emission order.
    #[must_use]
    pub fn records(&self) -> Vec<Record> {
        self.lock_state().records.iter().cloned().collect()
    }

    /// Number of buffered records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_state().records.len()
    }

    /// True when no records are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all buffered records; the enable mask is unchanged.
    pub fn clear(&self) {
        let mut state = self.lock_state();
        state.records.clear();
        state.dropped = 0;
    }

    /// How many times the internal state mutex has been acquired.
    ///
    /// Test instrumentation: a disabled `emit` must not move this.
    #[must_use]
    pub fn lock_acquisitions(&self) -> u64 {
        self.inner.lock_acquisitions.load(Ordering::Relaxed)
    }
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink::new()
    }
}

#[cfg(test)]
mod tests {
    use super::{EventSink, ALL_ON};
    use crate::event::{Category, ObsEvent};

    fn probe() -> ObsEvent {
        ObsEvent::RtsTx {
            dst: 1,
            seq: 0,
            attempt: 1,
            xid: 0,
        }
    }

    #[test]
    fn disabled_emit_takes_no_lock() {
        let sink = EventSink::new();
        let before = sink.lock_acquisitions();
        for t in 0..1000 {
            sink.emit(t, 0, probe());
        }
        assert_eq!(sink.lock_acquisitions(), before, "disabled emit locked");
        assert_eq!(sink.mask(), 0);
    }

    #[test]
    fn category_mask_filters_per_category() {
        let sink = EventSink::with_mask(Category::MacTx.bit());
        sink.emit(0, 0, probe()); // MacTx: kept
        sink.emit(
            1,
            0,
            ObsEvent::CtsRx {
                src: 1,
                seq: 0,
                xid: 0,
            },
        ); // MacRx: dropped
        assert_eq!(sink.len(), 1);
        assert!(sink.wants(Category::MacTx));
        assert!(!sink.wants(Category::MacRx));
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let sink = EventSink::enabled();
        sink.set_capacity(Some(3));
        for t in 0..5 {
            sink.emit(t, 0, probe());
        }
        let records = sink.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].time_us, 2, "oldest two evicted");
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn clones_share_buffer_and_mask() {
        let sink = EventSink::new();
        let clone = sink.clone();
        clone.set_enabled(true);
        assert!(sink.is_enabled());
        assert_eq!(sink.mask(), ALL_ON);
        sink.emit(5, 2, probe());
        assert_eq!(clone.len(), 1);
        clone.set_enabled(false);
        sink.emit(6, 2, probe());
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn clear_keeps_mask() {
        let sink = EventSink::enabled();
        sink.emit(0, 0, probe());
        sink.clear();
        assert!(sink.is_empty());
        assert!(sink.is_enabled());
    }
}
