//! Event sink with a lock-free disabled path.
//!
//! Each [`EventSink`] handle carries its category bitmask as a plain
//! `u32`, fixed at construction. [`EventSink::emit`] tests the event's
//! bit before doing anything else; when it is clear the call returns
//! immediately — no allocation, no lock. Only enabled events pay for
//! the mutex push.

use std::sync::atomic::{AtomicU64, Ordering};
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
struct SinkInner {
    /// Number of times the record mutex was acquired — test
    /// instrumentation backing the "no lock when disabled" guarantee.
    lock_acquisitions: AtomicU64,
    records: Mutex<Vec<Record>>,
}

/// Shared, thread-safe collector of typed telemetry [`Record`]s.
///
/// Clones share the same buffer and carry the same enable mask, so a
/// sink can be handed to every node in a simulation and drained once at
/// the end.
///
/// ```
/// use airguard_obs::{EventSink, ObsEvent};
///
/// let sink = EventSink::enabled();
/// sink.emit(10, 1, ObsEvent::RtsTx { dst: 2, seq: 0, attempt: 1, xid: 0 });
/// assert_eq!(sink.records()[0].time_us, 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    /// Per-category enable bits; zero means fully disabled.
    mask: u32,
    inner: Arc<SinkInner>,
}

impl EventSink {
    /// A sink with all categories disabled (emission is a no-op).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
            mask,
            inner: Arc::default(),
        }
    }

    fn lock_records(&self) -> MutexGuard<'_, Vec<Record>> {
        self.inner.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.inner
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// True when `cat` specifically is enabled — the same check `emit`
    /// performs, exposed so call sites can skip building expensive
    /// payloads.
    #[must_use]
    pub fn wants(&self, cat: Category) -> bool {
        self.mask & cat.bit() != 0
    }

    /// The enable mask.
    #[must_use]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Records an event at virtual time `time_us` attributed to `node`.
    ///
    /// When the event's category is disabled this returns after one
    /// mask test — no allocation, no lock.
    pub fn emit(&self, time_us: u64, node: u32, event: ObsEvent) {
        if !self.wants(event.category()) {
            return;
        }
        self.lock_records().push(Record {
            time_us,
            node,
            event,
        });
    }

    /// Snapshot of every buffered record, in emission order.
    #[must_use]
    pub fn records(&self) -> Vec<Record> {
        self.lock_records().clone()
    }

    /// How many times the internal record mutex has been acquired.
    ///
    /// Test instrumentation: a disabled `emit` must not move this.
    #[must_use]
    pub fn lock_acquisitions(&self) -> u64 {
        self.inner.lock_acquisitions.load(Ordering::Relaxed)
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
        assert_eq!(sink.records().len(), 1);
        assert!(sink.wants(Category::MacTx));
        assert!(!sink.wants(Category::MacRx));
    }

    #[test]
    fn clones_share_buffer_and_mask() {
        let sink = EventSink::enabled();
        let clone = sink.clone();
        assert_eq!(clone.mask(), ALL_ON);
        sink.emit(5, 2, probe());
        clone.emit(6, 3, probe());
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!((records[0].node, records[1].node), (2, 3));
        assert_eq!(clone.records(), records);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let sink = EventSink::enabled();
        let (writers, per_writer) = (8u32, 500u64);
        // Release every writer at once so their pushes contend.
        let start = std::sync::Barrier::new(writers as usize);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let (sink, start) = (sink.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for t in 0..per_writer {
                        sink.emit(t, w, probe());
                    }
                });
            }
        });
        let records = sink.records();
        assert_eq!(records.len(), 4000);
        for w in 0..writers {
            let times: Vec<u64> = records
                .iter()
                .filter(|r| r.node == w)
                .map(|r| r.time_us)
                .collect();
            assert_eq!(times, (0..per_writer).collect::<Vec<_>>(), "writer {w}");
        }
    }

    #[test]
    fn sink_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EventSink>();
    }
}
