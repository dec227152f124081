//! Typed telemetry events.
//!
//! Every observable protocol transition is a variant of [`ObsEvent`]
//! carrying structured fields. Events are grouped into [`Category`]s
//! (one bit each in the sink's enable mask) so emission can be gated
//! per-category with a single mask test.
//!
//! The crate is a dependency leaf, so events speak raw scalars: virtual
//! time in microseconds (`time_us`) and node ids as dense `u32` indices
//! (`node`). The `Display` impls render one line of human-readable
//! prose per event, which the examples print and the Perfetto export
//! uses as slice names.

use std::fmt;

/// Sentinel node id for records not attributable to a single node
/// (simulator-level events); JSONL export omits the `node` field.
pub const NO_NODE: u32 = u32::MAX;

/// Pack an exchange id from the originating sender and its packet
/// sequence number.
///
/// One RTS→CTS→DATA→ACK handshake is identified by who started it and
/// which head-of-line packet it carries, so `(src, seq)` is stable
/// across every leg of the exchange — the receiver's CTS/ACK carry the
/// *sender's* id, not their own. Packed rather than a struct so the id
/// rides in one `u64` JSONL field and one trace-event arg. 24 bits of
/// station id (the repo's topologies are dense indices well under
/// 2^24) and 40 bits of sequence (2^40 packets outlives any horizon);
/// both truncations wrap rather than panic, which at worst aliases two
/// exchanges in a pathological run — acceptable for telemetry.
#[must_use]
pub const fn exchange_id(src: u32, seq: u64) -> u64 {
    (((src & 0x00FF_FFFF) as u64) << 40) | (seq & 0xFF_FFFF_FFFF)
}

/// The station id packed into an exchange id by [`exchange_id`].
#[must_use]
pub const fn exchange_src(xid: u64) -> u32 {
    (xid >> 40) as u32
}

/// The sequence number packed into an exchange id by [`exchange_id`].
#[must_use]
pub const fn exchange_seq(xid: u64) -> u64 {
    xid & 0xFF_FFFF_FFFF
}

/// Event category — one bit in the sink's enable mask.
///
/// `name()` returns the dotted string (`"mac.tx"`, `"phy.decode"`, …)
/// that JSONL export writes as the `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// Frames handed to the transmitter (RTS/CTS/DATA/ACK starts).
    MacTx = 0,
    /// Frames accepted or rejected by the receive path.
    MacRx = 1,
    /// Fresh backoff draws.
    MacBackoff = 2,
    /// Retry backoffs after CTS/ACK timeouts.
    MacRetry = 3,
    /// Packets dropped at the retry limit.
    MacDrop = 4,
    /// Attempt-verification probes (receiver pretends the RTS was lost).
    MacProbe = 5,
    /// Deferred transmissions (transmitter busy).
    MacDefer = 6,
    /// Receiver-side monitor observations (deviation, penalty, diagnosis).
    Monitor = 7,
    /// PHY collisions (capture losses, self-tx garbling).
    PhyCollision = 8,
    /// PHY decode outcomes.
    PhyDecode = 9,
    /// Simulator bookkeeping.
    Sim = 10,
    /// Injected faults (burst loss, churn, corruption, clock drift).
    /// Bit 11 is retired; the explicit values keep masks stable.
    Fault = 12,
    /// The live streaming service's robustness decisions (shedding,
    /// quarantine, checkpoints, source supervision).
    Live = 13,
}

impl Category {
    /// All categories, in bit order.
    pub const ALL: [Category; 13] = [
        Category::MacTx,
        Category::MacRx,
        Category::MacBackoff,
        Category::MacRetry,
        Category::MacDrop,
        Category::MacProbe,
        Category::MacDefer,
        Category::Monitor,
        Category::PhyCollision,
        Category::PhyDecode,
        Category::Sim,
        Category::Fault,
        Category::Live,
    ];

    /// This category's bit in the sink enable mask.
    #[must_use]
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// The dotted name JSONL export writes as the `cat` field.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Category::MacTx => "mac.tx",
            Category::MacRx => "mac.rx",
            Category::MacBackoff => "mac.backoff",
            Category::MacRetry => "mac.retry",
            Category::MacDrop => "mac.drop",
            Category::MacProbe => "mac.probe",
            Category::MacDefer => "mac.defer",
            Category::Monitor => "monitor",
            Category::PhyCollision => "phy.collision",
            Category::PhyDecode => "phy.decode",
            Category::Sim => "sim",
            Category::Fault => "fault",
            Category::Live => "live",
        }
    }
}

/// A structured telemetry event.
///
/// Variants mirror the protocol points the paper's evaluation measures:
/// the RTS/CTS/DATA/ACK exchange, backoff draws and retries, and the
/// receiver-side monitor's deviation/penalty/diagnosis decisions.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// Sender put an RTS on the air.
    RtsTx {
        dst: u32,
        seq: u64,
        attempt: u8,
        xid: u64,
    },
    /// Sender put a DATA frame on the air (Basic access or after CTS).
    DataTx {
        dst: u32,
        seq: u64,
        attempt: u8,
        xid: u64,
    },
    /// Receiver put a CTS on the air.
    CtsTx { dst: u32, xid: u64 },
    /// Receiver put an ACK on the air.
    AckTx { dst: u32, xid: u64 },
    /// Sender decoded the CTS answering its RTS.
    CtsRx { src: u32, seq: u64, xid: u64 },
    /// Sender decoded the ACK completing an exchange.
    AckRx { src: u32, seq: u64, xid: u64 },
    /// RTS ignored because the NAV shows the medium busy or a response
    /// is already pending.
    RtsIgnored { src: u32 },
    /// DATA arrived while a response was pending; the ACK was dropped.
    AckSuppressed { src: u32 },
    /// Attempt-verification probe: the receiver intentionally dropped
    /// an RTS to test the sender's retry behaviour (paper §4.1).
    ProbeDropped { src: u32 },
    /// Fresh backoff drawn for a new head-of-line packet.
    BackoffDrawn { dst: u32, slots: u32 },
    /// Retry backoff after a CTS (`ack == false`) or ACK timeout.
    Retry { ack: bool, attempt: u8, slots: u32 },
    /// Packet dropped at the retry limit.
    PacketDropped { seq: u64, attempts: u8 },
    /// Transmission deferred because the transmitter was busy; a
    /// deferred `response` frame is dropped outright.
    Deferred { response: bool },
    /// Receiver-side monitor compared the backoff it assigned against
    /// the idle time it observed before the sender's access.
    BackoffAssigned {
        src: u32,
        assigned_slots: f64,
        observed_slots: f64,
        xid: u64,
    },
    /// Monitor added a penalty to the sender's next assigned backoff.
    PenaltyAdded {
        src: u32,
        penalty_slots: f64,
        assigned_slots: f64,
        observed_slots: f64,
        xid: u64,
    },
    /// Diagnosis window crossed THRESH: the sender is flagged as
    /// misbehaving.
    DiagnosisFlagged { src: u32, window_sum: f64, xid: u64 },
    /// PHY: locked reception garbled by a newcomer (`culprit`) or by
    /// the node's own transmission (`None`).
    Collision {
        victim_tx: u64,
        culprit_tx: Option<u64>,
    },
    /// PHY: locked reception completed, cleanly or garbled.
    Decode { tx: u64, clean: bool },
    /// Fault injector: the burst-loss channel dropped a frame that was
    /// otherwise receivable at `listener`.
    FaultFrameLost { listener: u32, tx: u64 },
    /// Fault injector: a delivered frame's assigned-backoff field was
    /// corrupted in flight.
    FaultCorruptedBackoff {
        listener: u32,
        original_slots: u32,
        corrupted_slots: u32,
    },
    /// Fault injector: a delivered frame's attempt field was corrupted
    /// in flight.
    FaultCorruptedAttempt {
        listener: u32,
        original: u8,
        corrupted: u8,
    },
    /// Fault injector: the node crashed (MAC state wiped; `cold` when
    /// its diagnosis tables were lost too).
    FaultNodeDown { cold: bool },
    /// Fault injector: the node restarted after a crash.
    FaultNodeUp { downtime_us: u64 },
    /// Live service: an overflowing shard queue dropped its oldest
    /// queued observation (drop-oldest overflow policy). Never silent:
    /// one event per shed decision.
    LiveShedDropped { shard: u32, station: u32 },
    /// Live service: an overflowing shard queue degraded to sampling,
    /// keeping one observation in `sample_every` until pressure eases.
    LiveDegraded { shard: u32, sample_every: u32 },
    /// Live service: an undecodable or out-of-range feed record was
    /// quarantined (`record` is its index in the source stream).
    LiveQuarantined { source: u32, record: u64 },
    /// Live service: a failed source was re-opened after exponential
    /// backoff.
    LiveSourceReopened {
        source: u32,
        attempt: u32,
        backoff_ms: u64,
    },
    /// Live service: a crash-safe checkpoint covering `consumed` input
    /// records and `stations` monitored stations was committed.
    LiveCheckpointWritten { consumed: u64, stations: u64 },
    /// Live service: the watchdog quarantined a shard that stopped
    /// making progress while holding pending input; the remaining
    /// shards keep serving.
    LiveShardQuarantined { shard: u32, stalled_ms: u64 },
}

impl ObsEvent {
    /// The category (and so the enable-mask bit) this event belongs to.
    #[must_use]
    pub fn category(&self) -> Category {
        match self {
            ObsEvent::RtsTx { .. }
            | ObsEvent::DataTx { .. }
            | ObsEvent::CtsTx { .. }
            | ObsEvent::AckTx { .. } => Category::MacTx,
            ObsEvent::CtsRx { .. }
            | ObsEvent::AckRx { .. }
            | ObsEvent::RtsIgnored { .. }
            | ObsEvent::AckSuppressed { .. } => Category::MacRx,
            ObsEvent::BackoffDrawn { .. } => Category::MacBackoff,
            ObsEvent::Retry { .. } => Category::MacRetry,
            ObsEvent::PacketDropped { .. } => Category::MacDrop,
            ObsEvent::ProbeDropped { .. } => Category::MacProbe,
            ObsEvent::Deferred { .. } => Category::MacDefer,
            ObsEvent::BackoffAssigned { .. }
            | ObsEvent::PenaltyAdded { .. }
            | ObsEvent::DiagnosisFlagged { .. } => Category::Monitor,
            ObsEvent::Collision { .. } => Category::PhyCollision,
            ObsEvent::Decode { .. } => Category::PhyDecode,
            ObsEvent::FaultFrameLost { .. }
            | ObsEvent::FaultCorruptedBackoff { .. }
            | ObsEvent::FaultCorruptedAttempt { .. }
            | ObsEvent::FaultNodeDown { .. }
            | ObsEvent::FaultNodeUp { .. } => Category::Fault,
            ObsEvent::LiveShedDropped { .. }
            | ObsEvent::LiveDegraded { .. }
            | ObsEvent::LiveQuarantined { .. }
            | ObsEvent::LiveSourceReopened { .. }
            | ObsEvent::LiveCheckpointWritten { .. }
            | ObsEvent::LiveShardQuarantined { .. } => Category::Live,
        }
    }

    /// A stable lowercase name for the variant (used as the JSONL
    /// `event` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::RtsTx { .. } => "rts_tx",
            ObsEvent::DataTx { .. } => "data_tx",
            ObsEvent::CtsTx { .. } => "cts_tx",
            ObsEvent::AckTx { .. } => "ack_tx",
            ObsEvent::CtsRx { .. } => "cts_rx",
            ObsEvent::AckRx { .. } => "ack_rx",
            ObsEvent::RtsIgnored { .. } => "rts_ignored",
            ObsEvent::AckSuppressed { .. } => "ack_suppressed",
            ObsEvent::ProbeDropped { .. } => "probe_dropped",
            ObsEvent::BackoffDrawn { .. } => "backoff_drawn",
            ObsEvent::Retry { .. } => "retry",
            ObsEvent::PacketDropped { .. } => "packet_dropped",
            ObsEvent::Deferred { .. } => "deferred",
            ObsEvent::BackoffAssigned { .. } => "backoff_assigned",
            ObsEvent::PenaltyAdded { .. } => "penalty_added",
            ObsEvent::DiagnosisFlagged { .. } => "diagnosis_flagged",
            ObsEvent::Collision { .. } => "collision",
            ObsEvent::Decode { .. } => "decode",
            ObsEvent::FaultFrameLost { .. } => "fault_frame_lost",
            ObsEvent::FaultCorruptedBackoff { .. } => "fault_corrupted_backoff",
            ObsEvent::FaultCorruptedAttempt { .. } => "fault_corrupted_attempt",
            ObsEvent::FaultNodeDown { .. } => "fault_node_down",
            ObsEvent::FaultNodeUp { .. } => "fault_node_up",
            ObsEvent::LiveShedDropped { .. } => "shed_dropped",
            ObsEvent::LiveDegraded { .. } => "degraded_sampling",
            ObsEvent::LiveQuarantined { .. } => "quarantined",
            ObsEvent::LiveSourceReopened { .. } => "source_reopened",
            ObsEvent::LiveCheckpointWritten { .. } => "checkpoint_written",
            ObsEvent::LiveShardQuarantined { .. } => "shard_quarantined",
        }
    }

    /// The exchange id threaded through the RTS→CTS→DATA→ACK handshake
    /// and the monitor observations it triggers, if this variant
    /// carries one.
    #[must_use]
    pub fn xid(&self) -> Option<u64> {
        match self {
            ObsEvent::RtsTx { xid, .. }
            | ObsEvent::DataTx { xid, .. }
            | ObsEvent::CtsTx { xid, .. }
            | ObsEvent::AckTx { xid, .. }
            | ObsEvent::CtsRx { xid, .. }
            | ObsEvent::AckRx { xid, .. }
            | ObsEvent::BackoffAssigned { xid, .. }
            | ObsEvent::PenaltyAdded { xid, .. }
            | ObsEvent::DiagnosisFlagged { xid, .. } => Some(*xid),
            _ => None,
        }
    }
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsEvent::RtsTx { dst, seq, attempt, .. } => {
                write!(f, "Rts(seq={seq}, attempt={attempt}) -> n{dst}")
            }
            ObsEvent::DataTx { dst, seq, attempt, .. } => {
                write!(f, "Data(seq={seq}, attempt={attempt}) -> n{dst}")
            }
            ObsEvent::CtsTx { dst, .. } => write!(f, "Cts -> n{dst}"),
            ObsEvent::AckTx { dst, .. } => write!(f, "Ack -> n{dst}"),
            ObsEvent::CtsRx { src, seq, .. } => {
                write!(f, "CTS from n{src}, sending DATA seq={seq}")
            }
            ObsEvent::AckRx { src, seq, .. } => write!(f, "ACK from n{src} for seq={seq}"),
            ObsEvent::RtsIgnored { src } => {
                write!(f, "RTS from n{src} ignored (nav/pending)")
            }
            ObsEvent::AckSuppressed { src } => {
                write!(f, "DATA from n{src} but response pending; ACK dropped")
            }
            ObsEvent::ProbeDropped { src } => {
                write!(f, "RTS from n{src} intentionally dropped")
            }
            ObsEvent::BackoffDrawn { dst, slots } => {
                write!(f, "fresh backoff {slots} slots to n{dst}")
            }
            ObsEvent::Retry {
                ack,
                attempt,
                slots,
            } => {
                let kind = if *ack { "ACK" } else { "CTS" };
                write!(f, "{kind} timeout, attempt={attempt} backoff {slots} slots")
            }
            ObsEvent::PacketDropped { seq, attempts } => {
                write!(f, "seq={seq} dropped after {attempts} attempts")
            }
            ObsEvent::Deferred { response } => {
                if *response {
                    write!(f, "response dropped, transmitter busy")
                } else {
                    write!(f, "backoff while on air")
                }
            }
            ObsEvent::BackoffAssigned {
                src,
                assigned_slots,
                observed_slots,
                ..
            } => write!(
                f,
                "n{src}: assigned {assigned_slots:.1} slots, observed {observed_slots:.1}"
            ),
            ObsEvent::PenaltyAdded {
                src,
                penalty_slots,
                assigned_slots,
                observed_slots,
                ..
            } => write!(
                f,
                "n{src}: penalty {penalty_slots:.1} slots (assigned {assigned_slots:.1}, observed {observed_slots:.1})"
            ),
            ObsEvent::DiagnosisFlagged { src, window_sum, .. } => {
                write!(f, "n{src}: flagged misbehaving (window sum {window_sum:.1})")
            }
            ObsEvent::Collision {
                victim_tx,
                culprit_tx,
            } => match culprit_tx {
                Some(culprit) => write!(f, "tx#{victim_tx} garbled by tx#{culprit}"),
                None => write!(f, "tx#{victim_tx} garbled by own tx"),
            },
            ObsEvent::Decode { tx, clean } => {
                let outcome = if *clean { "Decoded" } else { "Garbled" };
                write!(f, "tx#{tx} {outcome}")
            }
            ObsEvent::FaultFrameLost { listener, tx } => {
                write!(f, "fault: tx#{tx} lost in burst noise at n{listener}")
            }
            ObsEvent::FaultCorruptedBackoff {
                listener,
                original_slots,
                corrupted_slots,
            } => write!(
                f,
                "fault: assigned backoff to n{listener} corrupted {original_slots} -> {corrupted_slots} slots"
            ),
            ObsEvent::FaultCorruptedAttempt {
                listener,
                original,
                corrupted,
            } => write!(
                f,
                "fault: attempt field to n{listener} corrupted {original} -> {corrupted}"
            ),
            ObsEvent::FaultNodeDown { cold } => {
                let kind = if *cold { "cold" } else { "warm" };
                write!(f, "fault: node crashed ({kind} diagnosis state)")
            }
            ObsEvent::FaultNodeUp { downtime_us } => {
                write!(f, "fault: node restarted after {downtime_us}us down")
            }
            ObsEvent::LiveShedDropped { shard, station } => {
                write!(f, "live: shard {shard} shed oldest observation of n{station}")
            }
            ObsEvent::LiveDegraded {
                shard,
                sample_every,
            } => write!(
                f,
                "live: shard {shard} degraded to sampling 1-in-{sample_every}"
            ),
            ObsEvent::LiveQuarantined { source, record } => {
                write!(f, "live: source {source} record #{record} quarantined")
            }
            ObsEvent::LiveSourceReopened {
                source,
                attempt,
                backoff_ms,
            } => write!(
                f,
                "live: source {source} reopened (attempt {attempt}, after {backoff_ms}ms)"
            ),
            ObsEvent::LiveCheckpointWritten { consumed, stations } => write!(
                f,
                "live: checkpoint committed at record {consumed} ({stations} stations)"
            ),
            ObsEvent::LiveShardQuarantined { shard, stalled_ms } => {
                write!(f, "live: shard {shard} quarantined after {stalled_ms}ms stall")
            }
        }
    }
}

/// A timestamped, node-attributed event as stored by the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Virtual time in microseconds.
    pub time_us: u64,
    /// Dense node index, or [`NO_NODE`].
    pub node: u32,
    /// The event payload.
    pub event: ObsEvent,
}

#[cfg(test)]
mod tests {
    use super::{exchange_id, exchange_seq, exchange_src, Category, ObsEvent};

    #[test]
    fn category_bits_are_distinct() {
        let mut mask = 0u32;
        for cat in Category::ALL {
            assert_eq!(mask & cat.bit(), 0, "{cat:?} bit collides");
            mask |= cat.bit();
        }
        assert_eq!(mask.count_ones() as usize, Category::ALL.len());
        // Bit 11 is retired; the bits after it keep their mask values.
        assert_eq!(mask & (1 << 11), 0);
        assert_eq!(
            (Category::Fault.bit(), Category::Live.bit()),
            (1 << 12, 1 << 13)
        );
    }

    #[test]
    fn category_names_are_the_dotted_jsonl_strings() {
        assert_eq!(Category::MacTx.name(), "mac.tx");
        assert_eq!(Category::MacBackoff.name(), "mac.backoff");
        assert_eq!(Category::PhyCollision.name(), "phy.collision");
        let names: std::collections::BTreeSet<&str> =
            Category::ALL.into_iter().map(Category::name).collect();
        assert_eq!(names.len(), Category::ALL.len(), "category names collide");
    }

    #[test]
    fn tx_event_display_names_the_frame_kind() {
        // Printed timelines and Perfetto slice names read each mac.tx
        // display as its frame kind, so each must name exactly its own.
        let rts = ObsEvent::RtsTx {
            dst: 2,
            seq: 0,
            attempt: 1,
            xid: 0,
        }
        .to_string();
        assert!(rts.contains("Rts") && !rts.contains("Cts") && !rts.contains("Data"));
        let cts = ObsEvent::CtsTx { dst: 1, xid: 0 }.to_string();
        assert!(cts.contains("Cts") && !cts.contains("Rts") && !cts.contains("Data"));
        let data = ObsEvent::DataTx {
            dst: 2,
            seq: 3,
            attempt: 1,
            xid: 0,
        }
        .to_string();
        assert!(data.contains("Data") && !data.contains("Rts") && !data.contains("Cts"));
        let ack = ObsEvent::AckTx { dst: 1, xid: 0 }.to_string();
        assert!(!ack.contains("Rts") && !ack.contains("Cts") && !ack.contains("Data"));
    }

    #[test]
    fn every_event_maps_to_a_category_and_kind() {
        let events = [
            ObsEvent::RtsTx {
                dst: 0,
                seq: 0,
                attempt: 1,
                xid: exchange_id(3, 0),
            },
            ObsEvent::CtsRx {
                src: 0,
                seq: 0,
                xid: 0,
            },
            ObsEvent::BackoffDrawn { dst: 0, slots: 7 },
            ObsEvent::Retry {
                ack: true,
                attempt: 2,
                slots: 15,
            },
            ObsEvent::PenaltyAdded {
                src: 1,
                penalty_slots: 4.0,
                assigned_slots: 10.0,
                observed_slots: 2.0,
                xid: 0,
            },
            ObsEvent::FaultFrameLost { listener: 2, tx: 9 },
            ObsEvent::FaultNodeDown { cold: true },
        ];
        for e in &events {
            assert!(!e.kind().is_empty());
            assert!(!e.category().name().is_empty());
        }
        assert_eq!(
            ObsEvent::PenaltyAdded {
                src: 1,
                penalty_slots: 4.0,
                assigned_slots: 10.0,
                observed_slots: 2.0,
                xid: 0,
            }
            .category(),
            Category::Monitor
        );
        assert_eq!(
            ObsEvent::FaultNodeUp { downtime_us: 500 }.category(),
            Category::Fault
        );
        assert_eq!(Category::Fault.name(), "fault");
    }

    #[test]
    fn exchange_id_round_trips_src_and_seq() {
        let xid = exchange_id(7, 123_456);
        assert_eq!(exchange_src(xid), 7);
        assert_eq!(exchange_seq(xid), 123_456);
        // Distinct (src, seq) pairs in range never collide.
        assert_ne!(exchange_id(1, 0), exchange_id(0, 1));
        assert_ne!(exchange_id(2, 9), exchange_id(2, 10));
        // The xid accessor surfaces the id only on causal variants.
        let e = ObsEvent::RtsTx {
            dst: 0,
            seq: 5,
            attempt: 1,
            xid: exchange_id(3, 5),
        };
        assert_eq!(e.xid(), Some(exchange_id(3, 5)));
        assert_eq!(ObsEvent::BackoffDrawn { dst: 0, slots: 1 }.xid(), None);
    }
}
