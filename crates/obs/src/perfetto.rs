//! Chrome trace-event (Perfetto-loadable) export of the virtual-time
//! timeline.
//!
//! [`records_to_chrome_trace`] renders a [`Record`] stream as the JSON
//! object format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>: one complete
//! (`"ph":"X"`) slice per reconstructed exchange span and one instant
//! (`"ph":"i"`) event per record. Virtual microseconds map directly
//! onto the format's `ts` microsecond field, so the UI shows the
//! simulated timeline, not wall time — output is deterministic and
//! byte-identical across reruns (DESIGN.md §9).
//!
//! Track layout: `pid` 0 holds one thread (`tid`) per station, so each
//! station's exchanges and events line up on its own row.

use crate::event::{exchange_seq, Record, NO_NODE};
use crate::json::JsonObject;
use crate::span::SpanSet;

/// `tid` used for records not attributable to a station.
const SIM_TID: u64 = 0xFFFF_FFFF;

/// Renders records (and the exchange spans reconstructed from them) as
/// a Chrome trace-event JSON object. The output always contains the
/// `traceEvents` array, even when empty.
#[must_use]
pub fn records_to_chrome_trace(records: &[Record]) -> String {
    let spans = SpanSet::from_records(records);
    let mut events: Vec<String> = Vec::with_capacity(records.len() + spans.exchanges.len());
    for span in spans.exchanges.values() {
        let mut args = JsonObject::new();
        args.u64("xid", span.xid)
            .u64("seq", exchange_seq(span.xid))
            .u64("penalties", span.penalties)
            .bool("complete", span.complete())
            .bool("flagged", span.flagged);
        let mut obj = JsonObject::new();
        obj.str("name", &format!("exchange seq={}", exchange_seq(span.xid)))
            .str("cat", "exchange")
            .str("ph", "X")
            .u64("ts", span.start_us)
            .u64("dur", span.duration_us().max(1))
            .u64("pid", 0)
            .u64("tid", u64::from(span.src()))
            .raw("args", &args.finish());
        events.push(obj.finish());
    }
    for record in records {
        let tid = if record.node == NO_NODE {
            SIM_TID
        } else {
            u64::from(record.node)
        };
        let mut args = JsonObject::new();
        args.str("detail", &record.event.to_string());
        if let Some(xid) = record.event.xid() {
            args.u64("xid", xid);
        }
        let mut obj = JsonObject::new();
        obj.str("name", record.event.kind())
            .str("cat", record.event.category().name())
            .str("ph", "i")
            .str("s", "t")
            .u64("ts", record.time_us)
            .u64("pid", 0)
            .u64("tid", tid)
            .raw("args", &args.finish());
        events.push(obj.finish());
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(event);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::records_to_chrome_trace;
    use crate::event::{exchange_id, ObsEvent, Record, NO_NODE};

    fn sample_records() -> Vec<Record> {
        let xid = exchange_id(1, 2);
        vec![
            Record {
                time_us: 10,
                node: 1,
                event: ObsEvent::RtsTx {
                    dst: 0,
                    seq: 2,
                    attempt: 1,
                    xid,
                },
            },
            Record {
                time_us: 40,
                node: 0,
                event: ObsEvent::CtsTx { dst: 1, xid },
            },
            Record {
                time_us: 99,
                node: NO_NODE,
                event: ObsEvent::LiveCheckpointWritten {
                    consumed: 3,
                    stations: 2,
                },
            },
        ]
    }

    #[test]
    fn trace_contains_exchange_slices_and_instant_events() {
        let json = records_to_chrome_trace(&sample_records());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"exchange seq=2\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"rts_tx\""));
        assert!(json.contains("\"ph\":\"i\""));
        // The exchange slice sits on the originating station's track.
        assert!(json.contains("\"tid\":1"));
    }

    #[test]
    fn empty_input_still_produces_a_valid_envelope() {
        assert_eq!(
            records_to_chrome_trace(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn output_is_deterministic() {
        let records = sample_records();
        assert_eq!(
            records_to_chrome_trace(&records),
            records_to_chrome_trace(&records)
        );
    }
}
