//! Observation sources: JSONL replay, length-prefixed frame files, a
//! TCP listener, and the supervising wrapper that re-opens failed
//! transports with exponential backoff.
//!
//! All sources speak [`ObservationSource`]: `Ok(Some)` is a clean
//! observation, `Ok(None)` a clean end of stream, `Malformed` a
//! quarantinable record (the stream continues past it), and `Transport`
//! a broken feed. The decode path never panics — a hostile byte on the
//! wire must become a typed error the engine can count.
//!
//! The JSONL schema is exactly what `airguard_obs::record_to_json`
//! emits for the monitor category: the live service consumes
//! `backoff_assigned` records (`src` is the monitored station) and
//! silently skips every other well-formed telemetry line, so a full
//! `.events.jsonl` export replays unmodified.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::sync::Arc;

use airguard_core::{ObservationSource, SourceError, StationObservation};
use airguard_obs::{EventSink, ObsEvent, NO_NODE};

use crate::json::{scan_fields, Field};

/// Slot counts beyond this are treated as corruption: the modified
/// protocol caps assignments at `max_assignment` (1023 by default), so
/// a six-digit slot count on the feed is a flipped byte, not a backoff.
pub const MAX_SLOTS: f64 = 1_000_000.0;

/// Frames longer than this are rejected before allocation; a feed
/// record is a single JSON line, far below this bound.
pub const MAX_FRAME: usize = 65_536;

/// The fields of a feed record the decoder reads. Each holds the last
/// occurrence of its key, as a parsed tree would.
#[derive(Debug, Default)]
struct FeedRecord<'a> {
    cat: Option<Field<'a>>,
    event: Option<Field<'a>>,
    t_us: Option<Field<'a>>,
    src: Option<Field<'a>>,
    assigned_slots: Option<Field<'a>>,
    observed_slots: Option<Field<'a>>,
}

impl FeedRecord<'_> {
    /// Interprets the record. `Ok(None)` means the line is well-formed
    /// telemetry of some other kind (skipped, not quarantined).
    fn observation(&self) -> Result<Option<StationObservation>, String> {
        let is_backoff = self.cat.as_ref().and_then(Field::as_str) == Some("monitor")
            && self.event.as_ref().and_then(Field::as_str) == Some("backoff_assigned");
        if !is_backoff {
            return Ok(None);
        }
        let t_us = self
            .t_us
            .as_ref()
            .and_then(Field::as_u64)
            .ok_or("missing or out-of-range `t_us`")?;
        let station = self
            .src
            .as_ref()
            .and_then(Field::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or("missing or out-of-range `src`")?;
        let assigned_slots = self
            .assigned_slots
            .as_ref()
            .and_then(Field::as_f64)
            .ok_or("missing or non-finite `assigned_slots`")?;
        let observed_slots = self
            .observed_slots
            .as_ref()
            .and_then(Field::as_f64)
            .ok_or("missing or non-finite `observed_slots`")?;
        if !(0.0..=MAX_SLOTS).contains(&assigned_slots)
            || !(0.0..=MAX_SLOTS).contains(&observed_slots)
        {
            return Err("slot count outside [0, 1e6]".into());
        }
        Ok(Some(StationObservation {
            t_us,
            station,
            assigned_slots,
            observed_slots,
        }))
    }
}

/// Decodes one JSONL line (with or without its trailing newline) into
/// an observation, a skip (blank line or other telemetry), or a
/// malformed-record error. One scan of the line's bytes: the fields
/// are read in place, no tree is built.
pub fn decode_line(bytes: &[u8]) -> Result<Option<StationObservation>, SourceError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SourceError::Malformed("non-UTF-8 feed line".into()))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    let mut record = FeedRecord::default();
    scan_fields(text.trim_end(), |key, value| {
        let slot = match key {
            "cat" => &mut record.cat,
            "event" => &mut record.event,
            "t_us" => &mut record.t_us,
            "src" => &mut record.src,
            "assigned_slots" => &mut record.assigned_slots,
            "observed_slots" => &mut record.observed_slots,
            _ => return,
        };
        *slot = Some(value);
    })
    .map_err(|e| SourceError::Malformed(format!("malformed record: {e}")))?;
    record.observation().map_err(SourceError::Malformed)
}

/// Replays observations from a JSONL byte stream (file, socket, or any
/// reader).
#[derive(Debug)]
pub struct JsonlSource<R> {
    reader: BufReader<R>,
    line: Vec<u8>,
}

impl JsonlSource<std::fs::File> {
    /// Opens a `.events.jsonl` replay file.
    pub fn open(path: &std::path::Path) -> Result<Self, SourceError> {
        let file = std::fs::File::open(path)
            .map_err(|e| SourceError::Transport(format!("open {}: {e}", path.display())))?;
        Ok(JsonlSource::new(file))
    }
}

impl<R: Read> JsonlSource<R> {
    /// Wraps any reader producing JSONL records.
    pub fn new(reader: R) -> Self {
        JsonlSource {
            reader: BufReader::new(reader),
            line: Vec::new(),
        }
    }
}

impl<R: Read + std::fmt::Debug + Send> ObservationSource for JsonlSource<R> {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.line)
                .map_err(|e| SourceError::Transport(format!("read: {e}")))?;
            if n == 0 {
                return Ok(None);
            }
            match decode_line(&self.line)? {
                Some(obs) => return Ok(Some(obs)),
                None => continue, // other telemetry, or a blank line
            }
        }
    }
}

/// Replays observations from a length-prefixed binary frame file: each
/// frame is a little-endian `u32` payload length followed by one JSON
/// record. A corrupt length prefix destroys framing, so the decoder
/// quarantines the frame and resynchronises by advancing one byte —
/// progress is guaranteed, and the per-source error budget bounds how
/// long a shredded file is chewed on.
#[derive(Debug)]
pub struct FrameSource {
    bytes: Vec<u8>,
    pos: usize,
}

impl FrameSource {
    /// Opens a frame file (fully buffered; feeds are replay-sized).
    pub fn open(path: &std::path::Path) -> Result<Self, SourceError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SourceError::Transport(format!("open {}: {e}", path.display())))?;
        Ok(FrameSource { bytes, pos: 0 })
    }

    /// Builds a frame file image from JSONL record lines.
    #[must_use]
    pub fn encode(lines: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        for line in lines {
            let len = u32::try_from(line.len()).unwrap_or(u32::MAX);
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(line.as_bytes());
        }
        out
    }
}

impl ObservationSource for FrameSource {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        loop {
            if self.pos >= self.bytes.len() {
                return Ok(None);
            }
            let Some(header) = self.bytes.get(self.pos..self.pos + 4) else {
                self.pos = self.bytes.len();
                return Err(SourceError::Malformed("truncated frame header".into()));
            };
            let mut len_bytes = [0u8; 4];
            len_bytes.copy_from_slice(header);
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len == 0 || len > MAX_FRAME {
                // Resync one byte forward; the budget bounds the chew.
                self.pos += 1;
                return Err(SourceError::Malformed(format!(
                    "implausible frame length {len}"
                )));
            }
            let start = self.pos + 4;
            let Some(payload) = self.bytes.get(start..start + len) else {
                self.pos = self.bytes.len();
                return Err(SourceError::Malformed("truncated frame payload".into()));
            };
            self.pos = start + len;
            match decode_line(payload)? {
                Some(obs) => return Ok(Some(obs)),
                None => continue,
            }
        }
    }
}

/// Live feed: accepts JSONL connections on a TCP listener. Each
/// accepted connection streams records; when a peer disconnects the
/// source reports `Transport`, and the supervising wrapper re-opens it
/// by accepting the next connection.
#[derive(Debug)]
pub struct SocketSource {
    listener: Arc<TcpListener>,
    conn: Option<JsonlSource<std::net::TcpStream>>,
}

impl SocketSource {
    /// Binds the listener address.
    pub fn bind(addr: &str) -> Result<Self, SourceError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| SourceError::Transport(format!("bind {addr}: {e}")))?;
        Ok(SocketSource {
            listener: Arc::new(listener),
            conn: None,
        })
    }

    /// A second handle accepting from the same bound listener (the
    /// re-open factory for [`SupervisedSource`]).
    #[must_use]
    pub fn reopen_handle(&self) -> Arc<TcpListener> {
        Arc::clone(&self.listener)
    }

    /// The locally bound address (useful with port 0 in tests).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, SourceError> {
        self.listener
            .local_addr()
            .map_err(|e| SourceError::Transport(format!("local_addr: {e}")))
    }

    /// Builds a source from an already-shared listener.
    #[must_use]
    pub fn from_listener(listener: Arc<TcpListener>) -> Self {
        SocketSource {
            listener,
            conn: None,
        }
    }
}

impl ObservationSource for SocketSource {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        if self.conn.is_none() {
            let (stream, _peer) = self
                .listener
                .accept()
                .map_err(|e| SourceError::Transport(format!("accept: {e}")))?;
            self.conn = Some(JsonlSource::new(stream));
        }
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| SourceError::Transport("connection vanished".into()))?;
        match conn.next_observation() {
            // EOF on a socket is a peer disconnect, not end-of-feed:
            // surface it as Transport so the supervisor re-accepts.
            Ok(None) => {
                self.conn = None;
                Err(SourceError::Transport("peer closed the feed".into()))
            }
            Err(SourceError::Transport(e)) => {
                self.conn = None;
                Err(SourceError::Transport(e))
            }
            other => other,
        }
    }
}

/// Supervision wrapper: passes malformed records through (the engine
/// quarantines them), and turns transport failures into bounded
/// re-open attempts with exponential backoff, each reported as a
/// [`ObsEvent::LiveSourceReopened`].
pub struct SupervisedSource {
    factory: Box<dyn FnMut() -> Result<Box<dyn ObservationSource>, SourceError> + Send>,
    inner: Option<Box<dyn ObservationSource>>,
    /// Consecutive failed-transport count since the last clean pull.
    attempts: u32,
    /// Re-opens allowed per failure streak; exceeded → terminal error.
    max_reopens: u32,
    /// First retry delay; doubles per consecutive failure.
    backoff_base_ms: u64,
    /// Backoff ceiling.
    backoff_cap_ms: u64,
    sink: EventSink,
    source_id: u32,
}

impl std::fmt::Debug for SupervisedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedSource")
            .field("attempts", &self.attempts)
            .field("max_reopens", &self.max_reopens)
            .finish_non_exhaustive()
    }
}

impl SupervisedSource {
    /// Supervises sources produced by `factory`. `source_id` labels the
    /// re-open events when a service watches several feeds.
    pub fn new(
        source_id: u32,
        sink: EventSink,
        max_reopens: u32,
        backoff_base_ms: u64,
        factory: impl FnMut() -> Result<Box<dyn ObservationSource>, SourceError> + Send + 'static,
    ) -> Self {
        SupervisedSource {
            factory: Box::new(factory),
            inner: None,
            attempts: 0,
            max_reopens,
            backoff_base_ms,
            backoff_cap_ms: 10_000,
            sink,
            source_id,
        }
    }

    /// Wraps an already-open source; the factory only runs on re-open.
    #[must_use]
    pub fn with_open(mut self, source: Box<dyn ObservationSource>) -> Self {
        self.inner = Some(source);
        self
    }

    fn backoff_ms(&self) -> u64 {
        let exp = self.attempts.saturating_sub(1).min(32);
        self.backoff_base_ms
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap_ms)
    }

    fn note_failure(&mut self, error: String) -> Result<(), SourceError> {
        self.inner = None;
        self.attempts += 1;
        if self.attempts > self.max_reopens {
            return Err(SourceError::Transport(format!(
                "source {id} gave up after {n} re-open attempts: {error}",
                id = self.source_id,
                n = self.max_reopens,
            )));
        }
        let backoff_ms = self.backoff_ms();
        if backoff_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
        }
        self.sink.emit(
            0,
            NO_NODE,
            ObsEvent::LiveSourceReopened {
                source: self.source_id,
                attempt: self.attempts,
                backoff_ms,
            },
        );
        Ok(())
    }
}

impl ObservationSource for SupervisedSource {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        loop {
            if self.inner.is_none() {
                match (self.factory)() {
                    Ok(source) => self.inner = Some(source),
                    Err(SourceError::Transport(e)) => {
                        self.note_failure(e)?;
                        continue;
                    }
                    Err(other) => return Err(other),
                }
            }
            let inner = self
                .inner
                .as_mut()
                .ok_or_else(|| SourceError::Transport("source vanished".into()))?;
            match inner.next_observation() {
                Ok(obs) => {
                    self.attempts = 0;
                    return Ok(obs);
                }
                Err(SourceError::Malformed(m)) => return Err(SourceError::Malformed(m)),
                Err(SourceError::Transport(e)) => {
                    self.note_failure(e)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{FrameSource, JsonlSource, SupervisedSource};
    use airguard_core::{ObservationSource, SourceError};
    use airguard_obs::{Category, EventSink};

    fn record(t_us: u64, src: u32, assigned: f64, observed: f64) -> String {
        format!(
            "{{\"t_us\":{t_us},\"node\":0,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":{src},\"assigned_slots\":{assigned},\"observed_slots\":{observed},\"xid\":1}}"
        )
    }

    #[test]
    fn jsonl_replay_yields_backoff_records_and_skips_the_rest() {
        let feed = format!(
            "{}\n{{\"t_us\":5,\"node\":1,\"cat\":\"mac\",\"event\":\"rts_tx\",\"dst\":2,\"seq\":0,\"attempt\":1,\"xid\":9}}\n{}\n",
            record(10, 3, 14.0, 2.0),
            record(20, 4, 8.0, 8.0),
        );
        let mut src = JsonlSource::new(feed.as_bytes());
        let a = src.next_observation().expect("first").expect("some");
        assert_eq!((a.t_us, a.station), (10, 3));
        let b = src.next_observation().expect("second").expect("some");
        assert_eq!((b.t_us, b.station), (20, 4));
        assert_eq!(src.next_observation().expect("end"), None);
    }

    #[test]
    fn malformed_lines_are_quarantined_and_the_stream_continues() {
        let feed = format!(
            "not json at all\n{}\n{{\"t_us\":-4,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":1,\"assigned_slots\":1,\"observed_slots\":1}}\n{}\n",
            record(10, 3, 14.0, 2.0),
            record(20, 4, 8.0, 8.0),
        );
        let mut src = JsonlSource::new(feed.as_bytes());
        assert!(matches!(
            src.next_observation(),
            Err(SourceError::Malformed(_))
        ));
        assert_eq!(src.next_observation().expect("ok").expect("some").t_us, 10);
        assert!(matches!(
            src.next_observation(),
            Err(SourceError::Malformed(_))
        ));
        assert_eq!(src.next_observation().expect("ok").expect("some").t_us, 20);
        assert_eq!(src.next_observation().expect("end"), None);
    }

    #[test]
    fn out_of_range_slot_counts_are_malformed() {
        let feed = format!("{}\n", record(10, 3, 2e6, 2.0));
        let mut src = JsonlSource::new(feed.as_bytes());
        assert!(matches!(
            src.next_observation(),
            Err(SourceError::Malformed(_))
        ));
    }

    #[test]
    fn frame_codec_round_trips_and_resyncs_after_corruption() {
        let a = record(10, 3, 14.0, 2.0);
        let b = record(20, 4, 8.0, 8.0);
        let mut bytes = FrameSource::encode(&[&a]);
        // A flipped length prefix on the second frame.
        let mut broken = FrameSource::encode(&[&b]);
        broken[3] = 0xff;
        bytes.extend_from_slice(&broken);
        let mut src = FrameSource { bytes, pos: 0 };
        assert_eq!(src.next_observation().expect("ok").expect("some").t_us, 10);
        // The shredded frame produces a bounded run of malformed pulls,
        // never a panic, and always terminates.
        let mut malformed = 0;
        loop {
            match src.next_observation() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(SourceError::Malformed(_)) => malformed += 1,
                Err(SourceError::Transport(e)) => {
                    panic!("unexpected transport error: {e}");
                }
            }
            assert!(malformed < 1000, "resync failed to terminate");
        }
        assert!(malformed > 0);
    }

    #[test]
    fn supervised_source_reopens_with_backoff_events() {
        #[derive(Debug)]
        struct Flaky {
            fails_left: u32,
            yielded: bool,
        }
        impl ObservationSource for Flaky {
            fn next_observation(
                &mut self,
            ) -> Result<Option<airguard_core::StationObservation>, SourceError> {
                if self.fails_left > 0 {
                    self.fails_left -= 1;
                    return Err(SourceError::Transport("flaky".into()));
                }
                if self.yielded {
                    return Ok(None);
                }
                self.yielded = true;
                Ok(Some(airguard_core::StationObservation {
                    t_us: 1,
                    station: 7,
                    assigned_slots: 4.0,
                    observed_slots: 4.0,
                }))
            }
        }
        let sink = EventSink::enabled();
        // The initial source fails once; the first factory call fails
        // too; the second succeeds — two re-open attempts total.
        let mut factory_failures = 1u32;
        let mut supervised = SupervisedSource::new(9, sink.clone(), 5, 0, move || {
            if factory_failures > 0 {
                factory_failures -= 1;
                return Err(SourceError::Transport("still down".into()));
            }
            Ok(Box::new(Flaky {
                fails_left: 0,
                yielded: false,
            }) as Box<dyn ObservationSource>)
        })
        .with_open(Box::new(Flaky {
            fails_left: 1,
            yielded: false,
        }));
        let obs = supervised.next_observation().expect("ok").expect("some");
        assert_eq!(obs.station, 7);
        let reopens: Vec<_> = sink
            .records()
            .into_iter()
            .filter(|r| r.event.category() == Category::Live)
            .collect();
        assert_eq!(reopens.len(), 2, "{reopens:?}");
    }

    #[test]
    fn supervised_source_gives_up_past_the_reopen_budget() {
        let sink = EventSink::new();
        let mut supervised = SupervisedSource::new(1, sink, 2, 0, || {
            Err(SourceError::Transport("still down".into()))
        });
        let err = supervised.next_observation().expect_err("terminal");
        assert!(matches!(err, SourceError::Transport(m) if m.contains("gave up after 2")));
    }
}
