//! The structured event log: a bounded in-memory ring of typed engine
//! events with an optional JSONL sink through the [`Vfs`] seam.
//!
//! Events capture the *discrete* things the engine does — a publication
//! landed, a checkpoint folded the WAL, the cache evicted a chunk, a
//! transient I/O fault was absorbed, a query ran slow. Counters (the
//! metrics registry) answer "how much"; the event ring answers "what
//! happened, in what order".
//!
//! The ring holds the most recent [`EventLog::capacity`] records; older
//! records fall off the front but their monotone sequence numbers keep
//! counting, so a reader can tell exactly how many it missed. When a sink
//! is attached every record is also appended as one JSON line through the
//! `Vfs`, with transient write faults absorbed by the same bounded-backoff
//! retry the WAL uses — an event is written exactly once or the sink error
//! counter advances; it is never silently duplicated.

use crate::storage::vfs::{with_retry, Vfs};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// Default number of records the ring retains.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One typed engine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A catalog publication committed (`modify_table`, `put_table`,
    /// `create_table` or `drop_table`).
    Publication {
        /// Table the commit landed on.
        table: String,
        /// Microseconds the publisher waited for the table's writer gate.
        wait_us: u64,
    },
    /// A checkpoint folded the WAL into the manifest.
    Checkpoint {
        /// WAL bytes folded away.
        wal_bytes: u64,
        /// Tables materialized into the manifest.
        tables: u64,
    },
    /// The chunk cache evicted a resident chunk to stay under budget.
    Eviction {
        /// Evicted chunk id.
        chunk: u64,
        /// Bytes released.
        bytes: u64,
    },
    /// A transient WAL I/O fault was absorbed by retrying.
    WalFaultRetry {
        /// Extra attempts the append needed beyond the first.
        retries: u32,
    },
    /// A query ran at or above the slow-query threshold.
    SlowQuery {
        /// The query text (or a label for API-driven plans).
        query: String,
        /// Wall-clock nanoseconds the query took.
        wall_ns: u64,
        /// Deterministic work units the query cost.
        work: u64,
    },
    /// A query registered a task queue with the shared worker pool.
    QueryQueued {
        /// Queries registered with the pool after this one joined.
        active: u64,
    },
    /// The versioned result cache evicted an entry to stay under budget.
    ResultCacheEviction {
        /// Estimated bytes released.
        bytes: u64,
        /// Deterministic work units the cached result had cost to compute.
        cost: u64,
    },
}

impl EngineEvent {
    /// Stable kind tag used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::Publication { .. } => "publication",
            EngineEvent::Checkpoint { .. } => "checkpoint",
            EngineEvent::Eviction { .. } => "eviction",
            EngineEvent::WalFaultRetry { .. } => "wal_fault_retry",
            EngineEvent::SlowQuery { .. } => "slow_query",
            EngineEvent::QueryQueued { .. } => "query_queued",
            EngineEvent::ResultCacheEviction { .. } => "result_cache_eviction",
        }
    }
}

/// An event plus its monotone sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Position in the log; strictly increasing, never reused.
    pub seq: u64,
    /// The event itself.
    pub event: EngineEvent,
}

impl EventRecord {
    /// The record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let seq = self.seq;
        match &self.event {
            EngineEvent::Publication { table, wait_us } => format!(
                "{{\"seq\":{seq},\"kind\":\"publication\",\"table\":{},\"wait_us\":{wait_us}}}",
                json_str(table)
            ),
            EngineEvent::Checkpoint { wal_bytes, tables } => format!(
                "{{\"seq\":{seq},\"kind\":\"checkpoint\",\"wal_bytes\":{wal_bytes},\"tables\":{tables}}}"
            ),
            EngineEvent::Eviction { chunk, bytes } => format!(
                "{{\"seq\":{seq},\"kind\":\"eviction\",\"chunk\":{chunk},\"bytes\":{bytes}}}"
            ),
            EngineEvent::WalFaultRetry { retries } => format!(
                "{{\"seq\":{seq},\"kind\":\"wal_fault_retry\",\"retries\":{retries}}}"
            ),
            EngineEvent::SlowQuery {
                query,
                wall_ns,
                work,
            } => format!(
                "{{\"seq\":{seq},\"kind\":\"slow_query\",\"query\":{},\"wall_ns\":{wall_ns},\"work\":{work}}}",
                json_str(query)
            ),
            EngineEvent::QueryQueued { active } => {
                format!("{{\"seq\":{seq},\"kind\":\"query_queued\",\"active\":{active}}}")
            }
            EngineEvent::ResultCacheEviction { bytes, cost } => format!(
                "{{\"seq\":{seq},\"kind\":\"result_cache_eviction\",\"bytes\":{bytes},\"cost\":{cost}}}"
            ),
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug)]
struct Sink {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Committed file length; torn transient appends are truncated back
    /// to it before the retry, so a line lands exactly once or not at all.
    len: u64,
}

#[derive(Debug)]
struct LogInner {
    ring: VecDeque<EventRecord>,
    next_seq: u64,
    capacity: usize,
    dropped: u64,
    sink: Option<Sink>,
    sink_errors: u64,
}

/// Bounded ring of [`EventRecord`]s with an optional JSONL sink.
///
/// One mutex guards ring *and* sink so concurrent recorders serialize:
/// sequence numbers, ring order and sink-file order always agree.
#[derive(Debug)]
pub struct EventLog {
    inner: Mutex<LogInner>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// A ring retaining the latest `capacity` records (at least 1).
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            inner: Mutex::new(LogInner {
                ring: VecDeque::new(),
                next_seq: 0,
                capacity: capacity.max(1),
                dropped: 0,
                sink: None,
                sink_errors: 0,
            }),
        }
    }

    /// Records `event`, returning its sequence number. If a sink is
    /// attached the record is appended as one JSON line, retrying
    /// transient faults; a permanent sink failure only advances
    /// [`sink_errors`](Self::sink_errors) — observability never takes the
    /// engine down.
    pub fn record(&self, event: EngineEvent) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let rec = EventRecord { seq, event };
        if let Some(sink) = &mut inner.sink {
            let line = format!("{}\n", rec.to_json());
            let (vfs, path, len) = (Arc::clone(&sink.vfs), sink.path.clone(), sink.len);
            match with_retry(
                || vfs.append(&path, line.as_bytes()),
                // A failed first append may not have created the file:
                // nothing to roll back then.
                || match vfs.truncate(&path, len) {
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    r => r,
                },
            ) {
                Ok(()) => sink.len = len + line.len() as u64,
                Err(_) => inner.sink_errors += 1,
            }
        }
        inner.ring.push_back(rec);
        while inner.ring.len() > inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        seq
    }

    /// The retained records, oldest first.
    pub fn recent(&self) -> Vec<EventRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Resizes the ring (at least 1), trimming the oldest records if the
    /// new capacity is smaller.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.capacity = capacity.max(1);
        while inner.ring.len() > inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
    }

    /// Records that fell off the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Sink appends that failed even after retries.
    pub fn sink_errors(&self) -> u64 {
        self.inner.lock().sink_errors
    }

    /// Attaches a JSONL sink: every future record is appended to `path`
    /// through `vfs` as one JSON object per line. An existing file is
    /// appended to, not truncated.
    pub fn set_sink(&self, vfs: Arc<dyn Vfs>, path: impl Into<PathBuf>) {
        let path = path.into();
        let len = vfs.read(&path).map(|b| b.len() as u64).unwrap_or(0);
        self.inner.lock().sink = Some(Sink { vfs, path, len });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EngineEvent {
        EngineEvent::Publication {
            table: "T".into(),
            wait_us: i,
        }
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let log = EventLog::with_capacity(3);
        for i in 0..5 {
            log.record(ev(i));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn shrinking_capacity_trims_oldest() {
        let log = EventLog::with_capacity(8);
        for i in 0..4 {
            log.record(ev(i));
        }
        log.set_capacity(2);
        assert_eq!(
            log.recent().iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn json_encoding_escapes_strings() {
        let rec = EventRecord {
            seq: 7,
            event: EngineEvent::SlowQuery {
                query: "SELECT \"x\"\nFROM t".into(),
                wall_ns: 42,
                work: 9,
            },
        };
        let line = rec.to_json();
        assert!(line.starts_with("{\"seq\":7,\"kind\":\"slow_query\""));
        assert!(line.contains("\\\"x\\\""));
        assert!(line.contains("\\n"));
        assert!(!line.contains('\n'));
    }
}
