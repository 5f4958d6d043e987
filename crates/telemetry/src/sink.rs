//! Pluggable destinations for trace events.
//!
//! A [`Recorder`](crate::Recorder) always retains the last
//! `ring_capacity` kept events in a bounded ring buffer; sinks are the
//! *streaming* side — each kept event is offered to every attached sink
//! as it happens. Three implementations cover the workspace's needs:
//! [`JsonlSink`] (a file or any writer), [`CsvProbeSink`] (round-probe
//! time series as CSV), and [`MemorySink`] (tests and the batch
//! executor's ordered post-run writing).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// A writer that buffers everything in memory and publishes the whole
/// file atomically (tmp + fsync + rename) on [`Write::flush`]. The
/// path-backed sink constructors use it so a killed run leaves either no
/// trace file or a complete one — never a truncated stream.
#[derive(Debug)]
pub struct AtomicFile {
    path: PathBuf,
    buf: Vec<u8>,
}

impl AtomicFile {
    /// Buffers writes destined for `path`.
    pub fn new(path: &Path) -> Self {
        AtomicFile {
            path: path.to_path_buf(),
            buf: Vec::new(),
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        crate::atomic::write_atomic(&self.path, &self.buf)
    }
}

/// A destination for kept trace events.
pub trait Sink: Send {
    /// Receives one event, with its sequence number in the kept stream.
    fn record(&mut self, seq: u64, event: &TraceEvent);

    /// Flushes any buffered output (end of run).
    fn flush(&mut self) {}
}

/// Streams events as JSON Lines to any writer (typically a
/// `BufWriter<File>`).
pub struct JsonlSink<W: Write + Send> {
    writer: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }
}

impl JsonlSink<AtomicFile> {
    /// Creates a JSONL trace sink that publishes `path` atomically when
    /// flushed at the end of the run.
    ///
    /// # Errors
    ///
    /// Infallible today (the buffer is in memory until flush); kept
    /// fallible for signature stability.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(AtomicFile::new(path)))
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&mut self, _seq: u64, event: &TraceEvent) {
        let _ = writeln!(self.writer, "{}", event.to_jsonl());
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Extracts the [`TraceEvent::RoundProbe`] time series as CSV — the
/// plottable gauge stream (active/bootstrapped/completed peers,
/// in-flight transfers) behind a run. All other event kinds are ignored.
pub struct CsvProbeSink<W: Write + Send> {
    writer: W,
}

/// The header row [`CsvProbeSink`] writes before its first record.
pub const PROBE_CSV_HEADER: &str = "round,sim_s,active,bootstrapped,completed,inflight";

impl<W: Write + Send> CsvProbeSink<W> {
    /// Wraps a writer, emitting the CSV header immediately.
    pub fn new(mut writer: W) -> Self {
        let _ = writeln!(writer, "{PROBE_CSV_HEADER}");
        CsvProbeSink { writer }
    }
}

impl CsvProbeSink<AtomicFile> {
    /// Creates a probe CSV sink that publishes `path` atomically when
    /// flushed at the end of the run.
    ///
    /// # Errors
    ///
    /// Infallible today (the buffer is in memory until flush); kept
    /// fallible for signature stability.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(CsvProbeSink::new(AtomicFile::new(path)))
    }
}

impl<W: Write + Send> Sink for CsvProbeSink<W> {
    fn record(&mut self, _seq: u64, event: &TraceEvent) {
        if let TraceEvent::RoundProbe {
            round,
            sim_s,
            active,
            bootstrapped,
            completed,
            inflight,
            ..
        } = event
        {
            let _ = writeln!(
                self.writer,
                "{round},{sim_s},{active},{bootstrapped},{completed},{inflight}"
            );
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Collects every kept event in memory. Cloning the sink shares the
/// buffer, so a test (or the batch executor) can keep a handle while the
/// recorder owns the sink.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events collected so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&mut self, _seq: u64, event: &TraceEvent) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: u64) -> TraceEvent {
        TraceEvent::EngineStats {
            events_processed: round,
            queue_depth_hwm: 1,
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(0, &event(1));
        sink.record(1, &event(2));
        sink.flush();
        let text = String::from_utf8(sink.writer).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            crate::json::parse(line).expect("valid json");
        }
    }

    #[test]
    fn csv_probe_sink_keeps_only_round_probes() {
        let mut sink = CsvProbeSink::new(Vec::new());
        sink.record(0, &event(1)); // EngineStats: ignored
        sink.record(
            1,
            &TraceEvent::RoundProbe {
                round: 3,
                sim_s: 4.0,
                active: 10,
                bootstrapped: 8,
                completed: 2,
                inflight: 5,
                bytes_by_reason_delta: vec![1, 2],
                availability_buckets: vec![0, 1],
            },
        );
        sink.flush();
        let text = String::from_utf8(sink.writer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec![PROBE_CSV_HEADER, "3,4,10,8,2,5"]);
    }

    #[test]
    fn atomic_file_sink_publishes_only_on_flush() {
        let dir = std::env::temp_dir().join("coop-telemetry-sink-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(0, &event(1));
        assert!(!path.exists(), "nothing on disk before flush");
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn memory_sink_handles_share_the_buffer() {
        let sink = MemorySink::new();
        let mut writer = sink.clone();
        assert!(sink.is_empty());
        writer.record(0, &event(7));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0], event(7));
    }
}
