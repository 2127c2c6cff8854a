//! The traced audits: each layer's public call is timed, and bracketed
//! for heap growth, from here. Only the traced binary installs the
//! counting allocator; elsewhere the heap figures read zero.

use crate::pipeline::EPOCH_EVENTS;
use crate::timed::{GroupSpan, TimedExecutor};
use orochi_accphp::executor::ExecutorStats;
use orochi_accphp::AccPhpExecutor;
use orochi_common::metrics::alloc_tracking;
use orochi_core::audit::{audit_parallel_source, AuditConfig, AuditStats, Rejection};
use orochi_core::coldstore;
use orochi_core::graph::process_op_reports;
use orochi_core::streaming::StreamingAudit;
use orochi_trace::{BalancedTrace, Event, TraceReadError, TraceSource, TraceStoreReader};
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs `f` and returns its result with the peak heap growth during the
/// call, in MB (10^6 bytes).
pub fn heap<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = alloc_tracking::current_bytes();
    alloc_tracking::reset_peak();
    let out = f();
    let grown = alloc_tracking::peak_bytes().saturating_sub(before);
    (out, grown as f64 / 1e6)
}

/// One traced batch audit of a sealed store.
pub struct BatchTrace {
    /// `TraceStoreReader::open` to the verdict.
    pub wall: Duration,
    /// `TraceStoreReader::open`.
    pub open: Duration,
    /// `coldstore::load_reports`.
    pub load_reports: Duration,
    /// `BalancedTrace::from_source` over the reader.
    pub balance: Duration,
    /// The audit's own counters and phases.
    pub stats: AuditStats,
    /// Executor counters, merged over the workers.
    pub exec: ExecutorStats,
    /// One span per re-executed group.
    pub spans: Vec<GroupSpan>,
    /// Heap growth of `load_reports`, MB.
    pub mem_load_reports: f64,
    /// Heap growth of `from_source`, MB.
    pub mem_balance: f64,
    /// Heap growth of `process_op_reports` over the same inputs, MB,
    /// measured after the audit wall.
    pub mem_graph: f64,
    /// Heap growth of `audit_parallel_source`, MB.
    pub mem_audit: f64,
}

impl BatchTrace {
    /// Parallel wall of re-execution: first group start to last end.
    pub fn reexec_wall(&self) -> Duration {
        let start = self.spans.iter().map(|s| s.start).min();
        let end = self.spans.iter().map(|s| s.end).max();
        match (start, end) {
            (Some(s), Some(e)) => e - s,
            _ => Duration::ZERO,
        }
    }

    /// Summed busy time of re-execution over the workers.
    pub fn reexec_busy(&self) -> Duration {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }
}

fn read_rejection(e: TraceReadError) -> Rejection {
    match e {
        TraceReadError::Balance(e) => Rejection::Unbalanced(e),
        TraceReadError::Store(e) => Rejection::TraceStore(e),
    }
}

/// Audits the store at `dir` with one worker per executor, timing each
/// layer.
pub fn batch_audit(
    dir: &Path,
    config: &AuditConfig,
    executors: Vec<AccPhpExecutor>,
) -> Result<BatchTrace, Rejection> {
    let origin = Instant::now();
    let mut workers: Vec<TimedExecutor> = executors
        .into_iter()
        .enumerate()
        .map(|(w, e)| TimedExecutor::new(e, w, origin))
        .collect();
    let (reader, open) = timed(|| TraceStoreReader::open(dir));
    let reader = reader.map_err(Rejection::TraceStore)?;
    let ((reports, mem_load_reports), load_reports) =
        timed(|| heap(|| coldstore::load_reports(&reader)));
    let reports = reports.map_err(Rejection::TraceStore)?;
    let ((balanced, mem_balance), balance) = timed(|| heap(|| BalancedTrace::from_source(&reader)));
    let balanced = balanced.map_err(read_rejection)?;
    let (outcome, mem_audit) =
        heap(|| audit_parallel_source(&balanced, &reports, &mut workers, config));
    let wall = origin.elapsed();
    let stats = outcome?.stats;
    let (_, mem_graph) = heap(|| process_op_reports(&balanced, &reports));
    let mut exec = ExecutorStats::default();
    let mut spans = Vec::new();
    for w in workers {
        exec.merge(&w.inner.stats);
        spans.extend(w.spans);
    }
    Ok(BatchTrace {
        wall,
        open,
        load_reports,
        balance,
        stats,
        exec,
        spans,
        mem_load_reports,
        mem_balance,
        mem_graph,
        mem_audit,
    })
}

/// One traced streaming audit of a sealed store.
pub struct StreamTrace {
    /// `TraceStoreReader::open` to the verdict.
    pub wall: Duration,
    /// Wall of each `feed_epoch`.
    pub feeds: Vec<Duration>,
    /// Wall of `finish`.
    pub finish: Duration,
    /// Highest `carry_bytes` after any epoch.
    pub carry_max: usize,
    /// The audit's counters.
    pub stats: AuditStats,
    /// Heap growth of the whole streaming audit, MB.
    pub mem: f64,
}

/// Audits the store at `dir` through the streaming engine in epochs of
/// [`EPOCH_EVENTS`], timing each epoch. The loop is the one
/// `audit_streaming_source` runs, unrolled here for per-epoch spans.
pub fn stream_audit(
    dir: &Path,
    config: &AuditConfig,
    workers: &mut [AccPhpExecutor],
) -> Result<StreamTrace, Rejection> {
    let mut feeds = Vec::new();
    let mut carry_max = 0usize;
    let mut finish = Duration::ZERO;
    let t0 = Instant::now();
    let (outcome, mem) = heap(|| {
        let reader = TraceStoreReader::open(dir).map_err(Rejection::TraceStore)?;
        let reports = coldstore::load_reports(&reader).map_err(Rejection::TraceStore)?;
        let mut audit = StreamingAudit::new(&reports, config, workers.len());
        let total = reader.event_count();
        let mut offset = 0usize;
        while offset < total {
            let mut epoch: Vec<Event> = Vec::new();
            reader
                .stream_events_from(offset, &mut |event| {
                    epoch.push(event);
                    epoch.len() < EPOCH_EVENTS
                })
                .map_err(Rejection::TraceStore)?;
            if epoch.is_empty() {
                break;
            }
            offset += epoch.len();
            let (more, feed) = timed(|| audit.feed_epoch(&epoch, workers));
            feeds.push(feed);
            carry_max = carry_max.max(audit.carry_bytes());
            if !more {
                break;
            }
        }
        let (outcome, wall) = timed(|| audit.finish(&reader, workers));
        finish = wall;
        outcome
    });
    let wall = t0.elapsed();
    Ok(StreamTrace {
        wall,
        feeds,
        finish,
        carry_max,
        stats: outcome?.stats,
        mem,
    })
}
