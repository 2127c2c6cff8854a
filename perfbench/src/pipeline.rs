//! The pipeline stages, each a thin timed call into one layer's public
//! API: set-up, serving through the front-end, sealing into a trace
//! store, and the batch and streaming audits of that store.

use crate::workloads::Workload;
use orochi_accphp::AccPhpExecutor;
use orochi_core::audit::{audit_parallel_source, AuditConfig, AuditOutcome, Rejection};
use orochi_core::coldstore;
use orochi_core::streaming::audit_streaming_source;
use orochi_harness::AppWorkload;
use orochi_php::CompiledScript;
use orochi_server::{Frontend, FrontendConfig, Server, ServerConfig, ShedPolicy};
use orochi_trace::{
    HttpRequest, TraceStoreReader, TraceStoreSummary, TraceStoreWriter, DEFAULT_SEGMENT_BYTES,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The compiled routing table the server and the verifier share.
pub type Scripts = HashMap<String, CompiledScript>;

/// Segment budget of the sealed store: the library default.
pub const SEGMENT_BYTES: usize = DEFAULT_SEGMENT_BYTES;

/// Events per streaming-audit epoch. Every workload has about 10,000
/// events or more, so the streaming audit covers at least 10 epochs
/// (checked per run).
pub const EPOCH_EVENTS: usize = 384;

/// Admission-queue slots per serving worker. The front-end blocks the
/// submitter when the queue is full, so every request is served.
const QUEUE_SLOTS_PER_WORKER: usize = 64;

/// Everything one pipeline iteration needs before serving starts.
pub struct Prepared {
    /// The generated workload plus its application and DB seed.
    pub work: AppWorkload,
    /// The compiled application.
    pub scripts: Scripts,
    /// The verifier's initial state.
    pub config: AuditConfig,
    /// Wall of workload generation.
    pub generate: Duration,
    /// Wall of the application compile.
    pub compile: Duration,
}

/// Generates the workload, compiles the application and seeds the
/// verifier's copy of the database.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let t0 = Instant::now();
    let work = workload.generate(seed);
    let generate = t0.elapsed();
    let t1 = Instant::now();
    let scripts = work.app.compile().expect("application compiles");
    let compile = t1.elapsed();
    let config = work.audit_config();
    Prepared {
        work,
        scripts,
        config,
        generate,
        compile,
    }
}

/// Builds a server over the seeded database and runs the sequential
/// set-up requests through it.
pub fn start_server(prepared: &Prepared, recording: bool, seed: u64) -> Server {
    let server = Server::new(ServerConfig {
        scripts: prepared.scripts.clone(),
        initial_db: prepared.work.initial_db(),
        recording,
        seed,
        ..Default::default()
    });
    for req in &prepared.work.workload.setup {
        server.handle(req.clone());
    }
    server
}

/// A drained serving phase.
pub struct Served {
    /// The drained server, ready for `into_bundle`.
    pub server: Server,
    /// First submit to the end of `Frontend::drain`.
    pub wall: Duration,
    /// Server busy time of the measured requests only.
    pub busy: Duration,
    /// Requests the pool served; the blocking front-end refuses none,
    /// so fewer than submitted is a failure.
    pub handled: u64,
}

/// Submits every request through a blocking front-end of `workers`
/// threads and drains it.
pub fn serve(server: Server, requests: &[HttpRequest], workers: usize) -> Served {
    let busy_before = server.busy();
    let frontend = Frontend::start(
        server,
        FrontendConfig {
            workers,
            queue_depth: QUEUE_SLOTS_PER_WORKER * workers,
            shed: ShedPolicy::Block,
        },
    );
    let t0 = Instant::now();
    for req in requests {
        frontend.submit(req.clone());
    }
    let report = frontend.drain();
    let wall = t0.elapsed();
    Served {
        busy: report.server.busy().saturating_sub(busy_before),
        server: report.server,
        wall,
        handled: report.handled,
    }
}

/// A sealed store and the walls of its parts.
pub struct Sealed {
    /// What the writer reports.
    pub summary: TraceStoreSummary,
    /// Bytes of every file in the store directory.
    pub store_bytes: u64,
    /// `Server::into_bundle`: collector merge and report stitch.
    pub into_bundle: Duration,
    /// Trace append, the seal of every segment and `finish`.
    pub trace_seal: Duration,
    /// `coldstore::spill_reports`.
    pub spill: Duration,
}

impl Sealed {
    /// The end-to-end seal wall.
    pub fn total(&self) -> Duration {
        self.into_bundle + self.trace_seal + self.spill
    }
}

/// Drains the server into a bundle and seals it into a store at `dir`.
pub fn seal(server: Server, dir: &Path) -> std::io::Result<Sealed> {
    let t0 = Instant::now();
    let bundle = server.into_bundle();
    let into_bundle = t0.elapsed();
    let t1 = Instant::now();
    let mut writer = TraceStoreWriter::create(dir, SEGMENT_BYTES)?;
    writer.append_trace(&bundle.trace)?;
    writer.seal()?;
    let mut trace_seal = t1.elapsed();
    let t2 = Instant::now();
    coldstore::spill_reports(&mut writer, &bundle.reports)?;
    let spill = t2.elapsed();
    let t3 = Instant::now();
    let summary = writer.finish()?;
    trace_seal += t3.elapsed();
    drop(bundle);
    Ok(Sealed {
        store_bytes: dir_bytes(dir)?,
        summary,
        into_bundle,
        trace_seal,
        spill,
    })
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// One audit executor per thread.
pub fn executors(scripts: &Scripts, threads: usize) -> Vec<AccPhpExecutor> {
    (0..threads)
        .map(|_| AccPhpExecutor::new(scripts.clone()))
        .collect()
}

/// Which audit engine the auditor process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `audit_parallel_source`.
    Batch,
    /// `audit_streaming_source` at [`EPOCH_EVENTS`].
    Stream,
}

impl Engine {
    /// Parses an engine name.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "batch" => Some(Engine::Batch),
            "stream" => Some(Engine::Stream),
            _ => None,
        }
    }

    /// The engine's name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Batch => "batch",
            Engine::Stream => "stream",
        }
    }
}

/// Audits the sealed store at `dir` with one worker per executor, from
/// `TraceStoreReader::open` to the verdict.
pub fn audit_store(
    engine: Engine,
    dir: &Path,
    workers: &mut [AccPhpExecutor],
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    let reader = TraceStoreReader::open(dir).map_err(Rejection::TraceStore)?;
    let reports = coldstore::load_reports(&reader).map_err(Rejection::TraceStore)?;
    match engine {
        Engine::Batch => audit_parallel_source(&reader, &reports, workers, config),
        Engine::Stream => audit_streaming_source(&reader, &reports, workers, config, EPOCH_EVENTS),
    }
}

/// Renders a verdict so that two engines' results compare as strings.
pub fn verdict(result: &Result<AuditOutcome, Rejection>) -> String {
    match result {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject: {r}"),
    }
}
