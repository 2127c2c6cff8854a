//! Telemetry overhead guard: runs the full shop pipeline (serve →
//! spill → cold audit) with telemetry disabled and enabled, interleaved
//! min-of-N, and emits the `obs` row of the CI `BENCH_ci.json`
//! artifact (with `OROCHI_BENCH_JSON=path` or `--bench-json`).
//!
//! Usage: `cargo run --release -p orochi_bench --bin obs_overhead [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply: `--full`, `--bench-json <path>`,
//! `--obs-out <prefix>`, `--segment-bytes <n>`,
//! `--audit-threads <n|auto>`, …).
//! The bin switches telemetry itself, so `--obs` has no effect here.
//!
//! The row carries the telemetry layer's contract:
//!
//! * `guard_ok` — the disabled-mode pipeline wall is within 3% of the
//!   instrumented build with telemetry off (or within 0.1 s absolute,
//!   which covers timer noise at smoke scale); CI gates on it;
//! * `trace_valid` — the enabled run journals events into every
//!   pipeline lane family (`serve-worker-*`, `audit-worker-*`,
//!   `trace-store`), asserted in-bin;
//! * the enabled run records nonzero admission-wait, audit-lag, and
//!   audit-phase metrics, and the trace-store counters reconcile
//!   exactly with the spill summary — all asserted in-bin.

use orochi_bench::json::Json;
use orochi_harness::experiments::shop_workload;
use orochi_harness::{
    export_obs, run_audit_cold, serve, spill_bundle, AppWorkload, AuditOptions, Config,
    ServeOptions,
};
use orochi_obs::{journal, registry};
use orochi_trace::{TraceStoreReader, TraceStoreSummary, DEFAULT_SEGMENT_BYTES};
use std::path::Path;
use std::time::{Duration, Instant};

/// Interleaved repetitions per mode; the minimum wall of each mode is
/// compared, which discards scheduler noise instead of averaging it in.
const REPS: usize = 3;

/// One full pipeline pass: serve the workload, spill it to a fresh
/// segmented store at `dir`, drop the in-RAM trace, and cold-audit the
/// segments. Returns the end-to-end wall and the spill summary.
fn run_pipeline(
    work: &AppWorkload,
    serve_opts: &ServeOptions,
    dir: &Path,
    segment_bytes: usize,
    threads: usize,
) -> (Duration, TraceStoreSummary) {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let served = serve(work, serve_opts);
    let summary = spill_bundle(&served.bundle, dir, segment_bytes).expect("spill");
    drop(served); // cold path: only the sealed segments remain
    let reader = TraceStoreReader::open(dir).expect("open store");
    let opts = AuditOptions {
        threads,
        ..Default::default()
    };
    let run = run_audit_cold(&reader, work, &opts)
        .unwrap_or_else(|r| panic!("obs_overhead audit rejected: {r}"));
    assert!(run.outcome.stats.requests_reexecuted > 0);
    (t0.elapsed(), summary)
}

fn main() {
    let config = Config::load("obs_overhead");
    // Small segments at smoke scale so the spill seals more than one
    // segment; an explicit --segment-bytes or OROCHI_SEGMENT_BYTES wins.
    let segment_bytes = if config.segment_bytes != DEFAULT_SEGMENT_BYTES {
        config.segment_bytes
    } else if config.full {
        DEFAULT_SEGMENT_BYTES
    } else {
        64 * 1024
    };
    let threads = config.resolved_audit_threads();
    let work = shop_workload(config.scale(), 42, &config.skew);
    let serve_opts = config.serve_options();
    let dir = std::env::temp_dir().join(format!("orochi-bench-obs-{}", std::process::id()));

    let mut disabled_min = Duration::MAX;
    let mut enabled_min = Duration::MAX;
    let mut events = 0u64;
    let mut wait_samples = 0u64;
    let mut lag_samples = 0u64;
    for _ in 0..REPS {
        orochi_obs::set_enabled(false);
        let (wall, _) = run_pipeline(&work, &serve_opts, &dir, segment_bytes, threads);
        disabled_min = disabled_min.min(wall);

        orochi_obs::set_enabled(true);
        // Counters are always on, so deltas captured around one enabled
        // arm isolate exactly that arm's pipeline.
        let bytes0 = registry::counter("tracestore_bytes_total").get();
        let events0 = registry::counter("tracestore_events_total").get();
        let wait0 = registry::histogram("frontend_admission_wait_ns")
            .snapshot()
            .count;
        let lag0 = registry::histogram("audit_lag_ns").snapshot().count;
        let (wall, summary) = run_pipeline(&work, &serve_opts, &dir, segment_bytes, threads);
        enabled_min = enabled_min.min(wall);
        events = summary.events;
        // The trace-store counters must reconcile exactly with what the
        // spill reported sealing.
        let bytes_delta = registry::counter("tracestore_bytes_total").get() - bytes0;
        let events_delta = registry::counter("tracestore_events_total").get() - events0;
        assert_eq!(
            bytes_delta, summary.segment_bytes,
            "sealed-bytes counter drifted"
        );
        assert_eq!(
            events_delta, summary.events,
            "sealed-events counter drifted"
        );
        wait_samples = registry::histogram("frontend_admission_wait_ns")
            .snapshot()
            .count
            - wait0;
        lag_samples = registry::histogram("audit_lag_ns").snapshot().count - lag0;
        assert!(wait_samples > 0, "enabled run recorded no admission waits");
        assert!(lag_samples > 0, "enabled run recorded no audit lag");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Per-phase audit walls mirrored into the registry (satellite of the
    // AuditStats refactor): every fig9 phase must have accumulated time.
    for phase in [
        "audit_phase_balance_ns",
        "audit_phase_procoprep_ns",
        "audit_phase_db_redo_ns",
        "audit_phase_reexec_ns",
        "audit_phase_output_ns",
    ] {
        assert!(registry::counter(phase).get() > 0, "{phase} is zero");
    }

    // Journal validity: one populated lane per pipeline actor family.
    let lanes = journal::lane_event_counts();
    let lane_events = |prefix: &str| -> usize {
        lanes
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, n)| *n)
            .sum()
    };
    let serve_events = lane_events("serve-worker-");
    let audit_events = lane_events("audit-worker-");
    let store_events = lane_events("trace-store");
    let chrome = journal::chrome_trace_json();
    let trace_valid =
        serve_events > 0 && audit_events > 0 && store_events > 0 && chrome.contains("\"ph\":\"X\"");
    assert!(
        trace_valid,
        "chrome trace invalid: serve={serve_events} audit={audit_events} store={store_events}"
    );

    let disabled_s = disabled_min.as_secs_f64();
    let enabled_s = enabled_min.as_secs_f64();
    let overhead_abs_s = enabled_s - disabled_s;
    let overhead_pct = overhead_abs_s / disabled_s * 100.0;
    let guard_ok = overhead_pct <= 3.0 || overhead_abs_s <= 0.1;

    println!(
        "== obs_overhead: telemetry cost (events={events}, threads={threads}, reps={REPS}) =="
    );
    println!("{:<22} {:>9.3}ms", "disabled (min)", disabled_s * 1000.0);
    println!("{:<22} {:>9.3}ms", "enabled (min)", enabled_s * 1000.0);
    println!(
        "{:<22} {:>9.2}% ({:+.3}ms)",
        "overhead",
        overhead_pct,
        overhead_abs_s * 1000.0
    );
    println!(
        "lanes: serve={serve_events} audit={audit_events} store={store_events} \
         admission_wait={wait_samples} audit_lag={lag_samples}"
    );
    println!("guard_ok={guard_ok} trace_valid={trace_valid}");

    if let Some(path) = &config.bench_json {
        let doc = Json::obj([
            ("experiment", Json::str("obs_overhead")),
            ("reps", Json::from(REPS)),
            ("events", Json::from(events as usize)),
            ("audit_threads", Json::from(threads)),
            ("disabled_wall_s", Json::Num(disabled_s)),
            ("enabled_wall_s", Json::Num(enabled_s)),
            ("overhead_pct", Json::Num(overhead_pct)),
            ("overhead_abs_s", Json::Num(overhead_abs_s)),
            ("guard_ok", Json::Bool(guard_ok)),
            ("trace_valid", Json::Bool(trace_valid)),
            ("serve_lane_events", Json::from(serve_events)),
            ("audit_lane_events", Json::from(audit_events)),
            ("tracestore_lane_events", Json::from(store_events)),
            ("admission_wait_samples", Json::from(wait_samples as usize)),
            ("audit_lag_samples", Json::from(lag_samples as usize)),
        ]);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    for written in export_obs(&config).expect("exporting telemetry artifacts") {
        println!("wrote {}", written.display());
    }
}
