//! The segmented trace store at shop-workload scale: spill cost,
//! on-disk compression, and cold-replay audit wall vs the in-RAM audit,
//! printed as a table and (with `OROCHI_BENCH_JSON=path` or
//! `--bench-json`) emitted as the `tracestore` row of the CI
//! `BENCH_ci.json` artifact.
//!
//! Usage: `cargo run --release -p orochi_bench --bin tracestore [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply: `--full`, `--bench-json <path>`,
//! `--store-dir <dir>`, `--segment-bytes <n>`,
//! `--audit-threads <n|auto>`, …).
//!
//! `seal_events_per_s` (trace events over the spill wall) is emitted
//! for the trajectory only; no guard reads it. The row carries three
//! guards CI enforces:
//!
//! * `bytes_per_event < 24` — the columnar dictionary encoding must
//!   keep the store below 24 bytes per trace event;
//! * `verdict_match` — the cold-replay audit verdict is byte-identical
//!   to the in-RAM audit;
//! * `segment_bounded` — no sealed segment exceeded the configured
//!   budget plus one event of overshoot, which is what bounds the
//!   auditor's resident ingest buffer.

use orochi_bench::json::Json;
use orochi_harness::experiments::shop_workload;
use orochi_harness::{run_audit_cold, run_audit_with, serve, spill_bundle, AuditOptions, Config};
use orochi_trace::{TraceStoreReader, DEFAULT_SEGMENT_BYTES};
use std::time::Instant;

fn main() {
    let config = Config::load("tracestore");
    orochi_obs::set_enabled(config.obs_enabled());
    // At smoke scale, default to small segments so the bench actually
    // exercises multi-segment stores; an explicit --segment-bytes or
    // OROCHI_SEGMENT_BYTES wins.
    let segment_budget = if config.segment_bytes != DEFAULT_SEGMENT_BYTES {
        config.segment_bytes
    } else if config.full {
        DEFAULT_SEGMENT_BYTES
    } else {
        64 * 1024
    };
    let threads = config.resolved_audit_threads();

    let work = shop_workload(config.scale(), 42, &config.skew);
    let served = serve(&work, &config.serve_options());
    let events = served.bundle.trace.len();

    let tmp_dir;
    let dir = match &config.store_dir {
        Some(dir) => dir.clone(),
        None => {
            tmp_dir = std::env::temp_dir()
                .join(format!("orochi-bench-tracestore-{}", std::process::id()));
            tmp_dir.clone()
        }
    };
    let _ = std::fs::remove_dir_all(&dir);

    let t0 = Instant::now();
    let summary = spill_bundle(&served.bundle, &dir, segment_budget).expect("spill");
    let spill_wall = t0.elapsed();

    let opts = AuditOptions {
        threads,
        ..Default::default()
    };
    let ram = run_audit_with(&served.bundle, &work, &opts);
    let ram_wall = ram.as_ref().map(|r| r.wall).unwrap_or_default();

    // Cold path: the in-RAM trace is dropped before the audit replays
    // the sealed segments.
    let bundle = served.bundle;
    let ram_verdict = match &ram {
        Ok(run) => format!("accept:{}", run.outcome.stats.requests_reexecuted),
        Err(r) => format!("reject:{r}"),
    };
    drop(bundle);
    let t0 = Instant::now();
    let reader = TraceStoreReader::open(&dir).expect("open store");
    let cold = run_audit_cold(&reader, &work, &opts);
    let cold_wall = t0.elapsed();
    let cold_verdict = match &cold {
        Ok(run) => format!("accept:{}", run.outcome.stats.requests_reexecuted),
        Err(r) => format!("reject:{r}"),
    };
    let verdict_match = ram_verdict == cold_verdict;

    // One event of overshoot is legal: a segment seals when its
    // estimate crosses the budget, i.e. after the crossing event.
    let segment_cap = segment_budget + 64 * 1024;
    let segment_bounded = summary.max_segment_bytes <= segment_cap;
    let bytes_per_event = summary.segment_bytes as f64 / events.max(1) as f64;
    let seal_events_per_s = events as f64 / spill_wall.as_secs_f64().max(1e-9);

    println!("== tracestore: spill + cold replay (events={events}, threads={threads}) ==");
    println!("{:<22} {:>12}", "segments", summary.segments);
    println!("{:<22} {:>9} B", "disk (segments)", summary.segment_bytes);
    println!("{:<22} {:>9} B", "disk (blobs)", summary.blob_bytes);
    println!("{:<22} {:>9.2} B", "bytes/event", bytes_per_event);
    println!(
        "{:<22} {:>9} B (cap {})",
        "max segment", summary.max_segment_bytes, segment_cap
    );
    println!(
        "{:<22} {:>9.3}ms",
        "spill wall",
        spill_wall.as_secs_f64() * 1000.0
    );
    println!("{:<22} {:>9.0}", "seal events/s", seal_events_per_s);
    println!(
        "{:<22} {:>9.3}ms",
        "audit (RAM)",
        ram_wall.as_secs_f64() * 1000.0
    );
    println!(
        "{:<22} {:>9.3}ms",
        "audit (cold)",
        cold_wall.as_secs_f64() * 1000.0
    );
    println!("verdict RAM={ram_verdict} cold={cold_verdict} match={verdict_match}");
    assert!(verdict_match, "cold verdict must match the in-RAM audit");
    assert!(segment_bounded, "segments exceeded the configured budget");

    if let Some(path) = &config.bench_json {
        let doc = Json::obj([
            ("experiment", Json::str("tracestore")),
            ("events", Json::from(events)),
            ("segments", Json::from(summary.segments)),
            ("disk_bytes", Json::from(summary.segment_bytes as usize)),
            ("blob_bytes", Json::from(summary.blob_bytes as usize)),
            ("bytes_per_event", Json::Num(bytes_per_event)),
            ("max_segment_bytes", Json::from(summary.max_segment_bytes)),
            ("segment_cap_bytes", Json::from(segment_cap)),
            ("segment_bounded", Json::Bool(segment_bounded)),
            ("spill_wall_s", Json::Num(spill_wall.as_secs_f64())),
            ("seal_events_per_s", Json::Num(seal_events_per_s)),
            ("ram_audit_wall_s", Json::Num(ram_wall.as_secs_f64())),
            ("cold_audit_wall_s", Json::Num(cold_wall.as_secs_f64())),
            ("audit_threads", Json::from(threads)),
            ("verdict_match", Json::Bool(verdict_match)),
        ]);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    if config.store_dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
