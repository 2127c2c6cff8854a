//! Regenerates the Fig. 9 audit-time CPU decomposition for all three
//! applications, plus the sequential-vs-parallel audit wall-time
//! comparison the CI pipeline tracks.
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig9_decomposition [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply):
//!
//! * `--audit-threads <n|auto>` — worker threads for the parallel arm
//!   (default/`auto`: every available core, clamped to the machine).
//! * `--bench-json <path>` — also write the results as JSON for the
//!   `bench-smoke` CI artifact.
//! * `--skew` / `--session-len` — the skew of all four workload
//!   generators; `--full` the scale; `--serve-threads` /
//!   `--queue-depth` the serve.

use orochi_bench::json::Json;
use orochi_harness::experiments::{
    fig9_decomposition, parallel_speedup, print_fig9, print_parallel, Fig9Row, ParallelRow,
};
use orochi_harness::Config;

fn json_doc(scale: f64, rows: &[Fig9Row], par: &[ParallelRow], threads: usize) -> Json {
    Json::obj([
        ("experiment", Json::str("fig9_decomposition")),
        ("scale", Json::Num(scale)),
        (
            "fig9",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("app", Json::str(r.app)),
                            ("proc_op_rep_s", Json::Num(r.proc_op_rep.as_secs_f64())),
                            ("graph_build_s", Json::Num(r.graph_build.as_secs_f64())),
                            ("graph_nodes", Json::from(r.graph_nodes)),
                            ("graph_edges", Json::from(r.graph_edges)),
                            ("db_redo_s", Json::Num(r.db_redo.as_secs_f64())),
                            ("db_query_s", Json::Num(r.db_query.as_secs_f64())),
                            ("php_s", Json::Num(r.php.as_secs_f64())),
                            ("other_s", Json::Num(r.other.as_secs_f64())),
                            (
                                "baseline_total_s",
                                Json::Num(r.baseline_total.as_secs_f64()),
                            ),
                            ("vm_dispatch_total", Json::from(r.vm_dispatch_total)),
                            ("vm_dispatch_executed", Json::from(r.vm_dispatch_executed)),
                            ("vm_dispatch_dedup", Json::Num(r.dispatch_dedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "parallel_audit",
            Json::obj([
                ("threads", Json::from(threads)),
                (
                    "rows",
                    Json::Arr(
                        par.iter()
                            .map(|r| {
                                Json::obj([
                                    ("app", Json::str(r.app)),
                                    ("requests", Json::from(r.requests)),
                                    ("seq_wall_s", Json::Num(r.seq_wall.as_secs_f64())),
                                    ("par_wall_s", Json::Num(r.par_wall.as_secs_f64())),
                                    ("speedup", Json::Num(r.speedup())),
                                    ("largest_group_share", Json::Num(r.largest_group_share)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

fn main() {
    let config = Config::load("fig9_decomposition");
    orochi_obs::set_enabled(config.obs_enabled());
    let scale = config.scale();
    let serve_opts = config.serve_options();
    println!("== Fig. 9: audit-time CPU decomposition (scale {scale}) ==");
    let rows = fig9_decomposition(scale, 42, &config.skew, &serve_opts);
    print_fig9(&rows);

    let threads = config.resolved_audit_threads();
    println!("== Parallel audit: sequential vs {threads} worker threads ==");
    let par = parallel_speedup(scale, 42, &config.skew, &serve_opts, threads);
    print_parallel(&par);

    if let Some(path) = &config.bench_json {
        let doc = json_doc(scale, &rows, &par, threads);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
