//! Regenerates the Fig. 8 (left) main-results table.
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig8_table [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply: `--full` for the paper's full request counts,
//! `--bench-json <path>` to also write the rows as JSON for the CI
//! artifact, `--skew` / `--session-len` for all four workload
//! generators, `--serve-threads` / `--queue-depth` for the serve).

use orochi_bench::json::Json;
use orochi_harness::experiments::{fig8_table, print_fig8, Fig8Row};
use orochi_harness::Config;

fn json_doc(scale: f64, rows: &[Fig8Row]) -> Json {
    Json::obj([
        ("experiment", Json::str("fig8_table")),
        ("scale", Json::Num(scale)),
        (
            "fig8",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("app", Json::str(r.app)),
                            ("requests", Json::from(r.requests)),
                            ("audit_speedup", Json::Num(r.audit_speedup)),
                            ("server_cpu_overhead", Json::Num(r.server_cpu_overhead)),
                            ("avg_request_bytes", Json::Num(r.avg_request_bytes)),
                            ("baseline_report_bytes", Json::Num(r.baseline_report_bytes)),
                            ("orochi_report_bytes", Json::Num(r.orochi_report_bytes)),
                            ("report_overhead", Json::Num(r.report_overhead)),
                            ("db_temp_overhead", Json::Num(r.db_temp_overhead)),
                            ("db_permanent_overhead", Json::Num(r.db_permanent_overhead)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let config = Config::load("fig8_table");
    orochi_obs::set_enabled(config.obs_enabled());
    let scale = config.scale();
    println!("== Fig. 8 (left): main results (scale {scale}) ==");
    let rows = fig8_table(scale, 42, &config.skew, &config.serve_options());
    print_fig8(&rows);

    if let Some(path) = &config.bench_json {
        let doc = json_doc(scale, &rows);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
