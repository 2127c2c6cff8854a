//! The adversarial campaign: serve the mixed four-app workload once,
//! then for N seeded campaigns mutate k sites of the trace/reports
//! bundle with the generative operator library and assert every mutant
//! is rejected with byte-identical diagnostics at 1 and N audit
//! threads and across the batch and streaming audit paths. The honest
//! control (spilled to the trace store, audited cold batch + cold
//! streaming) must accept. Printed as a summary plus any surviving
//! mutant verbatim (plan seed, operator, site), and (with
//! `OROCHI_BENCH_JSON=path` or `--bench-json`) emitted as the
//! `campaign` row of the CI `BENCH_ci.json` artifact.
//!
//! Usage: `cargo run --release -p orochi_bench --bin campaign [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply: `--campaigns <n>`, `--campaign-k <k>`,
//! `--campaign-seed <seed>`, `--full`, `--epoch-events <n>`,
//! `--audit-threads <n|auto>`, `--bench-json <path>`, `--skew`, …).
//!
//! Sizing: the smoke run (CI default) audits 240 campaigns at CI
//! scale; `--full` audits 1,000 at a larger serve — the mutant count,
//! not the workload size, is the fuzzing axis. `--campaign-k 0` (the
//! default) cycles k through 1–3 so multi-site plans are covered. The
//! row carries the guards CI enforces: `catch_rate == 1.0`,
//! `campaigns >= 200`, `distinct_operators >= 10`, and `honest_ok`.

use orochi_bench::json::Json;
use orochi_harness::experiments::{campaign, mixed_workload, print_campaign};
use orochi_harness::Config;

fn main() {
    let config = Config::load("campaign");
    let threads = config.resolved_audit_threads();
    let campaigns = if config.campaigns != 0 {
        config.campaigns
    } else if config.full {
        1000
    } else {
        240
    };
    let scale = if config.full { 0.05 } else { 0.01 };
    let epoch_events = if config.epoch_events != 0 {
        config.epoch_events
    } else if config.full {
        512
    } else {
        64
    };
    // Telemetry off: the mutation loop is the measured region, and the
    // clock-bearing layer would blur mutations-caught-per-CPU-second.
    orochi_obs::set_enabled(false);

    let work = mixed_workload(scale, config.campaign_seed, &config.skew);
    let report = campaign(
        &work,
        &config.serve_options(),
        config.campaign_seed,
        campaigns,
        config.campaign_k,
        threads,
        epoch_events,
    );

    println!(
        "== campaign: adversarial mutation sweep (requests={}, campaigns={campaigns}, \
         k={}, threads={threads}, epoch_events={epoch_events}) ==",
        report.requests,
        if config.campaign_k == 0 {
            "1-3".to_string()
        } else {
            config.campaign_k.to_string()
        }
    );
    print_campaign(&report);

    assert!(
        report.honest_ok,
        "the honest mixed-workload control must accept on every audit path"
    );
    assert!(
        report.survivors.is_empty(),
        "{} mutant(s) escaped — see the SURVIVOR lines above",
        report.survivors.len()
    );
    // Coverage guards only make sense at sweep scale; a hand-shrunk
    // `--campaigns 5` debugging run shouldn't trip them.
    if campaigns >= 200 {
        assert!(
            report.operators.len() >= 10,
            "a full sweep must exercise >= 10 distinct operators, got {}",
            report.operators.len()
        );
    }

    if let Some(path) = &config.bench_json {
        let doc = Json::obj([
            ("experiment", Json::str("campaign")),
            ("requests", Json::from(report.requests as usize)),
            ("campaigns", Json::from(report.campaigns)),
            ("sites", Json::from(report.sites)),
            ("caught", Json::from(report.caught)),
            ("catch_rate", Json::Num(report.catch_rate())),
            ("distinct_operators", Json::from(report.operators.len())),
            ("survivors", Json::from(report.survivors.len())),
            ("honest_ok", Json::Bool(report.honest_ok)),
            (
                "mutations_caught_per_cpu_s",
                Json::Num(report.caught_per_cpu_s()),
            ),
            ("audit_threads", Json::from(threads)),
        ]);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
