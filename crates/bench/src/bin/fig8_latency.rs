//! Regenerates the Fig. 8 (right) latency-vs-throughput plot data for
//! the forum application, with recording on (OROCHI) and off (baseline).
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig8_latency [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply; this bin reads `--full`).

use orochi_harness::experiments::fig8_latency;
use orochi_harness::Config;

fn main() {
    let config = Config::load("fig8_latency");
    orochi_obs::set_enabled(config.obs_enabled());
    let scale = (config.scale() * 0.2).max(0.005);
    let rates = [100.0, 200.0, 400.0, 800.0, 1600.0];
    println!("== Fig. 8 (right): latency vs throughput, forum app ==");
    for (label, recording) in [("baseline", false), ("orochi", true)] {
        println!("-- {label} --");
        println!(
            "{:>10} {:>12} {:>9} {:>9} {:>9}",
            "rate", "throughput", "p50(ms)", "p90(ms)", "p99(ms)"
        );
        for point in fig8_latency(scale, 42, &rates, recording) {
            println!(
                "{:>10.0} {:>12.1} {:>9.2} {:>9.2} {:>9.2}",
                point.offered_rate, point.throughput, point.p50_ms, point.p90_ms, point.p99_ms
            );
        }
    }
}
