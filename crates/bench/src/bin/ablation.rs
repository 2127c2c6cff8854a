//! Regenerates the §5.2 sources-of-acceleration ablation:
//! {SIMD-on-demand on/off} × {read-query dedup on/off}.
//!
//! Usage: `cargo run --release -p orochi_bench --bin ablation [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply; this bin reads `--full`, `--skew` /
//! `--session-len` and `--serve-threads` / `--queue-depth`).

use orochi_harness::experiments::ablation;
use orochi_harness::Config;

fn main() {
    let config = Config::load("ablation");
    orochi_obs::set_enabled(config.obs_enabled());
    let scale = config.scale();
    println!("== Ablation: sources of acceleration (wiki, scale {scale}) ==");
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>14} {:>14}",
        "arm", "wall(s)", "deduped", "issued", "vm-dispatched", "vm-executed"
    );
    for arm in ablation(scale, 42, &config.skew, &config.serve_options()) {
        println!(
            "{:<20} {:>10.3} {:>10} {:>10} {:>14} {:>14}",
            arm.label,
            arm.wall.as_secs_f64(),
            arm.deduped,
            arm.issued,
            arm.vm_dispatch_total,
            arm.vm_dispatch_executed,
        );
    }
}
