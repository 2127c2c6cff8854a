//! Regenerates the Fig. 11 control-flow group characteristics for the
//! wiki workload.
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig11_groups [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply; `--audit-threads` selects the audit worker pool,
//! `--full` the scale, `--serve-threads` / `--queue-depth` the serve).
//! The triples
//! are per executed piece: a pooled audit cuts a group larger than its
//! fair share of the requests into pieces, so they are deterministic
//! for a given thread count but differ between thread counts, which
//! is why the header prints it. One thread reports whole groups.

use orochi_harness::experiments::{fig11_groups, print_fig11};
use orochi_harness::Config;

fn main() {
    let config = Config::load("fig11_groups");
    orochi_obs::set_enabled(config.obs_enabled());
    let scale = config.scale();
    let threads = config.resolved_audit_threads();
    println!(
        "== Fig. 11: control-flow groups, wiki workload (scale {scale}, {threads} audit threads) =="
    );
    let summary = fig11_groups(scale, 42, &config.serve_options(), threads);
    print_fig11(&summary);
}
