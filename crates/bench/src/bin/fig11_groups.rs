//! Regenerates the Fig. 11 control-flow group characteristics for the
//! wiki workload.
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig11_groups`
//! (`OROCHI_AUDIT_THREADS` selects the audit worker pool). The triples
//! are per executed piece: a pooled audit cuts a group larger than its
//! fair share of the requests into pieces, so they are deterministic
//! for a given thread count but differ between thread counts, which
//! is why the header prints it. One thread reports whole groups.

use orochi_harness::audit_threads_from_env;
use orochi_harness::experiments::{fig11_groups, print_fig11, scale_from_env};

fn main() {
    let scale = scale_from_env();
    let threads = audit_threads_from_env();
    println!(
        "== Fig. 11: control-flow groups, wiki workload (scale {scale}, {threads} audit threads) =="
    );
    let summary = fig11_groups(scale, 42, threads);
    print_fig11(&summary);
}
