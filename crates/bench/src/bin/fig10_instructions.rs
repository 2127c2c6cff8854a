//! Regenerates the Fig. 10 instruction-cost table: per-category cost
//! under unmodified PHP, acc-PHP univalent execution, and acc-PHP
//! multivalent execution decomposed into fixed and marginal components
//! (derived from two lane counts) — plus the grouping gate the CI
//! pipeline tracks: an 8-lane univalent group on a call-heavy script
//! against 8 scalar runs of the same request.
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig10_instructions`
//!
//! * `OROCHI_BENCH_JSON=path` — also write the grouping gate and the
//!   dispatch split as JSON for the `bench-smoke` CI artifact.
//! * `OROCHI_FULL=1` — raise the iteration counts to full scale.

use orochi_bench::json::Json;
use orochi_bench::{
    fig10_call_heavy_script, fig10_script, run_fig10_scalar, Fig10Group, FIG10_CATEGORIES,
};
use std::time::Instant;

const REPS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Median of `REPS` wall times of `f`, in nanoseconds.
fn wall_ns(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(samples)
}

fn main() {
    let full =
        matches!(std::env::var("OROCHI_FULL"), Ok(v) if v == "1" || v.eq_ignore_ascii_case("true"));
    let iters = if full { 100_000 } else { 20_000 };

    println!("== Fig. 10: per-instruction cost (ns/op; {iters} ops/run) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>16}",
        "category", "unmodified", "univalent", "multi-fixed", "multi-marginal"
    );
    for (name, body) in FIG10_CATEGORIES {
        let nondet = if *name == "Microtime" { iters } else { 0 };
        let script = fig10_script(body, iters);
        let unmodified = wall_ns(|| run_fig10_scalar(&script, "7", "9")) / iters as f64;
        let uni_group = Fig10Group::new(4, true, nondet);
        let univalent = wall_ns(|| {
            uni_group.run(&script);
        }) / iters as f64;
        // Multivalent at two lane counts: cost(L) = fixed + marginal*L.
        let (l1, l2) = (2usize, 8usize);
        let g1 = Fig10Group::new(l1, false, nondet);
        let g2 = Fig10Group::new(l2, false, nondet);
        let t1 = wall_ns(|| {
            g1.run(&script);
        }) / iters as f64;
        let t2 = wall_ns(|| {
            g2.run(&script);
        }) / iters as f64;
        let marginal = (t2 - t1) / (l2 - l1) as f64;
        let fixed = t1 - marginal * l1 as f64;
        println!(
            "{:<10} {:>11.1} {:>11.1} {:>13.1} {:>15.1}",
            name, unmodified, univalent, fixed, marginal
        );
    }
    println!(
        "\nExpected shape (§5.2): multivalent cost exceeds unmodified — the gain \
         comes from collapsing, not vectorization."
    );

    // Grouping gate: one univalent group of `lanes` identical requests
    // on a call-heavy script (function frames dominate) against the same
    // `lanes` requests run one by one on the scalar VM. SIMD-on-demand
    // pays off only if the group executes its univalent instructions
    // once instead of once per request.
    let lanes = 8usize;
    let script = fig10_call_heavy_script(iters);
    let uni = Fig10Group::new(lanes, true, 0);
    let group_ns = wall_ns(|| {
        uni.run(&script);
    });
    let scalar_ns = wall_ns(|| {
        for _ in 0..lanes {
            run_fig10_scalar(&script, "7", "9");
        }
    });
    println!("\n== Grouping gate: call-heavy script, {lanes} identical requests ==");
    println!(
        "univalent group {:.2}ms, {lanes} scalar runs {:.2}ms: {:.2}x",
        group_ns / 1e6,
        scalar_ns / 1e6,
        scalar_ns / group_ns,
    );
    let outcome = uni.run(&script);
    let (u, m) = (outcome.univalent, outcome.multivalent);
    let n = lanes as u64;
    println!(
        "dispatch accounting (univalent group): {} represented, {} executed ({:.2}x dedup)",
        n * (u + m),
        u + n * m,
        (n * (u + m)) as f64 / (u + n * m) as f64,
    );

    if let Ok(path) = std::env::var("OROCHI_BENCH_JSON") {
        let doc = Json::obj(vec![
            ("experiment", Json::str("fig10_instructions")),
            ("iters", Json::from(iters)),
            ("lanes", Json::from(lanes)),
            ("dispatch_total", Json::from(n * (u + m))),
            ("dispatch_executed", Json::from(u + n * m)),
            ("uni_group_wall_s", Json::Num(group_ns / 1e9)),
            ("scalar_n_wall_s", Json::Num(scalar_ns / 1e9)),
            ("uni_group_speedup", Json::Num(scalar_ns / group_ns)),
        ]);
        std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
