//! The graph-layer ablation at fig8-like trace scale: dense vs.
//! frontier vs. two-phase vs. streamed-CSR wall times, plus the
//! cycle-check microbench, printed as a table and (with
//! `--bench-json <path>` or `OROCHI_BENCH_JSON=path`) emitted as the
//! `timeprec` row of the CI `BENCH_ci.json` artifact.
//!
//! Usage: `cargo run --release -p orochi_bench --bin timeprec [flags]`
//! (the shared [`orochi_harness::Config`] flags and `OROCHI_*`
//! variables apply; this bin reads `--full` and `--bench-json`).
//!
//! * dense — `dense_time_precedence`, the `O(X²)` reference;
//! * frontier — the Fig. 6 streaming frontier materialized as an edge
//!   list;
//! * two_phase — the full Fig. 5 graph via the preserved pre-CSR
//!   construction (`graph::two_phase`): edge-list materialization,
//!   per-endpoint hashing, `Vec<Vec>` adjacency, O(E) indegree recount;
//! * streamed_csr — the full Fig. 5 graph via `process_op_reports`
//!   (frontier edges streamed into the two-pass CSR builder);
//! * csr_par — the same build with the fill pass parallelized
//!   (`process_op_reports_with` at the machine's core count); the count
//!   pass fixes every row extent, so sources fill disjoint slots and
//!   the output stays byte-identical to the sequential build;
//! * cycle_check — Kahn's algorithm alone over the prebuilt CSR graph.
//!
//! `--full` (or `OROCHI_FULL=1`) raises the trace to the paper-scale
//! request count.

use orochi_bench::json::Json;
use orochi_bench::{epoch_trace, zero_op_reports};
use orochi_core::graph::{process_op_reports, process_op_reports_with, two_phase};
use orochi_core::precedence::{create_time_precedence_graph, dense_time_precedence};
use orochi_harness::Config;
use std::time::{Duration, Instant};

/// Minimum of `runs` timed executions of `f` (the same noise
/// suppression the harness experiments use on CI-scale measurements).
fn min_wall(runs: usize, mut f: impl FnMut()) -> Duration {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("at least one run")
}

fn main() {
    let config = Config::load("timeprec");
    orochi_obs::set_enabled(config.obs_enabled());
    // Smoke scale matches the CI fig8 trace sizes; full scale matches
    // the paper's request counts (dense is O(X²) — this is the arm that
    // bounds the budget).
    let (epochs, width) = if config.full { (1250, 16) } else { (500, 8) };
    let requests = epochs * width;
    let runs = 3;

    let trace = epoch_trace(epochs, width);
    let reports = zero_op_reports(&trace);
    let balanced = trace.ensure_balanced().unwrap();

    println!("== timeprec: graph-layer ablation (X={requests}, P={width}) ==");
    let dense = min_wall(runs, || {
        dense_time_precedence(&balanced);
    });
    let frontier = min_wall(runs, || {
        create_time_precedence_graph(&balanced);
    });
    let two_phase_wall = min_wall(runs, || {
        two_phase::process_op_reports(&balanced, &reports).unwrap();
    });
    let csr = min_wall(runs, || {
        process_op_reports(&balanced, &reports).unwrap();
    });
    let fill_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let csr_par = min_wall(runs, || {
        process_op_reports_with(&balanced, &reports, fill_threads).unwrap();
    });
    let (graph, _) = process_op_reports(&balanced, &reports).unwrap();
    let mut scratch = Vec::new();
    let cycle = min_wall(runs, || {
        assert!(graph.is_acyclic_with(&mut scratch));
    });
    let edges = create_time_precedence_graph(&balanced).edges.len();

    let rows = [
        ("dense (O(X^2))", dense),
        ("frontier (Fig. 6)", frontier),
        ("two_phase (pre-CSR)", two_phase_wall),
        ("streamed_csr", csr),
        ("csr_par (fill)", csr_par),
        ("cycle_check (Kahn)", cycle),
    ];
    println!("{:<22} {:>12}", "arm", "wall");
    for (label, wall) in rows {
        println!("{label:<22} {:>9.3}ms", wall.as_secs_f64() * 1000.0);
    }
    let frontier_speedup = dense.as_secs_f64() / frontier.as_secs_f64().max(1e-9);
    let csr_speedup = two_phase_wall.as_secs_f64() / csr.as_secs_f64().max(1e-9);
    let par_speedup = csr.as_secs_f64() / csr_par.as_secs_f64().max(1e-9);
    println!(
        "frontier beats dense {frontier_speedup:.1}x; \
         streamed CSR beats two-phase {csr_speedup:.2}x; \
         parallel fill at {fill_threads} threads {par_speedup:.2}x over sequential \
         ({} time-precedence edges, {} graph nodes, {} graph edges)",
        edges,
        graph.num_nodes(),
        graph.num_edges(),
    );

    if let Some(path) = &config.bench_json {
        let doc = Json::obj([
            ("experiment", Json::str("timeprec")),
            ("requests", Json::from(requests)),
            ("width", Json::from(width)),
            ("timeprec_edges", Json::from(edges)),
            ("graph_nodes", Json::from(graph.num_nodes())),
            ("graph_edges", Json::from(graph.num_edges())),
            ("dense_wall_s", Json::Num(dense.as_secs_f64())),
            ("frontier_wall_s", Json::Num(frontier.as_secs_f64())),
            ("two_phase_wall_s", Json::Num(two_phase_wall.as_secs_f64())),
            ("csr_wall_s", Json::Num(csr.as_secs_f64())),
            ("csr_par_wall_s", Json::Num(csr_par.as_secs_f64())),
            ("csr_par_threads", Json::from(fill_threads)),
            ("cycle_check_wall_s", Json::Num(cycle.as_secs_f64())),
            ("frontier_speedup", Json::Num(frontier_speedup)),
            ("csr_speedup", Json::Num(csr_speedup)),
            ("csr_par_speedup", Json::Num(par_speedup)),
        ]);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
