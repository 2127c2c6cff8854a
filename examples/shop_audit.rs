//! The storefront scenario: serve the session-heavy shop workload,
//! audit it honestly, then tamper three different ways — a forged cart
//! total in the trace, a stale inventory read, and a replayed KV write
//! in the reports — and watch the audit reject each one.
//!
//! The shop routes most of its operations through session registers
//! (login + cart state) and the APC key-value store (inventory counters
//! with check-then-act races, a rendered-fragment cache), so this is
//! the register/versioned-KV counterpart of `wiki_audit`.
//!
//! Run with: `cargo run --release --example shop_audit`

use orochi::harness::tamper;
use orochi::harness::{run_audit, serve, AppWorkload, AuditOptions, ServeOptions};
use orochi::server::server::AuditBundle;
use orochi::workload::shop;

fn shop_work(seed: u64) -> AppWorkload {
    let params = shop::Params::scaled(0.1);
    AppWorkload {
        app: orochi::apps::shop::app(),
        workload: shop::generate(&params, seed),
        seed_sql: shop::seed_sql(&params),
    }
}

fn main() {
    let work = shop_work(42);
    let params = shop::Params::scaled(0.1);
    println!(
        "workload: {} products (Zipf θ={}), {} sessions, ~{} requests",
        params.products,
        params.zipf_theta,
        params.sessions,
        work.workload.len()
    );

    let served = serve(&work, &ServeOptions::default());
    println!(
        "served {} requests in {:.2?} (busy {:.2?})",
        served.requests, served.wall, served.busy
    );
    let mut reg_kv = 0usize;
    let mut total = 0usize;
    for (_, name, log) in served.bundle.reports.op_logs.iter() {
        total += log.len();
        if name.as_str().starts_with("reg:") || name.as_str().starts_with("kv:") {
            reg_kv += log.len();
        }
    }
    println!(
        "{:.1}% of {} logged operations hit the register/KV sub-logs",
        reg_kv as f64 / total as f64 * 100.0,
        total
    );

    let (trace, reports) = (&served.bundle.trace, &served.bundle.reports);
    let honest = run_audit(trace, reports, &work, &AuditOptions::default())
        .unwrap_or_else(|r| panic!("audit rejected an honest storefront: {r}"));
    println!(
        "\nhonest audit: ACCEPT in {:.2?} ({} register ops, {} kv ops, {} db txns)",
        honest.wall,
        honest.outcome.stats.register_ops,
        honest.outcome.stats.kv_ops,
        honest.outcome.stats.db_txns,
    );

    type Tamper = fn(&mut AuditBundle) -> bool;
    let tampers: [(&str, Tamper); 3] = [
        ("forged cart total", |b| {
            tamper::forge_cart_total(&mut b.trace)
        }),
        ("stale inventory read", |b| {
            tamper::reorder_kv_read(&mut b.reports, "inv:")
        }),
        ("replayed KV write", |b| {
            tamper::replay_kv_write(&mut b.reports, "inv:")
        }),
    ];
    for (label, apply) in tampers {
        // Tamper a fresh serve so the mutations don't stack.
        let work = shop_work(42);
        let mut served = serve(&work, &ServeOptions::default());
        assert!(apply(&mut served.bundle), "no site to apply {label}");
        let (trace, reports) = (&served.bundle.trace, &served.bundle.reports);
        match run_audit(trace, reports, &work, &AuditOptions::default()) {
            Ok(_) => panic!("{label}: the audit accepted a tampered run!"),
            Err(rejection) => println!("{label:<22} -> REJECT: {rejection}"),
        }
    }
}
