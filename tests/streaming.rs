//! Property tests for the streaming epoch audit (proptest).
//!
//! * Epoch boundaries are unobservable: for fuzzed epoch budgets — one
//!   event per epoch, odd mid-sized budgets, a budget at least the
//!   trace, and the batch fallback (0) — the streaming audit returns
//!   the identical verdict and diagnostic as the batch audit over the
//!   same sealed store, sequentially and pooled, for an honest run and
//!   for every tampered variant.
//! * Sealed-epoch state leaves the carry: feeding a whole trace through
//!   small epochs never accumulates the executed payloads — the
//!   high-water carry stays below the trace's own payload volume.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::AuditConfig;
use orochi::core::streaming::StreamingAudit;
use orochi::core::Rejection;
use orochi::harness::driver::{
    run_audit_cold, run_audit_streaming, serve, spill_bundle, AppWorkload, AuditOptions, AuditRun,
    ServeOptions,
};
use orochi::harness::experiments::shop_workload;
use orochi::harness::tamper;
use orochi::trace::{Event, TraceStoreReader};
use orochi::workload::Skew;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// One verdict string per audit: acceptance carries the re-execution
/// count, rejection the full diagnostic — so equality means the same
/// verdict *and* the same diagnostic.
fn verdict(run: &Result<AuditRun, Rejection>) -> String {
    match run {
        Ok(run) => format!("accept:{}", run.outcome.stats.requests_reexecuted),
        Err(r) => format!("reject:{r}"),
    }
}

/// The audited variants: an honest run plus one tampering per rejection
/// family (trace output forgery, stale KV read, replayed KV write).
const VARIANTS: [&str; 4] = [
    "honest",
    "forged_cart_total",
    "stale_inventory_read",
    "replayed_kv_write",
];

/// Serving the shop workload per proptest case would dominate the
/// suite, so each variant is served, tampered, and spilled to a sealed
/// segment store once; every case re-audits the stores under a
/// different epoch budget.
fn fixture() -> &'static (AppWorkload, Vec<PathBuf>) {
    static CELL: OnceLock<(AppWorkload, Vec<PathBuf>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let work = shop_workload(0.01, 42, &Skew::default());
        let dirs = VARIANTS
            .iter()
            .map(|variant| {
                let mut served = serve(&work, &ServeOptions::default());
                let tampered = match *variant {
                    "honest" => true,
                    "forged_cart_total" => tamper::forge_cart_total(&mut served.bundle.trace),
                    "stale_inventory_read" => {
                        tamper::reorder_kv_read(&mut served.bundle.reports, "inv:")
                    }
                    "replayed_kv_write" => {
                        tamper::replay_kv_write(&mut served.bundle.reports, "inv:")
                    }
                    _ => unreachable!(),
                };
                assert!(tampered, "{variant}: no tamper site in the workload");
                let dir = std::env::temp_dir().join(format!(
                    "orochi-test-streaming-{}-{variant}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                // Small segments so epoch boundaries and segment
                // boundaries interleave rather than coincide.
                spill_bundle(&served.bundle, &dir, 16 * 1024).expect("spill");
                dir
            })
            .collect();
        (work, dirs)
    })
}

/// The batch oracle, cached per (variant, threads): the budget axis is
/// what the property fuzzes, so the budget-free arm is computed once.
fn batch_verdict(variant: usize, threads: usize) -> String {
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    if let Some(v) = cache.lock().unwrap().get(&(variant, threads)) {
        return v.clone();
    }
    let (work, dirs) = fixture();
    let reader = TraceStoreReader::open(&dirs[variant]).expect("open store");
    let opts = AuditOptions {
        threads,
        ..Default::default()
    };
    let v = verdict(&run_audit_cold(&reader, work, &opts));
    cache.lock().unwrap().insert((variant, threads), v.clone());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the epoch budget — one event per epoch, a fuzzed
    /// mid-sized budget, a budget at least the whole trace, or the
    /// batch fallback (0) — the streaming audit's verdict and
    /// diagnostic are byte-identical to the batch audit's, at one
    /// worker and pooled, for the honest run and every tampered one.
    #[test]
    fn epoch_boundaries_never_change_the_verdict(
        budget in prop_oneof![
            Just(0usize),
            Just(1usize),
            2usize..48,
            Just(1usize << 20),
        ],
        variant in 0usize..4,
    ) {
        let (work, dirs) = fixture();
        let reader = TraceStoreReader::open(&dirs[variant]).expect("open store");
        for threads in [1usize, 4] {
            let opts = AuditOptions {
                threads,
                ..Default::default()
            };
            let batch = batch_verdict(variant, threads);
            let streaming = verdict(&run_audit_streaming(&reader, work, &opts, budget));
            prop_assert_eq!(
                &streaming, &batch,
                "variant {} budget {} threads {}",
                VARIANTS[variant], budget, threads
            );
        }
    }
}

/// Sealed epochs leave the carry: the high-water mark of
/// [`StreamingAudit::carry_bytes`] over a whole honest trace fed in
/// small epochs stays below the trace's own payload volume — executed
/// requests' payloads and compared responses are dropped at the epoch
/// boundary instead of accumulating the way the batch audit's resident
/// trace does.
#[test]
fn sealed_epoch_state_leaves_the_carry() {
    use orochi::workload::wiki;

    let work = AppWorkload {
        app: orochi::apps::wiki::app(),
        workload: wiki::generate(&wiki::Params::scaled(0.02), 7),
        seed_sql: Vec::new(),
    };
    let served = serve(&work, &ServeOptions::default());
    let bundle = served.bundle;
    let payload_total: usize = bundle
        .trace
        .events
        .iter()
        .map(|e| match e {
            Event::Request(..) => 0,
            Event::Response(_, resp) => resp.body.len(),
        })
        .sum();

    let scripts = work.app.compile().expect("application compiles");
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), work.initial_db());
    let mut executors = vec![AccPhpExecutor::new(scripts)];
    let mut audit = StreamingAudit::new(&bundle.reports, &config, 1);
    let mut max_carry = 0usize;
    for epoch in bundle.trace.events.chunks(8) {
        assert!(
            audit.feed_epoch(epoch, &mut executors),
            "audit gave up early"
        );
        max_carry = max_carry.max(audit.carry_bytes());
    }
    assert!(audit.epochs() > 1, "trace too small to cross an epoch");
    assert!(
        max_carry < payload_total,
        "carry high-water {max_carry} B should stay below the trace payload {payload_total} B"
    );
    let outcome = audit.finish(&bundle.trace, &mut executors);
    assert!(
        outcome.is_ok(),
        "honest wiki run rejected: {}",
        outcome.unwrap_err()
    );
}
