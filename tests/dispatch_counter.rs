//! The telemetry registry keeps one counter per VM dispatch quantity,
//! written once per verdict where the verdict is assembled: one audit
//! moves `vm_dispatch_executed_total` and `vm_dispatch_represented_total`
//! by exactly its own `AuditStats` counts, whichever engine produced the
//! verdict and whether or not the harness drove it.
//!
//! The counters are process-wide, so this binary holds a single test:
//! no concurrent audit can move them while it measures.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::audit;
use orochi::harness::driver::{run_audit, run_audit_streaming, serve, AuditOptions, ServeOptions};
use orochi::harness::experiments::wiki_workload;
use orochi::obs::registry;
use orochi::workload::Skew;

#[test]
fn each_audit_moves_the_dispatch_counters_by_its_own_counts() {
    let work = wiki_workload(0.01, 7, &Skew::default());
    let served = serve(&work, &ServeOptions::default());
    let (trace, reports) = (&served.bundle.trace, &served.bundle.reports);
    let executed = registry::counter("vm_dispatch_executed_total");
    let represented = registry::counter("vm_dispatch_represented_total");
    let pooled = AuditOptions {
        threads: 2,
        ..Default::default()
    };
    for engine in ["core sequential", "pooled", "streaming"] {
        let (executed0, represented0) = (executed.get(), represented.get());
        let stats = match engine {
            "core sequential" => {
                let scripts = work.app.compile().expect("application compiles");
                let mut executor = AccPhpExecutor::new(scripts);
                audit(trace, reports, &mut executor, &work.audit_config()).map(|o| o.stats)
            }
            "pooled" => run_audit(trace, reports, &work, &pooled).map(|r| r.outcome.stats),
            _ => run_audit_streaming(trace, reports, &work, &pooled, 16).map(|r| r.outcome.stats),
        }
        .unwrap_or_else(|r| panic!("{engine}: honest wiki run rejected: {r}"));
        assert!(stats.vm_dispatch_executed > 0, "{engine}: nothing executed");
        assert_eq!(
            executed.get() - executed0,
            stats.vm_dispatch_executed,
            "{engine}: vm_dispatch_executed_total"
        );
        assert_eq!(
            represented.get() - represented0,
            stats.vm_dispatch_total,
            "{engine}: vm_dispatch_represented_total"
        );
    }
}
