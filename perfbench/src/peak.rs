//! Peak memory of an auditor, measured as the peak resident set of a
//! separate process that does nothing but audit one sealed store. The
//! timed code never runs under a counting allocator.

use crate::pipeline::{audit_store, executors, verdict, Engine};
use crate::workloads::Workload;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// What an auditor process reports.
#[derive(Debug, Clone)]
pub struct AuditorReport {
    /// Audit wall, `TraceStoreReader::open` to the verdict.
    pub wall_s: f64,
    /// Peak resident set of the process, MB (10^6 bytes).
    pub peak_mb: f64,
    /// Requests re-executed.
    pub requests: usize,
    /// Groups executed.
    pub groups: usize,
    /// `accept` or the rejection.
    pub verdict: String,
}

/// The auditor process body: audits the store at `store` and prints one
/// `auditor` line for [`spawn`] to parse.
pub fn auditor_main(engine: Engine, workload: Workload, store: &Path, threads: usize) {
    let work = workload.auditor_only();
    let scripts = work.app.compile().expect("application compiles");
    let config = work.audit_config();
    let mut workers = executors(&scripts, threads);
    let t0 = Instant::now();
    let result = audit_store(engine, store, &mut workers, &config);
    let wall = t0.elapsed().as_secs_f64();
    let (requests, groups) = result.as_ref().map_or((0, 0), |o| {
        (o.stats.requests_reexecuted, o.stats.groups_executed)
    });
    let peak_kib = peak_rss_kib().unwrap_or(0);
    println!(
        "auditor {wall:?} {peak_kib} {requests} {groups} {}",
        verdict(&result)
    );
}

/// Peak resident set of this process (`VmHWM`), KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs the untraced benchmark binary as an auditor process over the
/// store at `store` and waits for it.
pub fn spawn(engine: Engine, workload: Workload, store: &Path) -> Result<AuditorReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let exe = exe.with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX));
    let out = Command::new(&exe)
        .args(["--auditor", engine.name(), "--workload", workload.name()])
        .arg("--store")
        .arg(store)
        .output()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("auditor "))
        .ok_or_else(|| {
            format!(
                "{} auditor exited with {} and no report: {}",
                engine.name(),
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let mut fields = line.splitn(6, ' ').skip(1);
    let mut next = || fields.next().unwrap_or("");
    let parsed = (|| {
        Some(AuditorReport {
            wall_s: next().parse().ok()?,
            peak_mb: next().parse::<f64>().ok()? * 1024.0 / 1e6,
            requests: next().parse().ok()?,
            groups: next().parse().ok()?,
            verdict: next().to_string(),
        })
    })();
    match parsed {
        Some(r) if out.status.success() && r.peak_mb > 0.0 => Ok(r),
        _ => Err(format!("unreadable auditor report: {line:?}")),
    }
}
