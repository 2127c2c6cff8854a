//! A `GroupExecutor` that times re-execution from outside the audit:
//! it delegates to `AccPhpExecutor` and records one span per group.

use orochi_accphp::AccPhpExecutor;
use orochi_common::ids::RequestId;
use orochi_core::audit::{AuditContext, Rejection};
use orochi_core::exec::GroupExecutor;
use orochi_trace::{HttpRequest, HttpResponse};
use std::time::{Duration, Instant};

/// One `execute_group` call.
#[derive(Debug, Clone, Copy)]
pub struct GroupSpan {
    /// Requests in the group.
    pub lanes: usize,
    /// Index of the executor (audit worker) that ran it.
    pub worker: usize,
    /// Start, relative to the executor's origin.
    pub start: Duration,
    /// End, relative to the executor's origin.
    pub end: Duration,
}

/// Wraps an executor and records a [`GroupSpan`] per group.
pub struct TimedExecutor {
    /// The wrapped executor.
    pub inner: AccPhpExecutor,
    worker: usize,
    origin: Instant,
    /// Spans recorded so far.
    pub spans: Vec<GroupSpan>,
}

impl TimedExecutor {
    /// Wraps `inner` as worker `worker`; spans are measured from
    /// `origin`, which all workers of one audit share.
    pub fn new(inner: AccPhpExecutor, worker: usize, origin: Instant) -> Self {
        TimedExecutor {
            inner,
            worker,
            origin,
            spans: Vec::new(),
        }
    }
}

impl GroupExecutor for TimedExecutor {
    fn execute_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
        let start = self.origin.elapsed();
        let result = self.inner.execute_group(requests, ctx);
        self.spans.push(GroupSpan {
            lanes: requests.len(),
            worker: self.worker,
            start,
            end: self.origin.elapsed(),
        });
        result
    }
}
