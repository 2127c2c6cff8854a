//! `SSCO_AUDIT2` (Fig. 12): the audit driver and the simulate-and-check
//! context.
//!
//! The audit proceeds in phases:
//!
//! 1. **Balance** — validate the trace (§3).
//! 2. **ProcessOpReports** — consistent-ordering verification and OpMap
//!    construction ([`crate::graph`]), plus the §4.6 nondeterminism
//!    sanity checks.
//! 3. **DB redo** — build the versioned stores: `kv.Build(OL)` happens
//!    lazily per object; every log containing database operations gets a
//!    full versioned redo pass (§4.5).
//! 4. **Re-execution** — each control-flow group is handed to the
//!    [`GroupExecutor`]; every state operation flows through
//!    [`AuditContext`], which implements `CheckOp` (the produced operands
//!    must match the log entry the OpMap names) and `SimOp` (reads are
//!    fed from the logs/versioned stores). Read-query deduplication
//!    (§4.5) lives here too.
//! 5. **Output comparison** — the produced outputs must be exactly the
//!    responses in the trace.
//!
//! Any failed check rejects with a precise [`Rejection`] reason.
//!
//! # Parallel audit
//!
//! After the prologue (phases 1–3), control-flow groups touch disjoint
//! per-request state and only *read* the shared prologue products (the
//! OpMap, the operation logs, and the versioned stores).
//! [`audit_parallel_source`] exploits that: the prologue's store builds are sharded by object across
//! a bounded pool of scoped threads, and the groups are then re-executed
//! by the same pool, one [`AuditContext`] per worker over one shared
//! [`AuditShared`]. The pool's unit of work is a **piece**: [`plan_pieces`]
//! cuts any group larger than its fair share of the requests into
//! contiguous, in-order pieces, so one Zipf-head group cannot set the
//! parallel wall. Every piece runs; failed groups are then confirmed in
//! ascending group index by re-running the whole group on a fresh
//! context, and the first confirmed rejection is the verdict — the one
//! the sequential audit hits first. Verdicts and failure diagnostics are
//! therefore byte-identical to the sequential path. Only
//! scheduling-dependent *performance counters* (the dedup-cache hit/miss
//! split, and the VM dispatch counts of split groups) may vary with the
//! thread count. The streaming engine ([`crate::streaming`]) runs its
//! epoch sub-groups through the same planner, pool, and confirmation.

use crate::exec::{DbQueryResult, DbTxnHandle, GroupExecutor, SimResult};
use crate::graph::{process_op_reports_with, GraphRejection, OpMap};
use crate::nondet::NondetValue;
use crate::reports::Reports;
use orochi_common::ids::{CtlFlowTag, OpNum, RequestId, SeqNum};
use orochi_common::metrics::PhaseTimer;
use orochi_sqldb::{Database, ExecOutcome, RedoError, RedoStats, VersionedDb, MAXQ};
use orochi_state::object::{ObjectName, OpContents, OpType};
use orochi_state::versioned_kv::VersionedKv;
use orochi_trace::record::{BalanceError, BalancedTrace, RidInterner};
use orochi_trace::{HttpRequest, HttpResponse, TraceReadError, TraceSource, TraceStoreError};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why the audit rejected. Each variant corresponds to a failed check in
/// Figs. 5/12 or one of OROCHI's additional report validations.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The trace is not balanced (§3).
    Unbalanced(BalanceError),
    /// The persisted trace could not be read back (I/O failure or a
    /// corrupt segment/blob). Only the cold-storage audit path can hit
    /// this; an in-memory trace never does.
    TraceStore(TraceStoreError),
    /// Report processing failed (Fig. 5), including cycle detection.
    Graph(GraphRejection),
    /// The nondeterminism report violates the §4.6 sanity conditions.
    NondetInvalid(RequestId),
    /// The database redo pass failed (§4.5).
    Redo(RedoError),
    /// Re-execution issued an operation the OpMap does not contain
    /// (CheckOp line 11).
    OpNotInOpMap {
        /// The issuing request.
        rid: RequestId,
        /// The operation number.
        opnum: OpNum,
    },
    /// The operation targeted a different object than the log claims
    /// (CheckOp line 14, `i != î`).
    ObjectMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The operation number.
        opnum: OpNum,
    },
    /// The produced operands differ from the logged opcontents
    /// (CheckOp line 14).
    OpContentsMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The operation number.
        opnum: OpNum,
    },
    /// A database query's SQL text differs from the logged statement
    /// (§A.7 per-query check).
    DbQueryMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
        /// 1-based query position.
        query: u64,
    },
    /// Re-execution issued more queries in a transaction than were
    /// logged.
    DbTooManyQueries {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// Re-execution finished a transaction with fewer queries than
    /// logged.
    DbQueryCountMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// The program's commit/rollback disagrees with the logged
    /// `succeeded` flag.
    DbCommitMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// An aborted transaction's read has no captured result — the log is
    /// internally inconsistent.
    DbAbortedReadMissing {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// A state operation was issued while a database transaction was
    /// open (the SSCO model forbids nesting, §4.4).
    StateOpDuringTxn {
        /// The issuing request.
        rid: RequestId,
    },
    /// Re-execution consumed more nondeterministic values than recorded.
    NondetExhausted {
        /// The issuing request.
        rid: RequestId,
    },
    /// A recorded nondeterministic value has the wrong kind for the call
    /// site.
    NondetKindMismatch {
        /// The issuing request.
        rid: RequestId,
    },
    /// Recorded nondeterministic values were left unconsumed.
    NondetLeftover {
        /// The issuing request.
        rid: RequestId,
    },
    /// A request finished with an operation count different from
    /// `M(rid)` (Fig. 12 line 51).
    OpCountMismatch {
        /// The finishing request.
        rid: RequestId,
    },
    /// A control-flow group names a request absent from the trace.
    GroupUnknownRequest {
        /// The unknown request.
        rid: RequestId,
    },
    /// Requests in one control-flow group diverged during grouped
    /// re-execution (Fig. 12 line 39).
    Divergence {
        /// The group's tag.
        tag: CtlFlowTag,
    },
    /// The re-executed program failed outright (runtime error where the
    /// trace shows a normal response).
    ExecFailure(String),
    /// The executor returned outputs violating the driver protocol
    /// (unknown or duplicate request).
    ExecutorProtocol(String),
    /// A produced output differs from the response in the trace
    /// (Fig. 12 line 55).
    OutputMismatch {
        /// The mismatching request.
        rid: RequestId,
    },
    /// No output was produced for a request in the trace.
    MissingOutput {
        /// The uncovered request.
        rid: RequestId,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Unbalanced(e) => write!(f, "trace not balanced: {e}"),
            Rejection::TraceStore(e) => write!(f, "trace store: {e}"),
            Rejection::Graph(e) => write!(f, "report processing: {e}"),
            Rejection::NondetInvalid(rid) => {
                write!(f, "nondeterminism report invalid for {rid}")
            }
            Rejection::Redo(e) => write!(f, "versioned redo: {e}"),
            Rejection::OpNotInOpMap { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) not in OpMap")
            }
            Rejection::ObjectMismatch { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) targets a different object")
            }
            Rejection::OpContentsMismatch { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) operands differ from log")
            }
            Rejection::DbQueryMismatch { rid, opnum, query } => {
                write!(f, "({rid},{opnum}) query {query} differs from log")
            }
            Rejection::DbTooManyQueries { rid, opnum } => {
                write!(f, "({rid},{opnum}) issued more queries than logged")
            }
            Rejection::DbQueryCountMismatch { rid, opnum } => {
                write!(f, "({rid},{opnum}) finished with fewer queries than logged")
            }
            Rejection::DbCommitMismatch { rid, opnum } => {
                write!(f, "({rid},{opnum}) commit/rollback disagrees with log")
            }
            Rejection::DbAbortedReadMissing { rid, opnum } => {
                write!(f, "({rid},{opnum}) aborted-transaction read not captured")
            }
            Rejection::StateOpDuringTxn { rid } => {
                write!(f, "{rid} issued a state op inside a transaction")
            }
            Rejection::NondetExhausted { rid } => {
                write!(f, "{rid} consumed more nondet values than recorded")
            }
            Rejection::NondetKindMismatch { rid } => {
                write!(f, "{rid} nondet value kind mismatch")
            }
            Rejection::NondetLeftover { rid } => {
                write!(f, "{rid} left recorded nondet values unconsumed")
            }
            Rejection::OpCountMismatch { rid } => {
                write!(f, "{rid} finished with an op count different from M")
            }
            Rejection::GroupUnknownRequest { rid } => {
                write!(f, "control-flow group names unknown request {rid}")
            }
            Rejection::Divergence { tag } => {
                write!(f, "control-flow group {tag} diverged")
            }
            Rejection::ExecFailure(m) => write!(f, "re-execution failed: {m}"),
            Rejection::ExecutorProtocol(m) => write!(f, "executor protocol: {m}"),
            Rejection::OutputMismatch { rid } => {
                write!(f, "produced output for {rid} differs from the trace")
            }
            Rejection::MissingOutput { rid } => {
                write!(f, "no output produced for {rid}")
            }
        }
    }
}

impl std::error::Error for Rejection {}

impl From<GraphRejection> for Rejection {
    fn from(e: GraphRejection) -> Self {
        Rejection::Graph(e)
    }
}

impl From<RedoError> for Rejection {
    fn from(e: RedoError) -> Self {
        Rejection::Redo(e)
    }
}

/// Initial state and switches for an audit.
#[derive(Default)]
pub struct AuditConfig {
    /// Initial database contents per object name (the verifier's copy of
    /// the server's persistent state, §4.1).
    pub initial_dbs: HashMap<String, Database>,
    /// Initial register values per object name.
    pub initial_registers: HashMap<String, Vec<u8>>,
    /// Initial key-value contents per object name.
    pub initial_kv: HashMap<String, HashMap<String, Vec<u8>>>,
    /// Enables read-query deduplication (§4.5); on by default, off for
    /// the ablation bench.
    pub query_dedup: bool,
}

impl AuditConfig {
    /// Default configuration: empty initial state, deduplication on.
    pub fn new() -> Self {
        Self {
            query_dedup: true,
            ..Self::default()
        }
    }
}

/// Counters and phase timings collected during an audit.
#[derive(Debug, Default, Clone)]
pub struct AuditStats {
    /// Control-flow groups re-executed: one per prepared group, however
    /// the pool split it into pieces.
    pub groups_executed: usize,
    /// Requests re-executed (after duplicate filtering).
    pub requests_reexecuted: usize,
    /// Register operations checked/simulated.
    pub register_ops: u64,
    /// Key-value operations checked/simulated.
    pub kv_ops: u64,
    /// Database transactions re-executed.
    pub db_txns: u64,
    /// Database queries checked.
    pub db_queries: u64,
    /// SELECTs answered from the dedup cache (§4.5).
    pub db_queries_deduped: u64,
    /// SELECTs actually issued to the versioned store.
    pub db_queries_issued: u64,
    /// VM instruction dispatches the audit *would* have performed had
    /// every request re-executed scalar: `Σ n_c × ℓ_c` over groups plus
    /// the scalar path's own instruction counts (Fig. 10's "total").
    pub vm_dispatch_total: u64,
    /// VM instruction dispatches actually performed: univalent
    /// instructions once per group, multivalent ones per lane
    /// (Fig. 10's deduplicated re-execution work).
    pub vm_dispatch_executed: u64,
    /// Aggregate redo statistics across database objects.
    pub redo: RedoStats,
    /// Bytes held by the audit-time versioned database(s) (Fig. 8
    /// "temp" DB overhead numerator).
    pub db_versioned_bytes: usize,
    /// Bytes of the latest (migrated) database snapshot (the
    /// denominator; also what the verifier keeps after the audit).
    pub db_final_bytes: usize,
    /// Nodes in the Fig. 5 audit graph (`2X + Y`).
    pub graph_nodes: usize,
    /// Edges in the Fig. 5 audit graph (time-precedence + program +
    /// log-order).
    pub graph_edges: usize,
    /// Wall time of the streamed two-pass CSR graph build — the slice
    /// of the "ProcOpRep" phase the graph layer accounts for.
    pub graph_build: Duration,
    /// Busy time spent answering database queries (the Fig. 9 "DB
    /// query" row). Accumulated per context and absorbed like any
    /// other counter, so the parallel merge needs no side channel.
    pub db_query_wall: Duration,
    /// Wall time per phase ("ProcOpRep", "DB redo", "ReExec", "DB query",
    /// "Output"), in the style of Fig. 9.
    pub phases: PhaseTimer,
}

impl AuditStats {
    /// Folds one worker's per-context counters into an aggregate. Phase
    /// timings, redo statistics, byte counts, and the group count are not
    /// per-worker; the audit driver fills them in once at the end.
    pub(crate) fn absorb(&mut self, other: &AuditStats) {
        self.requests_reexecuted += other.requests_reexecuted;
        self.register_ops += other.register_ops;
        self.kv_ops += other.kv_ops;
        self.db_txns += other.db_txns;
        self.db_queries += other.db_queries;
        self.db_queries_deduped += other.db_queries_deduped;
        self.db_queries_issued += other.db_queries_issued;
        self.vm_dispatch_total += other.vm_dispatch_total;
        self.vm_dispatch_executed += other.vm_dispatch_executed;
        self.db_query_wall += other.db_query_wall;
    }
}

/// A successful audit.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Statistics for the evaluation harness.
    pub stats: AuditStats,
}

/// Key of the read-query dedup cache: (log index, sql text, epochs of
/// the tables the query touches).
type DedupKey = (usize, String, Vec<(String, u64)>);

/// The prologue's products, shared read-only by every re-execution
/// worker: the OpMap, the versioned stores, and the per-log register
/// prev-write indexes. Built once (optionally sharded by object across
/// the worker pool) before any group re-executes; all access afterwards
/// is `&self`, which makes one instance safely shareable across the
/// audit's scoped threads.
pub struct AuditShared<'a> {
    reports: &'a Reports,
    config: &'a AuditConfig,
    opmap: OpMap,
    /// The dense requestID interning built by `process_op_reports` and
    /// reused — via the OpMap — by every worker: per-request cursors
    /// are flat arrays indexed by it.
    interner: Arc<RidInterner>,
    /// Per-log register prev-write indexes (slot = log index): for
    /// entry index `j`, the index of the latest `RegisterWrite`
    /// strictly before `j`. Built for every log containing a
    /// `RegisterRead`.
    reg_prev_write: Vec<Option<Vec<Option<usize>>>>,
    /// Versioned key-value views (slot = log index), built for every
    /// log containing key-value operations (`kv.Build(OL)`, Fig. 12
    /// line 5).
    versioned_kv: Vec<Option<VersionedKv>>,
    /// Versioned databases (slot = log index; the §4.5 redo pass).
    versioned_dbs: Vec<Option<VersionedDb>>,
    /// Graph-layer statistics copied from the `process_op_reports`
    /// product for the final outcome.
    graph_nodes: usize,
    graph_edges: usize,
    graph_build: Duration,
}

// The parallel audit hands `Arc<AuditShared>` to scoped worker threads;
// keep the shareability obligation explicit.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<AuditShared<'static>>();
};

/// Which versioned stores one log needs; the unit of prologue sharding.
struct StoreBuildTask {
    log_index: usize,
    db: bool,
    kv: bool,
    reg: bool,
}

/// The stores built for one log.
struct StoreBuildProduct {
    log_index: usize,
    db: Option<Result<VersionedDb, RedoError>>,
    kv: Option<VersionedKv>,
    reg: Option<Vec<Option<usize>>>,
}

impl<'a> AuditShared<'a> {
    /// Builds every versioned store and index the re-execution phase
    /// reads. With `threads >= 2` the per-log builds are sharded across
    /// a scoped-thread pool — logs are independent by construction, and
    /// redo failures are reported in log order regardless of which
    /// worker hits them, so diagnostics match the sequential build
    /// exactly.
    pub(crate) fn build(
        reports: &'a Reports,
        opmap: OpMap,
        config: &'a AuditConfig,
        threads: usize,
    ) -> Result<Self, Rejection> {
        let tasks: Vec<StoreBuildTask> = reports
            .op_logs
            .iter()
            .filter_map(|(i, _name, log)| {
                let task = StoreBuildTask {
                    log_index: i,
                    db: log.contains_op_type(OpType::DbOp),
                    kv: log.contains_op_type(OpType::KvGet) || log.contains_op_type(OpType::KvSet),
                    reg: log.contains_op_type(OpType::RegisterRead),
                };
                (task.db || task.kv || task.reg).then_some(task)
            })
            .collect();
        let mut products: Vec<StoreBuildProduct> = if threads >= 2 && tasks.len() >= 2 {
            let cursor = AtomicUsize::new(0);
            let collected: Mutex<Vec<StoreBuildProduct>> =
                Mutex::new(Vec::with_capacity(tasks.len()));
            crossbeam::thread::scope(|s| {
                for _ in 0..threads.min(tasks.len()) {
                    s.spawn(|_| {
                        let mut local = Vec::new();
                        loop {
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(task) = tasks.get(k) else { break };
                            local.push(build_stores_for(reports, config, task));
                        }
                        collected.lock().expect("collector poisoned").extend(local);
                    });
                }
            })
            .expect("prologue pool");
            collected.into_inner().expect("collector poisoned")
        } else {
            tasks
                .iter()
                .map(|task| build_stores_for(reports, config, task))
                .collect()
        };
        // Report the first redo failure in log order — identical to a
        // sequential pass over the logs.
        products.sort_by_key(|p| p.log_index);
        let num_logs = reports.op_logs.len();
        let interner = Arc::clone(opmap.interner());
        let mut shared = AuditShared {
            reports,
            config,
            opmap,
            interner,
            reg_prev_write: (0..num_logs).map(|_| None).collect(),
            versioned_kv: (0..num_logs).map(|_| None).collect(),
            versioned_dbs: (0..num_logs).map(|_| None).collect(),
            graph_nodes: 0,
            graph_edges: 0,
            graph_build: Duration::ZERO,
        };
        for product in products {
            if let Some(db) = product.db {
                shared.versioned_dbs[product.log_index] = Some(db?);
            }
            if let Some(kv) = product.kv {
                shared.versioned_kv[product.log_index] = Some(kv);
            }
            if let Some(reg) = product.reg {
                shared.reg_prev_write[product.log_index] = Some(reg);
            }
        }
        Ok(shared)
    }

    /// Copies the graph-layer statistics out of the Fig. 5 product so
    /// the final outcome can surface them.
    pub(crate) fn record_graph(&mut self, graph: &crate::graph::AuditGraph) {
        self.graph_nodes = graph.num_nodes();
        self.graph_edges = graph.num_edges();
        self.graph_build = graph.build_wall();
    }

    /// The versioned database for log `i`, if the prologue built one.
    fn versioned_db(&self, i: usize) -> Option<&VersionedDb> {
        self.versioned_dbs.get(i).and_then(|slot| slot.as_ref())
    }

    // ---- Streaming-audit hooks ---------------------------------------
    // The streaming driver (crate::streaming) owns one AuditShared for
    // the whole run and re-points its interner between epochs: during
    // ingest the balance validator must hold the canonical interner
    // exclusively, so the shared state parks a placeholder.

    /// Re-points both the shared interner and the OpMap's at `interner`.
    pub(crate) fn set_interner(&mut self, interner: Arc<RidInterner>) {
        self.opmap.set_interner(Arc::clone(&interner));
        self.interner = interner;
    }

    /// The OpMap, mutably — the streaming driver appends request rows
    /// and fills slots as requests arrive.
    pub(crate) fn opmap_mut(&mut self) -> &mut OpMap {
        &mut self.opmap
    }

    /// Swaps in a freshly built OpMap (the streaming finish replaces
    /// its incrementally grown copy with the one the final full
    /// `ProcessOpReports` pass produced — identical by construction
    /// once that pass accepts, but the swap makes the confirmation
    /// re-run's inputs exactly the batch prologue's).
    pub(crate) fn replace_opmap(&mut self, opmap: OpMap) {
        self.interner = Arc::clone(opmap.interner());
        self.opmap = opmap;
    }

    /// Rough resident size of the OpMap tables in bytes, for the
    /// streaming audit's carry accounting.
    pub(crate) fn opmap_bytes(&self) -> usize {
        self.opmap.estimated_bytes()
    }
}

/// Builds the stores one log needs: the §4.5 versioned-DB redo pass,
/// the versioned KV view, and the register prev-write index.
fn build_stores_for(
    reports: &Reports,
    config: &AuditConfig,
    task: &StoreBuildTask,
) -> StoreBuildProduct {
    let log = reports
        .op_logs
        .log(task.log_index)
        .expect("task indexes a valid log");
    let name = reports
        .op_logs
        .name(task.log_index)
        .expect("task indexes a valid log");
    let db = task.db.then(|| {
        let empty = Database::new();
        let initial = config.initial_dbs.get(name.as_str()).unwrap_or(&empty);
        let mut vdb = VersionedDb::from_snapshot(initial);
        for (seq, entry) in log.iter() {
            if let OpContents::DbOp {
                queries,
                succeeded,
                write_results,
            } = &entry.contents
            {
                let logged: Vec<Option<orochi_sqldb::engine::WriteOutcome>> = write_results
                    .iter()
                    .map(|w| {
                        w.map(|w| orochi_sqldb::engine::WriteOutcome {
                            affected: w.affected,
                            last_insert_id: w.last_insert_id,
                        })
                    })
                    .collect();
                vdb.redo_transaction(seq.0, queries, *succeeded, &logged)?;
            }
        }
        Ok(vdb)
    });
    let kv = task.kv.then(|| VersionedKv::build(log));
    let reg = task.reg.then(|| {
        let mut out = Vec::with_capacity(log.len());
        let mut last: Option<usize> = None;
        for (j, entry) in log.entries().iter().enumerate() {
            out.push(last);
            if entry.op_type() == OpType::RegisterWrite {
                last = Some(j);
            }
        }
        out
    });
    StoreBuildProduct {
        log_index: task.log_index,
        db,
        kv,
        reg,
    }
}

/// The simulate-and-check context handed to the [`GroupExecutor`].
///
/// Tracks per-request operation numbers, performs `CheckOp` against the
/// OpMap and logs, and feeds reads from the versioned stores. All
/// cross-request audit state lives in the immutable [`AuditShared`]; a
/// context only owns per-request cursors and performance caches, which
/// is what lets the parallel audit run one context per worker thread
/// over a single shared prologue.
pub struct AuditContext<'a> {
    shared: Arc<AuditShared<'a>>,
    /// Next unconsumed opnum per dense request index (starts at 1).
    opnum_next: Vec<u32>,
    /// Open-database-transaction flag per dense request index.
    in_txn: Vec<bool>,
    /// Read-query dedup cache: (log, sql, table epochs) -> result.
    dedup_cache: HashMap<DedupKey, ExecOutcome>,
    /// Memoized sql -> touched tables (queries repeat heavily; parsing
    /// each occurrence would eat the dedup gain).
    touched_tables: HashMap<String, Vec<String>>,
    /// Nondeterminism cursors per dense request index.
    nondet_cursor: Vec<usize>,
    /// Accumulated statistics (including the "DB query" busy time, so
    /// nothing timing-related is threaded beside the stats).
    stats: AuditStats,
}

impl<'a> AuditContext<'a> {
    /// Runs the audit prologue standalone: balance check, report
    /// processing (Fig. 5), nondeterminism validation, and the versioned
    /// store builds — yielding a context ready for re-execution.
    /// `audit()` runs the same prologue; benchmarks and executor tests
    /// use this to drive a [`GroupExecutor`] directly.
    pub fn prepare(
        source: &dyn TraceSource,
        reports: &'a Reports,
        config: &'a AuditConfig,
    ) -> Result<AuditContext<'a>, Rejection> {
        let (_, shared) = prologue(source, reports, config, 1, &mut PhaseTimer::new())?;
        Ok(AuditContext::from_shared(shared))
    }

    pub(crate) fn from_shared(shared: Arc<AuditShared<'a>>) -> Self {
        AuditContext::from_shared_with_carry(shared, AuditCarry::default())
    }

    /// [`AuditContext::from_shared`] resuming from a prior epoch's
    /// carry. The per-request cursor vectors are rebuilt fresh — each
    /// request re-executes exactly once, in the epoch its response
    /// arrives, so its cursors are written and checked within that one
    /// context's lifetime — while the performance caches and counters
    /// persist across epochs.
    pub(crate) fn from_shared_with_carry(shared: Arc<AuditShared<'a>>, carry: AuditCarry) -> Self {
        let x = shared.interner.num_requests();
        AuditContext {
            shared,
            opnum_next: vec![1; x],
            in_txn: vec![false; x],
            dedup_cache: carry.dedup_cache,
            touched_tables: carry.touched_tables,
            nondet_cursor: vec![0; x],
            stats: carry.stats,
        }
    }

    /// Tears the context down to what the streaming audit carries
    /// across an epoch boundary: the dedup cache, the parsed-tables
    /// memo, and the accumulated counters. Everything else — the
    /// per-request cursor vectors and the `Arc` on the shared prologue —
    /// is dropped, which is what lets the driver reclaim exclusive
    /// ownership of the shared state between epochs.
    pub(crate) fn into_carry(self) -> AuditCarry {
        AuditCarry {
            dedup_cache: self.dedup_cache,
            touched_tables: self.touched_tables,
            stats: self.stats,
        }
    }

    /// Resolves a requestID to its dense index — the one hash lookup a
    /// state operation performs; every cursor and OpMap access after it
    /// is flat indexing.
    fn dense(&self, rid: RequestId) -> Option<usize> {
        self.shared.interner.index_of(rid).map(|i| i as usize)
    }

    /// `CheckOp` (Fig. 12 lines 10–15) for non-database operations: the
    /// operation's target object and full operands must match the log
    /// entry the OpMap names.
    fn check_op(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        expect: &OpContents,
    ) -> Result<(usize, usize, SeqNum), Rejection> {
        // A rid outside the trace has no OpMap entries at all; report
        // it the way an empty OpMap row would (opnum cursor at 1).
        let Some(idx) = self.dense(rid) else {
            return Err(Rejection::OpNotInOpMap {
                rid,
                opnum: OpNum(1),
            });
        };
        if self.in_txn[idx] {
            return Err(Rejection::StateOpDuringTxn { rid });
        }
        let opnum = OpNum(self.opnum_next[idx]);
        let (i, s) = self
            .shared
            .opmap
            .get_dense(idx as u32, opnum)
            .ok_or(Rejection::OpNotInOpMap { rid, opnum })?;
        let name = self
            .shared
            .reports
            .op_logs
            .name(i)
            .expect("OpMap indexes valid logs");
        if name != object {
            return Err(Rejection::ObjectMismatch { rid, opnum });
        }
        let entry = self
            .shared
            .reports
            .op_logs
            .log(i)
            .and_then(|l| l.get(s))
            .expect("OpMap points into logs");
        if entry.contents != *expect {
            return Err(Rejection::OpContentsMismatch { rid, opnum });
        }
        Ok((idx, i, s))
    }

    /// Register read: checked, then fed from the latest preceding write
    /// in the log (Fig. 12 lines 19–23), falling back to the initial
    /// state the verifier carries (§4.1).
    pub fn register_read(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
    ) -> Result<SimResult, Rejection> {
        let (idx, i, s) = self.check_op(rid, object, &OpContents::RegisterRead)?;
        let prev = self.shared.reg_prev_write[i]
            .as_ref()
            .expect("prologue builds prev-write indexes for register logs");
        let value = match prev[(s.0 - 1) as usize] {
            Some(widx) => {
                let log = self.shared.reports.op_logs.log(i).expect("checked index");
                match &log.entries()[widx].contents {
                    OpContents::RegisterWrite { value } => Some(value.clone()),
                    _ => unreachable!("prev-write index only records writes"),
                }
            }
            None => self
                .shared
                .config
                .initial_registers
                .get(object.as_str())
                .cloned(),
        };
        self.opnum_next[idx] += 1;
        self.stats.register_ops += 1;
        Ok(SimResult::Register(value))
    }

    /// Register write: checked only (the check validates the logged
    /// value, which earlier reads may already have consumed —
    /// "opportunistic" checking, §3.3).
    pub fn register_write(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        value: Vec<u8>,
    ) -> Result<SimResult, Rejection> {
        let (idx, ..) = self.check_op(rid, object, &OpContents::RegisterWrite { value })?;
        self.opnum_next[idx] += 1;
        self.stats.register_ops += 1;
        Ok(SimResult::None)
    }

    /// Key-value get: checked, then fed from the versioned view
    /// (`kv.Build` + `kv.get(k, s)`, Fig. 12 line 25).
    pub fn kv_get(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        key: &str,
    ) -> Result<SimResult, Rejection> {
        let (idx, i, s) = self.check_op(
            rid,
            object,
            &OpContents::KvGet {
                key: key.to_string(),
            },
        )?;
        let kv = self.shared.versioned_kv[i]
            .as_ref()
            .expect("prologue builds versioned views for kv logs");
        let value = if kv.has_write_before(key, s) {
            kv.get(key, s)
        } else {
            self.shared
                .config
                .initial_kv
                .get(object.as_str())
                .and_then(|m| m.get(key).cloned())
        };
        self.opnum_next[idx] += 1;
        self.stats.kv_ops += 1;
        Ok(SimResult::Kv(value))
    }

    /// Key-value set: checked only.
    pub fn kv_set(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        key: &str,
        value: Option<Vec<u8>>,
    ) -> Result<SimResult, Rejection> {
        let (idx, ..) = self.check_op(
            rid,
            object,
            &OpContents::KvSet {
                key: key.to_string(),
                value,
            },
        )?;
        self.opnum_next[idx] += 1;
        self.stats.kv_ops += 1;
        Ok(SimResult::None)
    }

    /// Opens a database transaction: resolves the OpMap entry that this
    /// operation will consume and validates object and optype. Queries
    /// are then checked one at a time (§A.7).
    pub fn db_begin(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
    ) -> Result<DbTxnHandle, Rejection> {
        let Some(idx) = self.dense(rid) else {
            return Err(Rejection::OpNotInOpMap {
                rid,
                opnum: OpNum(1),
            });
        };
        if self.in_txn[idx] {
            return Err(Rejection::StateOpDuringTxn { rid });
        }
        let opnum = OpNum(self.opnum_next[idx]);
        let (i, s) = self
            .shared
            .opmap
            .get_dense(idx as u32, opnum)
            .ok_or(Rejection::OpNotInOpMap { rid, opnum })?;
        let name = self
            .shared
            .reports
            .op_logs
            .name(i)
            .expect("OpMap indexes valid logs");
        if name != object {
            return Err(Rejection::ObjectMismatch { rid, opnum });
        }
        let entry = self
            .shared
            .reports
            .op_logs
            .log(i)
            .and_then(|l| l.get(s))
            .expect("OpMap points into logs");
        let (total, succeeded) = match &entry.contents {
            OpContents::DbOp {
                queries, succeeded, ..
            } => (queries.len() as u64, *succeeded),
            _ => return Err(Rejection::OpContentsMismatch { rid, opnum }),
        };
        self.in_txn[idx] = true;
        self.stats.db_txns += 1;
        Ok(DbTxnHandle {
            rid,
            opnum,
            obj_index: i,
            seq: s,
            queries_done: 0,
            total_queries: total,
            logged_succeeded: succeeded,
            failed: false,
        })
    }

    /// Checks one query of an open transaction against the log and
    /// simulates its result (reads from the versioned store with
    /// deduplication; writes from the redo-verified logged outcome).
    pub fn db_query(
        &mut self,
        handle: &mut DbTxnHandle,
        sql: &str,
    ) -> Result<DbQueryResult, Rejection> {
        let rid = handle.rid;
        let opnum = handle.opnum;
        if handle.failed {
            // Online, queries past the failure point fail without being
            // logged; mirror that exactly.
            return Ok(DbQueryResult::Failed);
        }
        let q = handle.queries_done + 1;
        if q > handle.total_queries {
            return Err(Rejection::DbTooManyQueries { rid, opnum });
        }
        let entry = self
            .shared
            .reports
            .op_logs
            .log(handle.obj_index)
            .and_then(|l| l.get(handle.seq))
            .expect("handle indexes a validated entry");
        let (queries, write_results) = match &entry.contents {
            OpContents::DbOp {
                queries,
                write_results,
                ..
            } => (queries, write_results),
            _ => unreachable!("db_begin validated the optype"),
        };
        if queries[(q - 1) as usize] != sql {
            return Err(Rejection::DbQueryMismatch {
                rid,
                opnum,
                query: q,
            });
        }
        if write_results.len() != queries.len() {
            // Malformed entry; redo rejects this too, but a hostile log
            // for an object with no DbOp entries can reach here.
            return Err(Rejection::OpContentsMismatch { rid, opnum });
        }
        let logged_write = write_results[(q - 1) as usize];
        handle.queries_done = q;
        self.stats.db_queries += 1;

        let vdb = self
            .shared
            .versioned_db(handle.obj_index)
            .ok_or(Rejection::ObjectMismatch { rid, opnum })?;
        let seq = handle.seq.0;
        if handle.logged_succeeded {
            match logged_write {
                Some(w) => Ok(DbQueryResult::Ok(ExecOutcome::Write(
                    orochi_sqldb::engine::WriteOutcome {
                        affected: w.affected,
                        last_insert_id: w.last_insert_id,
                    },
                ))),
                None => {
                    let ts = seq * MAXQ + q;
                    let t0 = Instant::now();
                    let result = self.dedup_query(handle.obj_index, sql, ts, rid, opnum)?;
                    self.stats.db_query_wall += t0.elapsed();
                    Ok(DbQueryResult::Ok(result))
                }
            }
        } else {
            match logged_write {
                Some(w) => Ok(DbQueryResult::Ok(ExecOutcome::Write(
                    orochi_sqldb::engine::WriteOutcome {
                        affected: w.affected,
                        last_insert_id: w.last_insert_id,
                    },
                ))),
                None => {
                    if let Some(rows) = vdb.aborted_read(seq, q) {
                        Ok(DbQueryResult::Ok(rows.clone()))
                    } else if q == handle.total_queries && vdb.aborted_failed_at_last(seq) {
                        handle.failed = true;
                        Ok(DbQueryResult::Failed)
                    } else {
                        Err(Rejection::DbAbortedReadMissing { rid, opnum })
                    }
                }
            }
        }
    }

    /// Answers a committed SELECT at `ts`, deduplicating by (sql, table
    /// modification epochs) when enabled (§4.5).
    fn dedup_query(
        &mut self,
        obj_index: usize,
        sql: &str,
        ts: u64,
        rid: RequestId,
        opnum: OpNum,
    ) -> Result<ExecOutcome, Rejection> {
        let vdb = self
            .shared
            .versioned_db(obj_index)
            .ok_or(Rejection::ObjectMismatch { rid, opnum })?;
        if !self.shared.config.query_dedup {
            self.stats.db_queries_issued += 1;
            return vdb
                .query_at(sql, ts)
                .map_err(|e| Rejection::ExecFailure(format!("query_at: {e}")));
        }
        let tables = self
            .touched_tables
            .entry(sql.to_string())
            .or_insert_with(|| VersionedDb::touched_tables(sql))
            .clone();
        let epochs: Vec<(String, u64)> = tables
            .into_iter()
            .map(|t| {
                let e = vdb.mod_epoch(&t, ts);
                (t, e)
            })
            .collect();
        let key = (obj_index, sql.to_string(), epochs);
        if let Some(cached) = self.dedup_cache.get(&key) {
            self.stats.db_queries_deduped += 1;
            return Ok(cached.clone());
        }
        self.stats.db_queries_issued += 1;
        let result = vdb
            .query_at(sql, ts)
            .map_err(|e| Rejection::ExecFailure(format!("query_at: {e}")))?;
        self.dedup_cache.insert(key, result.clone());
        Ok(result)
    }

    /// Finishes a transaction. `committed` reflects what the re-executed
    /// program did (`db_commit` vs `db_rollback`); the result is the
    /// value `db_commit` returns to the program.
    pub fn db_finish(&mut self, handle: DbTxnHandle, committed: bool) -> Result<bool, Rejection> {
        let rid = handle.rid;
        let opnum = handle.opnum;
        if handle.queries_done != handle.total_queries {
            return Err(Rejection::DbQueryCountMismatch { rid, opnum });
        }
        let failed = self
            .shared
            .versioned_db(handle.obj_index)
            .ok_or(Rejection::ObjectMismatch { rid, opnum })?
            .aborted_failed_at_last(handle.seq.0);
        let result = if committed {
            if handle.logged_succeeded {
                true
            } else if failed {
                // The program committed, but a statement had failed; the
                // online commit reported failure.
                false
            } else {
                // Log claims a voluntary rollback, but the program
                // committed: inconsistent.
                return Err(Rejection::DbCommitMismatch { rid, opnum });
            }
        } else {
            if handle.logged_succeeded {
                return Err(Rejection::DbCommitMismatch { rid, opnum });
            }
            false
        };
        let idx = self
            .dense(rid)
            .expect("db_begin resolved this request already");
        self.in_txn[idx] = false;
        self.opnum_next[idx] += 1;
        Ok(result)
    }

    /// Records VM instruction-dispatch work done by the executor:
    /// `total` is the dispatch count a fully scalar re-execution would
    /// have paid, `executed` what the (possibly grouped) engine actually
    /// dispatched. The gap is deduplicated re-execution's saving.
    pub fn record_vm_dispatches(&mut self, total: u64, executed: u64) {
        self.stats.vm_dispatch_total += total;
        self.stats.vm_dispatch_executed += executed;
    }

    /// Feeds the next recorded nondeterministic value for `rid`,
    /// checking its kind matches the call site (§4.6).
    pub fn nondet(&mut self, rid: RequestId, kind: &str) -> Result<NondetValue, Rejection> {
        // A rid outside the trace owns no recorded values, so the
        // cursor (0) is already past the end.
        let Some(idx) = self.dense(rid) else {
            return Err(Rejection::NondetExhausted { rid });
        };
        let recorded = self.shared.reports.nondet.for_request(rid);
        let cursor = &mut self.nondet_cursor[idx];
        let value = recorded
            .get(*cursor)
            .ok_or(Rejection::NondetExhausted { rid })?;
        if value.kind() != kind {
            return Err(Rejection::NondetKindMismatch { rid });
        }
        *cursor += 1;
        Ok(value.clone())
    }

    /// Driver-side end-of-request checks: the request must have consumed
    /// exactly `M(rid)` operations (Fig. 12 line 51) and all recorded
    /// nondeterminism.
    fn finish_request(&mut self, rid: RequestId) -> Result<(), Rejection> {
        let idx = self
            .dense(rid)
            .expect("prepared groups only contain trace requests");
        if self.in_txn[idx] {
            return Err(Rejection::StateOpDuringTxn { rid });
        }
        if self.opnum_next[idx] != self.shared.reports.op_count(rid) + 1 {
            return Err(Rejection::OpCountMismatch { rid });
        }
        if self.nondet_cursor[idx] != self.shared.reports.nondet.for_request(rid).len() {
            return Err(Rejection::NondetLeftover { rid });
        }
        Ok(())
    }

    /// Statistics accumulated so far (dedup hits, op counts, ...).
    pub fn stats(&self) -> &AuditStats {
        &self.stats
    }

    /// Resets per-request progress for `rids` so they can be re-executed
    /// from scratch. Used by the grouped executor when a group diverges
    /// and falls back to per-request scalar re-execution (acc-PHP's
    /// retry, §4.3): checks are deterministic and side-effect-free on
    /// the audit state, so a retry re-runs them identically.
    pub fn reset_requests(&mut self, rids: &[RequestId]) {
        for rid in rids {
            if let Some(idx) = self.dense(*rid) {
                self.opnum_next[idx] = 1;
                self.in_txn[idx] = false;
                self.nondet_cursor[idx] = 0;
            }
        }
    }
}

/// The context state one streaming worker slot carries across epoch
/// boundaries: performance caches and counters only. See
/// [`AuditContext::into_carry`].
#[derive(Default)]
pub(crate) struct AuditCarry {
    dedup_cache: HashMap<DedupKey, ExecOutcome>,
    touched_tables: HashMap<String, Vec<String>>,
    pub(crate) stats: AuditStats,
}

impl AuditCarry {
    /// Rough resident size of the carried caches in bytes.
    pub(crate) fn estimated_bytes(&self) -> usize {
        let dedup: usize = self
            .dedup_cache
            .keys()
            .map(|(_, sql, tables)| {
                48 + sql.len() + tables.iter().map(|(t, _)| t.len() + 16).sum::<usize>()
            })
            .sum();
        let tables: usize = self
            .touched_tables
            .iter()
            .map(|(k, v)| k.len() + v.iter().map(String::len).sum::<usize>() + 48)
            .sum();
        dedup + tables
    }
}

/// One control-flow group, filtered and resolved by the deterministic
/// pre-pass: duplicate requests removed, every request known to the
/// trace.
#[derive(Clone)]
pub(crate) struct PreparedGroup {
    pub(crate) tag: CtlFlowTag,
    pub(crate) requests: Vec<(RequestId, HttpRequest)>,
}

/// Deterministic grouping pre-pass: resolves [`Reports::claimed_groups`]
/// against the trace and stops at the first request the trace does not
/// contain. The returned rejection — if any — only fires after every
/// *earlier* prepared group re-executed cleanly, which is exactly when
/// the sequential audit would have reached it.
fn prepare_groups(
    balanced: &BalancedTrace,
    reports: &Reports,
) -> (Vec<PreparedGroup>, Option<Rejection>) {
    let mut out = Vec::new();
    for (tag, rids) in reports.claimed_groups() {
        let mut requests = Vec::with_capacity(rids.len());
        for rid in rids {
            if !balanced.contains(rid) {
                return (out, Some(Rejection::GroupUnknownRequest { rid }));
            }
            requests.push((rid, balanced.request(rid).clone()));
        }
        out.push(PreparedGroup { tag, requests });
    }
    (out, None)
}

/// Re-executes one group — or one piece of it — and runs the per-group
/// driver checks (executor protocol, Fig. 12 line 51 op counts, leftover
/// nondeterminism). Returns the produced outputs; error order within the
/// requests matches the sequential driver exactly.
pub(crate) fn run_one_group(
    executor: &mut dyn GroupExecutor,
    ctx: &mut AuditContext<'_>,
    tag: CtlFlowTag,
    requests: &[(RequestId, HttpRequest)],
) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
    let outputs = executor.execute_group(requests, ctx)?;
    let group_set: HashSet<RequestId> = requests.iter().map(|(r, _)| *r).collect();
    let mut seen: HashSet<RequestId> = HashSet::new();
    for (rid, _) in &outputs {
        if !group_set.contains(rid) {
            return Err(Rejection::ExecutorProtocol(format!(
                "output for {rid} not in group {tag}"
            )));
        }
        if !seen.insert(*rid) {
            return Err(Rejection::ExecutorProtocol(format!(
                "duplicate output for {rid}"
            )));
        }
    }
    for (rid, _) in requests {
        ctx.finish_request(*rid)?;
    }
    ctx.stats.requests_reexecuted += requests.len();
    Ok(outputs)
}

/// How many pieces per worker thread the planner allows the total work
/// to be cut into. A piece then holds at most `1/(4·threads)` of the
/// requests, and Graham's bound for largest-first (LPT) list scheduling
/// — makespan ≤ total/threads + largest piece — puts the pool within
/// 1.25× of a perfect split. A fixed constant, not a knob: finer cuts
/// buy little more balance and re-pay every univalent instruction per
/// piece.
const PIECES_PER_THREAD: usize = 4;

/// Plans the pooled re-execution's work units over groups of `sizes`
/// requests: a group larger than its fair share, `ceil(total/threads)`
/// requests, is cut into contiguous, in-order pieces of at most
/// `ceil(total/(4·threads))` requests (near-equal lengths); every other
/// group stays one piece. Returns `(group index, member range)` in group
/// order, pieces of one group ascending. With `threads <= 1` the fair
/// share is the total, so every group is one piece.
///
/// The plan only moves scheduling: grouped re-execution of a piece runs
/// the same checks on the same members as the whole group would.
pub fn plan_pieces(sizes: &[usize], threads: usize) -> Vec<(usize, Range<usize>)> {
    let threads = threads.max(1);
    let total: usize = sizes.iter().sum();
    let fair = total.div_ceil(threads);
    let cap = total.div_ceil(PIECES_PER_THREAD * threads).max(1);
    let mut plan = Vec::with_capacity(sizes.len());
    for (g, &n) in sizes.iter().enumerate() {
        if n <= fair {
            plan.push((g, 0..n));
            continue;
        }
        let k = n.div_ceil(cap);
        plan.extend((0..k).map(|i| (g, i * n / k..(i + 1) * n / k)));
    }
    plan
}

/// One unit of pooled re-execution: a contiguous, in-order run of one
/// group's members, borrowed from wherever the engine keeps them.
pub(crate) struct Piece<'p> {
    /// The group's index — the precedence key for rejections.
    pub(crate) group: usize,
    pub(crate) tag: CtlFlowTag,
    pub(crate) requests: &'p [(RequestId, HttpRequest)],
}

impl<'p> Piece<'p> {
    /// Resolves a [`plan_pieces`] entry against the groups it planned.
    pub(crate) fn planned(groups: &'p [PreparedGroup], (g, range): (usize, Range<usize>)) -> Self {
        let group = &groups[g];
        Piece {
            group: g,
            tag: group.tag,
            requests: &group.requests[range],
        }
    }
}

/// What one pass of the pool produced.
#[derive(Default)]
pub(crate) struct PoolRun {
    /// Outputs of every piece that passed, in no particular order.
    pub(crate) outputs: Vec<(RequestId, HttpResponse)>,
    /// Indices of the groups a piece failed in, awaiting
    /// [`confirm_failures`].
    pub(crate) failed: BTreeSet<usize>,
    /// Summed worker busy time.
    pub(crate) busy: Duration,
}

impl PoolRun {
    /// Files one piece's outcome: a passing piece's outputs, a failing
    /// piece's group.
    fn record(
        &mut self,
        piece: &Piece<'_>,
        result: Result<Vec<(RequestId, HttpResponse)>, Rejection>,
    ) {
        match result {
            Ok(outputs) => self.outputs.extend(outputs),
            Err(_) => {
                self.failed.insert(piece.group);
            }
        }
    }

    /// Folds another worker's run into this one.
    fn merge(&mut self, other: PoolRun) {
        self.outputs.extend(other.outputs);
        self.failed.extend(other.failed);
        self.busy += other.busy;
    }
}

/// The group re-execution pool both engines share. Each worker runs one
/// body: it pulls pieces off a shared cursor (dynamic load balancing)
/// through one [`AuditContext`] rebuilt from its carry in `carries` (one
/// slot per executor) and torn back into it at the end. Every piece runs
/// — a failure does not stop the pool — so the outcome is independent of
/// schedule order. With one executor (or one piece) that body runs the
/// pieces in plan order on the calling thread; otherwise it is spawned
/// once per worker and the pieces go largest first (LPT).
pub(crate) fn execute_pieces<E: GroupExecutor + Send>(
    shared: &Arc<AuditShared<'_>>,
    pieces: &[Piece<'_>],
    executors: &mut [E],
    carries: &mut [AuditCarry],
) -> PoolRun {
    let group_ns = orochi_obs::registry::histogram("audit_group_ns");
    let workers = executors.len().min(pieces.len()).max(1);
    let mut schedule: Vec<usize> = (0..pieces.len()).collect();
    if workers > 1 {
        schedule.sort_by_key(|&k| std::cmp::Reverse(pieces[k].requests.len()));
    }
    let cursor = AtomicUsize::new(0);
    let work = |w: usize, executor: &mut E, carry: &mut AuditCarry| {
        let t0 = Instant::now();
        let lane =
            orochi_obs::enabled().then(|| orochi_obs::journal::lane(&format!("audit-worker-{w}")));
        let prior = std::mem::take(carry);
        let mut ctx = AuditContext::from_shared_with_carry(Arc::clone(shared), prior);
        let mut run = PoolRun::default();
        while let Some(&k) = schedule.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let piece = &pieces[k];
            let span = lane.and_then(|l| orochi_obs::span_timed(l, "group", group_ns));
            let result = run_one_group(&mut *executor, &mut ctx, piece.tag, piece.requests);
            drop(span);
            run.record(piece, result);
        }
        *carry = ctx.into_carry();
        run.busy = t0.elapsed();
        run
    };
    if workers == 1 {
        return work(0, &mut executors[0], &mut carries[0]);
    }
    let merged: Mutex<PoolRun> = Mutex::new(PoolRun::default());
    crossbeam::thread::scope(|s| {
        let slots = executors.iter_mut().zip(carries.iter_mut()).take(workers);
        for (w, (executor, carry)) in slots.enumerate() {
            let (work, merged) = (&work, &merged);
            s.spawn(move |_| {
                let local = work(w, executor, carry);
                merged.lock().expect("pool results poisoned").merge(local);
            });
        }
    })
    .expect("audit worker pool");
    merged.into_inner().expect("pool results poisoned")
}

/// The one confirmation rule both engines settle pool failures with.
/// Each group in `failed`, in ascending index, is re-run whole — members
/// from `whole_group` — on a fresh [`AuditContext`], which reproduces the
/// sequential walk's member order (a piece may have tripped on a
/// different member first). The first confirmed rejection is returned.
/// A group that passes whole hands its outputs to `adopt`, superseding
/// whatever its passing pieces produced.
pub(crate) fn confirm_failures<'p>(
    shared: &Arc<AuditShared<'_>>,
    failed: impl IntoIterator<Item = usize>,
    executor: &mut dyn GroupExecutor,
    mut whole_group: impl FnMut(usize) -> Result<Cow<'p, PreparedGroup>, Rejection>,
    mut adopt: impl FnMut(usize, Vec<(RequestId, HttpResponse)>) -> Result<(), Rejection>,
) -> Result<(), Rejection> {
    for g in failed {
        let group = whole_group(g)?;
        let mut ctx = AuditContext::from_shared(Arc::clone(shared));
        adopt(
            g,
            run_one_group(executor, &mut ctx, group.tag, &group.requests)?,
        )?;
    }
    Ok(())
}

/// Phase 5: the produced outputs must be exactly the responses in the
/// trace (Fig. 12 line 55).
fn compare_outputs(
    balanced: &BalancedTrace,
    produced: &HashMap<RequestId, HttpResponse>,
) -> Result<(), Rejection> {
    for rid in balanced.request_ids() {
        match produced.get(&rid) {
            None => return Err(Rejection::MissingOutput { rid }),
            Some(resp) => {
                if resp != balanced.response(rid) {
                    return Err(Rejection::OutputMismatch { rid });
                }
            }
        }
    }
    Ok(())
}

/// The one place every engine's verdict is assembled: folds the worker
/// `carries` into the counters, fills the re-execution phase rows from
/// the summed worker busy time `reexec_busy`, adds the redo statistics
/// and store sizes, and mirrors the phase walls and counters into the
/// telemetry registry — the single write point, so fig9 consumers can
/// read either the per-run `PhaseTimer` or the process-wide metrics
/// and see the same accounting. `groups` is the prepared-group count:
/// every engine reports one executed group per prepared group, however
/// the pool cut them into pieces or the stream into sub-groups.
pub(crate) fn assemble_outcome(
    shared: &AuditShared<'_>,
    carries: &[AuditCarry],
    reexec_busy: Duration,
    mut phases: PhaseTimer,
    groups: usize,
) -> AuditOutcome {
    // Counter sums are order-independent, so the merged statistics are
    // deterministic even though workers finish in arbitrary order.
    let mut stats = AuditStats::default();
    for carry in carries {
        stats.absorb(&carry.stats);
    }
    // Phase rows keep Fig. 9's CPU-decomposition meaning: summed worker
    // busy time, not wall time, split into the DB-query share and the
    // rest of re-execution.
    phases.add("DB query", stats.db_query_wall);
    phases.add("ReExec", reexec_busy.saturating_sub(stats.db_query_wall));
    stats.groups_executed = groups;
    stats.phases = phases;
    stats.graph_nodes = shared.graph_nodes;
    stats.graph_edges = shared.graph_edges;
    stats.graph_build = shared.graph_build;
    for vdb in shared.versioned_dbs.iter().flatten() {
        let s = vdb.stats();
        stats.redo.transactions += s.transactions;
        stats.redo.queries += s.queries;
        stats.redo.versions_created += s.versions_created;
        stats.redo.aborted += s.aborted;
        stats.db_versioned_bytes += vdb.estimated_bytes();
        stats.db_final_bytes += vdb.latest_snapshot().estimated_bytes();
    }
    mirror_stats_into_registry(&stats);
    AuditOutcome { stats }
}

/// Known fig9 phase rows and their registry counter names. Phase rows
/// outside this set (none today) would fall back to a slugged name.
fn phase_counter_name(phase: &str) -> Option<&'static str> {
    Some(match phase {
        "Balance" => "audit_phase_balance_ns",
        "ProcOpRep" => "audit_phase_procoprep_ns",
        "DB redo" => "audit_phase_db_redo_ns",
        "DB query" => "audit_phase_db_query_ns",
        "ReExec" => "audit_phase_reexec_ns",
        "Output" => "audit_phase_output_ns",
        _ => return None,
    })
}

fn mirror_stats_into_registry(stats: &AuditStats) {
    use orochi_obs::registry;
    for (phase, d) in stats.phases.iter() {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        match phase_counter_name(phase) {
            Some(name) => registry::counter(name).add(ns),
            None => {
                let slug: String = phase
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() {
                            c.to_ascii_lowercase()
                        } else {
                            '_'
                        }
                    })
                    .collect();
                registry::counter_owned(&format!("audit_phase_{slug}_ns")).add(ns);
            }
        }
    }
    registry::counter("audit_groups_executed_total").add(stats.groups_executed as u64);
    registry::counter("audit_requests_reexecuted_total").add(stats.requests_reexecuted as u64);
    registry::counter("vm_dispatch_represented_total").add(stats.vm_dispatch_total);
    registry::counter("vm_dispatch_executed_total").add(stats.vm_dispatch_executed);
}

impl Rejection {
    /// Splits a trace-read failure into its two audit meanings: a
    /// balance violation is a verdict (the executor misbehaved), a
    /// storage failure is an audit-infrastructure error.
    fn from_read(e: TraceReadError) -> Rejection {
        match e {
            TraceReadError::Balance(e) => Rejection::Unbalanced(e),
            TraceReadError::Store(e) => Rejection::TraceStore(e),
        }
    }
}

/// Runs phases 1–3 (balance, ProcessOpReports + nondeterminism sanity,
/// versioned store builds), timing each.
///
/// The trace arrives as a [`TraceSource`] so batch-from-RAM and
/// replay-from-cold-storage share this code path. A source that already
/// holds a materialized [`BalancedTrace`] is borrowed as-is; anything
/// else is replayed through [`BalancedTrace::from_source`].
fn prologue<'t, 'a>(
    source: &'t dyn TraceSource,
    reports: &'a Reports,
    config: &'a AuditConfig,
    threads: usize,
    phases: &mut PhaseTimer,
) -> Result<(Cow<'t, BalancedTrace>, Arc<AuditShared<'a>>), Rejection> {
    // Phase 1: balanced-trace validation (§3). Replaying from a store
    // also covers decode + integrity checks here.
    let balanced = phases
        .time("Balance", || match source.as_balanced() {
            Some(balanced) => Ok(Cow::Borrowed(balanced)),
            None => BalancedTrace::from_source(source).map(Cow::Owned),
        })
        .map_err(Rejection::from_read)?;

    // Phase 2: ProcessOpReports (Fig. 5) + nondeterminism sanity (§4.6).
    let (graph, opmap) = phases.time("ProcOpRep", || {
        process_op_reports_with(&balanced, reports, threads)
    })?;
    reports
        .nondet
        .validate()
        .map_err(Rejection::NondetInvalid)?;

    // Phase 3: versioned store builds — the §4.5 redo pass plus the kv
    // views and register prev-write indexes — sharded by object when a
    // pool is available.
    let mut shared = phases.time("DB redo", || {
        AuditShared::build(reports, opmap, config, threads)
    })?;
    shared.record_graph(&graph);
    Ok((balanced, Arc::new(shared)))
}

/// Runs the full audit (`SSCO_AUDIT2`, Fig. 12) over any
/// [`TraceSource`]: the in-memory [`orochi_trace::Trace`], a
/// pre-balanced replay, or a [`orochi_trace::TraceStoreReader`] that
/// streams sealed on-disk segments. Verdicts and diagnostics are
/// byte-identical across sources holding the same events.
///
/// Returns statistics on acceptance; rejects with a precise reason
/// otherwise. Groups are re-executed one at a time, stopping at the
/// first failure — the sequential reference the pooled
/// [`audit_parallel_source`] and the streaming engine are held to.
pub fn audit(
    source: &dyn TraceSource,
    reports: &Reports,
    executor: &mut dyn GroupExecutor,
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    let mut phases = PhaseTimer::new();
    let (balanced, shared) = prologue(source, reports, config, 1, &mut phases)?;
    let (prepared, pre_error) = prepare_groups(&balanced, reports);
    reexec_sequential(&balanced, &shared, &prepared, pre_error, executor, phases)
}

/// The sequential re-execution tail shared by [`audit`] and the
/// one-executor case of [`audit_parallel_source`].
fn reexec_sequential(
    balanced: &BalancedTrace,
    shared: &Arc<AuditShared<'_>>,
    prepared: &[PreparedGroup],
    pre_error: Option<Rejection>,
    executor: &mut dyn GroupExecutor,
    mut phases: PhaseTimer,
) -> Result<AuditOutcome, Rejection> {
    let mut ctx = AuditContext::from_shared(Arc::clone(shared));
    let mut produced: HashMap<RequestId, HttpResponse> = HashMap::new();
    let lane = orochi_obs::enabled().then(|| orochi_obs::journal::lane("audit-worker-0"));
    let group_ns = orochi_obs::registry::histogram("audit_group_ns");
    let reexec_t0 = Instant::now();
    for group in prepared {
        let span = lane.and_then(|l| orochi_obs::span_timed(l, "group", group_ns));
        let outputs = run_one_group(executor, &mut ctx, group.tag, &group.requests)?;
        drop(span);
        produced.extend(outputs);
    }
    if let Some(rejection) = pre_error {
        // The grouping pre-pass found a request the trace does not
        // contain; every group before it re-executed cleanly, so this is
        // the first error the sequential walk reaches.
        return Err(rejection);
    }
    let reexec_busy = reexec_t0.elapsed();

    let output_check = Instant::now();
    compare_outputs(balanced, &produced)?;
    phases.add("Output", output_check.elapsed());

    let carry = ctx.into_carry();
    Ok(assemble_outcome(
        shared,
        std::slice::from_ref(&carry),
        reexec_busy,
        phases,
        prepared.len(),
    ))
}

/// Runs the full audit over any [`TraceSource`] (see [`audit`]) with
/// group re-execution fanned out across `executors.len()` worker threads
/// (one [`GroupExecutor`] and one [`AuditContext`] per worker over a
/// single shared prologue).
///
/// Verdicts and failure diagnostics are byte-identical to [`audit`]:
/// groups are fixed up front by the same deterministic pre-pass and cut
/// into pieces by [`plan_pieces`]; every piece runs, and failed groups
/// are confirmed whole in ascending group index, so the rejection
/// reported is the first the sequential walk would have hit. Scheduling
/// only moves performance counters (the dedup hit/miss split, and the
/// dispatch counts of split groups).
///
/// With a single executor the sequential path runs directly and no
/// threads are spawned.
///
/// # Panics
///
/// Panics if `executors` is empty.
pub fn audit_parallel_source<E: GroupExecutor + Send>(
    source: &dyn TraceSource,
    reports: &Reports,
    executors: &mut [E],
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    assert!(
        !executors.is_empty(),
        "audit_parallel_source requires at least one executor"
    );
    let threads = executors.len();
    let mut phases = PhaseTimer::new();
    let (balanced, shared) = prologue(source, reports, config, threads, &mut phases)?;
    let (prepared, pre_error) = prepare_groups(&balanced, reports);
    if threads == 1 {
        return reexec_sequential(
            &balanced,
            &shared,
            &prepared,
            pre_error,
            &mut executors[0],
            phases,
        );
    }

    // Phase 4, pooled: pieces of the prepared groups across the pool,
    // then the shared confirmation rule over the failed groups.
    let sizes: Vec<usize> = prepared.iter().map(|g| g.requests.len()).collect();
    let pieces: Vec<Piece<'_>> = plan_pieces(&sizes, threads)
        .into_iter()
        .map(|planned| Piece::planned(&prepared, planned))
        .collect();
    let mut carries: Vec<AuditCarry> = (0..threads).map(|_| AuditCarry::default()).collect();
    let run = execute_pieces(&shared, &pieces, executors, &mut carries);
    // Rids are disjoint across prepared groups and duplicate outputs
    // within a piece were already rejected, so inserts cannot clash.
    let mut produced: HashMap<RequestId, HttpResponse> = run.outputs.into_iter().collect();
    confirm_failures(
        &shared,
        run.failed,
        &mut executors[0],
        |g| Ok(Cow::Borrowed(&prepared[g])),
        |g, outputs| {
            for (rid, _) in &prepared[g].requests {
                produced.remove(rid);
            }
            produced.extend(outputs);
            Ok(())
        },
    )?;
    if let Some(rejection) = pre_error {
        return Err(rejection);
    }

    let output_check = Instant::now();
    compare_outputs(&balanced, &produced)?;
    phases.add("Output", output_check.elapsed());

    Ok(assemble_outcome(
        &shared,
        &carries,
        run.busy,
        phases,
        prepared.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FnExecutor;
    use orochi_trace::{Event, Trace};

    /// A trace of `n` state-free requests, each answered "ok".
    fn stateless_trace(n: u64) -> Trace {
        let mut events = Vec::new();
        for r in 1..=n {
            let rid = RequestId(r);
            events.push(Event::Request(rid, HttpRequest::get("/x", &[])));
            events.push(Event::Response(rid, HttpResponse::ok(rid, "ok")));
        }
        Trace { events }
    }

    #[test]
    fn piece_rejection_defers_to_the_whole_group_run() {
        // One eight-member group plus a singleton: at two threads the
        // group exceeds its fair share (5 of 9) and is cut into pieces
        // of at most ceil(9/8) = 2 members.
        let trace = stateless_trace(9);
        let mut reports = Reports::new();
        reports
            .groupings
            .push((CtlFlowTag(1), (1..=8).map(RequestId).collect()));
        reports.groupings.push((CtlFlowTag(2), vec![RequestId(9)]));
        let planned = plan_pieces(&[8, 1], 2);
        assert!(planned.iter().filter(|(g, _)| *g == 0).count() > 1);

        // An executor that rejects any strict piece of the big group
        // but passes it whole.
        let make = || {
            FnExecutor::new(
                |requests: &[(RequestId, HttpRequest)], _ctx: &mut AuditContext<'_>| {
                    if (2..8).contains(&requests.len()) {
                        return Err(Rejection::ExecFailure("piece".into()));
                    }
                    Ok(requests
                        .iter()
                        .map(|(rid, _)| (*rid, HttpResponse::ok(*rid, "ok")))
                        .collect())
                },
            )
        };
        let config = AuditConfig::new();
        let sequential = audit(&trace, &reports, &mut make(), &config);
        let mut pool = vec![make(), make()];
        let pooled = audit_parallel_source(&trace, &reports, &mut pool, &config);
        let (sequential, pooled) = (sequential.unwrap(), pooled.unwrap());
        assert_eq!(sequential.stats.groups_executed, 2);
        assert_eq!(pooled.stats.groups_executed, 2);
    }
}
