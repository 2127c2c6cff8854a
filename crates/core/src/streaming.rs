//! The streaming epoch audit: bounded-memory audit over sealed epochs.
//!
//! The batch audit ([`crate::audit::audit_parallel_source`])
//! materializes the whole balanced trace before phase 2 begins, so the
//! auditor's peak memory is O(trace). This module re-runs the same phases
//! *incrementally* over **epochs** — bounded runs of trace events pulled
//! from any [`TraceSource`] via `stream_events_from` — carrying only:
//!
//! * the dense requestID interner and per-request `responded` bits
//!   ([`StreamingBalance`] — the §3 balance scan, one event at a time);
//! * the [`OpMap`] tables, grown one request row at a time from per-rid
//!   log-entry lists precomputed off the (resident) reports;
//! * request payloads of *open* control-flow-group members (dropped the
//!   moment the member re-executes);
//! * a two-bit output verdict per request (none/match/mismatch), so the
//!   phase-5 comparison never needs the response payloads again;
//! * the per-worker dedup caches and counters
//!   ([`crate::audit::AuditContext`] carry).
//!
//! Event payloads are never retained beyond their epoch; the versioned
//! stores are built once up front from the reports alone (they are
//! trace-independent), exactly as the batch prologue builds them.
//!
//! # Same code path, same verdicts
//!
//! Every check runs through the batch audit's own functions:
//! [`StreamingBalance`] mirrors the balance scan check-for-check, the
//! final report validation is literally
//! [`process_op_reports_interned`] (the batch pass minus the trace
//! materialization), store builds and group re-execution reuse
//! [`mod@crate::audit`]'s internals. Verdicts and diagnostics are
//! byte-identical to [`crate::audit::audit_parallel_source`] at every
//! thread count and epoch budget — including rejecting runs — by the
//! following precedence reconstruction at [`StreamingAudit::finish`]:
//!
//! 1. any balance violation (in-stream, or an unresponded request);
//! 2. the full Fig. 5 report validation over the final interner;
//! 3. the nondeterminism sanity check (validated up front, deferred);
//! 4. the §4.5 redo pass (built up front, deferred);
//! 5. the lowest-indexed failed control-flow group **before the
//!    grouping cut**, confirmed by re-executing that whole group
//!    against the final state (sub-group re-execution may surface a
//!    different member's diagnostic first; the confirmation run
//!    reproduces the batch walk's member order exactly);
//! 6. the grouping pre-pass rejection at the cut, if any;
//! 7. the first output mismatch in arrival order.
//!
//! Groups are *planned optimistically* ([`Reports::claimed_groups`]
//! without the trace-membership check). Before the cut — the first
//! grouping entry naming a request the trace never contained — the
//! optimistic plan equals the batch prepared groups exactly; anything at
//! or past the cut may re-execute speculatively but can never influence
//! the verdict, because step 6 fires first.
//!
//! Each epoch executes the **sub-groups** of members whose responses
//! arrived in that epoch (in within-group order) through the batch
//! audit's own planner and pool: [`plan_pieces`] cuts any sub-group
//! larger than its fair share of the epoch into pieces, and every piece
//! runs. Step 5's confirmation is the batch audit's confirmation rule
//! (`confirm_failures`), fed whole groups re-read from the source.
//! The per-epoch carry size is published to the `audit_carry_bytes`
//! gauge and every epoch bumps `audit_epochs_total` and records
//! seal→verdict lag ([`orochi_obs::lag::mark_epoch`]).

use crate::audit::{
    assemble_outcome, confirm_failures, execute_pieces, plan_pieces, AuditCarry, AuditConfig,
    AuditOutcome, AuditShared, Piece, PreparedGroup, Rejection,
};
use crate::exec::GroupExecutor;
use crate::graph::{process_op_reports_interned, OpMap};
use crate::reports::Reports;
use orochi_common::ids::{CtlFlowTag, OpNum, RequestId, SeqNum};
use orochi_common::metrics::PhaseTimer;
use orochi_obs::LazyHistogram;
use orochi_trace::record::{BalanceError, DenseEvent, RidInterner, StreamingBalance};
use orochi_trace::{Event, HttpRequest, HttpResponse, TraceSource};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time per streaming epoch (ingest + incremental fill +
/// sub-group re-execution).
static EPOCH_NS: LazyHistogram = LazyHistogram::new("audit_epoch_ns");

/// Rough heap size of a request payload, mirroring the trace store's
/// segment-budget estimate; used only for carry accounting.
fn request_bytes(req: &HttpRequest) -> usize {
    fn pairs(p: &[(String, String)]) -> usize {
        p.iter().map(|(k, v)| k.len() + v.len() + 4).sum::<usize>() + 2
    }
    12 + req.method.len()
        + req.path.len()
        + pairs(&req.query)
        + pairs(&req.post)
        + pairs(&req.cookies)
}

/// One epoch's work unit: the members of one planned group whose
/// responses arrived this epoch, in within-group order.
struct SubGroup {
    /// Planned-group index.
    group: usize,
    tag: CtlFlowTag,
    requests: Vec<(RequestId, HttpRequest)>,
    /// Per member: dense index and the traced response to compare
    /// against.
    expected: Vec<(u32, HttpResponse)>,
}

/// Output-comparison state per dense request index.
const OUT_NONE: u8 = 0;
const OUT_MATCH: u8 = 1;
const OUT_MISMATCH: u8 = 2;

/// The push-based streaming audit driver. Feed sealed epochs with
/// [`StreamingAudit::feed_epoch`]; settle the verdict with
/// [`StreamingAudit::finish`]. [`audit_streaming_source`] wraps both
/// behind a pull loop over any [`TraceSource`].
pub struct StreamingAudit<'a> {
    reports: &'a Reports,
    threads: usize,
    sb: StreamingBalance,
    /// The batch prologue's products, built up front (store builds are
    /// trace-independent). `None` when the up-front validation already
    /// settled a deferred rejection.
    shared: Option<AuditShared<'a>>,
    /// NondetInvalid or Redo from the up-front pass, reported at
    /// [`StreamingAudit::finish`] in batch precedence order.
    deferred: Option<Rejection>,
    /// First in-stream balance violation; outranks everything.
    balance_error: Option<BalanceError>,
    /// Optimistic grouping plan: rid -> (group index, within-group
    /// position), plus the tag and claimed member list per group.
    member_of: HashMap<RequestId, (u32, u32)>,
    group_tags: Vec<CtlFlowTag>,
    group_members: Vec<Vec<RequestId>>,
    /// Per-rid `(log index, seqnum, opnum)` entries, precomputed from
    /// the resident reports for the incremental OpMap fill.
    log_entries: HashMap<RequestId, Vec<(u32, SeqNum, OpNum)>>,
    /// Open group members' request payloads by dense index (taken at
    /// re-execution, dropped unexecuted if the group already failed).
    pending_req: Vec<Option<HttpRequest>>,
    pending_bytes: usize,
    /// Phase-5 verdict per dense index (OUT_*).
    out_state: Vec<u8>,
    /// One carry per worker slot, persisted across epochs.
    carries: Vec<AuditCarry>,
    /// Failed planned groups. Only entries below the finish-time cut
    /// can reach the verdict, and each is confirmed by a whole-group
    /// re-run first.
    failed: BTreeSet<usize>,
    phases: PhaseTimer,
    reexec_busy: Duration,
    epochs: u64,
    done: bool,
    lane: Option<orochi_obs::LaneId>,
}

impl<'a> StreamingAudit<'a> {
    /// Builds the trace-independent half of the prologue (nondet
    /// sanity, versioned stores, grouping plan, per-rid log index) and
    /// an empty carry set for `threads` workers.
    pub fn new(reports: &'a Reports, config: &'a AuditConfig, threads: usize) -> Self {
        let threads = threads.max(1);
        let mut phases = PhaseTimer::new();
        // Batch precedence within the up-front pass: the nondet sanity
        // check precedes the store builds, so at most one deferred
        // rejection exists and it is the one the batch prologue would
        // reach first (after balance + report validation).
        let (shared, deferred) = match reports.nondet.validate() {
            Err(rid) => (None, Some(Rejection::NondetInvalid(rid))),
            Ok(()) => {
                let built = phases.time("DB redo", || {
                    AuditShared::build(reports, OpMap::streaming_empty(), config, threads)
                });
                match built {
                    Ok(shared) => (Some(shared), None),
                    Err(rejection) => (None, Some(rejection)),
                }
            }
        };
        // Optimistic grouping plan: the claimed groups without the
        // trace-membership check (the trace is unknown until the stream
        // ends). Identical to the batch prepared groups up to the cut.
        let (group_tags, group_members): (Vec<CtlFlowTag>, Vec<Vec<RequestId>>) =
            reports.claimed_groups().unzip();
        let mut member_of = HashMap::new();
        for (g, members) in group_members.iter().enumerate() {
            for (pos, rid) in members.iter().enumerate() {
                member_of.insert(*rid, (g as u32, pos as u32));
            }
        }
        // Per-rid log entries in log order: restricted to one rid, the
        // order matches the batch CheckLogs walk, so first-claim-wins
        // slot filling reproduces the batch OpMap whenever the final
        // report validation accepts.
        let mut log_entries: HashMap<RequestId, Vec<(u32, SeqNum, OpNum)>> = HashMap::new();
        for (i, _name, log) in reports.op_logs.iter() {
            for (seq, entry) in log.iter() {
                log_entries
                    .entry(entry.rid)
                    .or_default()
                    .push((i as u32, seq, entry.opnum));
            }
        }
        StreamingAudit {
            reports,
            threads,
            sb: StreamingBalance::new(),
            shared,
            deferred,
            balance_error: None,
            member_of,
            group_tags,
            group_members,
            log_entries,
            pending_req: Vec::new(),
            pending_bytes: 0,
            out_state: Vec::new(),
            carries: Vec::new(),
            failed: BTreeSet::new(),
            phases,
            reexec_busy: Duration::ZERO,
            epochs: 0,
            done: false,
            lane: orochi_obs::enabled().then(|| orochi_obs::journal::lane("audit-stream")),
        }
    }

    /// Epochs fed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Bytes of state carried across the next epoch boundary: the
    /// interner + balance bits, the OpMap tables, open members' request
    /// payloads, the output bitmap, and the worker carry caches.
    pub fn carry_bytes(&self) -> usize {
        self.sb.estimated_bytes()
            + self.shared.as_ref().map_or(0, |s| s.opmap_bytes())
            + self.pending_bytes
            + self.out_state.len()
            + self
                .carries
                .iter()
                .map(AuditCarry::estimated_bytes)
                .sum::<usize>()
    }

    /// Feeds one sealed epoch of events (in trace order) and runs the
    /// sub-groups it completes across `executors`. Returns `false` once
    /// the verdict can no longer change (an in-stream balance
    /// violation), meaning the caller may stop feeding.
    pub fn feed_epoch<E: GroupExecutor + Send>(
        &mut self,
        events: &[Event],
        executors: &mut [E],
    ) -> bool {
        assert!(
            !executors.is_empty(),
            "streaming audit requires at least one executor"
        );
        if self.done {
            return false;
        }
        self.epochs += 1;
        if self.carries.len() < executors.len() {
            self.carries
                .resize_with(executors.len(), AuditCarry::default);
        }
        let span = self
            .lane
            .and_then(|l| orochi_obs::span_timed(l, "epoch", EPOCH_NS.get()));

        // Reclaim exclusive ownership of the interner for the balance
        // scan: the shared state parks a placeholder during ingest.
        if let Some(shared) = self.shared.as_mut() {
            shared.set_interner(RidInterner::empty());
        }

        // ---- Ingest: the §3 balance scan, one event at a time. -------
        let balance_t0 = Instant::now();
        let mut new_requests: Vec<u32> = Vec::new();
        let mut responses: Vec<(u32, HttpResponse)> = Vec::new();
        for event in events {
            match self.sb.push(event) {
                Err(e) => {
                    // Balance violations outrank every other rejection;
                    // nothing later in the stream can change the
                    // verdict, so re-execution stops here too.
                    self.balance_error = Some(e);
                    self.done = true;
                    break;
                }
                Ok(DenseEvent::Request(idx)) => {
                    debug_assert_eq!(idx as usize, self.out_state.len());
                    self.out_state.push(OUT_NONE);
                    self.pending_req.push(None);
                    new_requests.push(idx);
                    if let Event::Request(rid, req) = event {
                        if self.member_of.contains_key(rid) {
                            self.pending_bytes += request_bytes(req);
                            self.pending_req[idx as usize] = Some(req.clone());
                        }
                    }
                }
                Ok(DenseEvent::Response(idx)) => {
                    if let Event::Response(rid, resp) = event {
                        if self.member_of.contains_key(rid) {
                            responses.push((idx, resp.clone()));
                        }
                    }
                }
            }
        }
        self.phases.add("Balance", balance_t0.elapsed());

        if self.balance_error.is_none() && self.shared.is_some() {
            self.fill_and_execute(&new_requests, responses, executors);
        }

        drop(span);
        orochi_obs::lag::mark_epoch(self.carry_bytes() as u64);
        !self.done
    }

    /// The post-ingest half of one epoch: re-point the canonical
    /// interner, grow the OpMap rows for this epoch's arrivals, and
    /// re-execute the completed sub-groups.
    fn fill_and_execute<E: GroupExecutor + Send>(
        &mut self,
        new_requests: &[u32],
        responses: Vec<(u32, HttpResponse)>,
        executors: &mut [E],
    ) {
        let interner = Arc::clone(self.sb.interner());
        let shared = self.shared.as_mut().expect("checked by caller");
        let proc_t0 = Instant::now();
        shared.set_interner(Arc::clone(&interner));
        let opmap = shared.opmap_mut();
        for &idx in new_requests {
            let rid = interner.rid(idx);
            opmap.append_request(self.reports.op_count(rid));
            if let Some(entries) = self.log_entries.get(&rid) {
                for &(i, seq, opnum) in entries {
                    // Lenient fill: a bad entry here is the reports'
                    // fault, and the finish-time full validation
                    // reports it with batch precedence.
                    opmap.fill_slot(idx, opnum, i, seq);
                }
            }
        }
        self.phases.add("ProcOpRep", proc_t0.elapsed());

        // ---- Sub-group formation: members completed this epoch. ------
        let mut by_group: BTreeMap<u32, Vec<(u32, u32, HttpResponse)>> = BTreeMap::new();
        for (idx, resp) in responses {
            let rid = interner.rid(idx);
            let &(g, pos) = self.member_of.get(&rid).expect("stashed members only");
            if self.failed.contains(&(g as usize)) {
                // The group already failed; its later members never
                // execute (their fate rides on the finish-time
                // confirmation run). Release the payload now.
                if let Some(req) = self.pending_req[idx as usize].take() {
                    self.pending_bytes -= request_bytes(&req);
                }
                continue;
            }
            by_group.entry(g).or_default().push((pos, idx, resp));
        }
        let mut subgroups: Vec<SubGroup> = Vec::with_capacity(by_group.len());
        for (g, mut members) in by_group {
            members.sort_by_key(|&(pos, ..)| pos);
            let mut requests = Vec::with_capacity(members.len());
            let mut expected = Vec::with_capacity(members.len());
            for (_, idx, resp) in members {
                let req = self.pending_req[idx as usize]
                    .take()
                    .expect("claimed member holds its payload until execution");
                self.pending_bytes -= request_bytes(&req);
                requests.push((interner.rid(idx), req));
                expected.push((idx, resp));
            }
            subgroups.push(SubGroup {
                group: g as usize,
                tag: self.group_tags[g as usize],
                requests,
                expected,
            });
        }
        if subgroups.is_empty() {
            return;
        }

        // ---- Re-execution: the batch planner and pool over this
        // epoch's sub-groups.
        let sizes: Vec<usize> = subgroups.iter().map(|sub| sub.requests.len()).collect();
        let pieces: Vec<Piece<'_>> = plan_pieces(&sizes, executors.len())
            .into_iter()
            .map(|(k, range)| Piece {
                group: subgroups[k].group,
                tag: subgroups[k].tag,
                requests: &subgroups[k].requests[range],
            })
            .collect();
        let shared_arc = Arc::new(self.shared.take().expect("checked by caller"));
        let run = execute_pieces(&shared_arc, &pieces, executors, &mut self.carries);
        self.reexec_busy += run.busy;
        self.shared = Some(
            Arc::try_unwrap(shared_arc)
                .ok()
                .expect("worker contexts release the shared prologue"),
        );

        // Outputs of a failed group's passing pieces are recorded too;
        // they are superseded if the group's confirmation run passes,
        // and unobservable if it rejects.
        self.failed.extend(run.failed);
        let produced: HashMap<RequestId, HttpResponse> = run.outputs.into_iter().collect();
        for (idx, expected_resp) in subgroups.iter().flat_map(|sub| &sub.expected) {
            if let Some(resp) = produced.get(&interner.rid(*idx)) {
                self.out_state[*idx as usize] = if resp == expected_resp {
                    OUT_MATCH
                } else {
                    OUT_MISMATCH
                };
            }
        }
    }

    /// Settles the verdict, reconstructing batch precedence (see the
    /// module docs). `source` is only re-read on the rejection path, to
    /// collect the payloads a failed group's confirmation run needs.
    pub fn finish<E: GroupExecutor + Send>(
        mut self,
        source: &dyn TraceSource,
        executors: &mut [E],
    ) -> Result<AuditOutcome, Rejection> {
        // 1. Balance: the in-stream violation, or the first request in
        // arrival order left without a response.
        if let Some(e) = self.balance_error.take() {
            return Err(Rejection::Unbalanced(e));
        }
        if let Some(rid) = self.sb.first_unresponded() {
            return Err(Rejection::Unbalanced(BalanceError::RequestWithoutResponse(
                rid,
            )));
        }

        // 2. The full Fig. 5 validation over the final interner — the
        // batch code path itself, so diagnostics match exactly. On
        // success the freshly built OpMap replaces the incrementally
        // grown one (identical by construction) for the confirmation
        // runs below.
        let interner = Arc::clone(self.sb.interner());
        let reports = self.reports;
        let threads = self.threads;
        if let Some(shared) = self.shared.as_mut() {
            // The incrementally grown OpMap is about to be superseded by
            // the freshly validated one; release it first so the two
            // never coexist at the streaming audit's peak.
            shared.replace_opmap(OpMap::streaming_empty());
        }
        let (graph, opmap) = self
            .phases
            .time("ProcOpRep", || {
                process_op_reports_interned(&interner, reports, threads)
            })
            .map_err(Rejection::Graph)?;
        if let Some(shared) = self.shared.as_mut() {
            shared.replace_opmap(opmap);
            shared.record_graph(&graph);
        }

        // 3./4. The deferred nondet or redo rejection.
        if let Some(rejection) = self.deferred.take() {
            return Err(rejection);
        }
        let shared = Arc::new(self.shared.take().expect("no deferred rejection"));

        // 5./6. The grouping cut: the claimed groups with the
        // trace-membership check the optimistic plan skipped.
        let (cut_groups, pre_error) = self.grouping_cut(&interner);

        // 5. Confirm failed groups below the cut, lowest index first:
        // the batch confirmation rule, over whole groups re-read from
        // the source.
        let failed = std::mem::take(&mut self.failed);
        let (group_tags, group_members) = (&self.group_tags, &self.group_members);
        let out_state = &mut self.out_state;
        confirm_failures(
            &shared,
            failed.range(..cut_groups).copied(),
            &mut executors[0],
            |g| whole_group(source, group_tags[g], &group_members[g]).map(Cow::Owned),
            |g, outputs| {
                // The whole-group run passed (the sub-group failure did
                // not reproduce); adopt its outputs so the phase-5 walk
                // sees the group as executed.
                for rid in &group_members[g] {
                    let idx = interner.index_of(*rid).expect("pre-cut members in trace");
                    out_state[idx as usize] = OUT_NONE;
                }
                for (rid, resp) in outputs {
                    let idx = interner.index_of(rid).expect("pre-cut members in trace");
                    out_state[idx as usize] = if source_response_matches(source, rid, &resp)? {
                        OUT_MATCH
                    } else {
                        OUT_MISMATCH
                    };
                }
                Ok(())
            },
        )?;
        if let Some(rejection) = pre_error {
            return Err(rejection);
        }

        // 7. Phase 5: first problem in arrival order.
        let output_t0 = Instant::now();
        let verdict = self.out_state.iter().enumerate().find_map(|(k, &s)| {
            let rid = interner.rid(k as u32);
            match s {
                OUT_NONE => Some(Rejection::MissingOutput { rid }),
                OUT_MISMATCH => Some(Rejection::OutputMismatch { rid }),
                _ => None,
            }
        });
        self.phases.add("Output", output_t0.elapsed());
        if let Some(rejection) = verdict {
            return Err(rejection);
        }

        // Accept: the worker carries fold into the batch-shaped stats.
        Ok(assemble_outcome(
            &shared,
            &self.carries,
            self.reexec_busy,
            self.phases,
            cut_groups,
        ))
    }

    /// Checks the optimistic plan's groups against the final interner,
    /// in plan order: returns how many lie before the cut — the first
    /// group naming a request the trace never contained — and the cut's
    /// rejection, if any. This is the batch pre-pass's membership check,
    /// so group indices agree with the batch prepared groups below the
    /// cut.
    fn grouping_cut(&self, interner: &RidInterner) -> (usize, Option<Rejection>) {
        for (g, members) in self.group_members.iter().enumerate() {
            if let Some(&rid) = members
                .iter()
                .find(|rid| interner.index_of(**rid).is_none())
            {
                return (g, Some(Rejection::GroupUnknownRequest { rid }));
            }
        }
        (self.group_members.len(), None)
    }
}

/// Collects planned group `members`' payloads, re-read from `source`,
/// for a whole-group confirmation run. The error is a storage failure
/// re-reading the trace.
fn whole_group(
    source: &dyn TraceSource,
    tag: CtlFlowTag,
    members: &[RequestId],
) -> Result<PreparedGroup, Rejection> {
    let want: HashSet<RequestId> = members.iter().copied().collect();
    let mut payloads: HashMap<RequestId, HttpRequest> = HashMap::new();
    source
        .stream_events(&mut |event| {
            if let Event::Request(rid, req) = event {
                if want.contains(&rid) {
                    payloads.insert(rid, req);
                }
            }
            payloads.len() < want.len()
        })
        .map_err(Rejection::TraceStore)?;
    Ok(PreparedGroup {
        tag,
        requests: members
            .iter()
            .map(|rid| {
                let req = payloads
                    .remove(rid)
                    .expect("pre-cut group members are in the trace");
                (*rid, req)
            })
            .collect(),
    })
}

/// Looks up the traced response for `rid` and compares it against a
/// produced output. Only the confirmation fallback path needs this
/// (normal epochs compare at response arrival); it re-streams the
/// source for the one payload.
fn source_response_matches(
    source: &dyn TraceSource,
    rid: RequestId,
    produced: &HttpResponse,
) -> Result<bool, Rejection> {
    let mut matches = false;
    let mut found = false;
    source
        .stream_events(&mut |event| {
            if let Event::Response(r, resp) = &event {
                if *r == rid {
                    matches = resp == produced;
                    found = true;
                    return false;
                }
            }
            true
        })
        .map_err(Rejection::TraceStore)?;
    Ok(found && matches)
}

/// The pull-based streaming audit: cuts `source` into epochs of at most
/// `epoch_events` events (`0` = one epoch spanning the whole trace) and
/// drives [`StreamingAudit`] over them. Verdicts and diagnostics are
/// byte-identical to [`crate::audit::audit_parallel_source`] with
/// `executors.len()` workers, at every epoch budget.
///
/// # Panics
///
/// Panics if `executors` is empty.
pub fn audit_streaming_source<E: GroupExecutor + Send>(
    source: &dyn TraceSource,
    reports: &Reports,
    executors: &mut [E],
    config: &AuditConfig,
    epoch_events: usize,
) -> Result<AuditOutcome, Rejection> {
    assert!(
        !executors.is_empty(),
        "audit_streaming requires at least one executor"
    );
    let mut audit = StreamingAudit::new(reports, config, executors.len());
    let budget = if epoch_events == 0 {
        usize::MAX
    } else {
        epoch_events
    };
    let total = source.event_count();
    let mut offset = 0usize;
    while offset < total {
        let mut epoch: Vec<Event> = Vec::new();
        source
            .stream_events_from(offset, &mut |event| {
                epoch.push(event);
                epoch.len() < budget
            })
            .map_err(Rejection::TraceStore)?;
        if epoch.is_empty() {
            break;
        }
        offset += epoch.len();
        if !audit.feed_epoch(&epoch, executors) {
            break;
        }
    }
    audit.finish(source, executors)
}
