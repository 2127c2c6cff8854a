//! The multivalue VM: superposed execution of one control-flow group.
//!
//! Runs the same register bytecode as the scalar runtime, but every
//! register and global holds an [`MVal`] — the multivalue lanes are
//! widened *over the register file*, so one 32-bit instruction executes
//! across all member requests at once. The execution discipline follows
//! §3.1/§4.3:
//!
//! * instructions with univalue operands execute **once**;
//! * instructions with multivalue operands execute **per lane**, and the
//!   result collapses back to a univalue whenever the lanes agree;
//! * conditional branches (and iteration steps) require a *uniform*
//!   decision across lanes — otherwise the group **diverges**
//!   (Fig. 12 line 39) and the caller falls back to per-request scalar
//!   re-execution, acc-PHP's escape hatch (§4.3, §4.7);
//! * state operations split into per-lane `CheckOp`/`SimOp` calls against
//!   the [`AuditContext`] (Fig. 12 lines 41–47), and nondeterministic
//!   builtins consume each lane's recorded values (§4.6);
//! * pure builtins with multivalue arguments split into per-lane calls
//!   of the *same* implementations the scalar VM uses (§4.3 "built-in
//!   functions").

use crate::mval::MVal;
use orochi_common::codec::Wire;
use orochi_common::ids::RequestId;
use orochi_core::audit::{AuditContext, Rejection};
use orochi_core::exec::{DbQueryResult, DbTxnHandle};
use orochi_core::nondet::NondetValue;
use orochi_php::backend::{DbResult, DbScalar};
use orochi_php::builtins::{self, Host};
use orochi_php::bytecode::{rinsn, CompiledScript, ROp};
use orochi_php::value::{ArrayKey, Value};
use orochi_php::vm::{ops, RequestInput, RequestOutput, VmError};
use orochi_sqldb::{ExecOutcome, SqlValue};
use orochi_state::object::ObjectName;

/// Why grouped execution stopped without producing outputs.
#[derive(Debug)]
pub enum GroupRunError {
    /// Execution within the group diverged (non-uniform branch,
    /// per-lane error, mixed types): the caller should re-execute the
    /// requests separately.
    Diverged(&'static str),
    /// The audit context rejected an operation: the audit fails.
    Reject(Rejection),
}

impl From<Rejection> for GroupRunError {
    fn from(r: Rejection) -> Self {
        GroupRunError::Reject(r)
    }
}

/// Result of a grouped run.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Per-lane response outputs (same order as the input requests).
    pub outputs: Vec<RequestOutput>,
    /// Instructions that executed once for the whole group.
    pub univalent: u64,
    /// Instructions that executed per lane.
    pub multivalent: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FnRef {
    Main,
    User(u16),
}

enum GroupIter {
    Uni {
        pairs: Vec<(ArrayKey, Value)>,
        pos: usize,
    },
    PerLane {
        lanes: Vec<(Vec<(ArrayKey, Value)>, usize)>,
    },
}

/// Internal control signals of the superposed interpreter.
enum Flow {
    Diverged(&'static str),
    Reject(Rejection),
    /// Uniform fatal error: the whole group produces the same 500 page.
    GroupFatal(String),
    /// Uniform `exit`/`die`.
    Exit,
}

impl From<Rejection> for Flow {
    fn from(r: Rejection) -> Self {
        Flow::Reject(r)
    }
}

/// Lifts a scalar VmError arising from *univalent* execution: fatal
/// errors are uniform across lanes.
fn uni_err(e: VmError) -> Flow {
    match e {
        VmError::Fatal(m) => Flow::GroupFatal(m),
        VmError::Exit => Flow::Exit,
        VmError::AuditReject(m) => Flow::Reject(Rejection::ExecFailure(m)),
    }
}

/// Lifts per-lane errors: a fatal in *some* lanes is divergence; the
/// caller re-executes scalar per request, where each lane gets its own
/// (possibly 500) output.
fn lane_err(e: VmError) -> Flow {
    match e {
        VmError::Fatal(_) => Flow::Diverged("per-lane error"),
        VmError::Exit => Flow::Diverged("per-lane exit"),
        VmError::AuditReject(m) => Flow::Reject(Rejection::ExecFailure(m)),
    }
}

/// A [`Host`] that pure builtins never actually call.
struct NoHost;

impl Host for NoHost {
    fn echo(&mut self, _s: &str) {}
    fn add_header(&mut self, _n: String, _v: String) {}
    fn set_status(&mut self, _c: u16) {}
    fn session_start(&mut self) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn kv_get(&mut self, _k: &str) -> Result<Value, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn kv_set(&mut self, _k: &str, _v: Option<&Value>) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_begin(&mut self) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_query(&mut self, _sql: &str) -> Result<Value, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_commit(&mut self) -> Result<bool, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_rollback(&mut self) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_insert_id(&mut self) -> i64 {
        0
    }
    fn db_affected_rows(&mut self) -> i64 {
        0
    }
    fn nd_time(&mut self) -> Result<i64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_microtime(&mut self) -> Result<f64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_getpid(&mut self) -> Result<i64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_rand_raw(&mut self) -> Result<i64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_uniqid(&mut self) -> Result<String, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
}

/// Builtins that interact with per-request effects or state; everything
/// else is pure and lane-splittable.
fn is_impure(name: &str) -> bool {
    matches!(
        name,
        "print"
            | "exit"
            | "die"
            | "header"
            | "http_response_code"
            | "setcookie"
            | "session_start"
            | "apc_fetch"
            | "apc_store"
            | "apc_delete"
            | "db_query"
            | "db_begin"
            | "db_commit"
            | "db_rollback"
            | "db_insert_id"
            | "db_affected_rows"
            | "time"
            | "microtime"
            | "getpid"
            | "mt_rand"
            | "rand"
            | "uniqid"
    )
}

fn init_globals(script: &CompiledScript, inputs: &[RequestInput], lanes: usize) -> Vec<MVal> {
    let mut globals = vec![MVal::Uni(Value::Null); script.global_names.len()];
    let lane_vals =
        |f: &dyn Fn(&RequestInput) -> Value| MVal::from_lanes(inputs.iter().map(f).collect());
    globals[0] = lane_vals(&|i| orochi_php::vm::pairs_to_array(&i.get));
    globals[1] = lane_vals(&|i| orochi_php::vm::pairs_to_array(&i.post));
    globals[2] = lane_vals(&|i| orochi_php::vm::pairs_to_array(&i.cookies));
    globals[3] = MVal::Uni(Value::empty_array());
    globals[4] = lane_vals(&|i| {
        let mut server = orochi_php::value::PhpArray::new();
        server.set(
            ArrayKey::Str("REQUEST_METHOD".into()),
            Value::str(i.method.clone()),
        );
        server.set(
            ArrayKey::Str("SCRIPT_NAME".into()),
            Value::str(i.path.clone()),
        );
        Value::array(server)
    });
    let _ = lanes;
    globals
}

/// `++`/`--` on a multivalue slot; returns (new slot value, expression
/// result).
fn incdec_mval(cur: &MVal, variant: usize, lanes: usize) -> Result<(MVal, MVal), VmError> {
    match cur {
        MVal::Uni(v) => {
            let mut slot = v.clone();
            let result = ops::incdec(&mut slot, variant)?;
            Ok((MVal::Uni(slot), MVal::Uni(result)))
        }
        MVal::Multi(vs) => {
            let mut new_lanes = Vec::with_capacity(lanes);
            let mut results = Vec::with_capacity(lanes);
            for v in vs.iter() {
                let mut slot = v.clone();
                results.push(ops::incdec(&mut slot, variant)?);
                new_lanes.push(slot);
            }
            Ok((MVal::from_lanes(new_lanes), MVal::from_lanes(results)))
        }
    }
}

/// Converts an audit-side query result into the PHP-visible value,
/// mirroring the scalar backend's conversion exactly.
fn db_query_result_to_value(result: DbQueryResult, last_id: &mut i64, last_aff: &mut i64) -> Value {
    match result {
        DbQueryResult::Failed => Value::Bool(false),
        DbQueryResult::Ok(ExecOutcome::Rows { columns, rows }) => {
            let converted: Vec<Vec<(String, DbScalar)>> = rows
                .into_iter()
                .map(|row| {
                    columns
                        .iter()
                        .cloned()
                        .zip(row.into_iter().map(sql_to_dbscalar))
                        .collect()
                })
                .collect();
            builtins::db_result_to_value(DbResult::Rows(converted), last_id, last_aff)
        }
        DbQueryResult::Ok(ExecOutcome::Write(w)) => builtins::db_result_to_value(
            DbResult::Write {
                affected: w.affected,
                insert_id: w.last_insert_id,
            },
            last_id,
            last_aff,
        ),
    }
}

fn sql_to_dbscalar(v: SqlValue) -> DbScalar {
    match v {
        SqlValue::Null => DbScalar::Null,
        SqlValue::Int(i) => DbScalar::Int(i),
        SqlValue::Float(f) => DbScalar::Float(f),
        SqlValue::Text(s) => DbScalar::Text(s),
    }
}

/// A pooled activation record over the multivalue register file.
struct RFrame {
    func: FnRef,
    pc: usize,
    base: usize,
    top: usize,
    ret_abs: usize,
    iters: Vec<GroupIter>,
}

struct GroupVm<'c, 'a> {
    script: &'c CompiledScript,
    ctx: &'c mut AuditContext<'a>,
    rids: Vec<RequestId>,
    lanes: usize,
    globals: Vec<MVal>,
    /// The flat multivalue register file; frame windows are disjoint.
    regs: Vec<MVal>,
    frames: Vec<RFrame>,
    depth: usize,
    // Per-lane request effects.
    outputs: Vec<String>,
    headers: Vec<Vec<(String, String)>>,
    statuses: Vec<u16>,
    session_started: bool,
    session_cookies: Vec<Option<String>>,
    last_insert_id: Vec<i64>,
    last_affected: Vec<i64>,
    txns: Vec<Option<DbTxnHandle>>,
    univalent: u64,
    multivalent: u64,
    steps: u64,
}

/// Runs one control-flow group's superposed execution.
pub fn run_group(
    script: &CompiledScript,
    rids: &[RequestId],
    inputs: &[RequestInput],
    ctx: &mut AuditContext<'_>,
) -> Result<GroupOutcome, GroupRunError> {
    debug_assert_eq!(rids.len(), inputs.len(), "one input per rid");
    let lanes = rids.len();
    let mut vm = GroupVm {
        script,
        ctx,
        rids: rids.to_vec(),
        lanes,
        globals: init_globals(script, inputs, lanes),
        regs: Vec::new(),
        frames: Vec::new(),
        depth: 0,
        outputs: vec![String::new(); lanes],
        headers: vec![Vec::new(); lanes],
        statuses: vec![200; lanes],
        session_started: false,
        session_cookies: inputs
            .iter()
            .map(|i| i.session_cookie().map(str::to_string))
            .collect(),
        last_insert_id: vec![0; lanes],
        last_affected: vec![0; lanes],
        txns: (0..lanes).map(|_| None).collect(),
        univalent: 0,
        multivalent: 0,
        steps: 0,
    };
    let top = script.main.register_count as usize;
    vm.regs.resize(top, MVal::Uni(Value::Null));
    vm.push_frame(FnRef::Main, 0, top, 0);
    match vm.interp() {
        Ok(()) | Err(Flow::Exit) => {
            if vm.close_leaked_txns()? {
                return vm.uniform_fatal_outcome("script ended with open transaction");
            }
            vm.write_sessions_back()?;
            Ok(vm.into_outcome())
        }
        Err(Flow::GroupFatal(m)) => {
            // Uniform fatal: all lanes produce the identical 500 page
            // (no headers, no session write) — exactly what the scalar
            // runtime does per request.
            vm.uniform_fatal_outcome(&m)
        }
        Err(Flow::Diverged(why)) => Err(GroupRunError::Diverged(why)),
        Err(Flow::Reject(r)) => Err(GroupRunError::Reject(r)),
    }
}

impl GroupVm<'_, '_> {
    fn into_outcome(mut self) -> GroupOutcome {
        GroupOutcome {
            outputs: (0..self.lanes)
                .map(|l| RequestOutput {
                    status: self.statuses[l],
                    headers: std::mem::take(&mut self.headers[l]),
                    body: std::mem::take(&mut self.outputs[l]),
                })
                .collect(),
            univalent: self.univalent,
            multivalent: self.multivalent,
        }
    }

    /// Closes transactions the script leaked (uniform control flow
    /// means all lanes leak together); returns true if any were open.
    fn close_leaked_txns(&mut self) -> Result<bool, GroupRunError> {
        let mut any = false;
        for l in 0..self.lanes {
            if let Some(handle) = self.txns[l].take() {
                any = true;
                self.ctx
                    .db_finish(handle, false)
                    .map_err(GroupRunError::Reject)?;
            }
        }
        Ok(any)
    }

    /// All lanes answer with the same fatal page (no headers/session).
    fn uniform_fatal_outcome(&mut self, message: &str) -> Result<GroupOutcome, GroupRunError> {
        let body = format!("Fatal error: {message}");
        Ok(GroupOutcome {
            outputs: (0..self.lanes)
                .map(|_| RequestOutput {
                    status: 500,
                    headers: Vec::new(),
                    body: body.clone(),
                })
                .collect(),
            univalent: self.univalent,
            multivalent: self.multivalent,
        })
    }

    fn write_sessions_back(&mut self) -> Result<(), GroupRunError> {
        if !self.session_started {
            return Ok(());
        }
        for l in 0..self.lanes {
            if let Some(cookie) = self.session_cookies[l].clone() {
                let bytes = self.globals[3].lane(l).to_wire_bytes();
                let name = ObjectName(format!("reg:sess:{cookie}"));
                self.ctx
                    .register_write(self.rids[l], &name, bytes)
                    .map_err(GroupRunError::Reject)?;
            }
        }
        Ok(())
    }

    /// Counts an instruction as univalent or multivalent.
    fn account(&mut self, multivalent: bool) {
        if multivalent {
            self.multivalent += 1;
        } else {
            self.univalent += 1;
        }
    }

    fn push_frame(&mut self, func: FnRef, base: usize, top: usize, ret_abs: usize) {
        if self.depth == self.frames.len() {
            self.frames.push(RFrame {
                func,
                pc: 0,
                base,
                top,
                ret_abs,
                iters: Vec::new(),
            });
        } else {
            let f = &mut self.frames[self.depth];
            f.func = func;
            f.pc = 0;
            f.base = base;
            f.top = top;
            f.ret_abs = ret_abs;
            f.iters.clear();
        }
        self.depth += 1;
    }

    /// Applies a two-operand scalar op lane-wise; errors lift per the
    /// uni/multi discipline.
    fn map2_op(&mut self, op: ROp, a: usize, b: usize, c: usize) -> Result<(), Flow> {
        let x = self.regs[b].clone();
        let y = self.regs[c].clone();
        let multi = !x.is_uni() || !y.is_uni();
        self.account(multi);
        let r = MVal::map2(&x, &y, self.lanes, |p, q| ops::binary(op, p, q)).map_err(if multi {
            lane_err
        } else {
            uni_err
        })?;
        self.regs[a] = r;
        Ok(())
    }

    /// Read-modify-write of a register/global slot through an index
    /// path, univalently when every participant is a univalue.
    fn modify_path(
        &mut self,
        cur: &MVal,
        keys: &[MVal],
        value: Option<&MVal>,
        f: impl Fn(&mut Value, &[Value], Value) -> Result<(), VmError>,
    ) -> Result<MVal, Flow> {
        let multi =
            !cur.is_uni() || keys.iter().any(|k| !k.is_uni()) || value.is_some_and(|v| !v.is_uni());
        self.account(multi);
        if !multi {
            let mut v = cur.lane(0).clone();
            let lane_keys: Vec<Value> = keys.iter().map(|k| k.lane(0).clone()).collect();
            let val = value.map(|m| m.lane(0).clone()).unwrap_or(Value::Null);
            f(&mut v, &lane_keys, val).map_err(uni_err)?;
            Ok(MVal::Uni(v))
        } else {
            let mut out = Vec::with_capacity(self.lanes);
            for l in 0..self.lanes {
                let mut v = cur.lane(l).clone();
                let lane_keys: Vec<Value> = keys.iter().map(|k| k.lane(l).clone()).collect();
                let val = value.map(|m| m.lane(l).clone()).unwrap_or(Value::Null);
                f(&mut v, &lane_keys, val).map_err(lane_err)?;
                out.push(v);
            }
            Ok(MVal::from_lanes(out))
        }
    }

    fn interp(&mut self) -> Result<(), Flow> {
        loop {
            self.steps += 1;
            if self.steps > 2_000_000_000 {
                return Err(Flow::GroupFatal("execution step limit exceeded".into()));
            }
            let fi = self.depth - 1;
            let (func, base) = {
                let f = &self.frames[fi];
                (f.func, f.base)
            };
            let code = match func {
                FnRef::Main => &self.script.main.reg_code,
                FnRef::User(i) => &self.script.functions[i as usize].reg_code,
            };
            let pc = self.frames[fi].pc;
            let insn = code[pc];
            self.frames[fi].pc = pc + 1;
            let a = base + rinsn::a(insn);
            match rinsn::op(insn) {
                ROp::Move => {
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    self.account(!v.is_uni());
                    self.regs[a] = v;
                }
                ROp::LoadConst => {
                    self.account(false);
                    self.regs[a] = MVal::Uni(self.script.consts[rinsn::bx(insn)].clone());
                }
                ROp::LoadGlobal => {
                    let v = self.globals[rinsn::b(insn)].clone();
                    self.account(!v.is_uni());
                    self.regs[a] = v;
                }
                ROp::StoreGlobal => {
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    self.account(!v.is_uni());
                    self.globals[rinsn::a(insn)] = v;
                }
                ROp::Add | ROp::Sub | ROp::Mul | ROp::Div | ROp::Mod | ROp::Concat => {
                    self.map2_op(
                        rinsn::op(insn),
                        a,
                        base + rinsn::b(insn),
                        base + rinsn::c(insn),
                    )?;
                }
                ROp::Eq | ROp::Ne | ROp::Identical | ROp::NotIdentical => {
                    let rop = rinsn::op(insn);
                    let x = self.regs[base + rinsn::b(insn)].clone();
                    let y = self.regs[base + rinsn::c(insn)].clone();
                    self.account(!x.is_uni() || !y.is_uni());
                    let r = MVal::map2::<VmError>(&x, &y, self.lanes, |p, q| {
                        Ok(Value::Bool(match rop {
                            ROp::Eq => p.loose_eq(q),
                            ROp::Ne => !p.loose_eq(q),
                            ROp::Identical => p.identical(q),
                            ROp::NotIdentical => !p.identical(q),
                            _ => unreachable!("equality subset"),
                        }))
                    })
                    .expect("equality is infallible");
                    self.regs[a] = r;
                }
                ROp::Lt | ROp::Le | ROp::Gt | ROp::Ge => {
                    let rop = rinsn::op(insn);
                    let x = self.regs[base + rinsn::b(insn)].clone();
                    let y = self.regs[base + rinsn::c(insn)].clone();
                    self.account(!x.is_uni() || !y.is_uni());
                    let r = MVal::map2::<VmError>(&x, &y, self.lanes, |p, q| {
                        Ok(Value::Bool(ops::relational(rop, p, q)))
                    })
                    .expect("relational is infallible");
                    self.regs[a] = r;
                }
                ROp::Not => {
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    self.account(!v.is_uni());
                    let r = v
                        .map1::<VmError>(self.lanes, |x| Ok(Value::Bool(!x.is_truthy())))
                        .expect("not is infallible");
                    self.regs[a] = r;
                }
                ROp::Neg => {
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    let multi = !v.is_uni();
                    self.account(multi);
                    let r = v.map1(self.lanes, ops::negate).map_err(if multi {
                        lane_err
                    } else {
                        uni_err
                    })?;
                    self.regs[a] = r;
                }
                ROp::Jump => {
                    self.account(false);
                    self.frames[fi].pc = rinsn::bx(insn);
                }
                ROp::JumpIfFalse | ROp::JumpIfTrue => {
                    let v = self.regs[a].clone();
                    self.account(!v.is_uni());
                    let truth = v
                        .uniform_truthiness(self.lanes)
                        .map_err(|()| Flow::Diverged("non-uniform branch"))?;
                    let take = match rinsn::op(insn) {
                        ROp::JumpIfFalse => !truth,
                        _ => truth,
                    };
                    if take {
                        self.frames[fi].pc = rinsn::bx(insn);
                    }
                }
                ROp::NewArray => {
                    self.account(false);
                    self.regs[a] = MVal::Uni(Value::empty_array());
                }
                ROp::ArrayAppend => {
                    let arr = self.regs[a].clone();
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    let multi = !v.is_uni() || !arr.is_uni();
                    self.account(multi);
                    let r = MVal::map2(&arr, &v, self.lanes, |x, y| {
                        ops::array_append(x.clone(), y.clone())
                    })
                    .map_err(if multi { lane_err } else { uni_err })?;
                    self.regs[a] = r;
                }
                ROp::ArrayInsert => {
                    let arr = self.regs[a].clone();
                    let k = self.regs[base + rinsn::b(insn)].clone();
                    let v = self.regs[base + rinsn::c(insn)].clone();
                    let multi = !v.is_uni() || !k.is_uni() || !arr.is_uni();
                    self.account(multi);
                    if multi {
                        let mut out = Vec::with_capacity(self.lanes);
                        for l in 0..self.lanes {
                            out.push(
                                ops::array_insert(
                                    arr.lane(l).clone(),
                                    k.lane(l),
                                    v.lane(l).clone(),
                                )
                                .map_err(lane_err)?,
                            );
                        }
                        self.regs[a] = MVal::from_lanes(out);
                    } else {
                        let r =
                            ops::array_insert(arr.lane(0).clone(), k.lane(0), v.lane(0).clone())
                                .map_err(uni_err)?;
                        self.regs[a] = MVal::Uni(r);
                    }
                }
                ROp::IndexGet => {
                    let b = self.regs[base + rinsn::b(insn)].clone();
                    let k = self.regs[base + rinsn::c(insn)].clone();
                    self.account(!k.is_uni() || !b.is_uni());
                    let r = MVal::map2::<VmError>(&b, &k, self.lanes, |x, key| {
                        Ok(ops::index_get(x, key))
                    })
                    .expect("index_get is infallible");
                    self.regs[a] = r;
                }
                ROp::SetPathLocal | ROp::SetPathGlobal => {
                    let n = rinsn::c(insn);
                    let is_local = rinsn::op(insn) == ROp::SetPathLocal;
                    let value = self.regs[a].clone();
                    let keys: Vec<MVal> = self.regs[a + 1..a + 1 + n].to_vec();
                    let cur = if is_local {
                        self.regs[base + rinsn::b(insn)].clone()
                    } else {
                        self.globals[rinsn::b(insn)].clone()
                    };
                    let new = self.modify_path(&cur, &keys, Some(&value), ops::set_path)?;
                    if is_local {
                        self.regs[base + rinsn::b(insn)] = new;
                    } else {
                        self.globals[rinsn::b(insn)] = new;
                    }
                }
                ROp::AppendPathLocal | ROp::AppendPathGlobal => {
                    let n = rinsn::c(insn);
                    let is_local = rinsn::op(insn) == ROp::AppendPathLocal;
                    let value = self.regs[a].clone();
                    let keys: Vec<MVal> = self.regs[a + 1..a + n].to_vec();
                    let cur = if is_local {
                        self.regs[base + rinsn::b(insn)].clone()
                    } else {
                        self.globals[rinsn::b(insn)].clone()
                    };
                    let new = self.modify_path(&cur, &keys, Some(&value), ops::append_path)?;
                    if is_local {
                        self.regs[base + rinsn::b(insn)] = new;
                    } else {
                        self.globals[rinsn::b(insn)] = new;
                    }
                }
                ROp::UnsetPathLocal | ROp::UnsetPathGlobal => {
                    let n = rinsn::c(insn);
                    let is_local = rinsn::op(insn) == ROp::UnsetPathLocal;
                    let keys: Vec<MVal> = self.regs[a..a + n].to_vec();
                    let cur = if is_local {
                        self.regs[base + rinsn::b(insn)].clone()
                    } else {
                        self.globals[rinsn::b(insn)].clone()
                    };
                    let new = self.modify_path(&cur, &keys, None, |c, lane_keys, _v| {
                        ops::unset_path(c, lane_keys);
                        Ok(())
                    })?;
                    if is_local {
                        self.regs[base + rinsn::b(insn)] = new;
                    } else {
                        self.globals[rinsn::b(insn)] = new;
                    }
                }
                ROp::IssetPathLocal | ROp::IssetPathGlobal => {
                    let n = rinsn::c(insn);
                    let is_local = rinsn::op(insn) == ROp::IssetPathLocal;
                    let keys: Vec<MVal> = self.regs[a..a + n].to_vec();
                    let cur = if is_local {
                        self.regs[base + rinsn::b(insn)].clone()
                    } else {
                        self.globals[rinsn::b(insn)].clone()
                    };
                    let multi = !cur.is_uni() || keys.iter().any(|k| !k.is_uni());
                    self.account(multi);
                    let lane_count = if multi { self.lanes } else { 1 };
                    let mut out = Vec::with_capacity(lane_count);
                    for l in 0..lane_count {
                        let lane_keys: Vec<Value> =
                            keys.iter().map(|k| k.lane(l).clone()).collect();
                        out.push(Value::Bool(ops::isset_path(cur.lane(l), &lane_keys)));
                    }
                    self.regs[a] = if multi {
                        MVal::from_lanes(out)
                    } else {
                        MVal::Uni(out.into_iter().next().expect("one lane"))
                    };
                }
                ROp::IncDecLocal | ROp::IncDecGlobal => {
                    let is_local = rinsn::op(insn) == ROp::IncDecLocal;
                    let cur = if is_local {
                        self.regs[base + rinsn::b(insn)].clone()
                    } else {
                        self.globals[rinsn::b(insn)].clone()
                    };
                    let multi = !cur.is_uni();
                    self.account(multi);
                    let (new_slot, result) = incdec_mval(&cur, rinsn::c(insn), self.lanes)
                        .map_err(if multi { lane_err } else { uni_err })?;
                    if is_local {
                        self.regs[base + rinsn::b(insn)] = new_slot;
                    } else {
                        self.globals[rinsn::b(insn)] = new_slot;
                    }
                    self.regs[a] = result;
                }
                ROp::Call => {
                    self.account(false);
                    let fidx = rinsn::a(insn) as u16;
                    let func = &self.script.functions[fidx as usize];
                    let argc = rinsn::c(insn);
                    let args_abs = base + rinsn::b(insn);
                    let callee_base = self.frames[fi].top;
                    let callee_top = callee_base + func.register_count as usize;
                    if self.regs.len() < callee_top {
                        self.regs.resize(callee_top, MVal::Uni(Value::Null));
                    }
                    let num_params = func.num_params as usize;
                    for i in 0..argc {
                        let v =
                            std::mem::replace(&mut self.regs[args_abs + i], MVal::Uni(Value::Null));
                        if i < num_params {
                            self.regs[callee_base + i] = v;
                        }
                    }
                    for p in argc..num_params {
                        match func.defaults[p] {
                            Some(cidx) => {
                                self.regs[callee_base + p] =
                                    MVal::Uni(self.script.consts[cidx as usize].clone())
                            }
                            None => {
                                return Err(Flow::GroupFatal(format!(
                                    "too few arguments to function {}()",
                                    func.name
                                )))
                            }
                        }
                    }
                    if self.depth >= 200 {
                        return Err(Flow::GroupFatal("call stack depth exceeded".into()));
                    }
                    for r in &mut self.regs[callee_base + num_params..callee_top] {
                        *r = MVal::Uni(Value::Null);
                    }
                    self.push_frame(FnRef::User(fidx), callee_base, callee_top, args_abs);
                }
                ROp::CallBuiltin => {
                    let bidx = rinsn::a(insn) as u16;
                    let argc = rinsn::c(insn);
                    let abs = base + rinsn::b(insn);
                    self.builtin(bidx, abs, argc)?;
                }
                ROp::Return => {
                    self.account(false);
                    let value = std::mem::replace(&mut self.regs[a], MVal::Uni(Value::Null));
                    let ret_abs = self.frames[fi].ret_abs;
                    self.depth -= 1;
                    if self.depth == 0 {
                        return Ok(());
                    }
                    self.regs[ret_abs] = value;
                }
                ROp::ReturnNull => {
                    self.account(false);
                    let ret_abs = self.frames[fi].ret_abs;
                    self.depth -= 1;
                    if self.depth == 0 {
                        return Ok(());
                    }
                    self.regs[ret_abs] = MVal::Uni(Value::Null);
                }
                ROp::Echo => {
                    let v = self.regs[a].clone();
                    self.account(!v.is_uni());
                    match &v {
                        MVal::Uni(val) => {
                            let s = val.to_php_string();
                            for out in &mut self.outputs {
                                out.push_str(&s);
                            }
                        }
                        MVal::Multi(vals) => {
                            for (out, val) in self.outputs.iter_mut().zip(vals.iter()) {
                                out.push_str(&val.to_php_string());
                            }
                        }
                    }
                }
                ROp::IterInit => {
                    let arr = self.regs[a].clone();
                    self.account(!arr.is_uni());
                    let iter = match &arr {
                        MVal::Uni(Value::Array(p)) => GroupIter::Uni {
                            pairs: p.to_pairs(),
                            pos: 0,
                        },
                        MVal::Uni(_) => GroupIter::Uni {
                            pairs: Vec::new(),
                            pos: 0,
                        },
                        MVal::Multi(vals) => GroupIter::PerLane {
                            lanes: vals
                                .iter()
                                .map(|v| match v {
                                    Value::Array(p) => (p.to_pairs(), 0),
                                    _ => (Vec::new(), 0),
                                })
                                .collect(),
                        },
                    };
                    self.frames[fi].iters.push(iter);
                }
                ROp::IterNext | ROp::IterNextKV => {
                    let want_key = rinsn::op(insn) == ROp::IterNextKV;
                    let lanes = self.lanes;
                    let t = rinsn::bx(insn);
                    let frame = &mut self.frames[fi];
                    let iter = frame.iters.last_mut().expect("IterInit precedes IterNext");
                    match iter {
                        GroupIter::Uni { pairs, pos } => {
                            self.univalent += 1;
                            if *pos < pairs.len() {
                                let (k, v) = pairs[*pos].clone();
                                *pos += 1;
                                if want_key {
                                    self.regs[a] = MVal::Uni(k.to_value());
                                    self.regs[a + 1] = MVal::Uni(v);
                                } else {
                                    self.regs[a] = MVal::Uni(v);
                                }
                            } else {
                                frame.pc = t;
                            }
                        }
                        GroupIter::PerLane { lanes: iters } => {
                            self.multivalent += 1;
                            let has: Vec<bool> =
                                iters.iter().map(|(p, pos)| *pos < p.len()).collect();
                            let first = has[0];
                            if !has.iter().all(|h| *h == first) {
                                return Err(Flow::Diverged("non-uniform iteration"));
                            }
                            if first {
                                let mut keys = Vec::with_capacity(lanes);
                                let mut vals = Vec::with_capacity(lanes);
                                for (pairs, pos) in iters.iter_mut() {
                                    let (k, v) = pairs[*pos].clone();
                                    *pos += 1;
                                    keys.push(k.to_value());
                                    vals.push(v);
                                }
                                if want_key {
                                    self.regs[a] = MVal::from_lanes(keys);
                                    self.regs[a + 1] = MVal::from_lanes(vals);
                                } else {
                                    self.regs[a] = MVal::from_lanes(vals);
                                }
                            } else {
                                frame.pc = t;
                            }
                        }
                    }
                }
                ROp::IterPop => {
                    self.account(false);
                    self.frames[fi].iters.pop();
                }
            }
        }
    }

    /// Builtin calls: pure builtins split per lane when any argument is
    /// a multivalue (§4.3); impure builtins route through the audit
    /// context per lane. The result lands in `regs[abs]` (byref
    /// builtins also write the new target, at `abs`, with the return at
    /// `abs + 1`).
    fn builtin(&mut self, bidx: u16, abs: usize, argc: usize) -> Result<(), Flow> {
        let name = builtins::NAMES[bidx as usize];
        let args: Vec<MVal> = self.regs[abs..abs + argc].to_vec();
        if is_impure(name) {
            let r = self.impure_builtin(name, &args)?;
            self.regs[abs] = r;
            return Ok(());
        }
        let all_uni = args.iter().all(MVal::is_uni);
        self.account(!all_uni);
        if builtins::is_byref(bidx) {
            if all_uni {
                let mut lane_args: Vec<Value> = args.iter().map(|v| v.lane(0).clone()).collect();
                let (target, ret) =
                    builtins::dispatch_byref(bidx, &mut lane_args).map_err(uni_err)?;
                self.regs[abs] = MVal::Uni(target);
                self.regs[abs + 1] = MVal::Uni(ret);
            } else {
                let mut targets = Vec::with_capacity(self.lanes);
                let mut rets = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let mut lane_args: Vec<Value> =
                        args.iter().map(|v| v.lane(l).clone()).collect();
                    let (t, r) =
                        builtins::dispatch_byref(bidx, &mut lane_args).map_err(lane_err)?;
                    targets.push(t);
                    rets.push(r);
                }
                self.regs[abs] = MVal::from_lanes(targets);
                self.regs[abs + 1] = MVal::from_lanes(rets);
            }
            return Ok(());
        }
        if all_uni {
            let lane_args: Vec<Value> = args.iter().map(|v| v.lane(0).clone()).collect();
            let r = builtins::dispatch(bidx, &lane_args, &mut NoHost).map_err(uni_err)?;
            self.regs[abs] = MVal::Uni(r);
        } else {
            // Split execution: clone arguments per lane and run the
            // scalar implementation n times (§4.3).
            let mut out = Vec::with_capacity(self.lanes);
            for l in 0..self.lanes {
                let lane_args: Vec<Value> = args.iter().map(|v| v.lane(l).clone()).collect();
                out.push(builtins::dispatch(bidx, &lane_args, &mut NoHost).map_err(lane_err)?);
            }
            self.regs[abs] = MVal::from_lanes(out);
        }
        Ok(())
    }

    fn impure_builtin(&mut self, name: &str, args: &[MVal]) -> Result<MVal, Flow> {
        // Impure builtins count as multivalent when their arguments (or
        // their per-lane results) differ.
        match name {
            "print" => {
                let v = args.first().cloned().unwrap_or(MVal::Uni(Value::Null));
                self.account(!v.is_uni());
                for l in 0..self.lanes {
                    let s = v.lane(l).to_php_string();
                    self.outputs[l].push_str(&s);
                }
                Ok(MVal::Uni(Value::Int(1)))
            }
            "exit" | "die" => {
                self.account(false);
                if let Some(v) = args.first() {
                    for l in 0..self.lanes {
                        if matches!(v.lane(l), Value::Str(_)) {
                            let s = v.lane(l).to_php_string();
                            self.outputs[l].push_str(&s);
                        }
                    }
                }
                Err(Flow::Exit)
            }
            "header" => {
                let h = args.first().cloned().unwrap_or(MVal::Uni(Value::Null));
                self.account(!h.is_uni());
                for l in 0..self.lanes {
                    let text = h.lane(l).to_php_string();
                    match text.split_once(':') {
                        Some((n, v)) => {
                            self.headers[l].push((n.trim().to_string(), v.trim().to_string()))
                        }
                        None => {
                            return Err(if h.is_uni() {
                                Flow::GroupFatal("header(): malformed header".into())
                            } else {
                                Flow::Diverged("per-lane header error")
                            })
                        }
                    }
                }
                Ok(MVal::Uni(Value::Null))
            }
            "http_response_code" => {
                let c = args.first().cloned().unwrap_or(MVal::Uni(Value::Null));
                self.account(!c.is_uni());
                for l in 0..self.lanes {
                    let code = c.lane(l).to_php_int();
                    if !(100..=599).contains(&code) {
                        return Err(if c.is_uni() {
                            Flow::GroupFatal("http_response_code(): bad code".into())
                        } else {
                            Flow::Diverged("per-lane status error")
                        });
                    }
                    self.statuses[l] = code as u16;
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            "setcookie" => {
                let n = args.first().cloned().unwrap_or(MVal::Uni(Value::Null));
                let v = args.get(1).cloned().unwrap_or(MVal::Uni(Value::Null));
                self.account(!n.is_uni() || !v.is_uni());
                for l in 0..self.lanes {
                    self.headers[l].push((
                        "Set-Cookie".to_string(),
                        format!(
                            "{}={}",
                            n.lane(l).to_php_string(),
                            v.lane(l).to_php_string()
                        ),
                    ));
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            "session_start" => {
                self.account(true);
                if !self.session_started {
                    self.session_started = true;
                    let mut sessions = Vec::with_capacity(self.lanes);
                    for l in 0..self.lanes {
                        match self.session_cookies[l].clone() {
                            None => sessions.push(Value::empty_array()),
                            Some(cookie) => {
                                let obj = ObjectName(format!("reg:sess:{cookie}"));
                                let sim = self
                                    .ctx
                                    .register_read(self.rids[l], &obj)
                                    .map_err(Flow::Reject)?;
                                let bytes = match sim {
                                    orochi_core::exec::SimResult::Register(b) => b,
                                    _ => None,
                                };
                                sessions.push(match bytes {
                                    Some(b) => Value::from_wire_bytes(&b).map_err(|_| {
                                        Flow::GroupFatal("corrupt session data".into())
                                    })?,
                                    None => Value::empty_array(),
                                });
                            }
                        }
                    }
                    self.globals[3] = MVal::from_lanes(sessions);
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            "apc_fetch" => {
                let key = args.first().cloned().unwrap_or(MVal::Uni(Value::Null));
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let k = key.lane(l).to_php_string();
                    let sim = self
                        .ctx
                        .kv_get(self.rids[l], &ObjectName("kv:apc".into()), &k)
                        .map_err(Flow::Reject)?;
                    let bytes = match sim {
                        orochi_core::exec::SimResult::Kv(b) => b,
                        _ => None,
                    };
                    out.push(match bytes {
                        Some(b) => Value::from_wire_bytes(&b)
                            .map_err(|_| Flow::GroupFatal("corrupt apc data".into()))?,
                        None => Value::Bool(false),
                    });
                }
                Ok(MVal::from_lanes(out))
            }
            "apc_store" | "apc_delete" => {
                let key = args.first().cloned().unwrap_or(MVal::Uni(Value::Null));
                self.account(true);
                for l in 0..self.lanes {
                    let k = key.lane(l).to_php_string();
                    let bytes = if name == "apc_store" {
                        Some(
                            args.get(1)
                                .map(|v| v.lane(l).clone())
                                .unwrap_or(Value::Null)
                                .to_wire_bytes(),
                        )
                    } else {
                        None
                    };
                    self.ctx
                        .kv_set(self.rids[l], &ObjectName("kv:apc".into()), &k, bytes)
                        .map_err(Flow::Reject)?;
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            "db_begin" => {
                self.account(true);
                for l in 0..self.lanes {
                    if self.txns[l].is_some() {
                        return Err(Flow::GroupFatal("nested transaction".into()));
                    }
                    let h = self
                        .ctx
                        .db_begin(self.rids[l], &ObjectName("db:main".into()))
                        .map_err(Flow::Reject)?;
                    self.txns[l] = Some(h);
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            "db_query" => {
                let sql = args.first().cloned().unwrap_or(MVal::Uni(Value::Null));
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let text = sql.lane(l).to_php_string();
                    let result = if self.txns[l].is_some() {
                        let handle = self.txns[l].as_mut().expect("checked above");
                        self.ctx.db_query(handle, &text).map_err(Flow::Reject)?
                    } else {
                        // Auto-commit single-statement transaction.
                        let mut handle = self
                            .ctx
                            .db_begin(self.rids[l], &ObjectName("db:main".into()))
                            .map_err(Flow::Reject)?;
                        let r = self
                            .ctx
                            .db_query(&mut handle, &text)
                            .map_err(Flow::Reject)?;
                        self.ctx.db_finish(handle, true).map_err(Flow::Reject)?;
                        r
                    };
                    out.push(db_query_result_to_value(
                        result,
                        &mut self.last_insert_id[l],
                        &mut self.last_affected[l],
                    ));
                }
                Ok(MVal::from_lanes(out))
            }
            "db_commit" | "db_rollback" => {
                self.account(true);
                let committed = name == "db_commit";
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let handle = match self.txns[l].take() {
                        Some(h) => h,
                        None => {
                            return Err(Flow::GroupFatal(format!("{name}() without transaction")))
                        }
                    };
                    let ok = self
                        .ctx
                        .db_finish(handle, committed)
                        .map_err(Flow::Reject)?;
                    out.push(Value::Bool(if committed { ok } else { true }));
                }
                Ok(MVal::from_lanes(out))
            }
            "db_insert_id" => {
                self.account(true);
                let vals = self.last_insert_id.iter().map(|i| Value::Int(*i)).collect();
                Ok(MVal::from_lanes(vals))
            }
            "db_affected_rows" => {
                self.account(true);
                let vals = self.last_affected.iter().map(|i| Value::Int(*i)).collect();
                Ok(MVal::from_lanes(vals))
            }
            "time" | "microtime" | "getpid" | "uniqid" => {
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                let kind = if name == "getpid" { "pid" } else { name };
                for l in 0..self.lanes {
                    let v = self.ctx.nondet(self.rids[l], kind).map_err(Flow::Reject)?;
                    out.push(match v {
                        NondetValue::Time(t) => Value::Int(t),
                        NondetValue::Microtime(t) => Value::Float(t),
                        NondetValue::Pid(p) => Value::Int(p),
                        NondetValue::Uniqid(u) => Value::str(u),
                        NondetValue::Rand(_) => {
                            return Err(Flow::Reject(Rejection::NondetKindMismatch {
                                rid: self.rids[l],
                            }))
                        }
                    });
                }
                Ok(MVal::from_lanes(out))
            }
            "mt_rand" | "rand" => {
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let v = self
                        .ctx
                        .nondet(self.rids[l], "rand")
                        .map_err(Flow::Reject)?;
                    let raw = match v {
                        NondetValue::Rand(r) => r,
                        _ => {
                            return Err(Flow::Reject(Rejection::NondetKindMismatch {
                                rid: self.rids[l],
                            }))
                        }
                    };
                    let lane_args: Vec<Value> = args.iter().map(|v| v.lane(l).clone()).collect();
                    out.push(builtins::mt_rand_reduce(raw, &lane_args).map_err(lane_err)?);
                }
                Ok(MVal::from_lanes(out))
            }
            other => Err(Flow::GroupFatal(format!(
                "impure builtin {other}() not handled in grouped mode"
            ))),
        }
    }
}
