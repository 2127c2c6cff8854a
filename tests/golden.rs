//! Golden corpus for the PHP runtime: pinned outputs, control-flow
//! digests and state-op traces that every change to the compiler or the
//! VMs must reproduce exactly.
//!
//! * `golden/apps.txt` pins, per application, a single-worker serve at
//!   a fixed seed and scale: the request count, the number of distinct
//!   control-flow digests, and one FNV-1a hash over
//!   `(path, digest, status, body)` in request order. The served bundle
//!   must also pass a grouped audit.
//! * `golden/fuzz_scripts.txt` holds 128 scripts drawn from the
//!   property suite's statement generator at a fixed seed, each stored
//!   verbatim with its `$_GET['p']`, expected response, digest, and the
//!   exact state- and nondeterminism-op sequence it issues.
//! * `golden/segments.txt` pins the sealed trace store: each app's
//!   golden serve spilled at a 16 KiB segment budget, as the segment
//!   count and the FNV-1a of every `seg-*.ots` file in order. Segment
//!   boundaries, the columnar encoding and the LZ match finder all
//!   decide those bytes.
//!
//! The corpus was captured while a second, independent bytecode engine
//! (a stack interpreter) still existed, with both engines asserted equal
//! on every entry; it now stands in for that engine as the reference.

use orochi::harness::driver::{
    run_audit, serve, spill_bundle, AppWorkload, AuditOptions, ServeOptions,
};
use orochi::php::backend::{BackendError, DbResult, NondetProvider, StateBackend};
use orochi::php::vm::{self, RequestInput};
use orochi::php::{compile, parse_script};
use orochi::server::server::AuditBundle;
use orochi::trace::Event;
use orochi::workload::{forum, hotcrp, shop, wiki};
use orochi_common::hash::fnv1a;
use std::collections::{HashMap, HashSet};

/// Seed and scale every app golden was captured at.
const APP_SEED: u64 = 7;
const APP_SCALE: f64 = 0.004;

fn app_workload(name: &str) -> AppWorkload {
    let (app, workload) = match name {
        "wiki" => (
            orochi::apps::wiki::app(),
            wiki::generate(&wiki::Params::scaled(APP_SCALE), APP_SEED),
        ),
        "forum" => (
            orochi::apps::forum::app(),
            forum::generate(&forum::Params::scaled(APP_SCALE), APP_SEED),
        ),
        "shop" => (
            orochi::apps::shop::app(),
            shop::generate(&shop::Params::scaled(APP_SCALE), APP_SEED),
        ),
        "hotcrp" => (
            orochi::apps::hotcrp::app(),
            hotcrp::generate(&hotcrp::Params::scaled(APP_SCALE), APP_SEED),
        ),
        other => panic!("unknown app {other:?}"),
    };
    AppWorkload {
        app,
        workload,
        seed_sql: Vec::new(),
    }
}

/// The single-worker serve every app golden is taken from.
fn golden_serve(work: &AppWorkload) -> AuditBundle {
    serve(
        work,
        &ServeOptions {
            threads: 1,
            queue_depth: 0,
            recording: true,
            seed: APP_SEED,
        },
    )
    .bundle
}

/// `(requests, distinct digests, hash)` of one single-worker serve.
fn app_fingerprint(work: &AppWorkload) -> (usize, usize, u64) {
    let bundle = &golden_serve(work);
    let digest_of: HashMap<_, _> = bundle
        .reports
        .groupings
        .iter()
        .flat_map(|(tag, rids)| rids.iter().map(move |rid| (*rid, tag.0)))
        .collect();
    let mut paths = HashMap::new();
    let mut order = Vec::new();
    let mut responses = HashMap::new();
    for event in &bundle.trace.events {
        match event {
            Event::Request(rid, req) => {
                paths.insert(*rid, req.path.as_str());
                order.push(*rid);
            }
            Event::Response(rid, resp) => {
                responses.insert(*rid, resp);
            }
        }
    }
    let mut bytes = Vec::new();
    for rid in &order {
        let resp = responses[rid];
        bytes.extend_from_slice(paths[rid].as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&digest_of[rid].to_le_bytes());
        bytes.extend_from_slice(&resp.status.to_le_bytes());
        bytes.extend_from_slice(&(resp.body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(resp.body.as_bytes());
    }
    let distinct: HashSet<u64> = digest_of.values().copied().collect();
    run_audit(
        &bundle.trace,
        &bundle.reports,
        work,
        &AuditOptions::default(),
    )
    .expect("honest golden serve is accepted");
    (order.len(), distinct.len(), fnv1a(&bytes))
}

#[test]
fn app_serves_match_pinned_goldens() {
    let golden = include_str!("golden/apps.txt");
    let mut checked = 0;
    for line in golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, requests, digests, hash] = fields[..] else {
            panic!("malformed golden line {line:?}");
        };
        let expected = (
            requests.parse::<usize>().unwrap(),
            digests.parse::<usize>().unwrap(),
            u64::from_str_radix(hash.trim_start_matches("0x"), 16).unwrap(),
        );
        let got = app_fingerprint(&app_workload(name));
        assert_eq!(got, expected, "{name}: (requests, digests, hash) drifted");
        checked += 1;
    }
    assert_eq!(checked, 4, "one golden per application");
}

/// Segment budget the store goldens were sealed at.
const SEGMENT_BUDGET: usize = 16 * 1024;

/// `<app> segments <n>` then `<app> <file> <fnv1a>` per segment, in
/// file order, for one golden serve spilled at [`SEGMENT_BUDGET`].
fn segment_fingerprint(name: &str) -> String {
    let bundle = golden_serve(&app_workload(name));
    let dir = std::env::temp_dir().join(format!(
        "orochi-golden-segments-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = spill_bundle(&bundle, &dir, SEGMENT_BUDGET).expect("spill golden bundle");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| f.starts_with("seg-") && f.ends_with(".ots"))
        .collect();
    files.sort();
    assert_eq!(files.len(), summary.segments, "{name}: summary disagrees");
    let mut out = format!("{name} segments {}\n", files.len());
    for file in &files {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        out.push_str(&format!("{name} {file} {:#018x}\n", fnv1a(&bytes)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn sealed_segments_match_pinned_goldens() {
    let golden: String = include_str!("golden/segments.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    let got: String = ["wiki", "forum", "shop", "hotcrp"]
        .into_iter()
        .map(segment_fingerprint)
        .collect();
    assert!(
        got == golden,
        "sealed segment bytes drifted; this build seals:\n{got}"
    );
}

/// An in-memory runtime backend that records every state and
/// nondeterminism call, so a run can be compared on the exact state-op
/// sequence it issues. Nondeterministic values are a deterministic
/// function of the call count; the database is absent (every DB call is
/// a fatal error).
#[derive(Default)]
struct RecordingBackend {
    regs: HashMap<String, Vec<u8>>,
    kv: HashMap<String, Vec<u8>>,
    /// Every backend call, in issue order.
    ops: Vec<String>,
    ticks: i64,
}

impl StateBackend for RecordingBackend {
    fn register_read(&mut self, object: &str) -> Result<Option<Vec<u8>>, BackendError> {
        self.ops.push(format!("reg_read {object}"));
        Ok(self.regs.get(object).cloned())
    }
    fn register_write(&mut self, object: &str, value: Vec<u8>) -> Result<(), BackendError> {
        self.ops.push(format!("reg_write {object} {value:?}"));
        self.regs.insert(object.to_string(), value);
        Ok(())
    }
    fn kv_get(&mut self, object: &str, key: &str) -> Result<Option<Vec<u8>>, BackendError> {
        self.ops.push(format!("kv_get {object} {key}"));
        Ok(self.kv.get(&format!("{object}\u{0}{key}")).cloned())
    }
    fn kv_set(
        &mut self,
        object: &str,
        key: &str,
        value: Option<Vec<u8>>,
    ) -> Result<(), BackendError> {
        self.ops.push(format!("kv_set {object} {key} {value:?}"));
        let slot = format!("{object}\u{0}{key}");
        match value {
            Some(v) => {
                self.kv.insert(slot, v);
            }
            None => {
                self.kv.remove(&slot);
            }
        }
        Ok(())
    }
    fn db_begin(&mut self, _object: &str) -> Result<(), BackendError> {
        self.ops.push("db_begin".into());
        Err(BackendError::Fatal("no db in fuzz backend".into()))
    }
    fn db_query(&mut self, _object: &str, sql: &str) -> Result<DbResult, BackendError> {
        self.ops.push(format!("db_query {sql}"));
        Err(BackendError::Fatal("no db in fuzz backend".into()))
    }
    fn db_commit(&mut self, _object: &str) -> Result<bool, BackendError> {
        self.ops.push("db_commit".into());
        Err(BackendError::Fatal("no db in fuzz backend".into()))
    }
    fn db_rollback(&mut self, _object: &str) -> Result<(), BackendError> {
        self.ops.push("db_rollback".into());
        Err(BackendError::Fatal("no db in fuzz backend".into()))
    }
    fn in_txn(&self) -> bool {
        false
    }
}

impl NondetProvider for RecordingBackend {
    fn time(&mut self) -> Result<i64, BackendError> {
        self.ticks += 1;
        self.ops.push(format!("time {}", self.ticks));
        Ok(1_500_000_000 + self.ticks)
    }
    fn microtime(&mut self) -> Result<f64, BackendError> {
        self.ticks += 1;
        self.ops.push(format!("microtime {}", self.ticks));
        Ok(self.ticks as f64 * 0.125)
    }
    fn getpid(&mut self) -> Result<i64, BackendError> {
        self.ops.push("getpid".into());
        Ok(1234)
    }
    fn mt_rand(&mut self) -> Result<i64, BackendError> {
        self.ticks += 1;
        self.ops.push(format!("mt_rand {}", self.ticks));
        Ok(self.ticks.wrapping_mul(2654435761) & 0x7fff_ffff)
    }
    fn uniqid(&mut self) -> Result<String, BackendError> {
        self.ticks += 1;
        self.ops.push(format!("uniqid {}", self.ticks));
        Ok(format!("uid{:08x}", self.ticks))
    }
}

/// One entry of `golden/fuzz_scripts.txt`.
struct FuzzGolden {
    p: String,
    src: String,
    status: u16,
    body: String,
    digest: u64,
    ops: Vec<String>,
}

/// A cursor over the length-prefixed corpus: `p <len>`, `src <len>` and
/// `body <len>` headers are followed by exactly `len` raw bytes and a
/// newline, so sources and bodies are stored verbatim.
struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    fn line(&mut self) -> &'a str {
        let (head, tail) = self.0.split_once('\n').expect("truncated corpus");
        self.0 = tail;
        head
    }

    fn count(&mut self, key: &str) -> usize {
        let l = self.line();
        l.strip_prefix(key)
            .and_then(|n| n.strip_prefix(' '))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("expected `{key} <n>`, got {l:?}"))
    }

    fn blob(&mut self, key: &str) -> String {
        let n = self.count(key);
        let (data, tail) = self.0.split_at(n);
        self.0 = tail.strip_prefix('\n').expect("blob ends in a newline");
        data.to_string()
    }
}

fn parse_fuzz_corpus(text: &str) -> Vec<FuzzGolden> {
    let mut cur = Cursor(text);
    let mut out = Vec::new();
    loop {
        let l = cur.line();
        if l.starts_with('#') {
            continue;
        }
        if l == "end of corpus" {
            return out;
        }
        assert!(
            l.starts_with("script "),
            "expected a script header, got {l:?}"
        );
        let p = cur.blob("p");
        let src = cur.blob("src");
        let body = cur.blob("body");
        let status = cur.count("status") as u16;
        let digest = cur
            .line()
            .strip_prefix("digest 0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .expect("digest line");
        let n_ops = cur.count("ops");
        let ops = (0..n_ops).map(|_| cur.line().to_string()).collect();
        out.push(FuzzGolden {
            p,
            src,
            status,
            body,
            digest,
            ops,
        });
    }
}

#[test]
fn fuzzed_scripts_match_pinned_goldens() {
    let corpus = parse_fuzz_corpus(include_str!("golden/fuzz_scripts.txt"));
    assert!(corpus.len() >= 128, "corpus holds {} scripts", corpus.len());
    for (i, g) in corpus.iter().enumerate() {
        let parsed = parse_script(&g.src).unwrap_or_else(|e| panic!("script {i} parse: {e}"));
        let script = compile("/fuzz.php", &parsed).unwrap_or_else(|e| panic!("script {i}: {e}"));
        let input = RequestInput {
            method: "GET".into(),
            path: "/fuzz.php".into(),
            get: vec![("p".into(), g.p.clone())],
            ..Default::default()
        };
        let mut backend = RecordingBackend::default();
        let run = vm::run_request(&script, &mut backend, &input)
            .unwrap_or_else(|e| panic!("script {i} rejected: {e}"));
        assert_eq!(run.output.status, g.status, "script {i} status\n{}", g.src);
        assert!(run.output.headers.is_empty(), "script {i} headers");
        assert_eq!(run.output.body, g.body, "script {i} body\n{}", g.src);
        assert_eq!(run.digest, g.digest, "script {i} digest\n{}", g.src);
        assert_eq!(backend.ops, g.ops, "script {i} state ops\n{}", g.src);
    }
}
