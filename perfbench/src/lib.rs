//! The serve → seal → audit benchmark. `perfbench/run.py` is its entry
//! point; its docstring records why each workload was chosen, which
//! end-to-end metric each layer metric should move, and the measured
//! spreads the design handles.
//!
//! Two binaries share this library. `perfbench` runs untraced and
//! reports the end-to-end metrics; it is also the auditor process whose
//! peak resident set gives the peak-memory metrics. `perfbench-traced`
//! installs the counting allocator and reports the per-layer metrics.

pub mod peak;
pub mod pipeline;
pub mod report;
pub mod timed;
pub mod traced;
pub mod workloads;

use orochi_core::audit::{audit_parallel_source, AuditStats, Rejection};
use orochi_core::coldstore;
use orochi_core::streaming::audit_streaming_source;
use orochi_harness::mutation::MutationPlan;
use orochi_trace::{Trace, TraceSource, TraceStoreReader};
use pipeline::{
    audit_store, executors, prepare, seal, serve, start_server, verdict, Engine, Prepared,
    EPOCH_EVENTS, SEGMENT_BYTES,
};
use report::{emit, median, median_index, tail, Metric, Samples, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::BatchTrace;
use workloads::Workload;

/// A run repeats the pipeline at least this often, however short
/// `--seconds` is, so every median has three samples.
const MIN_ITERATIONS: usize = 3;

/// The streaming audit must cover at least this many epochs.
const MIN_EPOCHS: u64 = 10;

const USAGE: &str = "usage: perfbench[-traced] --workload hotcrp|wiki|shop --seed N \
--seconds S --work-dir DIR\n       perfbench --auditor batch|stream --workload W --store DIR";

/// A benchmark run's arguments.
struct BenchArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    work_dir: PathBuf,
}

enum Mode {
    Bench(BenchArgs),
    Auditor {
        engine: Engine,
        workload: Workload,
        store: PathBuf,
    },
}

fn parse_args(args: &[String], traced: bool) -> Result<Mode, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |key: &str| {
        flags
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = get("workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    if let Some(engine) = flags.get("auditor") {
        return Ok(Mode::Auditor {
            engine: Engine::parse(engine).ok_or_else(|| format!("unknown engine {engine:?}"))?,
            workload,
            store: PathBuf::from(get("store")?),
        });
    }
    let number = |key: &str| -> Result<u64, String> {
        let v = get(key)?;
        v.parse()
            .map_err(|_| format!("--{key} must be a number, got {v:?}"))
    };
    Ok(Mode::Bench(BenchArgs {
        workload,
        seed: number("seed")?,
        seconds: number("seconds")?,
        traced,
        work_dir: PathBuf::from(get("work-dir")?),
    }))
}

/// Entry point of both binaries; `traced` says which one this is.
pub fn main(traced: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match parse_args(&args, traced) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::Auditor {
            engine,
            workload,
            store,
        }) => {
            peak::auditor_main(engine, workload, &store, threads);
            ExitCode::SUCCESS
        }
        Ok(Mode::Bench(args)) => match run(&args, threads) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark failed: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn run(args: &BenchArgs, threads: usize) -> Result<(), String> {
    let root = args.work_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
    let probe = args.workload.generate(args.seed).workload;
    println!(
        "workload {} at {}x the paper's parameters, seed {}: {} set-up + {} measured requests; \
         {threads} serving workers and {threads} audit threads (available_parallelism {threads}); \
         segment budget {SEGMENT_BYTES} B; epoch {EPOCH_EVENTS} events; {}",
        args.workload.name(),
        args.workload.scale(),
        args.seed,
        probe.setup.len(),
        probe.requests.len(),
        if args.traced { "traced" } else { "untraced" }
    );
    drop(probe);

    let mut run = Run {
        args,
        threads,
        tally: Tally::default(),
        samples: Samples::default(),
        batches: Vec::new(),
    };
    let deadline = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || t0.elapsed() < deadline {
        let store = root.join(format!("store-{i}"));
        let result = run.iteration(i, &store);
        let _ = std::fs::remove_dir_all(&store);
        result?;
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&root);
    println!("{i} iterations in {:.1} s", t0.elapsed().as_secs_f64());
    let work = |name| run.samples.median(name);
    println!(
        "median work per iteration: {} events, {} requests, {} groups, {} executed dispatches, \
         {} segments",
        work("work.events"),
        work("work.requests"),
        work("work.groups"),
        work("work.dispatches"),
        work("work.segments")
    );
    let metrics = if args.traced {
        run.layer_metrics()
    } else {
        run.end_to_end_metrics()
    };
    emit(&run.tally, &metrics);
    Ok(())
}

struct Run<'a> {
    args: &'a BenchArgs,
    threads: usize,
    tally: Tally,
    samples: Samples,
    /// Traced batch audits, for the decomposition of the median one.
    batches: Vec<BatchTrace>,
}

impl Run<'_> {
    /// One pipeline iteration over a fresh server and a fresh store.
    fn iteration(&mut self, i: usize, store: &Path) -> Result<(), String> {
        let (workload, seed, threads) = (self.args.workload, self.args.seed, self.threads);
        let traced = self.args.traced;
        let t_setup = Instant::now();
        let prepared = prepare(workload, seed);
        let server = start_server(&prepared, true, seed);
        let batch_workers = executors(&prepared.scripts, threads);
        let mut stream_workers = executors(&prepared.scripts, threads);
        let setup = t_setup.elapsed();
        let requests = &prepared.work.workload.requests;

        // The recording and baseline arms alternate which goes first.
        let baseline_first = i.is_multiple_of(2);
        if traced && baseline_first {
            self.baseline_arm(&prepared);
        }

        let t_pipeline = Instant::now();
        let served = serve(server, requests, threads);
        let submitted = requests.len() as u64;
        self.tally
            .requests(submitted, submitted.saturating_sub(served.handled));
        let (serve_wall, serve_busy, handled) = (served.wall, served.busy, served.handled);
        let sealed = seal(served.server, store).map_err(|e| format!("sealing: {e}"))?;
        let events = sealed.summary.events;
        let trace_requests = (events / 2) as usize;

        let t_audit = Instant::now();
        let (batch, audit_wall): (Result<AuditStats, Rejection>, Duration) = if traced {
            match traced::batch_audit(store, &prepared.config, batch_workers) {
                Ok(t) => {
                    let out = (Ok(t.stats.clone()), t.wall);
                    self.batches.push(t);
                    out
                }
                Err(r) => (Err(r), t_audit.elapsed()),
            }
        } else {
            let mut workers = batch_workers;
            let outcome = audit_store(Engine::Batch, store, &mut workers, &prepared.config);
            (outcome.map(|o| o.stats), t_audit.elapsed())
        };
        let pipeline = t_pipeline.elapsed();
        let batch = match batch {
            Ok(stats) => {
                self.tally.check(
                    stats.requests_reexecuted == trace_requests,
                    format_args!(
                        "batch audit re-executed {} of {trace_requests} requests",
                        stats.requests_reexecuted
                    ),
                );
                Some(stats)
            }
            Err(r) => {
                self.tally.check(
                    false,
                    format_args!("batch audit rejected the honest store: {r}"),
                );
                None
            }
        };

        let t_stream = Instant::now();
        let (stream, epochs, stream_wall) = if traced {
            match traced::stream_audit(store, &prepared.config, &mut stream_workers) {
                Ok(t) => {
                    let s = &mut self.samples;
                    for feed in &t.feeds {
                        s.push("feed_ms", secs(*feed) * 1e3);
                    }
                    s.push("core.streaming.finish_s", secs(t.finish));
                    s.push("core.streaming.carry_bytes_max", t.carry_max as f64);
                    s.push("mem.stream_mb", t.mem);
                    (Ok(t.stats), t.feeds.len() as u64, t.wall)
                }
                Err(r) => (Err(r), 0, t_stream.elapsed()),
            }
        } else {
            let outcome = audit_store(Engine::Stream, store, &mut stream_workers, &prepared.config);
            (
                outcome.map(|o| o.stats),
                events.div_ceil(EPOCH_EVENTS as u64),
                t_stream.elapsed(),
            )
        };
        match (&stream, &batch) {
            (Ok(s), Some(b)) => self.tally.check(
                (s.requests_reexecuted, s.groups_executed)
                    == (b.requests_reexecuted, b.groups_executed),
                format_args!(
                    "streaming audit re-executed {} requests in {} groups, batch {} in {}",
                    s.requests_reexecuted,
                    s.groups_executed,
                    b.requests_reexecuted,
                    b.groups_executed
                ),
            ),
            (Ok(_), None) => self.tally.check(
                false,
                "streaming audit accepted a store the batch audit rejected",
            ),
            (Err(r), _) => self.tally.check(
                false,
                format_args!("streaming audit rejected the honest store: {r}"),
            ),
        }
        self.tally.check(
            epochs >= MIN_EPOCHS,
            format_args!("the streaming audit covered {epochs} epochs, fewer than {MIN_EPOCHS}"),
        );

        let groups = batch.as_ref().map_or(0, |b| b.groups_executed);
        let dispatches = batch.as_ref().map_or(0, |b| b.vm_dispatch_executed);

        // Auditor processes, in the first iterations only: peak memory
        // when untraced, the untraced audit wall of the same store when
        // traced.
        let engines: &[Engine] = match (i < MIN_ITERATIONS, traced) {
            (false, _) => &[],
            (true, true) => &[Engine::Batch],
            (true, false) => &[Engine::Batch, Engine::Stream],
        };
        let mut peaks = Vec::new();
        for &engine in engines {
            match peak::spawn(engine, workload, store) {
                Ok(r) => {
                    self.tally.check(
                        r.verdict == "accept" && r.requests == trace_requests && r.groups == groups,
                        format_args!(
                            "{} auditor process: {} after {} of {trace_requests} requests \
                             in {} of {groups} groups",
                            engine.name(),
                            r.verdict,
                            r.requests,
                            r.groups
                        ),
                    );
                    peaks.push((engine, r));
                }
                Err(e) => self.tally.check(false, e),
            }
        }

        if traced {
            if i == 0 {
                self.mutation_check(store, &prepared);
            }
            if !baseline_first {
                self.baseline_arm(&prepared);
            }
        }

        println!(
            "iteration {i}: setup {:.3} s | serve {:.3} s, {handled} requests | seal {:.3} s, \
             {events} events, {} segments | audit {:.3} s, {groups} groups, {dispatches} \
             executed dispatches | stream {:.3} s, {epochs} epochs | pipeline {:.3} s",
            secs(setup),
            secs(serve_wall),
            secs(sealed.total()),
            sealed.summary.segments,
            secs(audit_wall),
            secs(stream_wall),
            secs(pipeline),
        );

        let s = &mut self.samples;
        let per_event = |bytes: u64| bytes as f64 / events as f64;
        s.push("work.events", events as f64);
        s.push("work.requests", trace_requests as f64);
        s.push("work.groups", groups as f64);
        s.push("work.dispatches", dispatches as f64);
        s.push("work.segments", sealed.summary.segments as f64);
        if traced {
            s.push("workload.generate_s", secs(prepared.generate));
            s.push("php.compile_s", secs(prepared.compile));
            s.push("record_busy_us", secs(serve_busy) * 1e6 / handled as f64);
            s.push("server.requests", handled as f64);
            s.push("server.refused", submitted.saturating_sub(handled) as f64);
            s.push("server.into_bundle_s", secs(sealed.into_bundle));
            s.push("trace.seal_s", secs(sealed.trace_seal));
            s.push("trace.segments", sealed.summary.segments as f64);
            s.push(
                "trace.segment_bytes_per_event",
                per_event(sealed.summary.segment_bytes),
            );
            s.push("core.coldstore.spill_s", secs(sealed.spill));
            s.push(
                "core.coldstore.blob_bytes_per_event",
                per_event(sealed.summary.blob_bytes),
            );
            s.push("core.streaming.epochs", epochs as f64);
            s.push("core.streaming.wall_s", secs(stream_wall));
            for (_, r) in &peaks {
                s.push("untraced_audit_s", r.wall_s);
            }
        } else {
            s.push("setup_s", secs(setup));
            s.push("serve_req_per_s", handled as f64 / secs(serve_wall));
            s.push("seal_s", secs(sealed.total()));
            s.push("audit_s", secs(audit_wall));
            s.push("stream_audit_s", secs(stream_wall));
            s.push("pipeline_s", secs(pipeline));
            s.push("store_bytes_per_event", per_event(sealed.store_bytes));
            for (engine, r) in &peaks {
                let name = match engine {
                    Engine::Batch => "audit_peak_mb",
                    Engine::Stream => "stream_peak_mb",
                };
                s.push(name, r.peak_mb);
            }
        }
        Ok(())
    }

    /// Serves the same requests with recording off, for the server's
    /// recording cost.
    fn baseline_arm(&mut self, prepared: &Prepared) {
        let requests = &prepared.work.workload.requests;
        let server = start_server(prepared, false, self.args.seed);
        let served = serve(server, requests, self.threads);
        let submitted = requests.len() as u64;
        self.tally
            .requests(submitted, submitted.saturating_sub(served.handled));
        self.samples.push(
            "baseline_busy_us",
            secs(served.busy) * 1e6 / served.handled as f64,
        );
    }

    /// A k=1 mutation of the honest store must be rejected by the batch
    /// and the streaming engine with byte-identical diagnostics.
    fn mutation_check(&mut self, store: &Path, prepared: &Prepared) {
        let loaded = TraceStoreReader::open(store).and_then(|reader| {
            let mut events = Vec::new();
            reader.stream_events(&mut |e| {
                events.push(e);
                true
            })?;
            Ok((Trace { events }, coldstore::load_reports(&reader)?))
        });
        let (mut trace, mut reports) = match loaded {
            Ok(loaded) => loaded,
            Err(e) => {
                self.tally
                    .check(false, format_args!("reading the store back: {e}"));
                return;
            }
        };
        let plan = MutationPlan {
            seed: self.args.seed,
            k: 1,
        };
        let sites = plan.apply(&mut trace, &mut reports);
        let batch = verdict(&audit_parallel_source(
            &trace,
            &reports,
            &mut executors(&prepared.scripts, self.threads),
            &prepared.config,
        ));
        let stream = verdict(&audit_streaming_source(
            &trace,
            &reports,
            &mut executors(&prepared.scripts, self.threads),
            &prepared.config,
            EPOCH_EVENTS,
        ));
        println!("mutation {sites:?}: batch {batch:?}");
        self.tally.check(
            !sites.is_empty() && batch.starts_with("reject") && batch == stream,
            format_args!("mutation {sites:?}: batch {batch:?}, streaming {stream:?}"),
        );
    }

    fn end_to_end_metrics(&self) -> Vec<Metric> {
        let m = |name: &'static str, unit: &'static str| Metric {
            name,
            value: self.samples.median(name),
            unit,
        };
        let ok = self.tally.attempted - self.tally.failed;
        vec![
            m("setup_s", "s"),
            m("serve_req_per_s", "req/s"),
            m("seal_s", "s"),
            m("audit_s", "s"),
            m("stream_audit_s", "s"),
            m("pipeline_s", "s"),
            m("audit_peak_mb", "MB"),
            m("stream_peak_mb", "MB"),
            m("store_bytes_per_event", "B"),
            Metric {
                name: "ok_frac",
                value: ok as f64 / self.tally.attempted.max(1) as f64,
                unit: "ratio",
            },
        ]
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let s = &self.samples;
        let mut out = Vec::new();
        let mut put = |name: &'static str, value: f64, unit: &'static str| {
            out.push(Metric { name, value, unit })
        };
        for (name, unit) in [
            ("workload.generate_s", "s"),
            ("php.compile_s", "s"),
            ("server.requests", "count"),
            ("server.refused", "count"),
            ("server.into_bundle_s", "s"),
            ("trace.seal_s", "s"),
            ("trace.segments", "count"),
            ("trace.segment_bytes_per_event", "B"),
            ("core.coldstore.spill_s", "s"),
            ("core.coldstore.blob_bytes_per_event", "B"),
        ] {
            put(name, s.median(name), unit);
        }
        put("server.busy_us_per_req", s.median("record_busy_us"), "us");
        put(
            "server.record_busy_ratio",
            s.median("record_busy_us") / s.median("baseline_busy_us"),
            "ratio",
        );

        // The wall decomposition comes from one audit, the median one,
        // so that its parts add up to its wall.
        let walls: Vec<f64> = self.batches.iter().map(|b| secs(b.wall)).collect();
        if let Some(b) = (!walls.is_empty()).then(|| &self.batches[median_index(&walls)]) {
            let phase = |name: &str| secs(b.stats.phases.get(name));
            let parts = [
                ("trace.open_s", secs(b.open)),
                ("core.coldstore.load_reports_s", secs(b.load_reports)),
                ("trace.balance_s", secs(b.balance)),
                ("core.graph.process_op_reports_s", phase("ProcOpRep")),
                ("core.audit.store_build_s", phase("DB redo")),
                ("accphp.reexec_wall_s", secs(b.reexec_wall())),
                ("core.audit.output_s", phase("Output")),
            ];
            let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
            for (name, v) in parts {
                put(name, v, "s");
            }
            put("core.audit.unattributed_s", secs(b.wall) - attributed, "s");
            put("core.audit.wall_s", secs(b.wall), "s");
            println!(
                "median traced audit {:.6} s = {:.6} s in timed layers + {:.6} s unattributed",
                secs(b.wall),
                attributed,
                secs(b.wall) - attributed
            );
        }

        let per_batch = |f: &dyn Fn(&BatchTrace) -> f64| -> f64 {
            median(&self.batches.iter().map(f).collect::<Vec<_>>())
        };
        let threads = self.threads as f64;
        put(
            "core.graph.nodes",
            per_batch(&|b| b.stats.graph_nodes as f64),
            "count",
        );
        put(
            "core.graph.edges",
            per_batch(&|b| b.stats.graph_edges as f64),
            "count",
        );
        put(
            "accphp.reexec_busy_s",
            per_batch(&|b| secs(b.reexec_busy())),
            "s",
        );
        put(
            "accphp.worker_util",
            per_batch(&|b| secs(b.reexec_busy()) / (threads * secs(b.reexec_wall()))),
            "ratio",
        );
        put(
            "accphp.group_max_ms",
            per_batch(&|b| {
                b.spans
                    .iter()
                    .map(|s| secs(s.end - s.start) * 1e3)
                    .fold(0.0, f64::max)
            }),
            "ms",
        );
        put(
            "accphp.vm_dispatch_executed",
            per_batch(&|b| b.stats.vm_dispatch_executed as f64),
            "count",
        );
        put(
            "accphp.dispatch_dedup",
            per_batch(&|b| b.stats.vm_dispatch_total as f64 / b.stats.vm_dispatch_executed as f64),
            "ratio",
        );
        put(
            "accphp.fallback_frac",
            per_batch(&|b| {
                let attempts = b.exec.grouped + b.exec.fallbacks;
                b.exec.fallbacks as f64 / attempts.max(1) as f64
            }),
            "ratio",
        );
        put(
            "sqldb.query_s",
            per_batch(&|b| secs(b.stats.db_query_wall)),
            "s",
        );
        put(
            "sqldb.queries_issued",
            per_batch(&|b| b.stats.db_queries_issued as f64),
            "count",
        );
        put(
            "sqldb.dedup_hit_frac",
            per_batch(&|b| {
                let deduped = b.stats.db_queries_deduped as f64;
                deduped / (deduped + b.stats.db_queries_issued as f64).max(1.0)
            }),
            "ratio",
        );
        put(
            "sqldb.versioned_bytes",
            per_batch(&|b| b.stats.db_versioned_bytes as f64),
            "B",
        );
        put(
            "mem.load_reports_mb",
            per_batch(&|b| b.mem_load_reports),
            "MB",
        );
        put("mem.balance_mb", per_batch(&|b| b.mem_balance), "MB");
        put("mem.graph_mb", per_batch(&|b| b.mem_graph), "MB");
        put("mem.audit_mb", per_batch(&|b| b.mem_audit), "MB");
        put("mem.stream_mb", s.median("mem.stream_mb"), "MB");

        let feeds = s.all("feed_ms");
        put(
            "core.streaming.epochs",
            s.median("core.streaming.epochs"),
            "count",
        );
        put("core.streaming.feed_ms_p50", median(feeds), "ms");
        let (pct, tail_ms) = tail(feeds).unwrap_or((f64::NAN, f64::NAN));
        put("core.streaming.feed_ms_tail", tail_ms, "ms");
        println!(
            "core.streaming.feed_ms_tail is p{pct:.1} of {} epoch feeds",
            feeds.len()
        );
        for (name, unit) in [
            ("core.streaming.finish_s", "s"),
            ("core.streaming.carry_bytes_max", "B"),
            ("core.streaming.wall_s", "s"),
            ("work.events", "count"),
            ("work.requests", "count"),
            ("work.groups", "count"),
        ] {
            put(name, s.median(name), unit);
        }
        // The auditor processes audited the first iterations' stores.
        put(
            "tracing_overhead",
            median(&walls[..walls.len().min(MIN_ITERATIONS)]) / s.median("untraced_audit_s"),
            "ratio",
        );
        out
    }
}
