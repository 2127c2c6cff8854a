//! One typed configuration for every OROCHI knob, and the only reader
//! of the process environment.
//!
//! Each bench binary builds a [`Config`] once at the top of `main` with
//! [`Config::load`] — the `OROCHI_*` variables first, the command-line
//! flags on top (flags win) — and passes it, or values taken from it,
//! down the call chain: workload builders take a [`Skew`], the drivers
//! take [`ServeOptions`] / [`crate::AuditOptions`], and the binary sets the
//! telemetry switch with `orochi_obs::set_enabled(config.obs_enabled())`.
//! No code below `main` reads the environment.
//!
//! Every knob is one row of a single table, so a variable and its flag
//! go through the same parser and land on the same field. An empty
//! value leaves the field as it was, except for the two thread counts,
//! where empty means `auto`.
//!
//! | Field | Variable | Flag | Default |
//! |---|---|---|---|
//! | `serve_threads` | `OROCHI_SERVE_THREADS` | `--serve-threads` | 4 |
//! | `serve_queue` | `OROCHI_SERVE_QUEUE` | `--queue-depth` | unbounded |
//! | `audit_threads` | `OROCHI_AUDIT_THREADS` | `--audit-threads` | auto |
//! | `skew` | `OROCHI_WORKLOAD_SKEW` | `--skew`, `--session-len` | per-workload |
//! | `full` | `OROCHI_FULL` | `--full` | CI scale |
//! | `bench_json` | `OROCHI_BENCH_JSON` | `--bench-json` | off |
//! | `store_dir` | `OROCHI_STORE_DIR` | `--store-dir` | in-RAM audit |
//! | `segment_bytes` | `OROCHI_SEGMENT_BYTES` | `--segment-bytes` | 1 MiB |
//! | `epoch_events` | `OROCHI_EPOCH_EVENTS` | `--epoch-events` | 0 (batch) |
//! | `obs` | `OROCHI_OBS` | `--obs` | off |
//! | `obs_out` | `OROCHI_OBS_OUT` | `--obs-out` | no export |
//! | `campaigns` | `OROCHI_CAMPAIGNS` | `--campaigns` | bin-sized |
//! | `campaign_k` | `OROCHI_CAMPAIGN_K` | `--campaign-k` | 0 (cycle 1–3) |
//! | `campaign_seed` | `OROCHI_CAMPAIGN_SEED` | `--campaign-seed` | 0xC0FFEE |

use crate::driver::{resolve_audit_threads, resolve_serve_threads, ServeOptions};
use orochi_trace::DEFAULT_SEGMENT_BYTES;
use orochi_workload::skew::Skew;
use std::path::PathBuf;

/// A thread-count knob: explicit, or "whatever the machine has".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Use the available parallelism.
    Auto,
    /// An explicit count (`0` also means auto at resolution time).
    Exact(usize),
}

impl Threads {
    /// A count, or `auto` (any case) or empty for the machine's
    /// parallelism.
    fn parse(v: &str) -> Result<Threads, String> {
        if v.is_empty() || v.eq_ignore_ascii_case("auto") {
            Ok(Threads::Auto)
        } else {
            v.parse()
                .map(Threads::Exact)
                .map_err(|_| format!("must be a number or 'auto', got {v:?}"))
        }
    }
}

/// The consolidated knob set. Fields are public; construct with
/// [`Config::default`] or [`Config::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Serving front-end worker threads.
    pub serve_threads: Threads,
    /// Admission-queue depth; `0` = unbounded.
    pub serve_queue: usize,
    /// Audit re-execution worker threads.
    pub audit_threads: Threads,
    /// Workload skew override (Zipf theta, session length).
    pub skew: Skew,
    /// Paper-scale workloads instead of the CI-friendly fraction.
    pub full: bool,
    /// Where bench binaries write their JSON row; `None` = don't.
    pub bench_json: Option<String>,
    /// Directory for the segmented trace store; `None` = audit in RAM.
    pub store_dir: Option<PathBuf>,
    /// Segment size budget for trace spilling.
    pub segment_bytes: usize,
    /// Epoch budget for the streaming audit, in trace events; `0`
    /// means batch (the whole trace as one epoch).
    pub epoch_events: usize,
    /// Enable the clock-bearing telemetry layer (spans, event journal,
    /// admission-wait timestamps). Implied by `obs_out`.
    pub obs: bool,
    /// Export prefix for telemetry artifacts: `<prefix>.metrics.json`,
    /// `<prefix>.prom`, `<prefix>.trace.json`; `None` = no export.
    pub obs_out: Option<PathBuf>,
    /// Number of mutated campaign runs for the adversarial campaign
    /// bench; `0` means the binary picks its own smoke/full sizing.
    pub campaigns: usize,
    /// Mutation sites per campaign; `0` cycles k through 1–3.
    pub campaign_k: usize,
    /// Base seed for the campaign's mutation plans.
    pub campaign_seed: u64,
    /// Server randomness seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            serve_threads: Threads::Exact(4),
            serve_queue: 0,
            audit_threads: Threads::Auto,
            skew: Skew::default(),
            full: false,
            bench_json: None,
            store_dir: None,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            epoch_events: 0,
            obs: false,
            obs_out: None,
            campaigns: 0,
            campaign_k: 0,
            campaign_seed: 0xC0FFEE,
            seed: 42,
        }
    }
}

/// Every knob, in usage-message order: its variable (if any), its flag,
/// and the flag's value hint (empty for a switch, which takes no value
/// and reads as `"1"`). [`Config::set`] parses both sources.
const KNOBS: &[(Option<&str>, &str, &str)] = &[
    (Some("OROCHI_SERVE_THREADS"), "--serve-threads", "<n|auto>"),
    (Some("OROCHI_SERVE_QUEUE"), "--queue-depth", "<n>"),
    (Some("OROCHI_AUDIT_THREADS"), "--audit-threads", "<n|auto>"),
    (
        Some("OROCHI_WORKLOAD_SKEW"),
        "--skew",
        "<theta[,session_len]>",
    ),
    (None, "--session-len", "<len>"),
    (Some("OROCHI_FULL"), "--full", ""),
    (Some("OROCHI_BENCH_JSON"), "--bench-json", "<path>"),
    (Some("OROCHI_STORE_DIR"), "--store-dir", "<path>"),
    (Some("OROCHI_SEGMENT_BYTES"), "--segment-bytes", "<n>"),
    (Some("OROCHI_EPOCH_EVENTS"), "--epoch-events", "<n>"),
    (Some("OROCHI_OBS"), "--obs", ""),
    (Some("OROCHI_OBS_OUT"), "--obs-out", "<prefix>"),
    (Some("OROCHI_CAMPAIGNS"), "--campaigns", "<n>"),
    (Some("OROCHI_CAMPAIGN_K"), "--campaign-k", "<k>"),
    (Some("OROCHI_CAMPAIGN_SEED"), "--campaign-seed", "<seed>"),
];

/// `1` or `true` (any case) switch a knob on; anything else is off.
fn truthy(v: &str) -> bool {
    v == "1" || v.eq_ignore_ascii_case("true")
}

/// A decimal or `0x`-prefixed hexadecimal seed.
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

impl Config {
    /// The process configuration of binary `bin`: every `OROCHI_*`
    /// variable, then the command-line flags on top. This is the only
    /// place the process environment is read.
    ///
    /// # Panics
    ///
    /// See [`Config::from_sources`].
    pub fn load(bin: &str) -> Config {
        let vars = KNOBS
            .iter()
            .filter_map(|k| k.0)
            .filter_map(|name| Some((name, std::env::var(name).ok()?)));
        Config::from_sources(bin, vars, std::env::args().skip(1))
    }

    /// [`Config::load`] over explicit sources: `vars` as (name, value)
    /// pairs (names that are no knob's variable are ignored), then
    /// `args` as flags, which win over the variables.
    ///
    /// # Panics
    ///
    /// Panics, naming `bin`, on unknown flags, missing values, or
    /// malformed values — a silently ignored knob would corrupt an
    /// experiment.
    pub fn from_sources<K: AsRef<str>, V: AsRef<str>>(
        bin: &str,
        vars: impl IntoIterator<Item = (K, V)>,
        args: impl IntoIterator<Item = String>,
    ) -> Config {
        let mut config = Config::default();
        let mut apply = |flag: &str, source: &str, value: &str| {
            config
                .set(flag, value)
                .unwrap_or_else(|e| panic!("{bin}: {source} {e}"));
        };
        for (name, value) in vars {
            let name = name.as_ref();
            if let Some(&(_, flag, _)) = KNOBS.iter().find(|k| k.0 == Some(name)) {
                apply(flag, name, value.as_ref());
            }
        }
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&(_, flag, hint)) = KNOBS.iter().find(|k| k.1 == arg) else {
                let usage: Vec<String> = KNOBS
                    .iter()
                    .map(|(_, flag, hint)| format!("{flag} {hint}").trim_end().to_string())
                    .collect();
                panic!(
                    "{bin}: unknown argument {arg:?} (supported: {})",
                    usage.join(", ")
                );
            };
            let value = if hint.is_empty() {
                "1".to_string()
            } else {
                args.next()
                    .unwrap_or_else(|| panic!("{bin}: {flag} needs a value"))
            };
            apply(flag, flag, &value);
        }
        config
    }

    /// The one parser behind both sources: sets the field that `flag`
    /// names from `v`. An empty value leaves the field as it was,
    /// except for the thread counts, where it means `auto`. An error
    /// completes the sentence "`<variable or flag>` …".
    fn set(&mut self, flag: &str, v: &str) -> Result<(), String> {
        let count = |what: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("must be {what}, got {v:?}"))
        };
        match flag {
            "--serve-threads" => self.serve_threads = Threads::parse(v)?,
            "--audit-threads" => self.audit_threads = Threads::parse(v)?,
            _ if v.is_empty() => {}
            "--queue-depth" => self.serve_queue = count("a queue depth")?,
            "--skew" => self.merge_skew(v)?,
            "--session-len" => self.merge_skew(&format!(",{v}"))?,
            "--full" => self.full = truthy(v),
            "--bench-json" => self.bench_json = Some(v.to_string()),
            "--store-dir" => self.store_dir = Some(v.into()),
            "--segment-bytes" => self.segment_bytes = count("a byte count")?,
            "--epoch-events" => self.epoch_events = count("an event count")?,
            "--obs" => self.obs = truthy(v),
            "--obs-out" => self.obs_out = Some(v.into()),
            "--campaigns" => self.campaigns = count("a campaign count")?,
            "--campaign-k" => self.campaign_k = count("a site count")?,
            "--campaign-seed" => {
                self.campaign_seed = parse_seed(v)
                    .ok_or_else(|| format!("must be a seed (decimal or 0x hex), got {v:?}"))?
            }
            _ => unreachable!("{flag} is listed in KNOBS without a parser"),
        }
        Ok(())
    }

    /// Merges a `theta[,session_len]` override: only the parts it names
    /// replace the current skew.
    fn merge_skew(&mut self, raw: &str) -> Result<(), String> {
        let parsed = Skew::parse(raw).map_err(|e| format!("is invalid: {e}"))?;
        self.skew.theta = parsed.theta.or(self.skew.theta);
        self.skew.session_len = parsed.session_len.or(self.skew.session_len);
        Ok(())
    }

    /// Whether the clock-bearing telemetry layer should be on: asked
    /// for explicitly (`--obs`), or implied by an export destination.
    pub fn obs_enabled(&self) -> bool {
        self.obs || self.obs_out.is_some()
    }

    /// Workload scale: the paper's full counts with `full`, otherwise a
    /// CI-friendly fraction.
    pub fn scale(&self) -> f64 {
        if self.full {
            1.0
        } else {
            0.05
        }
    }

    /// Resolved serving worker count.
    pub fn resolved_serve_threads(&self) -> usize {
        match self.serve_threads {
            Threads::Auto => resolve_serve_threads(0),
            Threads::Exact(n) => resolve_serve_threads(n),
        }
    }

    /// Resolved (hardware-clamped) audit worker count.
    pub fn resolved_audit_threads(&self) -> usize {
        match self.audit_threads {
            Threads::Auto => resolve_audit_threads(0),
            Threads::Exact(n) => resolve_audit_threads(n),
        }
    }

    /// Serving options carrying this configuration.
    pub fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            threads: self.resolved_serve_threads(),
            queue_depth: self.serve_queue,
            recording: true,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Threads::{Auto, Exact};

    /// Loads from an injected variable list and flag list; the process
    /// environment is never read or written.
    fn load(vars: &[(&str, &str)], flags: &[&str]) -> Config {
        Config::from_sources(
            "t",
            vars.iter().copied(),
            flags.iter().map(|s| s.to_string()),
        )
    }

    fn path(p: &str) -> Option<PathBuf> {
        Some(PathBuf::from(p))
    }

    fn skew(theta: f64, session_len: f64) -> Skew {
        Skew {
            theta: Some(theta),
            session_len: Some(session_len),
        }
    }

    /// Every valued knob with a variable: the variable, the flag, a
    /// value `a` and a second value `b`, and whether a config holds `a`
    /// in the knob's own field.
    type Row = (
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        Holds,
    );
    type Holds = fn(&Config) -> bool;
    #[rustfmt::skip]
    const VALUED: &[Row] = &[
        ("OROCHI_SERVE_THREADS", "--serve-threads", "8", "auto", |c| c.serve_threads == Exact(8)),
        ("OROCHI_SERVE_QUEUE", "--queue-depth", "64", "7", |c| c.serve_queue == 64),
        ("OROCHI_AUDIT_THREADS", "--audit-threads", "3", "auto", |c| c.audit_threads == Exact(3)),
        ("OROCHI_WORKLOAD_SKEW", "--skew", "0.8,4", "1.1", |c| c.skew == skew(0.8, 4.0)),
        ("OROCHI_BENCH_JSON", "--bench-json", "/o", "/p", |c| c.bench_json == Some("/o".into())),
        ("OROCHI_STORE_DIR", "--store-dir", "/s", "/t", |c| c.store_dir == path("/s")),
        ("OROCHI_SEGMENT_BYTES", "--segment-bytes", "65536", "64", |c| c.segment_bytes == 65536),
        ("OROCHI_EPOCH_EVENTS", "--epoch-events", "512", "32", |c| c.epoch_events == 512),
        ("OROCHI_OBS_OUT", "--obs-out", "/obs", "/o2", |c| c.obs_out == path("/obs")),
        ("OROCHI_CAMPAIGNS", "--campaigns", "500", "5", |c| c.campaigns == 500),
        ("OROCHI_CAMPAIGN_K", "--campaign-k", "2", "3", |c| c.campaign_k == 2),
        ("OROCHI_CAMPAIGN_SEED", "--campaign-seed", "0xDEAD", "97", |c| c.campaign_seed == 0xDEAD),
    ];

    /// The switches: variable, flag, and whether a config has it on.
    type Switch = (&'static str, &'static str, Holds);
    const SWITCHES: &[Switch] = &[
        ("OROCHI_FULL", "--full", |c| c.full),
        ("OROCHI_OBS", "--obs", |c| c.obs),
    ];

    #[test]
    fn every_knob_is_covered_by_the_table_test() {
        let pairs: Vec<(Option<&str>, &str)> = VALUED
            .iter()
            .map(|r| (Some(r.0), r.1))
            .chain(SWITCHES.iter().map(|r| (Some(r.0), r.1)))
            .chain([(None, "--session-len")])
            .collect();
        let knobs: Vec<(Option<&str>, &str)> = KNOBS.iter().map(|k| (k.0, k.1)).collect();
        assert_eq!(pairs.len(), knobs.len());
        for knob in &knobs {
            assert!(pairs.contains(knob), "{knob:?} is untested");
        }
    }

    #[test]
    fn variable_and_flag_land_on_the_same_field_and_the_flag_wins() {
        for &(var, flag, a, b, holds_a) in VALUED {
            let from_var = load(&[(var, a)], &[]);
            assert!(
                holds_a(&from_var),
                "{var}={a} landed elsewhere: {from_var:?}"
            );
            assert_eq!(
                from_var,
                load(&[], &[flag, a]),
                "{var} and {flag} disagree on {a:?}"
            );
            // The flag applies after the variable, exactly as if the
            // variable had been an earlier flag, and it changes the result.
            let both = load(&[(var, a)], &[flag, b]);
            assert_eq!(both, load(&[], &[flag, a, flag, b]), "{flag} over {var}");
            assert!(!holds_a(&both), "{flag} {b} did not override {var}={a}");
            // An empty value reads the same through both sources.
            assert_eq!(
                load(&[(var, "")], &[]),
                load(&[], &[flag, ""]),
                "{var}=\"\""
            );
        }
        for &(var, flag, on) in SWITCHES {
            assert!(on(&load(&[(var, "1")], &[])) && on(&load(&[(var, "TRUE")], &[])));
            assert_eq!(
                load(&[(var, "1")], &[]),
                load(&[], &[flag]),
                "{var} vs {flag}"
            );
            assert!(!on(&load(&[(var, "0")], &[])) && !on(&load(&[(var, "")], &[])));
            assert!(on(&load(&[(var, "0")], &[flag])), "{flag} beats {var}=0");
        }
    }

    #[test]
    fn empty_and_auto_mean_auto_for_both_thread_knobs() {
        let serve_auto = load(&[], &["--serve-threads", "auto"]);
        assert_eq!(serve_auto.serve_threads, Auto);
        let audit_auto = load(&[], &["--audit-threads", "auto"]);
        assert_eq!(audit_auto.audit_threads, Auto);
        for (var, flag, auto) in [
            ("OROCHI_SERVE_THREADS", "--serve-threads", serve_auto),
            ("OROCHI_AUDIT_THREADS", "--audit-threads", audit_auto),
        ] {
            for v in ["", "auto", "AUTO"] {
                assert_eq!(load(&[(var, v)], &[]), auto, "{var}={v:?}");
                assert_eq!(load(&[], &[flag, v]), auto, "{flag} {v:?}");
                // Over an explicit variable too: the flag's auto wins.
                assert_eq!(load(&[(var, "2")], &[flag, v]), auto, "{flag} {v:?}");
            }
        }
    }

    #[test]
    fn empty_values_keep_the_defaults() {
        let vars: Vec<(&str, &str)> = KNOBS
            .iter()
            .filter_map(|k| k.0)
            .filter(|v| !v.ends_with("_THREADS"))
            .map(|v| (v, ""))
            .collect();
        assert_eq!(load(&vars, &[]), Config::default());
    }

    #[test]
    fn skew_flags_merge_over_the_variable() {
        let skew = |c: Config| (c.skew.theta, c.skew.session_len);
        let env_theta = [("OROCHI_WORKLOAD_SKEW", "0.8")];
        assert_eq!(
            skew(load(&env_theta, &["--session-len", "4"])),
            (Some(0.8), Some(4.0))
        );
        assert_eq!(skew(load(&[], &["--session-len", "2"])), (None, Some(2.0)));
        let both = load(&[], &["--skew", "1.1,9", "--session-len", "2"]);
        assert_eq!(skew(both), (Some(1.1), Some(2.0)));
        assert_eq!(Config::default().skew, Skew::default());
    }

    #[test]
    fn flags_leave_other_variables_alone() {
        let vars = [("OROCHI_SERVE_QUEUE", "64"), ("PATH", "/bin")];
        let c = load(&vars, &["--serve-threads", "auto"]);
        assert_eq!((c.serve_threads, c.serve_queue), (Auto, 64));
    }

    #[test]
    fn defaults_match_the_serving_defaults() {
        let c = Config::default();
        assert_eq!(
            (c.serve_threads, c.serve_queue, c.audit_threads),
            (Exact(4), 0, Auto)
        );
        assert_eq!(
            (c.segment_bytes, c.epoch_events),
            (DEFAULT_SEGMENT_BYTES, 0)
        );
        assert!(!c.full && c.scale() == 0.05 && !c.obs_enabled());
        assert!(c.bench_json.is_none() && c.store_dir.is_none());
        assert_eq!(
            (c.campaigns, c.campaign_k, c.campaign_seed),
            (0, 0, 0xC0FFEE)
        );
        assert_eq!(c.serve_options(), ServeOptions::default());
        assert_eq!(load(&[], &["--full"]).scale(), 1.0);
    }

    #[test]
    fn options_carry_the_config() {
        let c = load(
            &[],
            &[
                "--serve-threads",
                "3",
                "--audit-threads",
                "1",
                "--obs-out",
                "/o",
            ],
        );
        assert_eq!(
            (c.serve_options().threads, c.serve_options().queue_depth),
            (3, 0)
        );
        assert_eq!(c.resolved_audit_threads(), 1);
        assert!(
            !c.obs && c.obs_enabled(),
            "--obs-out implies the layer is on"
        );
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flags_panic() {
        load(&[], &["--frobnicate"]);
    }

    #[test]
    #[should_panic(expected = "t: OROCHI_SERVE_QUEUE must be a queue depth")]
    fn malformed_variables_panic() {
        load(&[("OROCHI_SERVE_QUEUE", "deep")], &[]);
    }
}
