//! Tiny argument handling shared by the bench binaries.
//!
//! The binaries configure themselves through the consolidated
//! [`orochi_harness::Config`]: flags merge over the `OROCHI_*`
//! environment (CLI wins), and the merged configuration is exported
//! back to the environment so the workload generators and serving
//! front-end — which still read the variables — see the same values.
//! [`apply_skew_args`] is the one-call version every binary uses.

use orochi_harness::Config;

/// Parses the shared bench flags (`--skew`, `--session-len`,
/// `--serve-threads`, `--queue-depth`, `--audit-threads`, `--full`,
/// `--bench-json`, `--store-dir`, `--segment-bytes`, `--epoch-events`,
/// `--obs`, `--obs-out`) on top
/// of the current environment, exports the merged configuration back to
/// the `OROCHI_*` variables, and returns it. Unknown arguments panic
/// with a usage message naming `bin`.
///
/// # Panics
///
/// Panics on unknown flags, missing values, or malformed values.
pub fn apply_skew_args(bin: &str, args: impl Iterator<Item = String>) -> Config {
    let mut config = Config::from_env();
    config.apply_cli(bin, args);
    config.export_env();
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn combines_flags_into_env() {
        // Serialized through one test because the variables are global.
        std::env::remove_var("OROCHI_WORKLOAD_SKEW");
        apply_skew_args("t", args(&["--skew", "0.8"]));
        assert_eq!(std::env::var("OROCHI_WORKLOAD_SKEW").unwrap(), "0.8");
        apply_skew_args("t", args(&["--session-len", "4"]));
        // CLI merges over the environment: the exported theta survives.
        assert_eq!(std::env::var("OROCHI_WORKLOAD_SKEW").unwrap(), "0.8,4");
        std::env::remove_var("OROCHI_WORKLOAD_SKEW");
        apply_skew_args("t", args(&["--session-len", "2"]));
        assert_eq!(std::env::var("OROCHI_WORKLOAD_SKEW").unwrap(), ",2");
        apply_skew_args("t", args(&["--skew", "1.1,9", "--session-len", "2"]));
        assert_eq!(std::env::var("OROCHI_WORKLOAD_SKEW").unwrap(), "1.1,2");
        std::env::remove_var("OROCHI_WORKLOAD_SKEW");

        apply_skew_args("t", args(&["--serve-threads", "8", "--queue-depth", "64"]));
        assert_eq!(std::env::var("OROCHI_SERVE_THREADS").unwrap(), "8");
        assert_eq!(std::env::var("OROCHI_SERVE_QUEUE").unwrap(), "64");
        let config = apply_skew_args("t", args(&["--serve-threads", "auto"]));
        assert_eq!(std::env::var("OROCHI_SERVE_THREADS").unwrap(), "auto");
        assert_eq!(config.serve_queue, 64); // env round-trips through Config
        std::env::remove_var("OROCHI_SERVE_THREADS");
        std::env::remove_var("OROCHI_SERVE_QUEUE");
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flags_panic() {
        apply_skew_args("t", args(&["--frobnicate"]));
    }
}
