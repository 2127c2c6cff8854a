//! Samples, failure accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Operations attempted and failed in one run. A miss is printed where
/// it happens, never swallowed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; prints `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("MISS: {what}");
        }
    }

    /// Counts served requests: `refused` of `submitted` were not served.
    pub fn requests(&mut self, submitted: u64, refused: u64) {
        self.attempted += submitted;
        if refused > 0 {
            self.failed += refused;
            println!("MISS: {refused} of {submitted} requests refused or unserved");
        }
    }
}

/// Per-iteration samples, keyed by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// All samples of `name`.
    pub fn all(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples of `name` (NaN if there are none).
    pub fn median(&self, name: &str) -> f64 {
        median(self.all(name))
    }
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index of the median sample (the lower middle for an even count), so
/// that a decomposition can be reported from one consistent sample.
pub fn median_index(values: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(values.len() - 1) / 2]
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)` by nearest rank; `None` under 11 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Rank n - 10 (1-based) leaves exactly ten samples above it.
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in BENCHMARK.json.
    pub unit: &'static str,
}

/// Prints the metrics as a table, then the result JSON as the last line
/// of standard output.
pub fn emit(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// A finite value prints with all its digits; a missing one as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_index_agree_on_odd_counts() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(v[median_index(&v)], 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
    }
}
