//! Metric collection, summary statistics and the result line.

/// A failed or refused operation counts as missing every latency limit;
/// a percentile that lands on one reads as this many microseconds.
pub const MISSED_US: f64 = 1e12;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Attempted operations that failed or were refused.
    pub failed: u64,
    /// Metrics in the order they were added.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line: sample
    /// counts, check failures.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Record a failed output check.
    pub fn mismatch(&mut self, what: String) {
        if self.notes.iter().filter(|n| n.starts_with("MISMATCH")).count() < 20 {
            self.notes.push(format!("MISMATCH {what}"));
        }
        self.correct = false;
    }

    /// Add `<prefix>p50_us` and `<prefix>p99_us` of `samples_us`, noting
    /// the sample count and how many lie beyond the p99: with fewer than
    /// ten it is a rough figure.
    pub fn latency(&mut self, prefix: &str, samples_us: &[f64]) {
        let mut v = samples_us.to_vec();
        self.add(format!("{prefix}p50_us"), percentile(&mut v, 0.50).unwrap_or(f64::NAN), "us");
        self.add(format!("{prefix}p99_us"), percentile(&mut v, 0.99).unwrap_or(f64::NAN), "us");
        let beyond = beyond(v.len(), 0.99);
        let rough = if beyond < 10 { ", fewer than 10: a rough figure" } else { "" };
        self.notes
            .push(format!("{prefix}p99_us: n={} samples, {beyond} beyond it{rough}", v.len()));
    }

    /// Add the end-to-end `p50_us`: the median request time.
    pub fn p50(&mut self, samples_us: &[f64]) {
        let mut v = samples_us.to_vec();
        self.add("p50_us", percentile(&mut v, 0.50).unwrap_or(f64::NAN), "us");
        self.notes.push(format!("p50_us: n={} requests", v.len()));
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{MISSED_US:?}")
    }
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (sorts `v`).
pub fn percentile(v: &mut [f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// Median (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean (NaN when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(500.0));
        assert_eq!(percentile(&mut v, 0.99), Some(990.0));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn latency_always_reports_both_percentiles() {
        let mut r = Report::default();
        r.latency("", &[]);
        r.latency("x.", &vec![1.0; 1000]);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["p50_us", "p99_us", "x.p50_us", "x.p99_us"]);
        assert!(r.notes[0].contains("rough") && !r.notes[1].contains("rough"));
    }
}
