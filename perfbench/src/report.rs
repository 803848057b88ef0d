//! Result collection: named metrics with units, correctness tallies, and
//! the JSON line the run ends with.

use std::fmt::Write as _;

/// One workload run's results.
#[derive(Default)]
pub struct Report {
    /// Elections run plus output checks made.
    pub attempted: u64,
    /// Unconverged or multi-leader elections plus failed output checks.
    pub failed: u64,
    /// Metrics for the closing JSON object, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the JSON object.
    pub lines: Vec<String>,
}

impl Report {
    /// Counts one output check, printing the failures.
    pub fn check(&mut self, ok: bool, what: impl AsRef<str>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED: {}", what.as_ref()));
        }
    }

    /// Counts `elections` elections of which `bad` failed.
    pub fn elections(&mut self, elections: u64, bad: u64) {
        self.attempted += elections;
        self.failed += bad;
    }

    /// Adds a metric to the closing JSON object (and prints it).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.note(name, value, unit);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// An end-to-end metric: in the JSON object of an untraced run, printed
    /// only in a traced one (whose JSON object is the per-layer ledger).
    pub fn end_to_end(&mut self, trace: bool, name: &str, value: f64, unit: &'static str) {
        if trace {
            self.note(name, value, unit);
        } else {
            self.metric(name, value, unit);
        }
    }

    /// Prints a named value without adding it to the JSON object.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        let shown = if value != 0.0 && value.abs() < 1e-3 {
            format!("{value:>16.4e}")
        } else {
            format!("{value:>16.6}")
        };
        self.lines.push(format!("{name:<34} {shown} {unit}"));
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The closing JSON object.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample; 0 for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a over bytes, the checksum the result tables are summarized by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CPU seconds used so far by this process (all threads) and by every
/// child process it has waited for, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, so utime, stime, cutime, cstime (fields 14–17)
    // sit at offsets 11–14.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11..15]
        .iter()
        .map(|f| f.parse::<u64>().expect("numeric tick count"))
        .sum();
    // USER_HZ, the unit of these fields, is 100 on Linux.
    ticks as f64 / 100.0
}
