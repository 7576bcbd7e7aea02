//! Statistics and the benchmark's output: one line per metric for people,
//! then the result object as the last line of standard output.

use std::fmt::Write as _;

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// A metric that came out as NaN or infinite is a failed measurement.
    fn all_finite(&self) -> bool {
        self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0 && self.all_finite()
    }

    /// Prints every metric, then the result object as the last line.
    pub fn print(&self) {
        for e in &self.errors {
            println!("error: {e}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<28} {value:>18.6} {unit}");
        }
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}
