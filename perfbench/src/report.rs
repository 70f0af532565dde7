//! Metric schema shared by every workload, the percentile rule, and the
//! hand-rolled JSON rendering (the workspace has no serde).
//!
//! Every metric carries its unit, better-direction, the headline value,
//! and the distribution it came from: median, the highest percentile that
//! still has at least ten samples beyond it, and the sample count.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The headline number (what the result line carries).
    pub value: f64,
    /// The samples the value summarises (one sample for a total).
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        value: f64,
        samples: Vec<f64>,
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            better,
            value,
            samples,
        }
    }

    /// A single measured total.
    pub fn total(
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        value: f64,
    ) -> Metric {
        Metric::new(name, unit, better, value, vec![value])
    }

    /// A distribution whose headline is its median.
    pub fn median_of(
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        samples: Vec<f64>,
    ) -> Metric {
        let value = median(&samples);
        Metric::new(name, unit, better, value, samples)
    }

    /// A distribution whose headline is its `p`-th percentile.
    pub fn percentile_of(
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        p: f64,
        samples: Vec<f64>,
    ) -> Metric {
        let value = percentile(&samples, p);
        Metric::new(name, unit, better, value, samples)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank rank (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error in `p * n` from pushing an exact
    // integer rank (99.9% of 10 000) up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Percentile with linear interpolation between the closest ranks (the
/// median of an even count is the mean of the middle pair); 0 for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let h = (v.len() - 1) as f64 * p.clamp(0.0, 100.0) / 100.0;
    let (lo, frac) = (h.floor() as usize, h.fract());
    match v.get(lo + 1) {
        Some(next) => v[lo] + (next - v[lo]) * frac,
        None => v[lo],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond its rank, or `None` when even p50 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 10 && n - rank(p, n) >= 10)
}

/// A number as JSON: shortest round-trip digits, `null` when not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// JSON string literal for names made of plain ASCII.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Full schema entry of one metric.
pub fn metric_json(m: &Metric) -> String {
    let n = m.samples.len();
    let tail = match tail_percentile(n) {
        Some(p) => format!(
            "{{\"pct\": {}, \"value\": {}}}",
            num(p),
            num(percentile(&m.samples, p))
        ),
        None => "null".into(),
    };
    format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"value\": {}, \"median\": {}, \"tail\": {}, \"count\": {}}}",
        string(&m.name),
        string(m.unit),
        string(m.better.as_str()),
        num(m.value),
        num(median(&m.samples)),
        tail,
        n
    )
}

/// The result line: `correct`, `attempted`, `failed` and
/// `metrics: {name: {value, unit}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 10..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 75.0), 1.75);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn schema_carries_unit_direction_median_tail_and_count() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let m = Metric::percentile_of("latency_p99_ms", "ms", Better::Lower, 99.0, samples);
        assert_eq!(m.value, 39.61);
        let j = metric_json(&m);
        assert_eq!(
            j,
            "{\"name\": \"latency_p99_ms\", \"unit\": \"ms\", \"better\": \"lower\", \"value\": 39.61, \
             \"median\": 20.5, \"tail\": {\"pct\": 75, \"value\": 30.25}, \"count\": 40}"
        );
        let t = Metric::total("sim_device_ms", "ms", Better::Lower, 1.25);
        assert!(metric_json(&t).contains("\"tail\": null, \"count\": 1"));
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let a = Metric::total("setup_s", "s", Better::Lower, 0.5);
        let b = Metric::total("x", "1/s", Better::Higher, f64::NAN);
        let line = result_line(true, 3, 0, &[&a, &b]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
