//! Sample summaries and the metric list a run reports.

use crate::json::Obj;

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest order statistic with at least ten samples above it, as
/// `(quantile, value)`; `None` below eleven samples.
pub fn high_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - 11;
    Some(((idx + 1) as f64 / v.len() as f64, v[idx]))
}

/// One reported metric: its value plus, for timings, the sample count and
/// the highest percentile the sample supports.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub high: Option<(f64, f64)>,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A single measured or derived value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 1,
            high: None,
        });
    }

    /// The median of repeated samples, with the sample count and high
    /// percentile kept alongside.
    pub fn samples(&mut self, name: &str, unit: &'static str, xs: &[f64]) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value: median(xs),
            samples: xs.len(),
            high: high_percentile(xs),
        });
    }

    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        for m in &self.0 {
            let mut e = Obj::new()
                .num("value", m.value)
                .str("unit", m.unit)
                .int("samples", m.samples as u64);
            if let Some((q, v)) = m.high {
                e = e.num("high_q", q).num("high", v);
            }
            o = o.raw(&m.name, &e.finish());
        }
        o.finish()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: the 90th is the highest with ten above it.
        assert_eq!(high_percentile(&xs), Some((0.9, 90.0)));
        assert_eq!(high_percentile(&xs[..10]), None);
    }
}
