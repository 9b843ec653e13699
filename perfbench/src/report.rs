//! Metric collection, order statistics, and the JSON result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Outcome counts and the correctness verdict of a run.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is not correct; empty when it is.
    pub mismatches: Vec<String>,
}

impl Verdict {
    pub fn mismatch(&mut self, why: String) {
        if self.mismatches.len() < 16 {
            self.mismatches.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (NaN when empty).
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

/// Median throughput over `windows` equal slices of `[0, total_s)`:
/// `events` are `(end time in s, units done)`. A median of slice rates
/// shrugs off a burst of interference that a whole-run average absorbs.
pub fn windowed_rate(events: &[(f64, f64)], total_s: f64, windows: usize) -> f64 {
    let width = total_s / windows as f64;
    let mut units = vec![0.0; windows];
    for &(t, u) in events {
        units[((t / width) as usize).min(windows - 1)] += u;
    }
    let rates: Vec<f64> = units.iter().map(|u| u / width).collect();
    median(&rates)
}

/// Rate of the median call: each call's `units` divided by its latency in
/// ms, median over calls, per second. On a shared host a call that waits
/// for a descheduled CPU drags a whole-run rate down in proportion to the
/// host's load; the median call is the program's own speed.
pub fn median_call_rate(lat_ms: &[f64], units: &[f64]) -> f64 {
    let rates: Vec<f64> = lat_ms.iter().zip(units).map(|(ms, u)| u * 1e3 / ms).collect();
    median(&rates)
}

/// Mean of `xs` (NaN when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// A finite number as JSON; `null` otherwise (the self-test rejects that).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// A flat JSON object from `(key, already-encoded value)` pairs.
pub fn json_object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> =
        fields.into_iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(verdict: &Verdict, metrics: &Metrics) -> String {
    let metrics_obj = json_object(metrics.0.iter().map(|m| {
        (m.name, json_object([("value", json_num(m.value)), ("unit", json_str(m.unit))]))
    }));
    json_object([
        ("correct", verdict.correct().to_string()),
        ("attempted", verdict.attempted.to_string()),
        ("failed", verdict.failed.to_string()),
        ("metrics", metrics_obj),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windowed_rate_ignores_one_slow_window() {
        // 1 unit per 0.1 s for 3 s, except a stalled second window.
        let events: Vec<(f64, f64)> = (1..=30)
            .filter(|i| !(11..=19).contains(i))
            .map(|i| ((i as f64 - 0.5) / 10.0, 1.0))
            .collect();
        assert_eq!(windowed_rate(&events, 3.0, 3), 10.0);
    }

    #[test]
    fn median_call_rate_ignores_stalled_calls() {
        // Two sentences in 2 ms per call, except two calls stalled 50 ms.
        let lat = [2.0, 2.0, 52.0, 2.0, 52.0];
        assert_eq!(median_call_rate(&lat, &[2.0; 5]), 1000.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        let v = Verdict { attempted: 3, failed: 0, mismatches: Vec::new() };
        assert_eq!(
            result_line(&v, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
