//! Percentiles with sample floors, failure tallies, and the JSON the
//! benchmark prints.

use fews_net::ClientError;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Every reported percentile needs at least this many samples beyond it.
pub const BEYOND_FLOOR: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples` and how many
/// samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some((s[rank - 1], s.len() - rank))
}

/// Median of `samples` (the mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The metrics of one run, plus the sample count behind each percentile.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// `(metric, samples, samples beyond the percentile)`.
    pub floors: Vec<(String, usize, usize)>,
}

impl Report {
    /// Add a plain value.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Add percentile `p` of `samples` as `name`, recording its floor.
    pub fn put_pct(&mut self, name: &str, unit: &'static str, samples: &[f64], p: f64) {
        let (v, beyond) = percentile(samples, p).unwrap_or((f64::NAN, 0));
        self.put(name, unit, v);
        self.floors.push((name.into(), samples.len(), beyond));
    }

    /// Percentiles whose floor failed, as messages.
    pub fn floor_failures(&self) -> Vec<String> {
        self.floors
            .iter()
            .filter(|(_, _, beyond)| *beyond < BEYOND_FLOOR)
            .map(|(n, s, b)| format!("{n}: {b} of {s} samples beyond the percentile"))
            .collect()
    }

    /// Metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// `{"metric": {"samples": n, "beyond": b}, …}`.
    pub fn floors_json(&self) -> String {
        let body: Vec<String> = self
            .floors
            .iter()
            .map(|(n, s, b)| format!("{}: {{\"samples\": {s}, \"beyond\": {b}}}", json_str(n)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Every attempted request, and every failed one by kind.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Failures by kind: the server's typed error code, `transport`, or
    /// `protocol`.
    pub by_kind: BTreeMap<String, u64>,
}

impl Tally {
    /// Count one request and pass its outcome through.
    pub fn record<T>(&mut self, r: Result<T, ClientError>) -> Result<T, ClientError> {
        self.attempted += 1;
        if let Err(e) = &r {
            self.failed += 1;
            *self.by_kind.entry(error_kind(e)).or_insert(0) += 1;
        }
        r
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in &other.by_kind {
            *self.by_kind.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// `{"kind": n, …}`.
    pub fn kinds_json(&self) -> String {
        let body: Vec<String> = self
            .by_kind
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A failure's kind: the typed error code and its number, or the transport.
pub fn error_kind(e: &ClientError) -> String {
    match e {
        ClientError::Server { code, .. } => format!("{code:?}={}", *code as u8),
        ClientError::Io(_) => "transport".into(),
        ClientError::Protocol(_) => "protocol".into(),
    }
}

/// A JSON string literal.
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

/// A JSON number with every digit (`null` if not finite).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some((50.0, 50)));
        assert_eq!(percentile(&s, 0.9), Some((90.0, 10)));
        assert_eq!(percentile(&s, 0.99), Some((99.0, 1)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn floor_flags_thin_percentiles() {
        let mut r = Report::default();
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        r.put_pct("p90", "us", &s, 0.9);
        r.put_pct("p99", "us", &s, 0.99);
        assert_eq!(r.floor_failures().len(), 1);
        assert!(r.floor_failures()[0].starts_with("p99"));
    }

    #[test]
    fn json_is_well_formed() {
        let mut r = Report::default();
        r.put("a.b", "1/s", 1.25);
        assert_eq!(
            r.metrics_json(),
            "{\"a.b\": {\"value\": 1.25, \"unit\": \"1/s\"}}"
        );
        assert_eq!(json_str("q\"\n"), "\"q\\\"\\u000a\"");
    }
}
