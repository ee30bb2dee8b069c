//! Output: a human table of named metrics with units, then the one
//! JSON result line the benchmark contract asks for.

use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct MetricSet(Vec<(&'static str, f64, &'static str)>);

impl MetricSet {
    /// Append `name = value unit`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0)
            .collect()
    }

    /// One `name  value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        out
    }

    /// The contract's result object.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_object() {
        let mut m = MetricSet::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("setup_s", 3.0, "s");
        assert_eq!(
            m.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        assert!(m.non_finite().is_empty());
    }
}
