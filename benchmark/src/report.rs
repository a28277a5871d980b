//! A run's result and how it is printed.

use crate::json::quote;

/// What one benchmark run reports.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// The correctness gate passed.
    pub correct: bool,
    /// Client operations submitted in the timed phase.
    pub attempted: u64,
    /// Of those, operations that timed out, were refused, or were not
    /// delivered before the pass's virtual-time limit.
    pub failed: u64,
    /// `(name, value, unit)`, in reporting order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-facing context: sample counts, clocks, gate findings.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The one-line JSON object the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`. Values are printed
    /// as measured (shortest representation that round-trips).
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN/inf; a metric that failed to compute
                // reads 0 and the gate reports it.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
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

    /// A table for people, written to stderr by the binaries.
    pub fn to_table(&self, workload: &str) -> String {
        let mut out = format!(
            "== {workload}: correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        );
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<42} {value:>16.4} {unit}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        out
    }
}
