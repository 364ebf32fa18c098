//! What a run prints, and the small statistics it needs.

use reliab_spec::json::{self, JsonValue};

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one run: a description of the workload and the
/// result line.
pub struct Outcome {
    pub describe: Vec<(&'static str, JsonValue)>,
    pub attempted: u64,
    pub failed: u64,
    /// False when a check outside the per-op checks failed (set-up or
    /// repetition digests).
    pub checks_passed: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn describe_line(&self) -> String {
        json::object(self.describe.clone()).to_json()
    }

    pub fn result_line(&self) -> String {
        let metrics = JsonValue::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let value = if m.value.is_finite() { m.value } else { 0.0 };
                    (
                        m.name.clone(),
                        json::object(vec![
                            ("value", JsonValue::Number(value)),
                            ("unit", JsonValue::from(m.unit)),
                        ]),
                    )
                })
                .collect(),
        );
        json::object(vec![
            (
                "correct",
                JsonValue::Bool(self.checks_passed && self.failed == 0),
            ),
            ("attempted", JsonValue::Number(self.attempted as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_json()
    }
}

/// Linear-interpolated quantile `q` of ascending `sorted` samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// p50 and p90 of latencies in seconds, returned in milliseconds.
pub fn latency_metrics(latencies_s: &[f64]) -> [Metric; 2] {
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    [
        metric("latency_p50_ms", quantile(&sorted, 0.5) * 1e3, "ms"),
        metric("latency_p90_ms", quantile(&sorted, 0.9) * 1e3, "ms"),
    ]
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// FNV-1a, for digests of measures JSON.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
