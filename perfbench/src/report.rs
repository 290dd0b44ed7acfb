//! What one run reports: a header line, one line per metric, and the
//! result object as the last line of standard output.

/// One measured value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
pub struct Outcome {
    /// Operations attempted (solves or served queries).
    pub attempted: u64,
    /// Operations that did not complete or whose digest mismatched.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific header fields, as `(key, JSON value)` pairs.
    pub header: Vec<(String, String)>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            header: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn header(&mut self, key: &str, json_value: String) {
        self.header.push((key.to_string(), json_value));
    }

    /// Count `n` operations, `bad` of which failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Completed-and-correct operations as a share of those attempted.
    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    // `{:?}` prints the shortest representation that round-trips, so
    // every measured digit survives.
    format!("{v:?}")
}

/// Print the header, the metric lines and the result object.
pub fn print(workload: &str, seed: u64, outcome: &Outcome, fingerprint: &[(String, String)]) {
    let mut header: Vec<String> = vec![
        format!("\"workload\":{}", json_str(workload)),
        format!("\"seed\":{seed}"),
    ];
    header.extend(
        fingerprint
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k))),
    );
    header.extend(
        outcome
            .header
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k))),
    );
    println!("{{\"header\":{{{}}}}}", header.join(","));

    for m in &outcome.metrics {
        println!("# {:<48} {:>18} {}", m.name, json_num(m.value), m.unit);
    }

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}
