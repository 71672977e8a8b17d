//! What a run prints: the machine record, every failed operation, a
//! readable metric table, and the result as one JSON line (always last).

use crate::machine::{json_escape, MachineRecord};
use crate::run::Outcome;
use std::fmt::Write as _;

/// The full standard output of a run; its last line is the JSON result.
#[must_use]
pub fn render(workload: &str, machine: &MachineRecord, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# workload {workload}");
    let _ = writeln!(s, "# machine {}", machine.to_json());
    for p in &out.problems {
        let _ = writeln!(s, "# PROBLEM {p}");
    }
    for f in &out.verdict.failures {
        let _ = writeln!(s, "# FAILED {}: {}", f.op, f.reasons.join("; "));
    }
    let _ = writeln!(
        s,
        "# ops attempted {}, failed {}; measurement {}",
        out.verdict.attempted,
        out.verdict.failed(),
        if out.correct() {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );
    let _ = writeln!(
        s,
        "# {:<36} {:>16} {:<10} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in out.metrics.iter().chain(&out.extra) {
        let _ = writeln!(
            s,
            "# {:<36} {:>16.6} {:<10} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    s.push_str(&json(out));
    s.push('\n');
    s
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
#[must_use]
pub fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(m.name),
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct() && out.metrics.iter().all(|m| m.value.is_finite()),
        out.verdict.attempted.max(1),
        out.verdict.failed(),
        metrics.join(", ")
    )
}

/// A JSON number with every digit of `x` (non-finite values print as 0 and
/// make the run incorrect, above).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}
