//! The machine record printed with every result, so that absolute
//! numbers are only ever compared on the machine that produced them.

use std::path::Path;

/// Where and from what a run was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRecord {
    /// workload seed
    pub seed: u64,
    /// commit of the checkout, or `unknown` outside a git checkout
    pub commit: String,
    /// CPU model name
    pub cpu: String,
    /// threads available to the process
    pub nproc: usize,
    /// 1-, 5- and 15-minute load averages at the start of the run
    pub loadavg: String,
}

impl MachineRecord {
    /// Read the record for a run with `seed`, from the checkout at `root`.
    #[must_use]
    pub fn read(seed: u64, root: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".to_string());
        Self {
            seed,
            commit: git_commit(root),
            cpu,
            nproc: dses_sim::available_workers(),
            loadavg,
        }
    }

    /// The record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\":{},\"commit\":\"{}\",\"cpu\":\"{}\",\"nproc\":{},\"loadavg\":\"{}\"}}",
            self.seed,
            json_escape(&self.commit),
            json_escape(&self.cpu),
            self.nproc,
            json_escape(&self.loadavg)
        )
    }
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process (`VmHWM`), in MB.
#[must_use]
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

/// Escape a string for a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
