//! The pTest benchmark: end-to-end metrics of campaigns and shrinks on
//! three workloads, and a traced run that splits a trial's host time
//! across the layers it calls. See `ptbench/README.md` for the workloads,
//! the metrics and the command line.

pub mod bench;
pub mod replay;
pub mod traced;
pub mod workload;

/// The end-to-end metrics an untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("trials_per_s", "1/s"),
    ("shrink_s", "s"),
    ("shrink_p95_s", "s"),
    ("detection_rate", "ratio"),
    ("commands_to_bug", "count"),
    ("shrink_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("automata.compile_us", "us"),
    ("generator.ns_per_symbol", "ns"),
    ("generator.symbols", "count"),
    ("generator.share", "ratio"),
    ("merger.us_per_trial", "us"),
    ("merger.share", "ratio"),
    ("coverage.us_per_trial", "us"),
    ("coverage.share", "ratio"),
    ("system.build_us", "us"),
    ("system.build_share", "ratio"),
    ("system.step_ns", "ns"),
    ("system.exec_cycles", "count"),
    ("system.step_share", "ratio"),
    ("trial.skipped_cycles", "count"),
    ("trial.skip_share", "ratio"),
    ("trial.ff_hit_ratio", "ratio"),
    ("trial.ff_share", "ratio"),
    ("committer.step_ns", "ns"),
    ("committer.commands", "count"),
    ("committer.share", "ratio"),
    ("detector.observe_us", "us"),
    ("detector.observes", "count"),
    ("detector.bugs", "count"),
    ("detector.share", "ratio"),
    ("learning.fold_us_per_trial", "us"),
    ("learning.round_ms", "ms"),
    ("pool.utilization", "ratio"),
    ("minimize.candidates", "count"),
    ("minimize.candidate_ms", "ms"),
    ("minimize.replay_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a, folded over successive byte strings — a digest that
/// stays the same across toolchains, unlike the standard hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file does not exist.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
