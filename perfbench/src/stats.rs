//! The benchmark's statistics: percentiles under the ten-beyond rule,
//! medians of repeated timings, and the per-step verdict that the
//! `slo_qps` rate ladder is built from.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a single outlier can never be the reported tail.
pub const MIN_BEYOND: usize = 10;

/// Smallest request count a ladder rung may have: enough that its p95
/// has [`MIN_BEYOND`] samples beyond it.
pub const MIN_STEP_REQUESTS: usize = 250;

/// Smallest request count a light or heavy block may have. Blocks are
/// judged pooled, three at a time, so this is enough for the pooled p95
/// to have [`MIN_BEYOND`] samples beyond it.
pub const MIN_BLOCK_REQUESTS: usize = 150;

/// Nearest-rank `q`-percentile (`0 < q < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above its rank.
/// A failed request enters as `f64::INFINITY`, so it always counts as
/// missing any limit.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of unordered values (mean of the middle two for an even
/// count), or `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Backlog (requests sent but not yet answered) is growing when its
/// mean over the last quarter of a step's sends exceeds twice its mean
/// over the first quarter plus this many requests. The slack, one full
/// server batch, keeps the ebb and flow of batching from reading as
/// growth.
pub const BACKLOG_SLACK: f64 = 16.0;

/// True when the backlog samples (one per send, in send order) show a
/// queue that is building up rather than holding steady.
pub fn backlog_growing(samples: &[usize]) -> bool {
    let quarter = samples.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let first = mean(&samples[..quarter]);
    let last = mean(&samples[samples.len() - quarter..]);
    last > 2.0 * first + BACKLOG_SLACK
}

/// What one fixed-rate step measured, reduced to what its verdict needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepVerdictInput {
    /// p95 latency in ms, `None` when too few samples allow one.
    pub p95_ms: Option<f64>,
    /// p95 of how late the generator sent, in ms.
    pub late_p95_ms: Option<f64>,
    /// Whether the backlog grew over the step (or the step was cut
    /// short because it reached the backlog cap).
    pub backlog_growing: bool,
}

/// A step meets the limit when its p95 (failures counted as infinite)
/// is within `limit_ms`, its backlog holds steady, and the generator
/// kept to its schedule: p95 lateness within `late_limit_ms`. A step
/// whose percentiles cannot be reported fails.
pub fn step_meets_limit(step: &StepVerdictInput, limit_ms: f64, late_limit_ms: f64) -> bool {
    let within = |v: Option<f64>, limit: f64| v.is_some_and(|v| v <= limit);
    within(step.p95_ms, limit_ms)
        && within(step.late_p95_ms, late_limit_ms)
        && !step.backlog_growing
}

/// The `slo_qps` rung of an ascending rate ladder: the highest step
/// that passes, or `None` when none does. A pass above a failed step
/// counts: noise on a shared machine can only slow a step down, so a
/// failure is weaker evidence than a pass.
pub fn ladder_rung(passed: &[bool]) -> Option<usize> {
    passed.iter().rposition(|ok| *ok)
}
