//! Result rendering: metric-name validation and the one result line the
//! benchmark ends its standard output with.

use asteria::serve::json::Json;

/// True for a valid metric name: 1–64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The end-to-end metrics (tracing off), with units, in output order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("index_fns_per_s", "1/s"),
    ("index_warm_s", "s"),
    ("light_p50_ms", "ms"),
    ("light_p95_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("heavy_p95_ms", "ms"),
    ("slo_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (traced run), with units, in output order.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("encoder.encode_us", "us"),
    ("encoder.ns_per_cell", "ns"),
    ("encoder.cells", "count"),
    ("encoder.share", "ratio"),
    ("decompiler.decompile_us", "us"),
    ("core.preprocess_us", "us"),
    ("lang.parse_us", "us"),
    ("compiler.compile_us", "us"),
    ("vulnsearch.score_ns_per_pair", "ns"),
    ("vulnsearch.rank_us", "us"),
    ("vulnsearch.sort_share", "ratio"),
    ("index_io.save_ms", "ms"),
    ("index_io.load_ms", "ms"),
    ("index_io.bytes", "bytes"),
    ("index_io.fingerprint_us", "us"),
    ("exec.parallel_speedup", "x"),
    ("serve.overhead_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.dedup_share", "ratio"),
    ("serve.overloaded", "count"),
    ("serve.deadline_exceeded", "count"),
    ("loadgen.late_ms_p95", "ms"),
    ("obs.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured, printed with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
///
/// # Errors
///
/// When the metrics are not exactly `expected` (names and units, in
/// order), or a name is invalid, or a value is not finite, so that a
/// broken measurement is never printed as a result.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    expected: &[(&str, &str)],
) -> Result<String, String> {
    let listed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if listed != expected {
        return Err(format!(
            "metrics {listed:?} are not the listed {expected:?}"
        ));
    }
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let value = object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
        body.push((m.name.to_string(), value));
    }
    Ok(object([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Object(body)),
    ])
    .render())
}

/// A JSON object of `members`, in order.
pub fn object<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Object(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// The commit the checkout was made from, read from `.git` when there is
/// one; `"unknown"` otherwise (an exported tree carries no history).
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
