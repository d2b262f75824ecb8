//! The benchmark's own statistics and input generation: the percentile
//! rule, the `slo_qps` ladder decision, seed-determinism of arrivals and
//! queries, and metric-name validation against `BENCHMARK.json`.

use std::collections::HashSet;

use asteria::serve::json::{self, Json};
use asteria_perfbench::inputs::{
    distinct_queries, poisson_arrivals, workload, QueryMix, Step, Zipf, CVE_ZIPF_EXPONENT,
    LIGHT_SHARE, WORKLOADS,
};
use asteria_perfbench::report::{result_line, valid_metric_name, Metric, END_TO_END, PER_LAYER};
use asteria_perfbench::stats::{
    backlog_growing, ladder_rung, median, percentile, step_meets_limit, StepVerdictInput,
    MIN_BEYOND, MIN_STEP_REQUESTS,
};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // p95 of 200 samples is rank 190: exactly ten lie beyond it.
    assert_eq!(percentile(&ascending(200), 0.95), Some(190.0));
    assert_eq!(percentile(&ascending(199), 0.95), None);
    // p50 of 20 samples is rank 10, with ten beyond; of 19, only nine.
    assert_eq!(percentile(&ascending(20), 0.5), Some(10.0));
    assert_eq!(percentile(&ascending(19), 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
    for n in [20, 57, 200, 1000] {
        let p = percentile(&ascending(n), 0.5).expect("enough samples");
        let beyond = ascending(n).iter().filter(|v| **v > p).count();
        assert!(beyond >= MIN_BEYOND, "{n} samples: {beyond} beyond p50");
    }
}

#[test]
fn failed_requests_count_as_missing_the_limit() {
    // 190 fast replies and 10 failures: p95 is still a real latency...
    let mut v = vec![1.0; 190];
    v.extend([f64::INFINITY; 10]);
    assert_eq!(percentile(&v, 0.95), Some(1.0));
    // ...but one more failure pushes p95 into the failures.
    let mut v = vec![1.0; 189];
    v.extend([f64::INFINITY; 11]);
    assert_eq!(percentile(&v, 0.95), Some(f64::INFINITY));
    let step = StepVerdictInput {
        p95_ms: percentile(&v, 0.95),
        late_p95_ms: Some(0.1),
        backlog_growing: false,
    };
    assert!(!step_meets_limit(&step, 1e9, 1.0));
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn a_step_passes_only_within_limit_on_schedule_and_without_backlog_growth() {
    let ok = StepVerdictInput {
        p95_ms: Some(40.0),
        late_p95_ms: Some(1.0),
        backlog_growing: false,
    };
    assert!(step_meets_limit(&ok, 40.0, 5.0));
    assert!(!step_meets_limit(&ok, 39.9, 5.0));
    assert!(!step_meets_limit(
        &StepVerdictInput {
            backlog_growing: true,
            ..ok
        },
        100.0,
        5.0
    ));
    assert!(!step_meets_limit(
        &StepVerdictInput {
            late_p95_ms: Some(6.0),
            ..ok
        },
        100.0,
        5.0
    ));
    assert!(!step_meets_limit(
        &StepVerdictInput { p95_ms: None, ..ok },
        100.0,
        5.0
    ));
}

#[test]
fn the_ladder_reads_the_highest_passing_step() {
    assert_eq!(ladder_rung(&[true, true, true]), Some(2));
    assert_eq!(ladder_rung(&[true, true, false]), Some(1));
    // One failed step below a pass does not end the ladder.
    assert_eq!(ladder_rung(&[true, false, true, false, false]), Some(2));
    assert_eq!(ladder_rung(&[false, true]), Some(1));
    assert_eq!(ladder_rung(&[false, false]), None);
    assert_eq!(ladder_rung(&[]), None);
}

#[test]
fn backlog_growth_is_told_from_steady_jitter() {
    let steady: Vec<usize> = (0..400).map(|i| i % 4).collect();
    assert!(!backlog_growing(&steady));
    let growing: Vec<usize> = (0..400).map(|i| i / 8).collect();
    assert!(backlog_growing(&growing));
    assert!(!backlog_growing(&[50, 60, 70]), "too short to judge");
}

#[test]
fn arrivals_are_a_pure_function_of_the_seed() {
    let a = poisson_arrivals(7, "heavy-0", 300.0, 2.0, MIN_STEP_REQUESTS);
    assert_eq!(
        a,
        poisson_arrivals(7, "heavy-0", 300.0, 2.0, MIN_STEP_REQUESTS)
    );
    assert_ne!(
        a,
        poisson_arrivals(8, "heavy-0", 300.0, 2.0, MIN_STEP_REQUESTS)
    );
    assert_ne!(
        a,
        poisson_arrivals(7, "heavy-1", 300.0, 2.0, MIN_STEP_REQUESTS)
    );
    assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
    // About qps × seconds arrivals, and never fewer than a step needs.
    assert!((500..700).contains(&a.len()), "{} arrivals", a.len());
    assert!(
        poisson_arrivals(7, "light-0", 10.0, 1.0, MIN_STEP_REQUESTS).len() >= MIN_STEP_REQUESTS
    );
    assert_eq!(poisson_arrivals(7, "light-0", 10.0, 1.0, 150).len(), 150);
}

#[test]
fn zipf_draws_are_seeded_and_skewed() {
    let draw = |seed| {
        let mut z = Zipf::new(seed, "heavy-0", 28, CVE_ZIPF_EXPONENT);
        (0..2000).map(|_| z.sample()).collect::<Vec<_>>()
    };
    let a = draw(3);
    assert_eq!(a, draw(3));
    assert_ne!(a, draw(4));
    let mut counts = [0usize; 28];
    for &i in &a {
        counts[i] += 1;
    }
    let top = *counts.iter().max().expect("28 items");
    assert!(top > 2000 / 28 * 3, "the hottest query dominates: {top}");
    // Exponent 0 is uniform.
    let mut z = Zipf::new(3, "heavy-0", 28, 0.0);
    let mut uniform = [0usize; 28];
    for _ in 0..28_000 {
        uniform[z.sample()] += 1;
    }
    assert!(
        uniform.iter().all(|c| (700..1300).contains(c)),
        "{uniform:?}"
    );
}

#[test]
fn distinct_queries_are_seeded_and_never_repeat() {
    let a = distinct_queries(5, "light-0", 60);
    assert_eq!(a.len(), 60);
    assert_eq!(a, distinct_queries(5, "light-0", 60));
    assert_ne!(a, distinct_queries(6, "light-0", 60));
    let keys: HashSet<_> = a
        .iter()
        .map(|q| (q.source.clone(), q.function.clone(), q.arch as u8))
        .collect();
    assert_eq!(keys.len(), a.len(), "dedup must never fire");
}

#[test]
fn step_plans_are_a_pure_function_of_the_seed() {
    for w in &WORKLOADS {
        let step = Step::Heavy(1);
        let plan = w.plan(9, step, 2.0);
        assert_eq!(plan, w.plan(9, step, 2.0), "{}", w.name);
        assert_ne!(plan.due_s, w.plan(10, step, 2.0).due_s, "{}", w.name);
        assert_eq!(plan.due_s.len(), plan.queries.len());
        let repeats = plan.queries.len()
            - plan
                .queries
                .iter()
                .map(|q| (&q.source, &q.function, q.arch as u8))
                .collect::<HashSet<_>>()
                .len();
        match w.mix {
            QueryMix::Distinct => assert_eq!(repeats, 0, "{}", w.name),
            QueryMix::CveZipf(_) => assert!(repeats > 0, "{}", w.name),
        }
    }
}

#[test]
fn metric_names_are_validated() {
    for good in ["setup_s", "encoder.ns_per_cell", "p95-ms", "0x"] {
        assert!(valid_metric_name(good), "{good}");
    }
    for bad in [
        "",
        ".hidden",
        "_x",
        "has space",
        "a/b",
        "µs",
        &"x".repeat(65),
    ] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
    let m = |name, value| Metric {
        name,
        value,
        unit: "ms",
    };
    let expected = [("a", "ms"), ("b", "ms")];
    let line =
        result_line(true, 3, 0, &[m("a", 1.5), m("b", 2.0)], &expected).expect("a valid result");
    let parsed = json::parse(&line).expect("the result line is JSON");
    assert_eq!(
        parsed
            .get("metrics")
            .and_then(|m| m.get("a"))
            .and_then(|a| a.get("value")),
        Some(&Json::Number(1.5))
    );
    assert!(result_line(true, 3, 0, &[m("a", 1.5)], &expected).is_err());
    assert!(result_line(true, 3, 0, &[m("a", 1.5), m("b", f64::NAN)], &expected).is_err());
    assert!(result_line(true, 3, 0, &[m("a", 1.5), m("a", 2.0)], &expected).is_err());
}

#[test]
fn benchmark_json_lists_exactly_what_the_benchmark_reports() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Array(items)) = spec.get(key) else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(&END_TO_END));
    assert_eq!(list("per_layer"), owned(&PER_LAYER));
    let mut seen = HashSet::new();
    for (name, _) in list("end_to_end").iter().chain(&list("per_layer")) {
        assert!(valid_metric_name(name), "{name}");
        assert!(seen.insert(name.clone()), "{name} is listed twice");
    }
    let Some(Json::Array(workloads)) = spec.get("workloads") else {
        panic!("workloads is a list");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    assert!(names.iter().all(|n| workload(n).is_some()));
}

#[test]
fn rates_are_fixed_shares_of_the_recorded_capacity() {
    for w in &WORKLOADS {
        assert_eq!(w.light_qps(), LIGHT_SHARE * w.capacity_qps, "{}", w.name);
        assert_eq!(w.heavy_qps(), w.heavy_share * w.capacity_qps, "{}", w.name);
        assert!(w.light_qps() < w.heavy_qps(), "{}", w.name);
        let rate = |step| w.rate_and_length(step, 15.0).0;
        assert!(rate(Step::Below(2)) < rate(Step::Below(1)), "{}", w.name);
        assert!(rate(Step::Below(1)) < w.light_qps(), "{}", w.name);
        assert!(
            w.heavy_qps() < rate(Step::Rung { r: 1, attempt: 0 }),
            "{}",
            w.name
        );
    }
}
