//! The timed phases every workload runs — the offline index build and
//! the online serving ladder — and the correctness gate that checks
//! their outputs outside the timed windows.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use asteria::core::AsteriaModel;
use asteria::serve::json::{self, Json};
use asteria::serve::{start_tcp, ServeConfig};
use asteria::vulnsearch::{
    FirmwareImage, FunctionQuery, IndexBuilder, IndexCache, QueryOutcome, SearchIndex,
    SearchSession,
};

use crate::inputs::{
    Step, StepPlan, Workload, KEPT_BLOCKS, LATE_SHARE_OF_LIMIT, MAX_BELOW, MAX_RUNGS,
};
use crate::loadgen::{Client, StepRecord};
use crate::stats::{backlog_growing, ladder_rung, percentile, step_meets_limit, StepVerdictInput};

/// FNV-1a digest over an index's encoding bits, names, callee counts
/// and positions: equal digests mean bit-identical indexes, so two
/// commits (or a cold and a warm build) can be compared by one number.
pub fn index_digest(index: &SearchIndex) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &index.functions {
        eat(&(f.image as u64).to_le_bytes());
        eat(&(f.binary as u64).to_le_bytes());
        eat(f.name.as_bytes());
        eat(&(f.encoding.callee_count as u64).to_le_bytes());
        for v in &f.encoding.vector {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// True when two indexes are bit-identical: same functions in the same
/// order with the same names, ground truth, callee counts and encoding
/// bits, and the same extraction report.
pub fn indexes_identical(a: &SearchIndex, b: &SearchIndex) -> bool {
    a.extraction == b.extraction
        && a.functions.len() == b.functions.len()
        && a.functions.iter().zip(&b.functions).all(|(x, y)| {
            x.image == y.image
                && x.binary == y.binary
                && x.name == y.name
                && x.ground_truth == y.ground_truth
                && x.encoding.callee_count == y.encoding.callee_count
                && x.encoding.vector.len() == y.encoding.vector.len()
                && x.encoding
                    .vector
                    .iter()
                    .zip(&y.encoding.vector)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The offline phase's measurements, taken a build at a time so that
/// they can be spread over the whole run rather than bunched at its
/// start. Checks outside the timed calls: every cold build bit-identical
/// to the first, every warm rebuild all hits and bit-identical too.
pub struct IndexBench<'a> {
    model: &'a AsteriaModel,
    firmware: &'a [FirmwareImage],
    threads: usize,
    asix: PathBuf,
    /// Seconds per cold build, in build order.
    pub cold_s: Vec<f64>,
    /// Seconds per warm rebuild from the ASIX file.
    pub warm_s: Vec<f64>,
    /// The first cold build's index and the cache it wrote.
    first: Option<(SearchIndex, IndexCache)>,
    /// Builds whose output disagreed with the first cold build, or warm
    /// rebuilds that were not all hits.
    pub mismatches: u64,
}

impl<'a> IndexBench<'a> {
    /// Builds of `firmware` at `threads`, caching in the ASIX file `asix`.
    pub fn new(
        model: &'a AsteriaModel,
        firmware: &'a [FirmwareImage],
        threads: usize,
        asix: PathBuf,
    ) -> IndexBench<'a> {
        IndexBench {
            model,
            firmware,
            threads,
            asix,
            cold_s: Vec::new(),
            warm_s: Vec::new(),
            first: None,
            mismatches: 0,
        }
    }

    /// One cold build, writing a fresh ASIX file.
    pub fn cold_build(&mut self) {
        let _ = std::fs::remove_file(&self.asix);
        let started = Instant::now();
        let build = IndexBuilder::new(self.model)
            .threads(self.threads)
            .cache(&self.asix)
            .build(self.firmware)
            .expect("the benchmark's own scratch directory is writable");
        self.cold_s.push(started.elapsed().as_secs_f64());
        match &self.first {
            None => self.first = Some((build.index, build.cache)),
            Some((index, _)) => {
                self.mismatches += u64::from(!indexes_identical(index, &build.index));
            }
        }
    }

    /// Warm rebuilds from the ASIX file: at least `repeats`, and until
    /// they have taken `seconds` together.
    pub fn warm_rebuilds(&mut self, repeats: usize, seconds: f64) {
        let binaries: usize = self.firmware.iter().map(|img| img.binaries.len()).sum();
        let started = Instant::now();
        for k in 0.. {
            if k >= repeats && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let t = Instant::now();
            let warm = IndexBuilder::new(self.model)
                .threads(self.threads)
                .cache(&self.asix)
                .build(self.firmware)
                .expect("the ASIX file the cold build wrote is readable");
            self.warm_s.push(t.elapsed().as_secs_f64());
            let all_hits = warm.stats.misses == 0 && warm.stats.hits == binaries;
            self.mismatches +=
                u64::from(!all_hits || !indexes_identical(self.index(), &warm.index));
        }
    }

    /// The first cold build's index.
    pub fn index(&self) -> &SearchIndex {
        &self.first.as_ref().expect("a cold build ran").0
    }

    /// The cache the first cold build wrote.
    pub fn cache(&self) -> &IndexCache {
        &self.first.as_ref().expect("a cold build ran").1
    }
}

/// One served step: its plan, what the generator recorded, and the
/// server's obs counters over the step when the recorder was on.
pub struct ServedStep {
    /// The step's plan.
    pub plan: StepPlan,
    /// The generator's record.
    pub record: StepRecord,
    /// The recorder's snapshot taken after the step's last reply.
    pub snapshot: Option<asteria::obs::MetricsSnapshot>,
}

impl ServedStep {
    /// The inputs of this step's pass/fail verdict.
    pub fn verdict_input(&self) -> StepVerdictInput {
        StepVerdictInput {
            p95_ms: percentile(&self.record.sorted_latencies(), 0.95),
            late_p95_ms: percentile(&self.record.sorted_lateness(), 0.95),
            backlog_growing: self.record.cut_short || backlog_growing(&self.record.sent_backlog()),
        }
    }

    /// Whether the step meets `w`'s p95 limit.
    pub fn passed(&self, w: &Workload) -> bool {
        step_meets_limit(
            &self.verdict_input(),
            w.p95_limit_ms,
            LATE_SHARE_OF_LIMIT * w.p95_limit_ms,
        )
    }
}

/// Pause before the confirmation run of a failed rung.
const RETRY_PAUSE: std::time::Duration = std::time::Duration::from_millis(1000);

/// The served steps of one run, in the order they ran.
pub struct Served {
    /// Every step.
    pub steps: Vec<ServedStep>,
    /// Peak resident set size (MiB) once the light and heavy blocks have
    /// run, before the ladder: how far the ladder climbs changes how many
    /// requests the generator records, not what the program holds.
    pub peak_rss_mb: Option<f64>,
}

impl Served {
    /// The light blocks, or the heavy blocks.
    pub fn blocks(&self, heavy: bool) -> impl Iterator<Item = &ServedStep> {
        self.steps.iter().filter(move |s| match s.plan.step {
            Step::Light(_) => !heavy,
            Step::Heavy(_) => heavy,
            Step::Rung { .. } | Step::Below(_) => false,
        })
    }

    /// The [`KEPT_BLOCKS`] light (or heavy) blocks with the lowest mean
    /// latency (a failed request counts as infinitely slow).
    pub fn kept_blocks(&self, heavy: bool) -> Vec<&ServedStep> {
        let mean = |s: &ServedStep| {
            let v = s.record.sorted_latencies();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let mut blocks: Vec<(f64, &ServedStep)> =
            self.blocks(heavy).map(|s| (mean(s), s)).collect();
        blocks.sort_by(|a, b| a.0.total_cmp(&b.0));
        blocks.truncate(KEPT_BLOCKS);
        blocks.into_iter().map(|(_, s)| s).collect()
    }

    /// Latency percentile `q` over the kept light (or heavy) blocks
    /// pooled; `None` when too few samples lie beyond it.
    pub fn pooled_percentile(&self, heavy: bool, q: f64) -> Option<f64> {
        let kept = self.kept_blocks(heavy);
        percentile(&pooled(&kept, |s| s.record.sorted_latencies()), q)
    }

    /// Whether the light (or heavy) rate meets `w`'s limit, judged on its
    /// kept blocks pooled: p95 latency and p95 lateness within their
    /// limits, and no kept block's backlog growing.
    pub fn rate_passed(&self, w: &Workload, heavy: bool) -> bool {
        let kept = self.kept_blocks(heavy);
        let verdict = StepVerdictInput {
            p95_ms: percentile(&pooled(&kept, |s| s.record.sorted_latencies()), 0.95),
            late_p95_ms: percentile(&pooled(&kept, |s| s.record.sorted_lateness()), 0.95),
            backlog_growing: kept.iter().any(|s| s.verdict_input().backlog_growing),
        };
        step_meets_limit(
            &verdict,
            w.p95_limit_ms,
            LATE_SHARE_OF_LIMIT * w.p95_limit_ms,
        )
    }

    /// The ladder's verdicts in ascending rate: the rungs run below the
    /// light rate, light, heavy, then each rung climbed. The light and
    /// heavy rates are judged on their kept blocks; a rung above them
    /// passes when its first run or its confirmation run does.
    pub fn ladder(&self, w: &Workload) -> Vec<(f64, bool)> {
        let mut ladder: Vec<(f64, bool)> = self
            .steps
            .iter()
            .rev()
            .filter(|s| matches!(s.plan.step, Step::Below(_)))
            .map(|s| (s.plan.qps, s.passed(w)))
            .collect();
        let base = ladder.len();
        ladder.push((w.light_qps(), self.rate_passed(w, false)));
        ladder.push((w.heavy_qps(), self.rate_passed(w, true)));
        for s in &self.steps {
            if let Step::Rung { r, .. } = s.plan.step {
                let pass = s.passed(w);
                match ladder.get_mut(base + r + 1) {
                    Some(entry) => entry.1 |= pass,
                    None => ladder.push((s.plan.qps, pass)),
                }
            }
        }
        ladder
    }

    /// `slo_qps`: the rate of the highest ladder step that meets the
    /// limit; `None` when even the lowest rung below the light rate
    /// fails.
    pub fn slo_qps(&self, w: &Workload) -> Option<f64> {
        let ladder = self.ladder(w);
        let passed: Vec<bool> = ladder.iter().map(|(_, p)| *p).collect();
        ladder_rung(&passed).map(|rung| ladder[rung].0)
    }
}

/// The values `f` gives for each of `steps`, pooled and sorted.
fn pooled(steps: &[&ServedStep], f: impl Fn(&ServedStep) -> Vec<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = steps.iter().flat_map(|s| f(s)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Serves `session` over TCP with the default configuration: the light
/// and heavy `blocks` as planned, calling `between(b)` after each
/// light/heavy pair `b` (the server idles meanwhile), then, with
/// `climb`: when the heavy rate passes, the rungs above it until two
/// rungs in a row fail; when both the light and the heavy rate fail,
/// the rungs below them until one passes. With a collector, its metrics are reset before each step and
/// snapshotted after it.
#[allow(clippy::too_many_arguments)]
pub fn serve_phase(
    session: &Arc<SearchSession>,
    w: &Workload,
    seed: u64,
    seconds: f64,
    connections: usize,
    blocks: Vec<StepPlan>,
    between: &mut dyn FnMut(usize),
    climb: bool,
    collector: Option<&asteria::obs::Collector>,
) -> Served {
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let handle = start_tcp(Arc::clone(session), ServeConfig::default(), listener)
        .expect("the server starts on a bound listener");
    let mut client =
        Client::connect(handle.local_addr(), connections).expect("the local server accepts");
    let mut served = Served {
        steps: Vec::new(),
        peak_rss_mb: None,
    };
    let mut next_id = 1u64;
    let mut run = |plan: StepPlan, served: &mut Served| -> bool {
        if let Some(c) = collector {
            c.reset();
        }
        let record = client.run_step(&plan, next_id);
        next_id += plan.due_s.len() as u64;
        let s = ServedStep {
            snapshot: collector.map(|c| c.snapshot()),
            plan,
            record,
        };
        let passed = s.passed(w);
        served.steps.push(s);
        passed
    };
    for (k, plan) in blocks.into_iter().enumerate() {
        let pair_done = matches!(plan.step, Step::Heavy(_));
        run(plan, &mut served);
        if pair_done {
            between(k / 2);
        }
    }
    served.peak_rss_mb = crate::report::peak_rss_mb();
    let (light_passed, heavy_passed) = (served.rate_passed(w, false), served.rate_passed(w, true));
    if climb && !light_passed && !heavy_passed {
        for r in 1..=MAX_BELOW {
            if run(w.plan(seed, Step::Below(r), seconds), &mut served) {
                break;
            }
        }
    }
    if climb && heavy_passed {
        let mut failed_in_a_row = 0;
        for r in 1..=MAX_RUNGS {
            let rung = |attempt| w.plan(seed, Step::Rung { r, attempt }, seconds);
            // A failure is confirmed after a pause, and the climb goes on
            // past one failed rung, so that a transient on a shared
            // machine does not end the ladder.
            let passed = run(rung(0), &mut served) || {
                std::thread::sleep(RETRY_PAUSE);
                run(rung(1), &mut served)
            };
            failed_in_a_row = if passed { 0 } else { failed_in_a_row + 1 };
            if failed_in_a_row == 2 {
                break;
            }
        }
    }
    drop(client);
    handle.shutdown();
    served
}

/// The answer identity of a query (what in-batch dedup keys on).
pub fn answer_key(q: &FunctionQuery) -> (String, String, u8, usize) {
    (q.source.clone(), q.function.clone(), q.arch as u8, q.top_k)
}

/// Direct answers (`None` when the query failed to encode) and the time
/// (s) each took, per distinct query.
pub type DirectAnswers = HashMap<(String, String, u8, usize), (Option<QueryOutcome>, f64)>;

/// Answers every distinct query of `steps` directly through
/// [`SearchSession::query`], spread over `threads` threads.
pub fn direct_answers(
    session: &SearchSession,
    steps: &[ServedStep],
    threads: usize,
) -> DirectAnswers {
    let mut unique: Vec<&FunctionQuery> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for s in steps {
        for q in &s.plan.queries {
            if seen.insert(answer_key(q)) {
                unique.push(q);
            }
        }
    }
    let threads = threads.max(1);
    let parts: Vec<Vec<(usize, Option<QueryOutcome>, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let unique = &unique;
                scope.spawn(move || {
                    (t..unique.len())
                        .step_by(threads)
                        .map(|i| {
                            let started = Instant::now();
                            let outcome = session.query(unique[i]).ok().map(|mut o| {
                                // The ranking is cut to `top_k` in place;
                                // release the rest of the index's hits.
                                o.hits.shrink_to_fit();
                                o
                            });
                            (i, outcome, started.elapsed().as_secs_f64())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a gate thread panicked"))
            .collect()
    });
    parts
        .into_iter()
        .flatten()
        .map(|(i, outcome, s)| (answer_key(unique[i]), (outcome, s)))
        .collect()
}

/// Bit-compares every reply of `steps` with the direct answer: hit
/// order, hit index and `score.to_bits()`, and `total_ranked`. Returns
/// the number of replies that disagree, or that succeeded where the
/// direct query failed (an error reply is a failure, already counted by
/// the generator, not a mismatch).
pub fn mismatched_replies(steps: &[ServedStep], direct: &DirectAnswers) -> u64 {
    let mut mismatches = 0;
    for s in steps {
        for (q, reply) in s.plan.queries.iter().zip(&s.record.replies) {
            let Some(line) = reply else { continue };
            let Ok(reply) = json::parse(line) else {
                mismatches += 1;
                continue;
            };
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                continue;
            }
            let matches = match &direct[&answer_key(q)] {
                (Some(expected), _) => reply_matches(&reply, expected),
                (None, _) => false,
            };
            mismatches += u64::from(!matches);
        }
    }
    mismatches
}

fn reply_matches(reply: &Json, expected: &QueryOutcome) -> bool {
    let Some(result) = reply.get("result") else {
        return false;
    };
    let Some(Json::Array(hits)) = result.get("hits") else {
        return false;
    };
    result.get("total_ranked").and_then(Json::as_u64) == Some(expected.total_ranked as u64)
        && hits.len() == expected.hits.len()
        && hits.iter().zip(&expected.hits).all(|(got, want)| {
            got.get("index").and_then(Json::as_u64) == Some(want.function as u64)
                && got.get("score").and_then(Json::as_f64).map(f64::to_bits)
                    == Some(want.score.to_bits())
        })
}
