//! `asteria-perfbench` — one command for every end-to-end metric, and a
//! traced mode for every per-layer metric. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-distinct --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics. The line before it is the
//! provenance stamp (machine, commit, seed, sizes, per-step detail).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use asteria::core::{AsteriaModel, ModelConfig};
use asteria::serve::json::Json;
use asteria::vulnsearch::{FirmwareImage, FunctionQuery, IndexBuilder, SearchSession};

use asteria_perfbench::inputs::{workload, Step, StepPlan, Workload, BLOCKS, WORKLOADS};
use asteria_perfbench::phases::{self, index_digest, IndexBench, Served};
use asteria_perfbench::replay;
use asteria_perfbench::report::{self, object, Metric};
use asteria_perfbench::stats::{median, percentile};

/// Set-up is repeated this many times per run and its median reported,
/// so a one-off stall does not read as a set-up regression.
const SETUP_REPEATS: usize = 3;

/// Images in the corpus subset the traced run builds repeatedly for the
/// 1-vs-N-thread ratio and the recorder's overhead.
const SUBSET_IMAGES: usize = 150;

/// Warm rebuilds per run: at least this many, and until they have taken
/// this long together.
const WARM_REPEATS: usize = 10;
const WARM_SECONDS: f64 = 0.6;

/// Interleaved recorder-off/on rounds for `obs.overhead_pct`; each mode
/// keeps its fastest sample.
const OVERHEAD_ROUNDS: usize = 7;

/// Images built per `obs.overhead_pct` sample, and the least time one
/// sample spans (the build is repeated until it does), so that a 3%
/// difference stands above scheduler jitter.
const OVERHEAD_IMAGES: usize = 30;
const OVERHEAD_SAMPLE_S: f64 = 0.3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload(name)
        .ok_or_else(|| format!("unknown workload {name:?} (one of {})", names.join(", ")))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
    /// Extra provenance fields.
    detail: Vec<(String, Json)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!("usage: asteria-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let outcome = run(&args, nproc, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");

    let w = args.workload;
    let mut stamp: Vec<(String, Json)> = [
        ("workload", Json::from(w.name)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("nproc", Json::from(nproc)),
        ("worker_threads", Json::from(nproc)),
        (
            "serve_threads",
            Json::from(asteria::exec::resolve_threads(0)),
        ),
        ("git_commit", Json::from(report::git_commit())),
        ("images", Json::from(w.images)),
        ("setup_repeats", Json::from(SETUP_REPEATS)),
        ("capacity_qps", Json::from(w.capacity_qps)),
        ("light_qps", Json::from(w.light_qps())),
        ("heavy_qps", Json::from(w.heavy_qps())),
        ("p95_limit_ms", Json::from(w.p95_limit_ms)),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    stamp.extend(outcome.detail);
    println!("{}", object([("provenance", Json::Object(stamp))]).render());
    let expected: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    match report::result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
        expected,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, nproc: usize, scratch: &Path) -> Outcome {
    let w = args.workload;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous copy first so peak memory holds one corpus.
        drop(prepared.take());
        let started = Instant::now();
        let (firmware, blocks) = w.inputs(args.seed, args.seconds);
        let model = Arc::new(AsteriaModel::new(ModelConfig::default()));
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some((firmware, blocks, model));
    }
    let (firmware, blocks, model) = prepared.expect("set-up ran at least once");
    let setup = Metric {
        name: "setup_s",
        value: median(&setup_s).expect("set-up ran at least once"),
        unit: "s",
    };
    if args.trace {
        traced(args, nproc, scratch, &model, &firmware, blocks)
    } else {
        let mut outcome = untraced(args, nproc, scratch, &model, &firmware, blocks);
        outcome.metrics.insert(0, setup);
        outcome
    }
}

/// The per-step provenance entries of a served ladder; an infinite
/// percentile (failures beyond it) reads `"inf"`. A light or heavy block
/// says whether it was kept (its rate is judged on its kept blocks
/// pooled); a rung says whether it passed.
fn step_detail(served: &Served, w: &Workload) -> (String, Json) {
    let kept: Vec<&StepPlan> = [false, true]
        .into_iter()
        .flat_map(|heavy| served.kept_blocks(heavy))
        .map(|s| &s.plan)
        .collect();
    let num = |v: Option<f64>| match v {
        Some(v) if v.is_finite() => Json::from(v),
        Some(_) => Json::from("inf"),
        None => Json::Null,
    };
    let entries = served
        .steps
        .iter()
        .map(|s| {
            let v = s.verdict_input();
            object([
                ("step", Json::from(s.plan.step.name())),
                ("qps", Json::from(s.plan.qps)),
                ("planned", Json::from(s.plan.due_s.len())),
                ("sent", Json::from(s.record.sent_count())),
                ("failed", Json::from(s.record.failed_count())),
                ("p50_ms", num(percentile(&s.record.sorted_latencies(), 0.5))),
                ("p95_ms", num(v.p95_ms)),
                ("late_p95_ms", num(v.late_p95_ms)),
                ("backlog_growing", Json::from(v.backlog_growing)),
                (
                    "backlog_max",
                    Json::from(s.record.sent_backlog().into_iter().max().unwrap_or(0)),
                ),
                match s.plan.step {
                    Step::Light(_) | Step::Heavy(_) => (
                        "kept",
                        Json::from(kept.iter().any(|p| std::ptr::eq(*p, &s.plan))),
                    ),
                    Step::Rung { .. } | Step::Below(_) => ("passed", Json::from(s.passed(w))),
                },
            ])
        })
        .collect();
    ("steps".to_string(), Json::Array(entries))
}

/// A provenance member.
fn member(key: &str, value: impl Into<Json>) -> (String, Json) {
    (key.to_string(), value.into())
}

fn untraced(
    args: &Args,
    nproc: usize,
    scratch: &Path,
    model: &Arc<AsteriaModel>,
    firmware: &[FirmwareImage],
    blocks: Vec<StepPlan>,
) -> Outcome {
    let w = args.workload;
    let mut bench = IndexBench::new(model, firmware, nproc, scratch.join("index.asix"));
    bench.cold_build();
    let functions = bench.index().len();
    let session = Arc::new(SearchSession::new(Arc::clone(model), bench.index().clone()));
    // The remaining cold builds and the warm rebuilds run between the
    // serving blocks, so every metric samples the whole run.
    let mut cold_left = w.cold_builds.saturating_sub(1);
    let served = phases::serve_phase(
        &session,
        w,
        args.seed,
        args.seconds,
        nproc,
        blocks,
        &mut |b| {
            let now = cold_left.div_ceil(BLOCKS - b);
            for _ in 0..now {
                bench.cold_build();
            }
            cold_left -= now;
            bench.warm_rebuilds(WARM_REPEATS / BLOCKS, WARM_SECONDS / BLOCKS as f64);
        },
        true,
        None,
    );
    let steps = &served.steps;

    // The gate, outside every timed window.
    let direct = phases::direct_answers(&session, steps, nproc);
    let mismatches = phases::mismatched_replies(steps, &direct) + bench.mismatches;
    let sent: usize = steps.iter().map(|s| s.record.sent_count()).sum();
    let failed_requests: usize = steps.iter().map(|s| s.record.failed_count()).sum();

    let metric = |name, value, unit| Metric { name, value, unit };
    let latency = |heavy, q| served.pooled_percentile(heavy, q).unwrap_or(f64::NAN);
    let metrics = vec![
        metric(
            "index_fns_per_s",
            functions as f64 / median(&bench.cold_s).expect("cold builds ran"),
            "1/s",
        ),
        metric(
            "index_warm_s",
            // The fastest rebuild: rebuilds after the first serving
            // blocks of a run read up to 1.7 times slower, an effect of
            // the process's state rather than of the read path.
            bench.warm_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        // Too few samples for a percentile, or no ladder rung passing,
        // gives NaN, which the result line refuses.
        metric("light_p50_ms", latency(false, 0.5), "ms"),
        metric("light_p95_ms", latency(false, 0.95), "ms"),
        metric("heavy_p50_ms", latency(true, 0.5), "ms"),
        metric("heavy_p95_ms", latency(true, 0.95), "ms"),
        metric("slo_qps", served.slo_qps(w).unwrap_or(f64::NAN), "1/s"),
        metric("peak_rss_mb", served.peak_rss_mb.unwrap_or(f64::NAN), "MiB"),
    ];
    Outcome {
        metrics,
        attempted: (sent + bench.cold_s.len() + bench.warm_s.len()) as u64,
        failed: failed_requests as u64 + mismatches,
        correct: mismatches == 0,
        detail: vec![
            member("functions", functions),
            member(
                "index_digest",
                format!("{:016x}", index_digest(bench.index())),
            ),
            member("cold_builds", bench.cold_s.len()),
            member("warm_rebuilds", bench.warm_s.len()),
            member("mismatches", mismatches),
            step_detail(&served, w),
        ],
    }
}

/// `IndexBuilder` at 1 thread vs `nproc` threads on `subset`, two
/// interleaved builds each; `None` (not measurable) below two cores.
fn parallel_speedup(model: &AsteriaModel, subset: &[FirmwareImage], nproc: usize) -> Option<f64> {
    if nproc < 2 {
        return None;
    }
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for order in [[1, nproc], [nproc, 1]] {
        for threads in order {
            let started = Instant::now();
            black_box(IndexBuilder::new(model).threads(threads).build(subset).ok());
            let took = started.elapsed().as_secs_f64();
            if threads == 1 {
                one.push(took)
            } else {
                many.push(took)
            }
        }
    }
    Some(median(&one)? / median(&many)?)
}

/// The recorder's cost: a cold build of `subset` plus one batch of
/// `queries`, on one thread, with the recorder off and on in interleaved
/// rounds. (At two threads on a shared 2-core machine the reading moved
/// by ±15% from run to run; on one thread it repeats within about two
/// points while the machine's speed holds steady.) Each
/// sample repeats the work until it spans [`OVERHEAD_SAMPLE_S`], and each
/// mode keeps its fastest sample, so a stall in one round biases
/// neither mode. Percent change of the recorder-on time.
fn obs_overhead_pct(
    model: &AsteriaModel,
    subset: &[FirmwareImage],
    session: &SearchSession,
    queries: &[FunctionQuery],
) -> f64 {
    let work = || {
        black_box(IndexBuilder::new(model).threads(1).build(subset).ok());
        black_box(session.query_batch(queries));
    };
    let started = Instant::now();
    work();
    let reps = ((OVERHEAD_SAMPLE_S / started.elapsed().as_secs_f64().max(1e-9)).ceil() as usize)
        .clamp(1, 64);
    let collector = asteria::obs::install();
    let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
    for round in 0..OVERHEAD_ROUNDS {
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            asteria::obs::set_enabled(enabled);
            collector.reset();
            let started = Instant::now();
            for _ in 0..reps {
                work();
            }
            let took = started.elapsed().as_secs_f64() / reps as f64;
            let best = if enabled { &mut on } else { &mut off };
            *best = best.min(took);
        }
    }
    asteria::obs::set_enabled(false);
    collector.reset();
    (on / off - 1.0) * 100.0
}

fn traced(
    args: &Args,
    nproc: usize,
    scratch: &Path,
    model: &Arc<AsteriaModel>,
    firmware: &[FirmwareImage],
    blocks: Vec<StepPlan>,
) -> Outcome {
    let w = args.workload;
    let mut bench = IndexBench::new(model, firmware, nproc, scratch.join("index.asix"));
    bench.cold_build();
    bench.warm_rebuilds(WARM_REPEATS, WARM_SECONDS);
    let light = blocks[0].queries.clone();

    // Layer replay of the workload's own inputs.
    let corpus_t = replay::replay_corpus(model, firmware, args.seed);
    let (query_t, encodings) = replay::replay_queries(model, &light);
    let scan = replay::replay_scan(
        &SearchSession::new(Arc::clone(model), bench.index().clone()).threads(1),
        &encodings,
    );
    let (io, io_roundtrip_ok) = replay::replay_index_io(model, bench.cache(), firmware);
    let subset = &firmware[..firmware.len().min(SUBSET_IMAGES)];
    let speedup = parallel_speedup(model, subset, nproc);

    let functions = bench.index().len();
    let session = Arc::new(SearchSession::new(Arc::clone(model), bench.index().clone()));
    let sample = &light[..light.len().min(replay::QUERY_SAMPLE)];
    let overhead_subset = &firmware[..firmware.len().min(OVERHEAD_IMAGES)];
    let serial = SearchSession::new(Arc::clone(model), bench.index().clone()).threads(1);
    let overhead = obs_overhead_pct(model, overhead_subset, &serial, sample);

    // Light and heavy steps with the recorder on; its serve counters
    // are read only through reset/snapshot around each step.
    let collector = asteria::obs::install();
    let served = phases::serve_phase(
        &session,
        w,
        args.seed,
        args.seconds,
        nproc,
        blocks,
        &mut |_| {},
        false,
        Some(collector),
    );
    asteria::obs::set_enabled(false);
    collector.reset();
    let steps = &served.steps;

    // The gate, serially, so each direct query's time is uncontended.
    let direct = phases::direct_answers(&session, steps, 1);
    let mismatches =
        phases::mismatched_replies(steps, &direct) + bench.mismatches + u64::from(!io_roundtrip_ok);
    let sent: usize = steps.iter().map(|s| s.record.sent_count()).sum();
    let failed = steps.iter().map(|s| s.record.failed_count()).sum::<usize>() as u64 + mismatches;
    let attempted = (sent + bench.cold_s.len() + bench.warm_s.len()) as u64;

    // Round trip minus the direct answer of the same requests, over the
    // light blocks.
    let (mut round_trip_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for s in served.blocks(false) {
        for (q, l) in s.plan.queries.iter().zip(&s.record.latency_ms) {
            if l.is_finite() {
                round_trip_ms.push(*l);
                direct_ms.push(direct[&phases::answer_key(q)].1 * 1e3);
            }
        }
    }
    let overhead_ms =
        median(&round_trip_ms).unwrap_or(f64::NAN) - median(&direct_ms).unwrap_or(f64::NAN);

    // Batching and dedup over the heavy blocks, from the server's own
    // counters and histogram.
    let (mut batches, mut batched, mut deduped) = (0u64, 0.0, 0u64);
    for snap in served.blocks(true).filter_map(|s| s.snapshot.as_ref()) {
        if let Some(h) = snap.histograms.get("asteria_serve_batch_size") {
            batches += h.count;
            batched += h.sum;
        }
        deduped += snap
            .counters
            .get("asteria_query_batch_deduped_total")
            .copied()
            .unwrap_or(0);
    }
    let outcome_count = |outcome: &str| -> f64 {
        let key = format!("asteria_serve_requests_total{{outcome=\"{outcome}\"}}");
        steps
            .iter()
            .filter_map(|s| s.snapshot.as_ref()?.counters.get(&key).copied())
            .sum::<u64>() as f64
    };
    let mut late_ms: Vec<f64> = served
        .blocks(true)
        .flat_map(|s| s.record.sorted_lateness())
        .collect();
    late_ms.sort_by(f64::total_cmp);

    let both = |f: fn(&replay::PipelineTimes) -> f64| f(&corpus_t) + f(&query_t);
    let functions_replayed = (corpus_t.functions + query_t.functions) as f64;
    let cells = (corpus_t.cells + query_t.cells) as f64;
    let encode_s = both(|t| t.encode_s);
    let combined = replay::PipelineTimes {
        parses: query_t.parses,
        parse_s: query_t.parse_s,
        compile_s: query_t.compile_s,
        functions: functions_replayed as usize,
        decompile_s: both(|t| t.decompile_s),
        preprocess_s: both(|t| t.preprocess_s),
        encode_s,
        cells: cells as u64,
    };
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric(
            "encoder.encode_us",
            encode_s * 1e6 / functions_replayed,
            "us",
        ),
        metric("encoder.ns_per_cell", encode_s * 1e9 / cells, "ns"),
        metric("encoder.cells", cells, "count"),
        metric("encoder.share", combined.encoder_share(), "ratio"),
        metric(
            "decompiler.decompile_us",
            combined.decompile_s * 1e6 / functions_replayed,
            "us",
        ),
        metric(
            "core.preprocess_us",
            combined.preprocess_s * 1e6 / functions_replayed,
            "us",
        ),
        metric(
            "lang.parse_us",
            query_t.parse_s * 1e6 / query_t.parses as f64,
            "us",
        ),
        metric(
            "compiler.compile_us",
            query_t.compile_s * 1e6 / query_t.parses as f64,
            "us",
        ),
        metric("vulnsearch.score_ns_per_pair", scan.score_ns_per_pair, "ns"),
        metric("vulnsearch.rank_us", scan.rank_us, "us"),
        metric("vulnsearch.sort_share", scan.sort_share, "ratio"),
        metric("index_io.save_ms", io.save_ms, "ms"),
        metric("index_io.load_ms", io.load_ms, "ms"),
        metric("index_io.bytes", io.bytes as f64, "bytes"),
        metric("index_io.fingerprint_us", io.fingerprint_us, "us"),
        // 0 marks "not measurable" (fewer than two cores); the
        // provenance stamp says which.
        metric("exec.parallel_speedup", speedup.unwrap_or(0.0), "x"),
        metric("serve.overhead_ms", overhead_ms, "ms"),
        metric(
            "serve.batch_size_mean",
            if batches > 0 {
                batched / batches as f64
            } else {
                0.0
            },
            "count",
        ),
        metric(
            "serve.dedup_share",
            if batched > 0.0 {
                deduped as f64 / batched
            } else {
                0.0
            },
            "ratio",
        ),
        metric("serve.overloaded", outcome_count("overloaded"), "count"),
        metric(
            "serve.deadline_exceeded",
            outcome_count("deadline_exceeded"),
            "count",
        ),
        metric(
            "loadgen.late_ms_p95",
            percentile(&late_ms, 0.95).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("obs.overhead_pct", overhead, "%"),
        metric("error_rate", failed as f64 / attempted as f64, "ratio"),
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        correct: mismatches == 0,
        detail: vec![
            member("functions", functions),
            member(
                "index_digest",
                format!("{:016x}", index_digest(bench.index())),
            ),
            member("replayed_functions", functions_replayed),
            member("replayed_queries", query_t.parses),
            member("subset_images", subset.len()),
            member("overhead_images", OVERHEAD_IMAGES.min(firmware.len())),
            member(
                "parallel_speedup",
                if speedup.is_some() {
                    "measured"
                } else {
                    "not_measurable"
                },
            ),
            member("mismatches", mismatches),
            step_detail(&served, w),
        ],
    }
}
