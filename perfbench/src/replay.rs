//! The traced replay: the workload's own inputs pushed through each
//! layer's public functions from outside, one timer around each call,
//! so every layer's cost is measured where its work happens.

use std::hint::black_box;
use std::time::Instant;

use asteria::compiler::compile_program;
use asteria::core::{
    binarize, digitalize, function_similarity, AsteriaModel, FunctionEncoding, DEFAULT_INLINE_BETA,
};
use asteria::decompiler::{callee_count, decompile_function_with, DecompileLimits};
use asteria::lang::parse;
use asteria::vulnsearch::{
    extraction_params_digest, fingerprint_binary, FirmwareImage, FunctionQuery, IndexCache,
    SearchSession,
};

use crate::rng::Rng;
use crate::stats::median;

/// Corpus functions replayed per workload, at most: enough for stable
/// per-function means, few enough that the traced run stays short.
pub const CORPUS_SAMPLE_FUNCTIONS: usize = 1500;

/// Query functions replayed, at most.
pub const QUERY_SAMPLE: usize = 200;

/// Encoded queries ranked for the scan metrics, at most.
const RANK_SAMPLE: usize = 16;

/// Accumulated busy time and work of the extraction and encoding layers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineTimes {
    /// Query sources parsed and compiled.
    pub parses: usize,
    /// Seconds in `lang::parse`.
    pub parse_s: f64,
    /// Seconds in `compiler::compile_program`.
    pub compile_s: f64,
    /// Functions decompiled, preprocessed and encoded.
    pub functions: usize,
    /// Seconds in `decompiler::decompile_function_with`.
    pub decompile_s: f64,
    /// Seconds in `core::digitalize` plus `core::binarize`.
    pub preprocess_s: f64,
    /// Seconds in `AsteriaModel::encode` (the Tree-LSTM).
    pub encode_s: f64,
    /// Binarized nodes encoded: one Tree-LSTM cell each.
    pub cells: u64,
}

impl PipelineTimes {
    /// Share of the replayed pipeline's busy time spent encoding.
    pub fn encoder_share(&self) -> f64 {
        let total =
            self.parse_s + self.compile_s + self.decompile_s + self.preprocess_s + self.encode_s;
        self.encode_s / total
    }
}

/// Decompiles, preprocesses and encodes function `sym` of `binary`,
/// adding each layer's time to `t`. Returns the encoding, or `None`
/// when the function does not decompile (the index skips it too).
fn replay_function(
    model: &AsteriaModel,
    binary: &asteria::compiler::Binary,
    sym: usize,
    t: &mut PipelineTimes,
) -> Option<FunctionEncoding> {
    let limits = DecompileLimits::default();
    let started = Instant::now();
    let df = decompile_function_with(binary, sym, &limits).ok()?;
    let decompiled = Instant::now();
    let tree = binarize(&digitalize(&df));
    let preprocessed = Instant::now();
    let vector = model.encode(&tree);
    let encoded = Instant::now();
    t.decompile_s += (decompiled - started).as_secs_f64();
    t.preprocess_s += (preprocessed - decompiled).as_secs_f64();
    t.encode_s += (encoded - preprocessed).as_secs_f64();
    t.functions += 1;
    t.cells += tree.size() as u64;
    Some(FunctionEncoding {
        callee_count: callee_count(binary, &df, DEFAULT_INLINE_BETA),
        name: df.name,
        vector,
    })
}

/// Replays a seeded sample of the corpus's functions (whole binaries,
/// up to [`CORPUS_SAMPLE_FUNCTIONS`]) through decompile, preprocess and
/// encode.
pub fn replay_corpus(model: &AsteriaModel, firmware: &[FirmwareImage], seed: u64) -> PipelineTimes {
    let mut binaries: Vec<&asteria::compiler::Binary> =
        firmware.iter().flat_map(|img| &img.binaries).collect();
    Rng::stream(seed, "replay-corpus").shuffle(&mut binaries);
    let mut t = PipelineTimes::default();
    for binary in binaries {
        if t.functions >= CORPUS_SAMPLE_FUNCTIONS {
            break;
        }
        for sym in binary.function_indices() {
            black_box(replay_function(model, binary, sym, &mut t));
        }
    }
    t
}

/// Replays up to [`QUERY_SAMPLE`] distinct queries through parse,
/// compile, decompile, preprocess and encode, returning their encodings.
pub fn replay_queries(
    model: &AsteriaModel,
    queries: &[FunctionQuery],
) -> (PipelineTimes, Vec<FunctionEncoding>) {
    let mut t = PipelineTimes::default();
    let mut encodings = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for q in queries {
        if encodings.len() >= QUERY_SAMPLE {
            break;
        }
        if !seen.insert((&q.source, &q.function, q.arch as u8)) {
            continue;
        }
        let started = Instant::now();
        let program = parse(&q.source).expect("workload queries parse");
        let parsed = Instant::now();
        let binary = compile_program(&program, q.arch).expect("workload queries compile");
        let compiled = Instant::now();
        t.parses += 1;
        t.parse_s += (parsed - started).as_secs_f64();
        t.compile_s += (compiled - parsed).as_secs_f64();
        let sym = binary
            .symbol_index(&q.function)
            .expect("workload queries name a defined function");
        encodings.push(
            replay_function(model, &binary, sym, &mut t).expect("workload queries decompile"),
        );
    }
    (t, encodings)
}

/// The scan: per-pair scoring cost and the share of a full ranking
/// spent outside scoring (the sort and hit assembly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanTimes {
    /// Nanoseconds per `function_similarity` call over the index.
    pub score_ns_per_pair: f64,
    /// Median microseconds per `SearchSession::rank` (one thread).
    pub rank_us: f64,
    /// `1 − scoring time / ranking time`.
    pub sort_share: f64,
}

/// Ranks up to 16 of `encodings` against a one-thread session's index,
/// and scores the same pairs with `function_similarity` directly.
pub fn replay_scan(session: &SearchSession, encodings: &[FunctionEncoding]) -> ScanTimes {
    let sample = &encodings[..encodings.len().min(RANK_SAMPLE)];
    let (mut score_s, mut rank_s, mut ranks) = (0.0, 0.0, Vec::new());
    for q in sample {
        let started = Instant::now();
        for f in &session.index().functions {
            black_box(function_similarity(session.model(), q, &f.encoding));
        }
        score_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        black_box(session.rank(q));
        let took = started.elapsed().as_secs_f64();
        rank_s += took;
        ranks.push(took);
    }
    let pairs = (sample.len() * session.index().len()) as f64;
    ScanTimes {
        score_ns_per_pair: score_s * 1e9 / pairs,
        rank_us: median(&ranks).unwrap_or(0.0) * 1e6,
        sort_share: 1.0 - score_s / rank_s,
    }
}

/// The ASIX layer: serialize and parse the cache in memory, and
/// fingerprint every corpus binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexIoTimes {
    /// Median ms per `IndexCache::save` into memory.
    pub save_ms: f64,
    /// Median ms per `IndexCache::load` from memory.
    pub load_ms: f64,
    /// Serialized size.
    pub bytes: usize,
    /// Mean µs per `fingerprint_binary`.
    pub fingerprint_us: f64,
}

/// Times `IndexCache::save`/`load` (five each, median) and
/// `fingerprint_binary` over every binary of `firmware`. Checks that
/// the loaded cache saves back to the same bytes.
pub fn replay_index_io(
    model: &AsteriaModel,
    cache: &IndexCache,
    firmware: &[FirmwareImage],
) -> (IndexIoTimes, bool) {
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    let mut roundtrip_ok = true;
    for _ in 0..5 {
        bytes.clear();
        let started = Instant::now();
        cache
            .save(&mut bytes)
            .expect("saving into memory cannot fail");
        saves.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let loaded = IndexCache::load(bytes.as_slice());
        loads.push(started.elapsed().as_secs_f64());
        let mut again = Vec::new();
        roundtrip_ok &= loaded.is_ok_and(|c| c.save(&mut again).is_ok() && again == bytes);
    }
    let params = extraction_params_digest(DEFAULT_INLINE_BETA, &DecompileLimits::default());
    let weights = model.weights_digest();
    let binaries: Vec<&asteria::compiler::Binary> =
        firmware.iter().flat_map(|img| &img.binaries).collect();
    let started = Instant::now();
    for b in &binaries {
        black_box(fingerprint_binary(b, params, weights));
    }
    let fingerprint_us = started.elapsed().as_secs_f64() * 1e6 / binaries.len() as f64;
    (
        IndexIoTimes {
            save_ms: median(&saves).unwrap_or(0.0) * 1e3,
            load_ms: median(&loads).unwrap_or(0.0) * 1e3,
            bytes: bytes.len(),
            fingerprint_us,
        },
        roundtrip_ok,
    )
}
