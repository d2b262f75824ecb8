//! The workloads and the inputs each one generates from its seed: a
//! firmware corpus for the index, a pool of queries, and a fixed-rate
//! open-loop plan of which query is sent when.
//!
//! Every workload builds an index and serves queries against it; they
//! differ in corpus size and traffic mix so that each layer a later
//! change may optimise does most of the work in one workload and little
//! in another (see `perfbench/README.md` for the layer map).

use asteria::compiler::{compile_program, Arch};
use asteria::core::{extract_function_with, DEFAULT_INLINE_BETA};
use asteria::datasets::{generate_package, GenConfig};
use asteria::decompiler::DecompileLimits;
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, FirmwareImage, FunctionQuery,
};

use crate::rng::Rng;
use crate::stats::{MIN_BLOCK_REQUESTS, MIN_STEP_REQUESTS};

/// Which queries a workload sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryMix {
    /// Every request a different generated function, so in-batch dedup
    /// never fires and every request pays parse, compile, decompile and
    /// encode.
    Distinct,
    /// The CVE library (7 entries × 4 archs) drawn with a Zipf
    /// popularity of this exponent over a seeded ranking, so repeated
    /// queries meet in a batch and dedup does much of the encoding.
    /// Exponent 0 draws uniformly.
    CveZipf(f64),
}

/// One workload. Its rates are fixed shares ([`LIGHT_SHARE`],
/// `heavy_share`) of `capacity_qps`, the `slo_qps` the parent commit
/// reached on this workload; they are never derived at run time, so two
/// commits are measured at the same load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Firmware images in the indexed corpus (about 18.5 functions each).
    pub images: usize,
    /// Traffic mix of the serving phase.
    pub mix: QueryMix,
    /// Cold index builds timed per run (their median is reported).
    pub cold_builds: usize,
    /// Capacity of the parent commit on this workload (requests/s): its
    /// median `slo_qps` over five seeds on a 2-core x86-64 virtual
    /// machine, to two significant figures.
    pub capacity_qps: f64,
    /// The heavy rate as a share of `capacity_qps`: batches fill and
    /// queueing shows, while the rate stays well below the knee.
    pub heavy_share: f64,
    /// The p95 latency limit (ms) a rung must meet: about three to four
    /// times the light-rate p95 of the parent commit, so that a rung
    /// fails on queueing, not on the fixed per-request costs.
    pub p95_limit_ms: f64,
    /// Length of all light blocks together, and of all heavy blocks
    /// together, as a share of `--seconds`.
    pub long_step_share: f64,
}

/// The light rate as a share of the workload's capacity: the server is
/// mostly idle, so latency shows the fixed per-request path (dwell,
/// encode, scan).
pub const LIGHT_SHARE: f64 = 0.2;

/// Zipf exponent of `serve-cve-skewed`'s query popularity: YCSB's
/// default request distribution (Cooper et al., "Benchmarking Cloud
/// Serving Systems with YCSB", SoCC 2010) uses 0.99.
pub const CVE_ZIPF_EXPONENT: f64 = 0.99;

/// The generator falls behind schedule when its p95 lateness exceeds
/// this share of the workload's p95 limit; such a step fails, because
/// its latencies no longer describe the stated rate.
pub const LATE_SHARE_OF_LIMIT: f64 = 0.2;

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "index-build",
        images: 1000,
        mix: QueryMix::CveZipf(0.0),
        cold_builds: 2,
        capacity_qps: 500.0,
        // At 0.5 its server at times fell into a run of full batches that
        // outlasted their arrivals for a second or more.
        heavy_share: 0.4,
        p95_limit_ms: 120.0,
        long_step_share: 0.3,
    },
    Workload {
        name: "serve-distinct",
        images: 50,
        mix: QueryMix::Distinct,
        cold_builds: 11,
        capacity_qps: 1200.0,
        // At 0.4 the share of replies held back by Nagle's algorithm sat
        // near 5%, so p95 flipped between 18 and 28 ms from seed to seed.
        heavy_share: 0.5,
        p95_limit_ms: 100.0,
        long_step_share: 0.3,
    },
    Workload {
        name: "serve-cve-skewed",
        images: 1000,
        mix: QueryMix::CveZipf(CVE_ZIPF_EXPONENT),
        cold_builds: 1,
        capacity_qps: 630.0,
        heavy_share: 0.4,
        p95_limit_ms: 120.0,
        long_step_share: 0.3,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One fixed-rate open-loop step of the serving phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Block `b` of the light rate.
    Light(usize),
    /// Block `b` of the heavy rate.
    Heavy(usize),
    /// Ladder rung `r` (1-based, at `capacity_qps × 0.6 × 1.1^(r-1)`);
    /// `attempt` 1 is
    /// the confirmation run of a rung whose first run failed.
    Rung { r: usize, attempt: usize },
    /// Rung `r` below the light rate (1-based, at `light_qps / 1.25^r`),
    /// run only when the light rate fails, so that `slo_qps` still names
    /// a rate the program sustains.
    Below(usize),
}

/// The light and heavy rates are each measured as this many blocks,
/// interleaved in time with each other and with the index builds.
pub const BLOCKS: usize = 5;

/// The blocks of a rate with the lowest mean latency that its metrics
/// and its verdict pool; the others are left out, so a few seconds of
/// interference on a shared machine sway the blocks left out rather
/// than the result.
pub const KEPT_BLOCKS: usize = 3;

/// The first ladder rung's rate as a share of the capacity, so that the
/// ladder spends its time near the knee.
pub const FIRST_RUNG_SHARE: f64 = 0.6;

/// Each further ladder rung is this factor faster than the one below it.
pub const RUNG_GROWTH: f64 = 1.1;

/// Length of each rung as a share of `--seconds`, long enough for a
/// rung just past the knee to show its backlog.
pub const RUNG_SHARE: f64 = 0.05;

/// Rungs above the heavy rate, at most; the climb stops after two failed
/// rungs in a row, so a faster program only climbs further.
pub const MAX_RUNGS: usize = 24;

/// Each rung below the light rate is this factor slower than the one
/// above it.
pub const BELOW_GROWTH: f64 = 1.25;

/// Rungs below the light rate, at most (down to about a quarter of it).
pub const MAX_BELOW: usize = 6;

impl Step {
    /// `light-<b>`, `heavy-<b>`, `rung-<r>`, `rung-<r>-again` or
    /// `below-<r>`: names
    /// the seeded streams of the step.
    pub fn name(&self) -> String {
        match *self {
            Step::Light(b) => format!("light-{b}"),
            Step::Heavy(b) => format!("heavy-{b}"),
            Step::Rung { r, attempt: 0 } => format!("rung-{r}"),
            Step::Rung { r, .. } => format!("rung-{r}-again"),
            Step::Below(r) => format!("below-{r}"),
        }
    }
}

/// One step's plan: when each request is due (seconds from the step's
/// start) and the query it sends.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    /// The step.
    pub step: Step,
    /// Arrival rate (requests/s).
    pub qps: f64,
    /// Due times, ascending.
    pub due_s: Vec<f64>,
    /// The query sent at each due time.
    pub queries: Vec<FunctionQuery>,
}

impl Workload {
    /// The fixed light arrival rate (requests/s).
    pub fn light_qps(&self) -> f64 {
        LIGHT_SHARE * self.capacity_qps
    }

    /// The fixed heavy arrival rate (requests/s).
    pub fn heavy_qps(&self) -> f64 {
        self.heavy_share * self.capacity_qps
    }

    /// Rate (requests/s) and nominal length (s) of `step` for a run of
    /// `seconds`; [`poisson_arrivals`] lengthens a step that would hold
    /// too few requests.
    pub fn rate_and_length(&self, step: Step, seconds: f64) -> (f64, f64) {
        let block = self.long_step_share * seconds / BLOCKS as f64;
        match step {
            Step::Light(_) => (self.light_qps(), block),
            Step::Heavy(_) => (self.heavy_qps(), block),
            Step::Rung { r, .. } => (
                self.capacity_qps * FIRST_RUNG_SHARE * RUNG_GROWTH.powi(r as i32 - 1),
                RUNG_SHARE * seconds,
            ),
            Step::Below(r) => (
                self.light_qps() / BELOW_GROWTH.powi(r as i32),
                RUNG_SHARE * seconds,
            ),
        }
    }

    /// Everything generated before timing starts: the corpus and the
    /// plans of the light and heavy blocks, in the order they run.
    pub fn inputs(&self, seed: u64, seconds: f64) -> (Vec<FirmwareImage>, Vec<StepPlan>) {
        let blocks = (0..BLOCKS)
            .flat_map(|b| [Step::Light(b), Step::Heavy(b)])
            .map(|step| self.plan(seed, step, seconds))
            .collect();
        (self.corpus(seed), blocks)
    }

    /// The firmware corpus for `seed`.
    pub fn corpus(&self, seed: u64) -> Vec<FirmwareImage> {
        let config = FirmwareConfig {
            images: self.images,
            seed: Rng::stream(seed, "corpus").next_u64(),
            ..FirmwareConfig::default()
        };
        build_firmware_corpus(&config, &vulnerability_library())
    }

    /// The plan of `step` for `seed` and `seconds`: a pure function of
    /// its arguments.
    pub fn plan(&self, seed: u64, step: Step, seconds: f64) -> StepPlan {
        let (qps, len) = self.rate_and_length(step, seconds);
        let name = step.name();
        let min_count = match step {
            Step::Light(_) | Step::Heavy(_) => MIN_BLOCK_REQUESTS,
            Step::Rung { .. } | Step::Below(_) => MIN_STEP_REQUESTS,
        };
        let due_s = poisson_arrivals(seed, &name, qps, len, min_count);
        let queries = match self.mix {
            QueryMix::Distinct => distinct_queries(seed, &name, due_s.len()),
            QueryMix::CveZipf(s) => {
                let pool = cve_pool();
                let mut zipf = Zipf::new(seed, &name, pool.len(), s);
                due_s.iter().map(|_| pool[zipf.sample()].clone()).collect()
            }
        };
        StepPlan {
            step,
            qps,
            due_s,
            queries,
        }
    }
}

/// Poisson arrivals at `qps` for `len_s` seconds, seeded per step:
/// independent users, so an open loop. The step runs on past `len_s`
/// until it holds `min_count` arrivals, so every step can report its
/// p95.
pub fn poisson_arrivals(seed: u64, step: &str, qps: f64, len_s: f64, min_count: usize) -> Vec<f64> {
    let mut rng = Rng::stream(seed, &format!("arrivals/{step}"));
    let mut due = Vec::with_capacity((qps * len_s) as usize + min_count);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / qps;
        if t >= len_s && due.len() >= min_count {
            return due;
        }
        due.push(t);
    }
}

/// Zipf sampler over `n` items whose popularity order is a seeded
/// permutation, so which query is hot changes with the seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    rng: Rng,
    cumulative: Vec<f64>,
    by_rank: Vec<usize>,
}

impl Zipf {
    /// Weights `1 / rank^s` for ranks `1..=n`.
    pub fn new(seed: u64, step: &str, n: usize, s: f64) -> Zipf {
        let mut by_rank: Vec<usize> = (0..n).collect();
        Rng::stream(seed, "zipf-ranking").shuffle(&mut by_rank);
        let mut acc = 0.0;
        let mut cumulative: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cumulative {
            *c /= acc;
        }
        Zipf {
            rng: Rng::stream(seed, &format!("zipf-draws/{step}")),
            cumulative,
            by_rank,
        }
    }

    /// The next item.
    pub fn sample(&mut self) -> usize {
        let u = self.rng.unit();
        let rank = self.cumulative.partition_point(|&c| c <= u);
        self.by_rank[rank.min(self.by_rank.len() - 1)]
    }
}

/// The 7 CVE library entries × 4 archs.
pub fn cve_pool() -> Vec<FunctionQuery> {
    let library = vulnerability_library();
    library
        .iter()
        .flat_map(|e| Arch::ALL.map(|arch| FunctionQuery::for_cve(e, arch)))
        .collect()
}

/// Functions per generated query package.
const QUERY_PACKAGE_FUNCTIONS: usize = 8;

/// `count` distinct queries for one step, in a seeded order: functions
/// of seeded generated packages, each package compiled to a seeded
/// arch. A function the pipeline cannot extract is left out, so no
/// request of the workload fails.
pub fn distinct_queries(seed: u64, step: &str, count: usize) -> Vec<FunctionQuery> {
    let mut rng = Rng::stream(seed, &format!("distinct/{step}"));
    let limits = DecompileLimits::default();
    let mut pool = Vec::with_capacity(count);
    let mut package = 0usize;
    while pool.len() < count {
        let config = GenConfig {
            functions: QUERY_PACKAGE_FUNCTIONS,
            seed: rng.next_u64(),
            ..GenConfig::default()
        };
        let arch = Arch::ALL[rng.below(Arch::ALL.len())];
        let (source, program) =
            generate_package(&format!("{}_{package}", step.replace('-', "_")), &config);
        package += 1;
        let Ok(binary) = compile_program(&program, arch) else {
            continue;
        };
        for f in &program.functions {
            let extracts = binary.symbol_index(&f.name).is_some_and(|sym| {
                extract_function_with(&binary, sym, DEFAULT_INLINE_BETA, &limits).is_ok()
            });
            if extracts && pool.len() < count {
                pool.push(FunctionQuery::new(
                    f.name.clone(),
                    source.clone(),
                    f.name.clone(),
                    arch,
                ));
            }
        }
    }
    rng.shuffle(&mut pool);
    pool
}
