//! One benchmark pass in a fresh process.
//!
//! `run.py` starts this program once per pass, so every timed pass is
//! cold: process-wide memos (the Zipf zeta and rank tables), the trace
//! cache and the result cache all start empty, as in a real `repro`
//! invocation. The pass prints one JSON line on stdout:
//!
//! ```text
//! icp-perfbench --workload figures|sliced16|sweeps_fast
//!               --mode untraced|traced --seed N --budget N
//!               --spawn-ns NS --scratch DIR
//! ```
//!
//! * `untraced` calls the public entry points only
//!   (`SuiteData::collect_with_stats`, `ExperimentConfig::run_schemes`,
//!   `sweeps::sweep_*_with`); the end-to-end metrics come from it.
//! * `traced` rebuilds every cell from public calls with timing wrappers
//!   around each layer (see `traced.rs`) and reports per-layer times.
//!
//! `--spawn-ns` is the wall-clock instant (ns since the Unix epoch) at
//! which the parent started this process; `setup_s` runs from there to
//! the submission of the first job.
//!
//! Every pass also samples the process's live thread count, so a thread
//! started without a core-budget lease fails the run (`os_threads`).

mod traced;

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use icp_core::ExecutionOutcome;
use icp_experiments::figures::SuiteData;
use icp_experiments::json::Json;
use icp_experiments::sched::budget;
use icp_experiments::sweeps::{self, SweepMode};
use icp_experiments::{ExperimentConfig, ResultCache, Scheme, TraceCache};
use icp_numeric::stats;
use icp_workloads::suite;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Figures,
    Sliced16,
    SweepsFast,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Untraced,
    Traced,
}

struct Args {
    workload: Workload,
    mode: Mode,
    seed: u64,
    budget: usize,
    spawn_ns: u128,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut mode, mut seed, mut budget, mut spawn_ns, mut scratch) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "figures" => Workload::Figures,
                    "sliced16" => Workload::Sliced16,
                    "sweeps_fast" => Workload::SweepsFast,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--mode" => {
                mode = Some(match value.as_str() {
                    "untraced" => Mode::Untraced,
                    "traced" => Mode::Traced,
                    other => return Err(format!("unknown mode {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--budget" => {
                budget = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--budget: positive integer")?,
                )
            }
            "--spawn-ns" => {
                spawn_ns = Some(
                    value
                        .parse::<u128>()
                        .map_err(|e| format!("--spawn-ns: {e}"))?,
                )
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        mode: mode.ok_or("--mode is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: budget.ok_or("--budget is required")?,
        spawn_ns: spawn_ns.ok_or("--spawn-ns is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("icp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Must precede any parallel work: every layer leases from this pool.
    if !budget::configure_total(args.budget) {
        eprintln!("icp-perfbench: core budget was initialised before configuration");
        std::process::exit(2);
    }
    let watch = ThreadWatch::start();
    let mut report = match args.workload {
        Workload::Figures => figures(&args),
        Workload::Sliced16 => sliced16(&args),
        Workload::SweepsFast => sweeps_fast(&args),
    };
    report.push(field("os_threads", Json::u64(watch.finish() as u64)));
    println!("{}", Json::Obj(report));
}

/// A report under construction: a JSON object's fields in order.
type Report = Vec<(String, Json)>;

fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// A measured number; a non-finite one (a broken measurement) is
/// written as `null` so the reader sees it as missing.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// A digest, exactly, as a 16-digit hex string.
fn hex(v: u64) -> Json {
    Json::str(format!("{v:016x}"))
}

fn strings(vs: &[String]) -> Json {
    Json::Arr(vs.iter().map(|v| Json::str(v.as_str())).collect())
}

/// Samples the process's live thread count every
/// [`ThreadWatch::PERIOD`] from a thread of its own, which it leaves out
/// of the count, and records the highest count held through a whole
/// [`ThreadWatch::SUSTAIN`] window of at least [`ThreadWatch::MIN_SAMPLES`]
/// samples. A pool worker returns its token before its thread has
/// exited, so for a moment a successor leased on that token runs beside
/// it; on a loaded host that moment lasts a few scheduler slices. A
/// thread that runs without a lease stays for the rest of the pass.
struct ThreadWatch {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: JoinHandle<()>,
}

impl ThreadWatch {
    const PERIOD: Duration = Duration::from_millis(2);
    const SUSTAIN: Duration = Duration::from_millis(250);
    const MIN_SAMPLES: usize = 10;

    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            // (time, count) samples; the oldest is the last one taken at
            // or before the window's start, so the window covers SUSTAIN.
            let mut window: VecDeque<(Instant, usize)> = VecDeque::new();
            while !s.load(Ordering::Relaxed) {
                let now = Instant::now();
                window.push_back((now, live_threads().saturating_sub(1)));
                while window.len() > 1 && now.duration_since(window[1].0) >= Self::SUSTAIN {
                    window.pop_front();
                }
                let spans = now.duration_since(window[0].0) >= Self::SUSTAIN;
                if spans && window.len() >= Self::MIN_SAMPLES {
                    let held = window.iter().map(|&(_, n)| n).min().unwrap_or(0);
                    p.fetch_max(held, Ordering::Relaxed);
                }
                std::thread::sleep(Self::PERIOD);
            }
        });
        ThreadWatch { stop, peak, handle }
    }

    /// Stops sampling; returns the highest sustained thread count.
    fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        self.peak.load(Ordering::Relaxed)
    }
}

/// Live threads of this process (`num_threads`, field 20 of
/// `/proc/self/stat`); 0 where that file is unavailable.
fn live_threads() -> usize {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(17))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Seconds since the parent spawned this process.
fn since_spawn(spawn_ns: u128) -> f64 {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    now.saturating_sub(spawn_ns) as f64 / 1e9
}

/// The `repro` defaults (figure scale, 4 cores, monolithic scaled-down
/// L2) at `seed`.
fn base_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.seed = seed;
    cfg
}

fn with_fresh_caches(cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.with_trace_cache(TraceCache::shared())
        .with_result_cache(ResultCache::shared())
}

/// The schemes of the `sliced16` cells (the eight-plus tier's 16-core
/// cells plus the UCP baseline).
fn sliced16_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Shared,
        Scheme::StaticEqual,
        Scheme::ModelBased,
        Scheme::UcpThroughput,
        Scheme::HierarchicalLookahead(4),
    ]
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of everything simulated about one cell: wall cycles, every
/// per-thread counter, the interaction counters, and each interval's
/// ways, CPI (bit pattern), misses, instructions and wall cycles. Host
/// time (`decision_nanos`) is left out.
fn cell_digest(out: &ExecutionOutcome) -> u64 {
    let mut h = Fnv::new();
    h.bytes(out.scheme.as_bytes());
    h.u64(out.wall_cycles);
    h.u64(out.decision_count);
    h.bytes(format!("{:?}", out.thread_totals).as_bytes());
    h.bytes(format!("{:?}", out.interactions).as_bytes());
    for r in &out.records {
        h.u64(r.index as u64);
        h.u64(r.wall_cycles);
        h.u64(r.overall_cpi.to_bits());
        for w in &r.ways {
            h.u64(u64::from(*w));
        }
        for c in &r.cpi {
            h.u64(c.to_bits());
        }
        for m in &r.l2_misses {
            h.u64(*m);
        }
        for i in &r.instructions {
            h.u64(*i);
        }
    }
    h.0
}

fn fold_digests(cells: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for c in cells {
        h.u64(*c);
    }
    h.0
}

fn instructions(outs: &[ExecutionOutcome]) -> u64 {
    outs.iter()
        .flat_map(|o| o.thread_totals.iter())
        .map(|c| c.instructions)
        .sum()
}

/// Sanity checks that hold for every cell at every seed.
fn cell_errors(label: &str, out: &ExecutionOutcome, cores: usize, ways: u32) -> Vec<String> {
    let mut errs = Vec::new();
    if out.wall_cycles == 0 || out.records.is_empty() {
        errs.push(format!("{label}: empty run"));
    }
    if out.thread_totals.len() != cores {
        errs.push(format!(
            "{label}: {} thread totals for {cores} cores",
            out.thread_totals.len()
        ));
    }
    if out
        .records
        .iter()
        .any(|r| r.ways.iter().sum::<u32>() != ways)
    {
        errs.push(format!("{label}: an interval's ways do not sum to {ways}"));
    }
    errs
}

/// The suite cells in bench-major order (9 benchmarks × shared,
/// static-equal, model-based, ucp-throughput).
fn suite_cells(data: &SuiteData) -> Vec<ExecutionOutcome> {
    let mut cells = Vec::new();
    for i in 0..data.benches.len() {
        for outs in [&data.shared, &data.equal, &data.dynamic, &data.ucp] {
            cells.push(outs[i].clone());
        }
    }
    cells
}

/// Mean |measured − paper| in percentage points over Fig 19 avg/max
/// (11/23), Fig 20 avg/max (9/15) and Fig 21 max (20). `cells` is in
/// [`suite_cells`] order.
fn paper_gap_pp(cells: &[ExecutionOutcome]) -> f64 {
    let imps = |base: usize| -> Vec<f64> {
        cells
            .chunks(4)
            .map(|c| c[2].improvement_percent_over(&c[base]))
            .collect()
    };
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let (vs_equal, vs_shared, vs_ucp) = (imps(1), imps(0), imps(3));
    let gaps = [
        (stats::mean(&vs_equal) - 11.0).abs(),
        (max(&vs_equal) - 23.0).abs(),
        (stats::mean(&vs_shared) - 9.0).abs(),
        (max(&vs_shared) - 15.0).abs(),
        (max(&vs_ucp) - 20.0).abs(),
    ];
    stats::mean(&gaps)
}

/// Common fields of a cell-matrix pass (`figures`, `sliced16`).
fn cell_report(
    args: &Args,
    setup_s: f64,
    wall_s: f64,
    cells: &[ExecutionOutcome],
    cores: usize,
    ways: u32,
) -> Report {
    let digests: Vec<u64> = cells.iter().map(cell_digest).collect();
    let mut errors = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        errors.extend(cell_errors(&format!("cell {i}"), c, cores, ways));
    }
    vec![
        field("mode", Json::str(mode_name(args.mode))),
        field("setup_s", num(setup_s)),
        field("wall_s", num(wall_s)),
        field("cells", Json::u64(cells.len() as u64)),
        field("sim_instructions", Json::u64(instructions(cells))),
        field("digest", hex(fold_digests(&digests))),
        field(
            "cell_digests",
            Json::Arr(digests.into_iter().map(hex).collect()),
        ),
        field("budget", Json::u64(args.budget as u64)),
        field("errors", strings(&errors)),
    ]
}

/// Counters of the in-memory result cache after a cold pass.
fn memory_cache_stats(cfg: &ExperimentConfig) -> traced::ResultCacheStats {
    let rc = cfg
        .result_cache
        .as_ref()
        .expect("passes attach a result cache");
    traced::ResultCacheStats {
        sims: rc.simulations(),
        hits: rc.hits(),
        disk_hits: rc.disk_hits(),
        disk_kb: 0.0,
    }
}

fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Untraced => "untraced",
        Mode::Traced => "traced",
    }
}

/// The fields a traced cell-matrix pass adds: its layers, and a warm
/// rerun through the public entry point on the same caches (every cell a
/// result-cache hit) that must reproduce every traced cell.
fn traced_fields(
    cfg: &ExperimentConfig,
    tracer: &traced::Tracer,
    cells: &[ExecutionOutcome],
    warm: impl FnOnce() -> Vec<ExecutionOutcome>,
) -> Report {
    let rc = memory_cache_stats(cfg);
    let t = Instant::now();
    let warm = warm();
    let read_s = t.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    if warm
        .iter()
        .map(cell_digest)
        .ne(cells.iter().map(cell_digest))
    {
        errors.push("warm rerun differs from the traced cold pass".to_string());
    }
    let layers = tracer.layers(cfg, read_s, &rc, &mut errors);
    vec![
        field("layers", layers),
        field("peak_threads", Json::u64(tracer.peak_threads() as u64)),
        field("trace_errors", strings(&errors)),
    ]
}

fn figures(args: &Args) -> Report {
    let cfg = with_fresh_caches(base_config(args.seed));
    let (cores, ways) = (cfg.system.cores, cfg.system.l2.ways);
    let tracer = traced::Tracer::new();
    let setup_s = since_spawn(args.spawn_ns);
    let t0 = Instant::now();
    let untraced = match args.mode {
        Mode::Untraced => Some(SuiteData::collect_with_stats(&cfg)),
        Mode::Traced => None,
    };
    let cells = match &untraced {
        Some((data, _)) => suite_cells(data),
        None => tracer.figures(&cfg),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut o = cell_report(args, setup_s, wall_s, &cells, cores, ways);
    o.push(field("paper_gap_pp", num(paper_gap_pp(&cells))));
    match untraced {
        Some((data, stats)) => {
            o.push(field("suite_digest", hex(data.digest())));
            o.push(field("peak_threads", Json::u64(stats.peak_threads as u64)));
        }
        None => {
            let mut suite_digest = 0;
            o.extend(traced_fields(&cfg, &tracer, &cells, || {
                let data = SuiteData::collect_with_stats(&cfg).0;
                suite_digest = data.digest();
                suite_cells(&data)
            }));
            o.push(field("suite_digest", hex(suite_digest)));
        }
    }
    o
}

fn sliced16(args: &Args) -> Report {
    let cfg = with_fresh_caches(base_config(args.seed).with_topology(16, 4));
    let (cores, ways) = (cfg.system.cores, cfg.system.l2.ways);
    let bench = suite::mgrid();
    let schemes = sliced16_schemes();
    let tracer = traced::Tracer::new();
    let setup_s = since_spawn(args.spawn_ns);
    let t0 = Instant::now();
    let cells = match args.mode {
        Mode::Untraced => cfg.run_schemes(&bench, &schemes),
        Mode::Traced => tracer.schemes(&cfg, &bench, &schemes),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut o = cell_report(args, setup_s, wall_s, &cells, cores, ways);
    if args.mode == Mode::Traced {
        o.extend(traced_fields(&cfg, &tracer, &cells, || {
            cfg.run_schemes(&bench, &schemes)
        }));
    } else {
        o.push(field(
            "peak_threads",
            Json::u64(budget::current().peak_threads() as u64),
        ));
    }
    o
}

/// The four sweep axes in `repro sweeps` order.
const AXES: [&str; 4] = ["cache_size", "thread_count", "interval", "memory_latency"];

/// Runs all four axes through the public fast-mode sweep entry points,
/// returning each axis's data rows (`to_csv` without the header) and
/// its host seconds.
fn public_sweeps(cfg: &ExperimentConfig) -> (Vec<Vec<String>>, Vec<f64>) {
    let mode = SweepMode::fast();
    let mut rows = Vec::new();
    let mut secs = Vec::new();
    for axis in AXES {
        let t = Instant::now();
        let table = match axis {
            "cache_size" => sweeps::sweep_cache_size_with(cfg, mode),
            "thread_count" => sweeps::sweep_thread_count_with(cfg, mode),
            "interval" => sweeps::sweep_interval_with(cfg, mode),
            _ => sweeps::sweep_memory_latency_with(cfg, mode),
        };
        secs.push(t.elapsed().as_secs_f64());
        rows.push(table.to_csv().lines().skip(1).map(str::to_string).collect());
    }
    (rows, secs)
}

/// A sweep pass's digest: every table row plus the result cache's
/// order-fixed fold over all cached outcomes.
fn sweep_digest(rows: &[Vec<String>], cache: &ResultCache) -> u64 {
    let mut h = Fnv::new();
    for r in rows.iter().flatten() {
        h.bytes(r.as_bytes());
        h.bytes(b"\n");
    }
    let t = cache.totals();
    h.u64(t.digest);
    h.u64(t.instructions);
    h.u64(t.sim_cycles);
    h.0
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn sweeps_fast(args: &Args) -> Report {
    let dir = args.scratch.join("result-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cold_cache = ResultCache::persistent(&dir);
    // As `repro sweeps`: one result cache and one trace cache shared by
    // every axis.
    let cfg = base_config(args.seed)
        .with_result_cache(Arc::clone(&cold_cache))
        .with_default_trace_cache();
    let setup_s = since_spawn(args.spawn_ns);
    let tracer = traced::Tracer::new();
    let t0 = Instant::now();
    let (rows, axis_s) = match args.mode {
        Mode::Traced => tracer.sweeps(&cfg),
        Mode::Untraced => public_sweeps(&cfg),
    };
    let peak = budget::current().peak_threads().max(tracer.peak_threads());
    let digest = sweep_digest(&rows, &cold_cache);

    // Warm rerun, part of the timed pass: a new persistent cache over the
    // same directory must serve every cell from disk and reproduce every
    // row.
    let warm_cache = ResultCache::persistent(&dir);
    let warm_cfg = base_config(args.seed)
        .with_result_cache(Arc::clone(&warm_cache))
        .with_default_trace_cache();
    let t1 = Instant::now();
    let (warm_rows, _) = public_sweeps(&warm_cfg);
    let read_s = t1.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    if warm_rows != rows || sweep_digest(&warm_rows, &warm_cache) != digest {
        errors.push("warm rerun differs from the cold pass".to_string());
    }
    if warm_cache.simulations() != 0 {
        errors.push(format!(
            "warm rerun simulated {} cells",
            warm_cache.simulations()
        ));
    }
    let axes = AXES
        .iter()
        .zip(&axis_s)
        .map(|(a, s)| field(a, num(*s)))
        .collect();
    let mut o = vec![
        field("mode", Json::str(mode_name(args.mode))),
        field("setup_s", num(setup_s)),
        field("wall_s", num(wall_s)),
        field(
            "cells",
            Json::u64(cold_cache.simulations() + cold_cache.hits()),
        ),
        field(
            "sim_instructions",
            Json::u64(cold_cache.totals().instructions),
        ),
        field("digest", hex(digest)),
        field("budget", Json::u64(args.budget as u64)),
        field("peak_threads", Json::u64(peak as u64)),
        field("axis_s", Json::Obj(axes)),
        field("read_s", num(read_s)),
        field("errors", strings(&errors)),
    ];
    if args.mode == Mode::Traced {
        let rc = traced::ResultCacheStats {
            sims: cold_cache.simulations(),
            hits: cold_cache.hits(),
            disk_hits: warm_cache.disk_hits(),
            disk_kb: dir_bytes(&dir) as f64 / 1024.0,
        };
        let mut trace_errors = Vec::new();
        let layers = tracer.layers(&cfg, read_s, &rc, &mut trace_errors);
        o.push(field("layers", layers));
        o.push(field("trace_errors", strings(&trace_errors)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    o
}
