//! The traced run: every cell of a pass rebuilt from public calls, with
//! a timing span around each call into a layer.
//!
//! A cell follows `ExperimentConfig::run`: result-cache lookup, then
//! `TraceCache::get_or_pack` and replay streams, then `Simulator::new`
//! (monolithic L2) or `Llc::new` (sliced LLC, where the slice demux
//! happens), then `IntraAppRuntime::execute` over forwarding wrappers of
//! the machine ([`TimedMachine`]) and the policy ([`TimedPolicy`]). Jobs
//! go through the same scheduler calls as the public entry points, so
//! claim order, leases and caches behave as in the untraced pass;
//! `run.py` checks that every traced cell's digest equals the untraced
//! one.
//!
//! Layer spans never nest. `unattributed_s` is the workers' busy time, as
//! the scheduler measures it, minus the sum of the layers' self times:
//! runtime bookkeeping, stream setup, outcome assembly. Busy time equals
//! layers plus `unattributed_s` by that definition; what the accounting
//! check tests is that the remainder is neither negative (spans counted
//! twice) nor large (work outside every span).

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use icp_cmp_sim::{
    AccessStream, CacheConfig, EnforcementKind, GlobalStats, IntervalReport, Llc, Machine,
    Measurable, PackedTrace, ReplacementKind, Simulator, SystemConfig, UtilityMonitor,
};
use icp_core::policy::{PartitionDecision, Partitioner};
use icp_core::{ExecutionOutcome, IntraAppRuntime};
use icp_experiments::json::Json;
use icp_experiments::miss_model::clustered_equal_split;
use icp_experiments::sched;
use icp_experiments::sweeps::DEFAULT_FAST_MARGIN;
use icp_experiments::table::pct;
use icp_experiments::{BenchPredictor, ExperimentConfig, Scheme, TraceCache};
use icp_numeric::stats;
use icp_workloads::{suite, BenchmarkSpec, WorkloadScale};

use crate::{field, num};

/// Share of busy time that may fall outside every layer span before the
/// layer accounting check fails.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Cost weight of the cell that pays a benchmark's trace generation in
/// the figure pass (as `SuiteData::collect_with_stats` weights it).
const GENERATION_WEIGHT: u64 = 6;

/// Per-layer counters and self times (seconds).
#[derive(Clone, Default)]
struct Ledger {
    rc_io_s: f64,
    gen_s: f64,
    gen_accesses: u64,
    generations: u64,
    tc_wait_s: f64,
    tc_hits: u64,
    build_s: f64,
    demuxed_accesses: u64,
    sim_s: f64,
    sim_accesses: u64,
    events: u64,
    intervals: u64,
    export_s: f64,
    decide_s: f64,
    decisions: u64,
    repartitions: u64,
}

impl Ledger {
    fn add(&mut self, o: &Ledger) {
        self.rc_io_s += o.rc_io_s;
        self.gen_s += o.gen_s;
        self.gen_accesses += o.gen_accesses;
        self.generations += o.generations;
        self.tc_wait_s += o.tc_wait_s;
        self.tc_hits += o.tc_hits;
        self.build_s += o.build_s;
        self.demuxed_accesses += o.demuxed_accesses;
        self.sim_s += o.sim_s;
        self.sim_accesses += o.sim_accesses;
        self.events += o.events;
        self.intervals += o.intervals;
        self.export_s += o.export_s;
        self.decide_s += o.decide_s;
        self.decisions += o.decisions;
        self.repartitions += o.repartitions;
    }

    /// Sum of every layer's self time within the cells.
    fn layers_s(&self) -> f64 {
        self.rc_io_s
            + self.gen_s
            + self.tc_wait_s
            + self.build_s
            + self.sim_s
            + self.export_s
            + self.decide_s
    }
}

/// What the scheduler reported over every pool call of the pass.
#[derive(Default)]
struct Pools {
    jobs: u64,
    /// Seconds workers spent inside jobs (`SchedStats::utilization` ×
    /// workers × elapsed, summed over calls).
    busy_s: f64,
    /// Workers × elapsed, summed over calls.
    capacity_s: f64,
    /// Cells run on the caller outside any pool (sweep profiling runs).
    serial_s: f64,
    peak_threads: usize,
}

/// Result-cache counters of the cold pass, captured by the caller.
pub struct ResultCacheStats {
    pub sims: u64,
    pub hits: u64,
    pub disk_hits: u64,
    pub disk_kb: f64,
}

pub struct Tracer {
    ledger: Mutex<Ledger>,
    pools: Mutex<Pools>,
    /// Trace-cache keys claimed by a generating cell; `true` once ready.
    claims: Mutex<BTreeMap<String, bool>>,
    ready: Condvar,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            ledger: Mutex::new(Ledger::default()),
            pools: Mutex::new(Pools::default()),
            claims: Mutex::new(BTreeMap::new()),
            ready: Condvar::new(),
        }
    }

    pub fn peak_threads(&self) -> usize {
        self.pools
            .lock()
            .expect("pool totals lock poisoned")
            .peak_threads
    }

    /// The figure pass: 9 benchmarks × 4 schemes, bench-major, through
    /// the LPT scheduler with the generating cell weighted as
    /// `SuiteData::collect_with_stats` weights it.
    pub fn figures(&self, cfg: &ExperimentConfig) -> Vec<ExecutionOutcome> {
        let benches = suite::all();
        let schemes = [
            Scheme::Shared,
            Scheme::StaticEqual,
            Scheme::ModelBased,
            Scheme::UcpThroughput,
        ];
        let jobs: Vec<(usize, Scheme)> = (0..benches.len())
            .flat_map(|i| schemes.iter().cloned().map(move |s| (i, s)))
            .collect();
        self.pool(
            jobs,
            |(i, s)| {
                let base = sched::job_cost(&benches[*i], cfg);
                if *s == schemes[0] {
                    base.saturating_mul(GENERATION_WEIGHT)
                } else {
                    base
                }
            },
            |(i, s)| self.cell(cfg, &benches[*i], s, false),
        )
    }

    /// `ExperimentConfig::run_schemes`, traced.
    pub fn schemes(
        &self,
        cfg: &ExperimentConfig,
        bench: &BenchmarkSpec,
        schemes: &[Scheme],
    ) -> Vec<ExecutionOutcome> {
        self.pool(schemes.to_vec(), |_| 1, |s| self.cell(cfg, bench, s, false))
    }

    /// `repro sweeps --fast` over all four axes, traced: returns each
    /// axis's data rows (as `Table::to_csv` prints them) and host seconds.
    pub fn sweeps(&self, cfg: &ExperimentConfig) -> (Vec<Vec<String>>, Vec<f64>) {
        let mut rows = Vec::new();
        let mut axis_s = Vec::new();
        for axis in crate::AXES {
            let t = Instant::now();
            let mut r = Vec::new();
            let mut row = |label: String, point: &ExperimentConfig, base: &ExperimentConfig| {
                let (s, e) = self.measure(point, base);
                r.push(format!("{label},{},{}", pct(s), pct(e)));
            };
            match axis {
                "cache_size" => {
                    for kb in [64u64, 128, 256, 512, 1024] {
                        let mut c = cfg.clone();
                        c.system.l2 = CacheConfig::new(kb * 1024, 64, 64);
                        row(format!("{kb} KB"), &c, &c);
                    }
                }
                "thread_count" => {
                    for cores in [2usize, 4, 8, 16] {
                        let c = cfg.clone().with_cores(cores);
                        row(cores.to_string(), &c, &c);
                    }
                }
                "interval" => {
                    for divisor in [8u64, 4, 2, 1] {
                        let mut c = cfg.clone();
                        c.system.interval_instructions =
                            (cfg.system.interval_instructions / divisor).max(1_000);
                        row(c.system.interval_instructions.to_string(), &c, cfg);
                    }
                }
                _ => {
                    for mem in [75u64, 150, 300] {
                        let mut c = cfg.clone();
                        c.system.latency.memory = mem;
                        row(mem.to_string(), &c, &c);
                    }
                }
            }
            rows.push(r);
            axis_s.push(secs(t));
        }
        (rows, axis_s)
    }

    /// Mean fast-mode improvements over the probe set at one axis point.
    fn measure(&self, point: &ExperimentConfig, base: &ExperimentConfig) -> (f64, f64) {
        let mut vs_shared = Vec::new();
        let mut vs_equal = Vec::new();
        for b in [suite::swim(), suite::cg(), suite::ft()] {
            let (s, e) = self.measure_fast(point, base, &b);
            vs_shared.push(s);
            vs_equal.push(e);
        }
        (stats::mean(&vs_shared), stats::mean(&vs_equal))
    }

    fn measure_fast(
        &self,
        point: &ExperimentConfig,
        base: &ExperimentConfig,
        bench: &BenchmarkSpec,
    ) -> (f64, f64) {
        let slices = base.system.llc.slices as usize;
        let anchor = if slices > 1 {
            Scheme::StaticCustom(clustered_equal_split(
                base.system.l2.ways,
                base.system.cores,
                slices,
            ))
        } else {
            Scheme::StaticEqual
        };
        let t = Instant::now();
        let profile = self.cell(base, bench, &anchor, true);
        self.pools
            .lock()
            .expect("pool totals lock poisoned")
            .serial_s += secs(t);
        match BenchPredictor::from_outcome(&profile, &point.system) {
            Some(p) => {
                let (s, e) = p.improvements();
                if s.abs() < DEFAULT_FAST_MARGIN || e.abs() < DEFAULT_FAST_MARGIN {
                    self.measure_exact(point, base, bench)
                } else {
                    (s, e)
                }
            }
            None => self.measure_exact(point, base, bench),
        }
    }

    fn measure_exact(
        &self,
        point: &ExperimentConfig,
        base: &ExperimentConfig,
        bench: &BenchmarkSpec,
    ) -> (f64, f64) {
        let jobs = vec![
            (base.clone(), Scheme::Shared),
            (base.clone(), Scheme::StaticEqual),
            (point.clone(), Scheme::ModelBased),
        ];
        let outs = self.pool(jobs, |_| 1, |(c, s)| self.cell(c, bench, s, false));
        (
            outs[2].improvement_percent_over(&outs[0]),
            outs[2].improvement_percent_over(&outs[1]),
        )
    }

    /// `sched::weighted_map_stats`, recording the scheduler's statistics.
    fn pool<I, O, F>(&self, jobs: Vec<I>, cost: impl Fn(&I) -> u64, f: F) -> Vec<O>
    where
        I: Send + Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        let (outs, st) = sched::weighted_map_stats(jobs, cost, f);
        let mut p = self.pools.lock().expect("pool totals lock poisoned");
        let capacity = st.elapsed_secs * st.workers as f64;
        p.jobs += st.jobs as u64;
        p.busy_s += st.utilization * capacity;
        p.capacity_s += capacity;
        p.peak_threads = p.peak_threads.max(st.peak_threads);
        outs
    }

    /// One cell: `ExperimentConfig::run` (or `run_profiled`), traced.
    fn cell(
        &self,
        cfg: &ExperimentConfig,
        bench: &BenchmarkSpec,
        scheme: &Scheme,
        profile: bool,
    ) -> ExecutionOutcome {
        let t0 = Instant::now();
        let led = RefCell::new(Ledger::default());
        let spec = if bench.threads.len() == cfg.system.cores {
            bench.clone()
        } else {
            bench.with_threads(cfg.system.cores)
        };
        let cache = cfg
            .result_cache
            .as_ref()
            .expect("traced runs attach a result cache");
        let key = icp_experiments::ResultCache::key(&spec, cfg, scheme, profile);
        let mut inner_s = 0.0;
        let out = cache.get_or_run(key, scheme.policy().name(), || {
            let t = Instant::now();
            let out = self.simulate(cfg, &spec, scheme, profile, &led);
            inner_s = secs(t);
            out
        });
        let mut l = led.into_inner();
        l.rc_io_s = secs(t0) - inner_s;
        self.ledger.lock().expect("ledger lock poisoned").add(&l);
        out
    }

    fn simulate(
        &self,
        cfg: &ExperimentConfig,
        spec: &BenchmarkSpec,
        scheme: &Scheme,
        profile: bool,
        led: &RefCell<Ledger>,
    ) -> ExecutionOutcome {
        let cache = cfg
            .trace_cache
            .as_ref()
            .expect("traced runs attach a trace cache");
        let traces = self.traces(cache, spec, &cfg.system, cfg.scale, cfg.seed, led);
        let streams: Vec<Box<dyn AccessStream>> = traces
            .iter()
            .map(|t| Box::new(PackedTrace::stream(t)) as Box<dyn AccessStream>)
            .collect();
        let t = Instant::now();
        if cfg.system.llc.slices > 1 {
            let machine = Llc::new(cfg.system, streams);
            let mut l = led.borrow_mut();
            l.build_s += secs(t);
            l.demuxed_accesses += traces.iter().map(|t| t.accesses() as u64).sum::<u64>();
            drop(l);
            drive(
                cfg,
                TimedMachine {
                    inner: machine,
                    led,
                },
                scheme,
                profile,
            )
        } else {
            let machine = Simulator::new(cfg.system, streams);
            led.borrow_mut().build_s += secs(t);
            drive(
                cfg,
                TimedMachine {
                    inner: machine,
                    led,
                },
                scheme,
                profile,
            )
        }
    }

    /// `TraceCache::get_or_pack`, attributing the call to generation or
    /// to waiting. The first cell to ask for a key is its generator;
    /// later cells block here until it is ready (the cache's own pending
    /// slot, mirrored so the wait is attributed to the waiter) and then
    /// hit.
    fn traces(
        &self,
        cache: &TraceCache,
        spec: &BenchmarkSpec,
        sys: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
        led: &RefCell<Ledger>,
    ) -> Vec<Arc<PackedTrace>> {
        // Same inputs as the trace cache's own key, so one claim here is
        // one entry there (checked against its counters at the end).
        let key = format!(
            "{spec:?}|l2={}x{}|slices={}|scale={scale:?}|seed={seed:#x}",
            sys.l2.size_bytes, sys.l2.line_bytes, sys.llc.slices
        );
        let t = Instant::now();
        let generate = {
            let mut claims = self.claims.lock().expect("claims lock poisoned");
            if claims.contains_key(&key) {
                while claims.get(&key) == Some(&false) {
                    claims = self.ready.wait(claims).expect("claims lock poisoned");
                }
                false
            } else {
                claims.insert(key.clone(), false);
                true
            }
        };
        // Marks the claim ready even if generation panics, so waiters
        // retry through the cache instead of blocking forever.
        struct Publish<'a> {
            tracer: &'a Tracer,
            key: Option<String>,
        }
        impl Drop for Publish<'_> {
            fn drop(&mut self) {
                if let Some(key) = self.key.take() {
                    if let Ok(mut claims) = self.tracer.claims.lock() {
                        claims.insert(key, true);
                    }
                    self.tracer.ready.notify_all();
                }
            }
        }
        let publish = Publish {
            tracer: self,
            key: generate.then_some(key),
        };
        let traces = cache.get_or_pack(spec, sys, scale, seed);
        drop(publish);
        let dt = secs(t);
        let mut l = led.borrow_mut();
        if generate {
            l.gen_s += dt;
            l.generations += 1;
            l.gen_accesses += traces.iter().map(|t| t.accesses() as u64).sum::<u64>();
        } else {
            l.tc_wait_s += dt;
            l.tc_hits += 1;
        }
        traces
    }

    /// The per-layer metrics of the pass, plus the layer accounting check
    /// (failures are pushed onto `errors`).
    pub fn layers(
        &self,
        cfg: &ExperimentConfig,
        read_s: f64,
        rc: &ResultCacheStats,
        errors: &mut Vec<String>,
    ) -> Json {
        let l = self.ledger.lock().expect("ledger lock poisoned").clone();
        let p = self.pools.lock().expect("pool totals lock poisoned");
        let tc = cfg
            .trace_cache
            .as_ref()
            .expect("traced runs attach a trace cache");
        if l.generations != tc.generations() || l.tc_hits != tc.hits() {
            errors.push(format!(
                "trace-cache attribution: {} generations / {} hits traced, cache counted {} / {}",
                l.generations,
                l.tc_hits,
                tc.generations(),
                tc.hits()
            ));
        }
        // Layer accounting: the busy time outside every layer span must
        // stay within [0, UNATTRIBUTED_TOLERANCE] of busy time.
        let busy = p.busy_s + p.serial_s;
        let unattributed = busy - l.layers_s();
        if unattributed < -1e-6 || unattributed > UNATTRIBUTED_TOLERANCE * busy {
            errors.push(format!(
                "layer accounting: unattributed {unattributed:.4}s outside [0, {:.0}%] of busy {busy:.4}s",
                UNATTRIBUTED_TOLERANCE * 100.0
            ));
        }
        let per = |n: u64, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
        let token_util = if p.capacity_s > 0.0 {
            p.busy_s / p.capacity_s
        } else {
            0.0
        };
        Json::Obj(vec![
            field("workloads.gen_s", num(l.gen_s)),
            field(
                "workloads.gen_maccess_per_s",
                num(per(l.gen_accesses, l.gen_s) / 1e6),
            ),
            field("trace_cache.hits", Json::u64(tc.hits())),
            field("trace_cache.generations", Json::u64(tc.generations())),
            field("trace_cache.wait_s", num(l.tc_wait_s)),
            field("trace_cache.packed_mb", num(tc.packed_bytes() as f64 / 1e6)),
            field("cmp_sim.sim_s", num(l.sim_s)),
            field(
                "cmp_sim.sim_maccess_per_s",
                num(per(l.sim_accesses, l.sim_s) / 1e6),
            ),
            field("cmp_sim.events", Json::u64(l.events)),
            field("cmp_sim.intervals", Json::u64(l.intervals)),
            field("slice.demux_s", num(l.build_s)),
            field("slice.demuxed_accesses", Json::u64(l.demuxed_accesses)),
            field("umon.export_s", num(l.export_s)),
            field("policy.decide_s", num(l.decide_s)),
            field("policy.decisions", Json::u64(l.decisions)),
            field("policy.repartitions", Json::u64(l.repartitions)),
            field(
                "policy.us_per_decision",
                num(l.decide_s * 1e6 / l.decisions.max(1) as f64),
            ),
            field("result_cache.sims", Json::u64(rc.sims)),
            field("result_cache.hits", Json::u64(rc.hits)),
            field("result_cache.disk_hits", Json::u64(rc.disk_hits)),
            field("result_cache.read_s", num(read_s)),
            field("result_cache.disk_kb", num(rc.disk_kb)),
            field("result_cache.io_s", num(l.rc_io_s)),
            field("sched.jobs", Json::u64(p.jobs)),
            field("sched.wait_s", num(p.capacity_s - p.busy_s)),
            field("sched.token_util", num(token_util)),
            field("budget.peak_threads", Json::u64(p.peak_threads as u64)),
            field("unattributed_s", num(unattributed)),
            field("trace.busy_s", num(busy)),
        ])
    }
}

/// `ExperimentConfig`'s machine set-up and runtime loop, over the timed
/// wrappers.
fn drive<M: Machine>(
    cfg: &ExperimentConfig,
    mut machine: TimedMachine<'_, M>,
    scheme: &Scheme,
    profile: bool,
) -> ExecutionOutcome {
    machine.set_replacement(cfg.replacement);
    machine.set_enforcement(cfg.enforcement);
    if profile {
        machine.enable_umon(1);
    }
    let policy = TimedPolicy {
        inner: scheme.policy(),
        led: machine.led,
    };
    let out = IntraAppRuntime::new(policy, &cfg.system).execute(&mut machine);
    let mut l = machine.led.borrow_mut();
    l.events += machine.inner.events_processed();
    l.sim_accesses += out
        .thread_totals
        .iter()
        .map(|c| c.l1_hits + c.l1_misses)
        .sum::<u64>();
    drop(l);
    out
}

/// Forwards every call to the wrapped machine; times `run_interval`
/// (simulation, including the interval merge on sliced machines) and the
/// UMON export (`umon_view`, `decay_umon`).
struct TimedMachine<'a, M> {
    inner: M,
    led: &'a RefCell<Ledger>,
}

impl<M: Machine> Measurable for TimedMachine<'_, M> {
    fn stats(&self) -> &GlobalStats {
        self.inner.stats()
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn wall_cycles(&self) -> u64 {
        self.inner.wall_cycles()
    }

    fn run_interval(&mut self) -> Option<IntervalReport> {
        let t = Instant::now();
        let report = self.inner.run_interval();
        let mut l = self.led.borrow_mut();
        l.sim_s += secs(t);
        l.intervals += u64::from(report.is_some());
        report
    }
}

impl<M: Machine> Machine for TimedMachine<'_, M> {
    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn set_partition(&mut self, targets: &[u32]) {
        self.inner.set_partition(targets);
    }

    fn set_set_partition(&mut self, quotas: &[u32]) {
        self.inner.set_set_partition(quotas);
    }

    fn set_unpartitioned(&mut self) {
        self.inner.set_unpartitioned();
    }

    fn set_replacement(&mut self, kind: ReplacementKind) {
        self.inner.set_replacement(kind);
    }

    fn set_enforcement(&mut self, kind: EnforcementKind) {
        self.inner.set_enforcement(kind);
    }

    fn enable_umon(&mut self, sample_every: u64) {
        self.inner.enable_umon(sample_every);
    }

    fn umon_enabled(&self) -> bool {
        self.inner.umon_enabled()
    }

    fn umon_view(&self) -> Option<Cow<'_, UtilityMonitor>> {
        let t = Instant::now();
        let view = self.inner.umon_view();
        self.led.borrow_mut().export_s += secs(t);
        view
    }

    fn decay_umon(&mut self) {
        let t = Instant::now();
        self.inner.decay_umon();
        self.led.borrow_mut().export_s += secs(t);
    }
}

/// Forwards every call to the wrapped policy; times `observe_umon` and
/// `repartition` and counts decisions that change the partition.
struct TimedPolicy<'a> {
    inner: Box<dyn Partitioner + Send>,
    led: &'a RefCell<Ledger>,
}

impl Partitioner for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial(&mut self, threads: usize, total_ways: u32) -> PartitionDecision {
        self.inner.initial(threads, total_ways)
    }

    fn repartition(&mut self, report: &IntervalReport, total_ways: u32) -> PartitionDecision {
        let t = Instant::now();
        let decision = self.inner.repartition(report, total_ways);
        let mut l = self.led.borrow_mut();
        l.decide_s += secs(t);
        l.decisions += 1;
        l.repartitions += u64::from(decision != PartitionDecision::Keep);
        decision
    }

    fn wants_umon(&self) -> bool {
        self.inner.wants_umon()
    }

    fn observe_umon(&mut self, umon: &UtilityMonitor) {
        let t = Instant::now();
        self.inner.observe_umon(umon);
        self.led.borrow_mut().decide_s += secs(t);
    }
}
