//! Content-addressed cache of packed workload traces.
//!
//! Figure and sweep runs simulate the same workload under many schemes: a
//! figures pass runs each suite benchmark under 4 schemes, a sweep under 3
//! schemes per configuration point. Without caching, every run re-generates
//! its streams from scratch — the Zipf sampling behind generation is a
//! material fraction of short runs. A [`TraceCache`] materialises each
//! distinct workload exactly once into compact [`PackedTrace`] columns
//! (record-once) and hands out zero-copy replay cursors for every
//! subsequent run (simulate-many).
//!
//! Entries are content-addressed: the key covers every input that shapes a
//! generated stream — the full benchmark spec (thread phase parameters,
//! shared region, barrier structure), the L2 geometry the working sets are
//! sized against, the workload scale, and the master seed. Anything *not*
//! in the key (interval length, latencies, replacement policy, the scheme)
//! genuinely doesn't affect generation, which is what makes interval and
//! latency sweep points cache hits. Simulations from cached replays are
//! bit-identical to inline generation (`trace_cache_equivalence` tests).
//!
//! # Entry forms
//!
//! Each workload has up to two entries under the same key, both
//! single-flight:
//!
//! * the **flat** form ([`TraceCache::get_or_pack`]): one packed trace per
//!   workload thread — what the monolithic [`icp_cmp_sim::Simulator`]
//!   replays;
//! * the **slice** form ([`TraceCache::get_or_demux`]): every flat trace
//!   split into its per-slice sub-traces by the LLC slice hash
//!   ([`icp_cmp_sim::SliceTopology::demux`]) — what the sliced
//!   [`icp_cmp_sim::Llc`] is built from via `Llc::from_slices`. It is
//!   generated and demuxed in one step and holds no flat copy, so a sliced
//!   workload is generated once and demuxed once, however many schemes
//!   run on it, and its traces are held once.
//!
//! # Counters
//!
//! [`TraceCache::generations`] counts workloads generated;
//! [`TraceCache::demuxes`] counts slice forms built;
//! [`TraceCache::hits`] counts requests (of either form) served without
//! generating. Every request therefore counts exactly once, as a
//! generation or a hit. The two forms of one key are independent entries:
//! asking for both generates the workload twice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use icp_cmp_sim::budget::map_chunked;
use icp_cmp_sim::stream::AccessStream;
use icp_cmp_sim::{PackedTrace, SliceTopology, SystemConfig};
use icp_hot_path::deterministic;
use icp_workloads::{BenchmarkSpec, WorkloadScale};

use crate::single_flight::SingleFlight;

/// A thread-safe generate-once store of packed workload traces.
///
/// Shared across parallel scheme runs behind an [`Arc`]; the generation
/// and hit counters make "each workload generated exactly once" a testable
/// property rather than a hope.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: SingleFlight<Vec<Arc<PackedTrace>>>,
    /// Slice-form entries, `[core][slice]`, under the same key as the
    /// flat form.
    slices: SingleFlight<Vec<Vec<Arc<PackedTrace>>>>,
    generations: AtomicU64,
    demuxes: AtomicU64,
    hits: AtomicU64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Creates an empty cache ready for sharing across runs.
    pub fn shared() -> Arc<Self> {
        Arc::new(TraceCache::new())
    }

    /// The content address of one workload materialisation.
    ///
    /// `Debug` for `f64` prints the shortest round-trip representation, so
    /// distinct parameter values always yield distinct keys. The LLC slice
    /// count participates even though generation itself is slice-blind:
    /// keying the topology keeps cached traces unambiguous about the
    /// machine they were recorded for, at the cost of one extra generation
    /// per topology (sliced scenarios are rare next to figure sweeps).
    fn key(spec: &BenchmarkSpec, cfg: &SystemConfig, scale: WorkloadScale, seed: u64) -> String {
        format!(
            "{spec:?}|l2={}x{}|slices={}|scale={scale:?}|seed={seed:#x}",
            cfg.l2.size_bytes, cfg.l2.line_bytes, cfg.llc.slices
        )
    }

    /// Returns the packed traces for a workload, generating them on first
    /// use.
    ///
    /// Generation is single-flight (the crate's `single_flight` map): the
    /// first requester claims the key and generates outside the cache
    /// lock, so first-time generations of distinct workloads overlap
    /// across threads instead of serialising on the cache, while
    /// concurrent requests for the *same* workload wait for the claimant
    /// (the exactly-once guarantee the counters assert). Within a key the per-thread streams
    /// are materialised by budget-leased producers
    /// ([`BenchmarkSpec::pack_streams_parallel`]), each writing straight
    /// into packed columns; the result is bit-identical to sequential
    /// recording.
    #[deterministic]
    pub fn get_or_pack(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Arc<PackedTrace>> {
        let key = TraceCache::key(spec, cfg, scale, seed);
        let (traces, generated) = self.entries.run_once(&key, || {
            let traces = spec.pack_streams_parallel(cfg, scale, seed, usize::MAX);
            self.generations.fetch_add(1, Ordering::Relaxed);
            traces
        });
        if !generated {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        traces
    }

    /// Returns the workload's slice form — `[core][slice]` sub-traces
    /// under `cfg`'s LLC topology, ready for `Llc::from_slices` —
    /// generating and demuxing it on first use.
    ///
    /// Single-flight like [`TraceCache::get_or_pack`]: concurrent requests
    /// for one workload generate and demux it once. The flat traces are
    /// packed into a local ([`BenchmarkSpec::pack_streams_parallel`]),
    /// split per core on workers leased from the core budget, one
    /// contiguous chunk of cores per lease
    /// ([`icp_cmp_sim::budget::map_chunked`], the same pattern as the
    /// packing), and dropped: only the slice form is kept. The result is
    /// bit-identical to demuxing core by core. If generation or demux
    /// panics, the claim is released and the next caller re-runs the work.
    #[deterministic]
    pub fn get_or_demux(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Vec<Arc<PackedTrace>>> {
        let key = TraceCache::key(spec, cfg, scale, seed);
        let (slices, generated) = self.slices.run_once(&key, || {
            let flat = spec.pack_streams_parallel(cfg, scale, seed, usize::MAX);
            self.generations.fetch_add(1, Ordering::Relaxed);
            let topology = SliceTopology::of(cfg);
            let slices = map_chunked(flat.len(), |c| topology.demux(PackedTrace::stream(&flat[c])));
            self.demuxes.fetch_add(1, Ordering::Relaxed);
            slices
        });
        if !generated {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        slices
    }

    /// Returns one zero-copy replay stream per thread for a workload,
    /// generating and packing it on first use.
    pub fn replay_streams(
        &self,
        spec: &BenchmarkSpec,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Box<dyn AccessStream>> {
        self.get_or_pack(spec, cfg, scale, seed)
            .iter()
            .map(|t| Box::new(PackedTrace::stream(t)) as Box<dyn AccessStream>)
            .collect()
    }

    /// Number of workloads generated (cache misses).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Number of slice forms built (one per distinct sliced workload).
    pub fn demuxes(&self) -> u64 {
        self.demuxes.load(Ordering::Relaxed)
    }

    /// Number of requests (flat or slice form) served without generating.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached entries, flat and slice form (in-flight claims
    /// don't count until published).
    pub fn len(&self) -> usize {
        self.entries.fold_ready(0, |n, _| n + 1) + self.slices.fold_ready(0, |n, _| n + 1)
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes held by the cached packed columns, flat and
    /// slice forms together.
    pub fn packed_bytes(&self) -> usize {
        let bytes = |ts: &[Arc<PackedTrace>]| ts.iter().map(|t| t.packed_bytes()).sum::<usize>();
        let flat = self.entries.fold_ready(0, |n, ts| n + bytes(ts));
        self.slices.fold_ready(flat, |n, cores| n + cores.iter().map(|ts| bytes(ts)).sum::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::context::SuiteData;
    use crate::result_cache::ResultCache;
    use crate::runner::{ExperimentConfig, Scheme};
    use crate::single_flight::within;
    use icp_cmp_sim::budget::{self, CoreBudget};
    use icp_workloads::suite;

    /// The five `eight_plus_core` schemes on 8 cores over a 2-slice LLC.
    fn sliced() -> (ExperimentConfig, Vec<Scheme>) {
        let schemes = vec![
            Scheme::Shared,
            Scheme::StaticEqual,
            Scheme::ModelBased,
            Scheme::UcpThroughput,
            Scheme::HierarchicalLookahead(2),
        ];
        (ExperimentConfig::test().with_topology(8, 2), schemes)
    }

    #[test]
    fn cached_runs_are_bit_identical_to_uncached() {
        let bench = suite::cg();
        let plain = ExperimentConfig::test();
        let cached = plain.clone().with_trace_cache(TraceCache::shared());
        for scheme in [Scheme::Shared, Scheme::ModelBased] {
            let a = plain.run(&bench, &scheme);
            let b = cached.run(&bench, &scheme);
            assert_eq!(a.wall_cycles, b.wall_cycles, "{scheme:?}");
            assert_eq!(a.thread_totals, b.thread_totals, "{scheme:?}");
            assert_eq!(a.records.len(), b.records.len(), "{scheme:?}");
        }
    }

    #[test]
    fn schemes_share_one_generation() {
        let cache = TraceCache::shared();
        let cfg = ExperimentConfig::test().with_trace_cache(Arc::clone(&cache));
        let bench = suite::ft();
        cfg.run_schemes(&bench, &[Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased]);
        // run_schemes builds the workload before its fan-out; all three
        // scheme runs then hit.
        assert_eq!(cache.generations(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.len(), 1);
        assert!(cache.packed_bytes() > 0);
    }

    #[test]
    fn figures_run_generates_each_suite_workload_exactly_once() {
        // The sweep-level probe: a full figures-style collection (9
        // benchmarks x 4 schemes) must generate each workload once and
        // serve the other 27 runs from cache.
        let cache = TraceCache::shared();
        let cfg = ExperimentConfig::test().with_trace_cache(Arc::clone(&cache));
        let data = SuiteData::collect(&cfg);
        assert_eq!(data.shared.len(), 9);
        assert_eq!(cache.generations(), 9, "each suite workload generated exactly once");
        assert_eq!(cache.hits(), 27, "all other runs served from cache");
    }

    #[test]
    fn distinct_workload_inputs_miss() {
        let cache = TraceCache::new();
        let cfg = ExperimentConfig::test();
        let b = suite::mg().with_threads(cfg.system.cores);
        cache.get_or_pack(&b, &cfg.system, cfg.scale, 1);
        cache.get_or_pack(&b, &cfg.system, cfg.scale, 2); // seed differs
        let mut big = cfg.system;
        big.l2.size_bytes *= 2; // geometry differs
        cache.get_or_pack(&b, &big, cfg.scale, 1);
        let mut sliced = cfg.system;
        sliced.llc = icp_cmp_sim::LlcConfig::sliced(4); // topology differs
        cache.get_or_pack(&b, &sliced, cfg.scale, 1);
        cache.get_or_pack(&b, &cfg.system, cfg.scale, 1); // repeat: hit
        assert_eq!(cache.generations(), 4);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn racing_demux_requests_generate_and_demux_once() {
        const N: usize = 8;
        let (cfg, _) = sliced();
        let spec = suite::mgrid().with_threads(cfg.system.cores);
        let cache = TraceCache::shared();
        let forms = within(30, {
            let cache = Arc::clone(&cache);
            move || {
                let start = std::sync::Barrier::new(N);
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..N)
                        .map(|_| {
                            s.spawn(|| {
                                start.wait();
                                cache.get_or_demux(&spec, &cfg.system, cfg.scale, cfg.seed)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
                })
            }
        });
        assert_eq!(cache.generations(), 1);
        assert_eq!(cache.demuxes(), 1);
        assert_eq!(cache.hits(), N as u64 - 1);
        // Every caller shares the one slice form: 8 cores x 2 slices.
        for form in &forms {
            assert_eq!(form.len(), 8);
            for (core, slices) in form.iter().enumerate() {
                assert_eq!(slices.len(), 2);
                for (a, b) in slices.iter().zip(&forms[0][core]) {
                    assert!(Arc::ptr_eq(a, b));
                }
            }
        }
    }

    #[test]
    fn sliced_run_schemes_generates_once_and_a_warm_rerun_touches_nothing() {
        let (cfg, schemes) = sliced();
        let cache = TraceCache::shared();
        let results = ResultCache::shared();
        let cfg =
            cfg.with_trace_cache(Arc::clone(&cache)).with_result_cache(Arc::clone(&results));
        let cold = cfg.run_schemes(&suite::mgrid(), &schemes);
        assert_eq!(cache.generations(), 1);
        assert_eq!(cache.demuxes(), 1);
        assert_eq!(cache.hits(), schemes.len() as u64, "every scheme run hits the built form");
        let warm = cfg.run_schemes(&suite::mgrid(), &schemes);
        assert_eq!(cache.generations(), 1, "a warm rerun generates nothing");
        assert_eq!(cache.hits(), schemes.len() as u64, "a warm rerun reads no trace");
        assert_eq!(results.hits(), schemes.len() as u64);
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.wall_cycles, b.wall_cycles);
            assert_eq!(a.thread_totals, b.thread_totals);
        }
    }

    #[test]
    fn persisted_results_skip_the_build() {
        // A fresh process over a warm entry-file directory: every scheme is
        // held on disk, so run_schemes builds no workload at all.
        let dir = std::env::temp_dir()
            .join(format!("icp-trace-cache-prebuild-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cfg, schemes) = sliced();
        let schemes = &schemes[..2];
        let cold = cfg.clone().with_result_cache(ResultCache::persistent(&dir));
        let expected = cold.run_schemes(&suite::cg(), schemes);
        let cache = TraceCache::shared();
        let warm = cfg
            .with_trace_cache(Arc::clone(&cache))
            .with_result_cache(ResultCache::persistent(&dir));
        let got = warm.run_schemes(&suite::cg(), schemes);
        assert_eq!(cache.generations(), 0);
        assert_eq!(cache.hits(), 0);
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.wall_cycles, b.wall_cycles);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_generation_releases_both_claims_and_every_token() {
        // A spec whose thread count differs from the core count makes
        // generation panic inside its claim. Eight callers race on that
        // key from a pool holding leased tokens, half asking for the slice
        // form and half for the flat form: each waiter must re-run the
        // work once the claimant unwinds, never park forever.
        let (cfg, _) = sliced();
        let bad = suite::mgrid().with_threads(cfg.system.cores / 2);
        let cache = TraceCache::shared();
        let total = 4;
        let b = CoreBudget::new(total);
        within(30, {
            let (cache, b, bad) = (Arc::clone(&cache), Arc::clone(&b), bad.clone());
            let sys = cfg.system;
            move || {
                let raced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    budget::scoped(b, || {
                        crate::sched::parallel_map((0..8).collect(), |i: &i32| {
                            if i % 2 == 0 {
                                cache.get_or_demux(&bad, &sys, cfg.scale, cfg.seed).len()
                            } else {
                                cache.get_or_pack(&bad, &sys, cfg.scale, cfg.seed).len()
                            }
                        })
                    })
                }));
                assert!(raced.is_err(), "the generation panic reaches the callers");
                // The slots are free: the next caller of either form runs
                // the work again (and fails again) instead of waiting.
                let again = |f: &dyn Fn()| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
                };
                assert!(again(&|| {
                    cache.get_or_demux(&bad, &sys, cfg.scale, cfg.seed);
                }));
                assert!(again(&|| {
                    cache.get_or_pack(&bad, &sys, cfg.scale, cfg.seed);
                }));
            }
        });
        assert!(cache.entries.is_vacant(), "flat claim released");
        assert!(cache.slices.is_vacant(), "slice-form claim released");
        assert_eq!((cache.generations(), cache.demuxes(), cache.hits()), (0, 0, 0));
        assert_eq!(b.spare(), total - 1, "every leased token came back");
        // The cache still works for well-formed workloads.
        let good = suite::mgrid().with_threads(cfg.system.cores);
        cache.get_or_demux(&good, &cfg.system, cfg.scale, cfg.seed);
        assert_eq!((cache.generations(), cache.demuxes()), (1, 1));
    }
}
