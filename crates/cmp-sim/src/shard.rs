//! Set-sharded parallel simulation: scale the sim loop across host cores.
//!
//! # The machine model
//!
//! A [`ShardedSimulator`] with `k` shards models a *sliced* (banked-LLC)
//! CMP: the L2 set space is striped across `k` independent slices
//! (`slice = set_index mod k`), and each core's access stream is demuxed
//! into `k` per-slice sub-streams. Slice `j` is simulated by a complete
//! [`Simulator`] instance — full geometry, all cores — whose streams carry
//! only the events that touch slice `j`'s sets. Unowned sets simply stay
//! empty (the struct-of-arrays caches make an untouched set cost nothing
//! but its memory), so per-set behaviour inside a slice is identical to
//! what the serial simulator computes for those sets.
//!
//! Between interval boundaries the `k` slices share no mutable state, so
//! they run on `k` worker threads with no synchronisation at all; at each
//! boundary their counters are merged **in fixed shard order** into one
//! [`IntervalReport`], so repartition decisions and digests see a single
//! coherent machine.
//!
//! # Determinism guarantees
//!
//! Exact bit-equality with the *global min-clock interleave* of the serial
//! simulator is only possible at `k = 1`: with more than one slice, the
//! serial path's cross-set couplings (a single per-core clock, bank
//! contention, inclusive back-invalidation, the shared victim cache, and
//! the global instruction-sum interval boundary) are intentionally cut at
//! slice edges. What this module *does* guarantee, bitwise and enforced by
//! `tests/shard_equivalence.rs`:
//!
//! 1. **`k = 1` is the legacy simulator.** One shard receives every event
//!    in order with the original interval length, so every counter, report
//!    and digest equals the serial path exactly.
//! 2. **Parallel == serial reference at every `k`.** Running the `k`
//!    slices on worker threads produces bit-identical reports to running
//!    the same `k`-decomposition on one thread
//!    ([`ShardedSimulator::serial_reference`]): shard simulations are
//!    deterministic, workers are joined in shard order, and the merge is a
//!    fixed-order fold — thread scheduling cannot reach the result.
//!
//! # Merge rules
//!
//! * Counters: summed per thread over shards `0..k` ([`ThreadCounters`] is
//!   a bag of `u64`s, so addition order is irrelevant — but the order is
//!   fixed anyway).
//! * Interval CPI: recomputed from the merged deltas (not averaged).
//! * Wall clock: core `t`'s merged clock is the *sum* of its per-slice
//!   clocks (each slice advances the core only while it works that slice),
//!   and the wall clock is the max over cores — collapsing to the serial
//!   definition at `k = 1`.
//! * UMON: per-shard monitors observe disjoint set slices, so summing
//!   their way-hit histograms ([`UtilityMonitor::merge_counters`])
//!   reconstitutes the whole hits-vs-ways curve.
//! * Interval boundaries: each shard retires `ceil(interval / k)`
//!   instructions per interval, so a merged interval covers the original
//!   instruction budget.

use std::sync::Arc;

use icp_hot_path::deterministic;

use crate::config::SystemConfig;
use crate::packed::{PackedBlock, PackedReplayStream, PackedTrace};
use crate::perf::Measurable;
use crate::simulator::{IntervalReport, Simulator, ThreadIntervalStats};
use crate::stats::{GlobalStats, ThreadCounters};
use crate::stream::AccessStream;
use crate::umon::UtilityMonitor;
use crate::ThreadId;

/// Events drained per demux refill.
const DEMUX_BATCH: usize = 4096;

/// Demuxes one core's event stream into `k` packed sub-traces, routing
/// each access by an arbitrary address key (`key(addr)` must be `< k`).
///
/// The instruction gap travels with its access; barriers are replicated
/// into every sub-trace so cross-core ordering around a barrier holds
/// within each slice. This is the shared demux engine behind both the
/// set-striped decomposition here and the slice-hash decomposition in
/// [`crate::slice`]. Each refilled block is routed column by column —
/// gap, address, write bit and MLP straight into the destination
/// sub-trace, barrier markers replayed at their access positions — with
/// no per-event decode.
#[deterministic]
pub(crate) fn demux_stream_by<S: AccessStream>(
    mut stream: S,
    k: usize,
    mut key: impl FnMut(u64) -> usize,
) -> Vec<PackedTrace> {
    let mut out: Vec<PackedTrace> = (0..k).map(|_| PackedTrace::new()).collect();
    let mut block = PackedBlock::with_capacity(DEMUX_BATCH);
    loop {
        stream.fill_packed(&mut block, DEMUX_BATCH);
        let (gaps, addrs, mlps) = (block.gaps(), block.addrs(), block.mlps());
        let mut nb = 0;
        for i in 0..=gaps.len() {
            // Barriers due before access `i` (or at the block's end).
            while nb < block.barrier_count() && block.barrier_at(nb) == i {
                for t in &mut out {
                    t.push_barrier();
                }
                nb += 1;
            }
            if i < gaps.len() {
                out[key(addrs[i])].push_access(gaps[i], addrs[i], block.write_at(i), mlps[i]);
            }
        }
        if block.finished() {
            break;
        }
        assert!(!block.is_empty(), "stream stalled without finishing");
    }
    out
}

/// Demuxes one core's event stream into `k` per-slice packed sub-traces
/// using the set-striped key (`set_index mod k`).
#[deterministic]
fn demux_stream<S: AccessStream>(
    stream: S,
    cfg: &SystemConfig,
    k: usize,
) -> Vec<PackedTrace> {
    let geom = cfg.l2.geometry();
    demux_stream_by(stream, k, |addr| (geom.set_index(addr) as usize) % k)
}

/// A set-sharded CMP simulator — see the [module docs](self) for the
/// machine model, determinism guarantees and merge rules.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::stream::ReplayStream;
/// use icp_cmp_sim::{ShardedSimulator, SystemConfig, ThreadEvent};
///
/// let mut cfg = SystemConfig::scaled_down();
/// cfg.cores = 2;
/// let walk = |stride: u64| -> ReplayStream {
///     ReplayStream::new((0..100).map(|i| ThreadEvent::access(3, i * stride * 64)).collect())
/// };
/// let mut sim = ShardedSimulator::new(cfg, vec![walk(1), walk(7)], 2);
/// sim.set_partition(&[48, 16]);
/// while let Some(report) = sim.run_interval() {
///     if report.finished {
///         break;
///     }
/// }
/// assert!(sim.wall_cycles() > 0);
/// ```
pub struct ShardedSimulator {
    cfg: SystemConfig,
    /// One full-geometry simulator per set slice, indexed by slice id.
    shards: Vec<Simulator<PackedReplayStream>>,
    /// Run shard intervals on scoped worker threads (`false` = the
    /// serial-reference engine the equivalence tests compare against).
    parallel: bool,
    /// Merged cumulative statistics, rebuilt at each interval boundary.
    stats: GlobalStats,
    interval_index: usize,
    done: bool,
}

impl ShardedSimulator {
    /// Builds a sharded simulator over `shards` set slices, run in
    /// parallel on scoped worker threads at each interval.
    ///
    /// # Panics
    /// Panics if `shards` is zero, the stream count doesn't match
    /// `cfg.cores`, or the config is invalid.
    #[deterministic]
    pub fn new<S: AccessStream>(cfg: SystemConfig, streams: Vec<S>, shards: usize) -> Self {
        Self::with_mode(cfg, streams, shards, true)
    }

    /// Like [`ShardedSimulator::new`], but every shard interval runs on
    /// the calling thread, in shard order. Bit-identical to the parallel
    /// engine by construction — the reference the equivalence suite pins
    /// the worker-thread path against.
    #[deterministic]
    pub fn serial_reference<S: AccessStream>(
        cfg: SystemConfig,
        streams: Vec<S>,
        shards: usize,
    ) -> Self {
        Self::with_mode(cfg, streams, shards, false)
    }

    /// Builds a parallel sharded simulator sized from the process core
    /// budget ([`crate::budget`]: `--jobs` / `ICP_CORES` / host cores),
    /// clamped to the L2 set count (one set per slice is the finest useful
    /// decomposition). Falls back to one shard — the exact serial machine —
    /// at a budget of 1. Note the budget total picks the *decomposition*
    /// here; how many worker threads each interval actually gets is leased
    /// separately in [`ShardedSimulator::run_interval`].
    #[deterministic]
    pub fn auto<S: AccessStream>(cfg: SystemConfig, streams: Vec<S>) -> Self {
        let shards = crate::budget::current().total().clamp(1, cfg.l2.num_sets() as usize);
        Self::new(cfg, streams, shards)
    }

    fn with_mode<S: AccessStream>(
        cfg: SystemConfig,
        streams: Vec<S>,
        shards: usize,
        parallel: bool,
    ) -> Self {
        cfg.validate();
        assert!(shards > 0, "at least one shard");
        assert_eq!(streams.len(), cfg.cores, "one stream per core");
        // Each shard retires a 1/k share of the interval budget, rounded
        // up, so a merged interval covers >= the configured instruction
        // count and k = 1 keeps the exact serial boundary.
        let mut shard_cfg = cfg;
        shard_cfg.interval_instructions = cfg.interval_instructions.div_ceil(shards as u64);
        // Demux core-by-core, then transpose: shard j simulates every
        // core's slice-j sub-trace.
        let per_core: Vec<Vec<Arc<PackedTrace>>> = streams
            .into_iter()
            .map(|s| demux_stream(s, &cfg, shards).into_iter().map(Arc::new).collect())
            .collect();
        Self::from_demuxed(cfg, shard_cfg, per_core, parallel)
    }

    /// Assembles a sharded simulator from already-demuxed per-core traces:
    /// `per_core[c][j]` holds core `c`'s sub-trace for shard `j`. `cfg` is
    /// the outer machine config; `shard_cfg` is what each shard simulator
    /// runs (possibly a different L2 geometry and interval share — the
    /// sliced-LLC machine in [`crate::slice`] passes the per-slice
    /// geometry here).
    ///
    /// # Panics
    /// Panics if either config is invalid, the per-core trace matrix is
    /// ragged or empty, or the core count doesn't match `cfg.cores`.
    pub(crate) fn from_demuxed(
        cfg: SystemConfig,
        shard_cfg: SystemConfig,
        per_core: Vec<Vec<Arc<PackedTrace>>>,
        parallel: bool,
    ) -> Self {
        cfg.validate();
        shard_cfg.validate();
        assert_eq!(per_core.len(), cfg.cores, "one demuxed trace set per core");
        let shards = per_core.first().map_or(0, Vec::len);
        assert!(shards > 0, "at least one shard");
        assert!(
            per_core.iter().all(|traces| traces.len() == shards),
            "every core must be demuxed into the same shard count"
        );
        let sims = (0..shards)
            .map(|j| {
                let slice_streams: Vec<PackedReplayStream> = per_core
                    .iter()
                    .map(|traces| PackedTrace::stream(&traces[j]))
                    .collect();
                Simulator::from_streams(shard_cfg, slice_streams)
            })
            .collect();
        ShardedSimulator {
            cfg,
            shards: sims,
            parallel,
            stats: GlobalStats::new(cfg.cores),
            interval_index: 0,
            done: false,
        }
    }

    /// The system configuration (the original, with the undivided interval
    /// length).
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Number of set slices (and worker threads in parallel mode).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether shard intervals run on worker threads.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Applies a way partition to every slice's L2 (see
    /// [`Simulator::set_partition`]).
    pub fn set_partition(&mut self, targets: &[u32]) {
        for s in &mut self.shards {
            s.set_partition(targets);
        }
    }

    /// Reverts every slice to plain shared (global LRU) operation.
    pub fn set_unpartitioned(&mut self) {
        for s in &mut self.shards {
            s.set_unpartitioned();
        }
    }

    /// Applies a set partition (quotas in way units, converted to set
    /// ranges per slice — see [`Simulator::set_set_partition`]) to every
    /// slice's L2.
    pub fn set_set_partition(&mut self, quotas: &[u32]) {
        for s in &mut self.shards {
            s.set_set_partition(quotas);
        }
    }

    /// Halves every slice monitor's counters (exponential decay at
    /// interval boundaries — see [`UtilityMonitor::decay_counters`]).
    /// No-op when UMON was never enabled.
    pub fn decay_umon(&mut self) {
        for s in &mut self.shards {
            if let Some(u) = s.umon_mut() {
                u.decay_counters();
            }
        }
    }

    /// Selects the L2 replacement policy on every slice.
    pub fn set_replacement(&mut self, kind: crate::l2::ReplacementKind) {
        for s in &mut self.shards {
            s.set_replacement(kind);
        }
    }

    /// Selects the partition enforcement mechanism on every slice.
    pub fn set_enforcement(&mut self, kind: crate::l2::EnforcementKind) {
        for s in &mut self.shards {
            s.set_enforcement(kind);
        }
    }

    /// Attaches a utility monitor to every slice; read the merged profile
    /// via [`ShardedSimulator::merged_umon`].
    pub fn enable_umon(&mut self, sample_every: u64) {
        for s in &mut self.shards {
            s.enable_umon(sample_every);
        }
    }

    /// The system-wide utility profile: shard 0's monitor with every other
    /// shard's counters summed in (shard order). `None` when
    /// [`ShardedSimulator::enable_umon`] was never called.
    #[deterministic]
    pub fn merged_umon(&self) -> Option<UtilityMonitor> {
        let mut iter = self.shards.iter().filter_map(|s| s.umon());
        let mut merged = iter.next()?.clone();
        for m in iter {
            merged.merge_counters(m);
        }
        Some(merged)
    }

    /// Merged cumulative statistics, current as of the last interval
    /// boundary.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Core `t`'s merged clock: the sum of its per-slice clocks.
    pub fn core_clock(&self, t: ThreadId) -> u64 {
        self.shards.iter().map(|s| s.core_clock(t)).sum()
    }

    /// Merged wall clock: the maximum merged core clock.
    pub fn wall_cycles(&self) -> u64 {
        (0..self.cfg.cores).map(|t| self.core_clock(t)).max().unwrap_or(0)
    }

    /// Stream events consumed so far, summed over slices.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed()).sum()
    }

    /// Whether every thread of every slice has finished.
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// Runs every shard to its next interval boundary — concurrently in
    /// parallel mode — and merges the per-shard reports in shard order.
    /// Returns `None` once the workload has completed.
    ///
    /// Parallel mode means *allowed* to use worker threads: each interval
    /// leases its extra workers from the process core budget
    /// ([`crate::budget`]) and returns them at the merge barrier, so a
    /// busy machine degrades this engine to the bit-identical serial walk
    /// while a draining outer pool lets later intervals widen again.
    #[deterministic]
    pub fn run_interval(&mut self) -> Option<IntervalReport> {
        if self.done {
            return None;
        }
        let reports: Vec<Option<IntervalReport>> = if self.parallel && self.shards.len() > 1 {
            // Lease per interval; the guard drops at the merge boundary.
            let lease = crate::budget::current().lease(self.shards.len() - 1);
            let workers = 1 + lease.tokens();
            if workers > 1 {
                run_shard_chunks(&mut self.shards, workers)
            } else {
                self.shards.iter_mut().map(|s| s.run_interval()).collect()
            }
        } else {
            self.shards.iter_mut().map(|s| s.run_interval()).collect()
        };
        self.merge(reports)
    }

    /// Runs every remaining interval, invoking `on_interval` at each
    /// boundary; the callback may inspect the report and repartition.
    /// Returns total wall cycles at completion.
    pub fn run_to_completion<F: FnMut(&mut Self, &IntervalReport)>(
        &mut self,
        mut on_interval: F,
    ) -> u64 {
        while let Some(report) = self.run_interval() {
            let r = report;
            on_interval(self, &r);
        }
        self.wall_cycles()
    }

    /// Fixed-order reduction of one round of per-shard interval reports.
    /// A `None` entry (shard already finished) contributes a zero delta.
    #[deterministic]
    fn merge(&mut self, reports: Vec<Option<IntervalReport>>) -> Option<IntervalReport> {
        if reports.iter().all(Option::is_none) {
            self.done = true;
            return None;
        }
        let cores = self.cfg.cores;
        let mut deltas = vec![ThreadCounters::default(); cores];
        let mut ways = vec![0u32; cores];
        for r in reports.iter().flatten() {
            for (t, ts) in r.threads.iter().enumerate() {
                deltas[t].add(&ts.counters);
            }
        }
        // Partition state is replicated, so any shard's quota view works;
        // shard order makes the choice deterministic.
        if let Some(first) = reports.iter().flatten().next() {
            for (t, w) in ways.iter_mut().enumerate() {
                *w = first.threads[t].ways;
            }
        }
        // Rebuild the merged cumulative stats from scratch in shard order.
        let mut stats = GlobalStats::new(cores);
        for s in &self.shards {
            let shard_stats = s.stats();
            for (t, acc) in stats.threads.iter_mut().enumerate() {
                acc.add(&shard_stats.threads[t]);
            }
            stats.interactions.add(&shard_stats.interactions);
        }
        self.stats = stats;
        let finished = self.shards.iter().all(Simulator::is_finished);
        self.done = finished;
        let report = IntervalReport {
            index: self.interval_index,
            threads: deltas
                .into_iter()
                .zip(ways)
                .map(|(counters, ways)| ThreadIntervalStats {
                    counters,
                    cpi: counters.cpi(),
                    ways,
                })
                .collect(),
            finished,
            wall_cycles: self.wall_cycles(),
        };
        self.interval_index += 1;
        Some(report)
    }
}

/// Runs one interval of every shard on `workers` threads: the calling
/// thread takes the first contiguous chunk of shards, `workers - 1`
/// scoped workers take the rest, and the per-chunk report vectors are
/// concatenated in chunk (= shard) order. Bit-identical to the serial
/// walk and to one-thread-per-shard execution because each shard still
/// advances exactly one interval, independently — chunking only decides
/// which OS thread hosts which shard.
fn run_shard_chunks(
    shards: &mut [Simulator<PackedReplayStream>],
    workers: usize,
) -> Vec<Option<IntervalReport>> {
    let n = shards.len();
    let workers = workers.clamp(1, n);
    let base = n / workers;
    let extra = n % workers;
    let mut rest = shards;
    let mut chunks: Vec<&mut [Simulator<PackedReplayStream>]> = Vec::with_capacity(workers);
    for i in 0..workers {
        let take = base + usize::from(i < extra);
        let (head, tail) = rest.split_at_mut(take);
        chunks.push(head);
        rest = tail;
    }
    std::thread::scope(|scope| {
        let mut iter = chunks.into_iter();
        let mine = iter.next();
        let handles: Vec<_> = iter
            .map(|chunk| {
                scope.spawn(move || {
                    chunk.iter_mut().map(|s| s.run_interval()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut reports: Vec<Option<IntervalReport>> = Vec::with_capacity(n);
        // The calling thread works its own chunk while the workers run.
        if let Some(chunk) = mine {
            reports.extend(chunk.iter_mut().map(|s| s.run_interval()));
        }
        // Joining in spawn (= shard-chunk) order makes the concatenated
        // sequence independent of completion order.
        for h in handles {
            match h.join() {
                Ok(part) => reports.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        reports
    })
}

impl Measurable for ShardedSimulator {
    fn stats(&self) -> &GlobalStats {
        ShardedSimulator::stats(self)
    }

    fn events_processed(&self) -> u64 {
        ShardedSimulator::events_processed(self)
    }

    fn wall_cycles(&self) -> u64 {
        ShardedSimulator::wall_cycles(self)
    }

    fn run_interval(&mut self) -> Option<IntervalReport> {
        ShardedSimulator::run_interval(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, LatencyConfig};
    use crate::stream::{ReplayStream, ThreadEvent};

    fn tiny_cfg() -> SystemConfig {
        SystemConfig {
            cores: 2,
            l1: CacheConfig::new(2 * 64 * 2, 2, 64), // 2 sets x 2 ways
            l2: CacheConfig::new(4 * 64 * 4, 4, 64), // 4 sets x 4 ways
            llc: Default::default(),
            latency: LatencyConfig { l1_hit: 1, l2_hit: 10, memory: 100 },
            interval_instructions: 64,
            inclusive: false,
            coherence: false,
            prefetch_degree: 0,
            l2_banks: 0,
            victim_cache_lines: 0,
        }
    }

    fn walk(lines: u64, stride: u64, n: u64) -> Vec<ThreadEvent> {
        (0..n).map(|i| ThreadEvent::access(2, ((i * stride) % lines) * 64)).collect()
    }

    fn streams(n: u64) -> Vec<ReplayStream> {
        vec![ReplayStream::new(walk(16, 3, n)), ReplayStream::new(walk(16, 7, n))]
    }

    fn run(sim: &mut ShardedSimulator) -> (u64, GlobalStats, Vec<u64>) {
        let mut insts = Vec::new();
        while let Some(r) = sim.run_interval() {
            insts.push(r.threads.iter().map(|t| t.counters.instructions).sum());
            if r.finished {
                break;
            }
        }
        (sim.wall_cycles(), sim.stats().clone(), insts)
    }

    /// One shard is the legacy serial machine, bit for bit.
    #[test]
    fn one_shard_equals_serial() {
        let cfg = tiny_cfg();
        let mut serial = Simulator::from_streams(cfg, streams(200));
        let mut reports = Vec::new();
        while let Some(r) = serial.run_interval() {
            reports.push(r.clone());
            if r.finished {
                break;
            }
        }
        let mut sharded = ShardedSimulator::new(cfg, streams(200), 1);
        let mut sharded_reports = Vec::new();
        while let Some(r) = sharded.run_interval() {
            sharded_reports.push(r.clone());
            if r.finished {
                break;
            }
        }
        assert_eq!(serial.wall_cycles(), sharded.wall_cycles());
        assert_eq!(serial.stats(), sharded.stats());
        assert_eq!(reports.len(), sharded_reports.len());
        for (a, b) in reports.iter().zip(&sharded_reports) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.finished, b.finished);
            assert_eq!(a.wall_cycles, b.wall_cycles);
            for (x, y) in a.threads.iter().zip(&b.threads) {
                assert_eq!(x.counters, y.counters);
                assert_eq!(x.ways, y.ways);
                assert_eq!(x.cpi.to_bits(), y.cpi.to_bits());
            }
        }
    }

    /// Worker-thread execution is bit-identical to the serial reference at
    /// several shard counts, including a non-power-of-two.
    #[test]
    fn parallel_matches_serial_reference() {
        let cfg = tiny_cfg();
        for k in [1usize, 2, 3, 4] {
            let (wall_p, stats_p, insts_p) =
                run(&mut ShardedSimulator::new(cfg, streams(300), k));
            let (wall_s, stats_s, insts_s) =
                run(&mut ShardedSimulator::serial_reference(cfg, streams(300), k));
            assert_eq!(wall_p, wall_s, "k={k}: wall diverged");
            assert_eq!(stats_p, stats_s, "k={k}: stats diverged");
            assert_eq!(insts_p, insts_s, "k={k}: interval shape diverged");
        }
    }

    /// Every shard count conserves total instructions and accesses — the
    /// demux loses nothing.
    #[test]
    fn sharding_conserves_work() {
        let cfg = tiny_cfg();
        let (_, base, _) = run(&mut ShardedSimulator::new(cfg, streams(250), 1));
        for k in [2usize, 3, 5] {
            let (_, stats, _) = run(&mut ShardedSimulator::new(cfg, streams(250), k));
            for t in 0..2 {
                assert_eq!(
                    stats.threads[t].instructions, base.threads[t].instructions,
                    "k={k} thread {t}"
                );
                assert_eq!(
                    stats.threads[t].l1_hits + stats.threads[t].l1_misses,
                    base.threads[t].l1_hits + base.threads[t].l1_misses,
                    "k={k} thread {t}"
                );
            }
        }
    }

    /// Barriers are replicated into every slice and still release.
    #[test]
    fn barriers_release_in_every_slice() {
        let cfg = tiny_cfg();
        let with_barriers = |stride: u64| -> ReplayStream {
            let mut ev = Vec::new();
            for i in 0..60u64 {
                ev.push(ThreadEvent::access(1, ((i * stride) % 16) * 64));
                if i % 10 == 9 {
                    ev.push(ThreadEvent::Barrier);
                }
            }
            ReplayStream::new(ev)
        };
        let mut sim =
            ShardedSimulator::new(cfg, vec![with_barriers(3), with_barriers(5)], 3);
        let (wall, stats, _) = run(&mut sim);
        assert!(sim.is_finished());
        assert!(wall > 0);
        // 60 accesses at gap 1 retire (1 + 1) x 60 instructions each.
        assert_eq!(stats.threads[0].instructions, 120);
        assert_eq!(stats.threads[1].instructions, 120);
    }

    /// The merged UMON profile equals the serial profile at k = 1 and
    /// conserves total observations at k > 1.
    #[test]
    fn umon_merge_reconstitutes_profile() {
        let cfg = tiny_cfg();
        let mut serial = Simulator::from_streams(cfg, streams(200));
        serial.enable_umon(1);
        while serial.run_interval().is_some() {}
        let reference = serial.umon().expect("umon enabled");

        for k in [1usize, 2, 4] {
            let mut sharded = ShardedSimulator::new(cfg, streams(200), k);
            sharded.enable_umon(1);
            while sharded.run_interval().is_some() {}
            let merged = sharded.merged_umon().expect("umon enabled");
            for t in 0..2 {
                if k == 1 {
                    assert_eq!(merged.way_histogram(t), reference.way_histogram(t));
                }
                let total: u64 = merged.way_histogram(t).iter().sum::<u64>()
                    + merged.compulsory_capacity_misses(t);
                let ref_total: u64 = reference.way_histogram(t).iter().sum::<u64>()
                    + reference.compulsory_capacity_misses(t);
                assert_eq!(total, ref_total, "k={k} thread {t}: observations lost");
            }
        }
    }

    /// `auto` picks at least one shard and still finishes.
    #[test]
    fn auto_sizing_runs() {
        let cfg = tiny_cfg();
        let mut sim = ShardedSimulator::auto(cfg, streams(100));
        assert!(sim.num_shards() >= 1);
        assert!(sim.num_shards() <= cfg.l2.num_sets() as usize);
        let (wall, _, _) = run(&mut sim);
        assert!(wall > 0);
        assert!(sim.is_finished());
    }

    /// Repartitioning mid-run applies to every slice and stays consistent
    /// between the parallel and serial-reference engines.
    #[test]
    fn repartitioning_consistent_across_engines() {
        let cfg = tiny_cfg();
        let drive = |mut sim: ShardedSimulator| -> (u64, GlobalStats) {
            let mut flip = false;
            while let Some(r) = sim.run_interval() {
                if r.finished {
                    break;
                }
                if flip {
                    sim.set_partition(&[3, 1]);
                } else {
                    sim.set_partition(&[1, 3]);
                }
                flip = !flip;
            }
            (sim.wall_cycles(), sim.stats().clone())
        };
        for k in [2usize, 3] {
            let a = drive(ShardedSimulator::new(cfg, streams(400), k));
            let b = drive(ShardedSimulator::serial_reference(cfg, streams(400), k));
            assert_eq!(a, b, "k={k}");
        }
    }
}
