//! The sliced-LLC machine model: an L2 split into address-hashed slices.
//!
//! # The machine model
//!
//! Commodity many-core LLCs are not monolithic: the cache is physically
//! distributed into *slices*, one per tile/cluster, and a hash of the line
//! address routes each access to its home slice. [`Llc`] models exactly
//! that regime on top of the existing simulator: an L2 of `N` slices
//! ([`crate::config::LlcConfig::slices`]), each slice an independent cache
//! with its own geometry (`1/N` of the capacity, same associativity), its
//! own way-partition state, and its own UMON. The paper's monolithic L2 is
//! the `N = 1` degenerate case — bit-identical to the legacy serial
//! simulator, enforced by `tests/slice_equivalence.rs`.
//!
//! # Slice hashing
//!
//! [`SliceTopology::slice_of`] maps a line address to its home slice with
//! a Fibonacci multiplicative hash (golden-ratio constant, top `log2 N`
//! bits). Unlike taking the low set bits, the multiplicative hash spreads
//! *any* regular pattern — sequential walks, power-of-two strides, and the
//! head-heavy line distribution of Zipf-like streams — near-uniformly
//! across slices, which is what makes slice-level parallelism an
//! effective scaling axis (no slice starves; see the distribution tests).
//!
//! # Execution and determinism
//!
//! Execution reuses the set-sharded engine ([`crate::shard`]) with the
//! demux keyed by the slice hash instead of `set_index mod k`. Each core's
//! stream is split into `N` per-slice packed sub-traces
//! ([`SliceTopology::demux`]) once per workload: the experiment harness
//! keeps the split in its trace cache and builds every scheme's machine
//! from the shared sub-traces with [`Llc::from_slices`]. Slice `j` is
//! simulated by a full
//! [`Simulator`](crate::simulator::Simulator) over the slice geometry, and
//! per-slice intervals run on scoped worker threads, merged in fixed slice
//! order ([`Llc::new`] degrades to the bit-identical in-order engine on
//! hosts without a second core, where workers could only time-slice). The
//! shard engine's bitwise promises carry over unchanged:
//!
//! 1. **`N = 1` is the legacy serial simulator** — same geometry, same
//!    interval boundary, every event in order through one slice.
//! 2. **Parallel == serial reference at every `N`** — worker-thread
//!    execution is bit-identical to [`Llc::serial_reference`], the same
//!    decomposition run on one thread.
//!
//! At `N > 1` the machine *model* deliberately changes (slices are
//! independent caches; a thread's way quota applies per slice), so sliced
//! results are not comparable to monolithic ones — the experiment caches
//! key on the slice count for exactly that reason.

use std::sync::Arc;

use icp_hot_path::deterministic;

use crate::config::{CacheConfig, LlcConfig, SystemConfig};
use crate::l2::{EnforcementKind, ReplacementKind};
use crate::packed::PackedTrace;
use crate::perf::Measurable;
use crate::shard::{demux_stream_by, ShardedSimulator};
use crate::simulator::IntervalReport;
use crate::stats::GlobalStats;
use crate::stream::AccessStream;
use crate::umon::UtilityMonitor;
use crate::ThreadId;

/// The 64-bit golden-ratio constant of the Fibonacci multiplicative hash.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Address-to-slice mapping plus the per-slice geometry, precomputed from
/// a [`SystemConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceTopology {
    /// Number of slices (>= 1).
    slices: u32,
    /// `log2(line_bytes)`: shift that turns a byte address into a line
    /// address before hashing, so all bytes of a line share a slice.
    line_shift: u32,
    /// `log2(slices)`: how many top hash bits select the slice.
    slice_bits: u32,
    /// Geometry of one slice: `1/slices` of the L2 at the same
    /// associativity and line size.
    slice_l2: CacheConfig,
}

impl SliceTopology {
    /// Derives the slice topology of `cfg` (which must validate).
    #[deterministic]
    pub fn of(cfg: &SystemConfig) -> Self {
        cfg.validate();
        let slices = cfg.llc.slices.max(1);
        SliceTopology {
            slices,
            line_shift: cfg.l2.line_bytes.trailing_zeros(),
            slice_bits: slices.trailing_zeros(),
            slice_l2: cfg.slice_l2(),
        }
    }

    /// Number of slices.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slices as usize
    }

    /// Geometry of one slice.
    #[inline]
    pub fn slice_l2(&self) -> CacheConfig {
        self.slice_l2
    }

    /// Home slice of a byte address: Fibonacci hash of the line address,
    /// top `log2(slices)` bits. Always 0 for a monolithic LLC.
    #[inline]
    #[deterministic]
    pub fn slice_of(&self, addr: u64) -> usize {
        if self.slices <= 1 {
            return 0;
        }
        let line = addr >> self.line_shift;
        (line.wrapping_mul(GOLDEN_GAMMA) >> (64 - self.slice_bits)) as usize
    }

    /// Splits one core's stream into its per-slice packed sub-traces
    /// (index = slice), routing each access by [`Self::slice_of`] and
    /// replicating barriers into every slice. One core's row of the
    /// matrix [`Llc::from_slices`] takes.
    #[deterministic]
    pub fn demux<S: AccessStream>(&self, stream: S) -> Vec<Arc<PackedTrace>> {
        demux_stream_by(stream, self.num_slices(), |addr| self.slice_of(addr))
            .into_iter()
            .map(Arc::new)
            .collect()
    }
}

/// A sliced-LLC CMP machine — see the [module docs](self) for the model
/// and determinism guarantees.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::config::LlcConfig;
/// use icp_cmp_sim::slice::Llc;
/// use icp_cmp_sim::stream::ReplayStream;
/// use icp_cmp_sim::{SystemConfig, ThreadEvent};
///
/// let mut cfg = SystemConfig::scaled_down();
/// cfg.cores = 2;
/// cfg.llc = LlcConfig::sliced(4);
/// let walk = |stride: u64| -> ReplayStream {
///     ReplayStream::new((0..100).map(|i| ThreadEvent::access(3, i * stride * 64)).collect())
/// };
/// let mut llc = Llc::new(cfg, vec![walk(1), walk(7)]);
/// llc.set_partition(&[48, 16]);
/// while let Some(report) = llc.run_interval() {
///     if report.finished {
///         break;
///     }
/// }
/// assert!(llc.wall_cycles() > 0);
/// ```
pub struct Llc {
    /// The slice-hash-demuxed shard engine: shard `j` simulates slice `j`
    /// at the slice geometry.
    inner: ShardedSimulator,
    topology: SliceTopology,
}

impl Llc {
    /// Builds a sliced-LLC machine from `cfg` (slice count taken from
    /// `cfg.llc`), run slice-parallel on scoped worker threads — unless
    /// the process core budget ([`crate::budget`]: `--jobs` / `ICP_CORES`
    /// / host cores) is a single core, where worker threads could only
    /// time-slice against each other and the machine degrades to the
    /// (bit-identical) in-order serial engine instead, exactly as
    /// [`PipelinedStream`](crate::pipeline::PipelinedStream) degrades to
    /// inline generation. Parallel mode itself is arbitrated per interval:
    /// each interval leases its workers from the budget and returns them
    /// at the merge barrier. Use [`Llc::with_mode`] to force either mode.
    ///
    /// # Panics
    /// Panics if the config is invalid or the stream count doesn't match
    /// `cfg.cores`.
    #[deterministic]
    pub fn new<S: AccessStream>(cfg: SystemConfig, streams: Vec<S>) -> Self {
        Self::with_mode(cfg, streams, crate::budget::current().total() >= 2)
    }

    /// Like [`Llc::new`], but every slice interval runs on the calling
    /// thread, in slice order — the reference the equivalence suite pins
    /// the worker-thread path against.
    #[deterministic]
    pub fn serial_reference<S: AccessStream>(cfg: SystemConfig, streams: Vec<S>) -> Self {
        Self::with_mode(cfg, streams, false)
    }

    /// Builds the machine with an explicit execution mode: `parallel`
    /// forces scoped worker threads (one per slice) regardless of host
    /// parallelism; `!parallel` is [`Llc::serial_reference`]. Both modes
    /// produce bit-identical results (`tests/slice_equivalence.rs`); the
    /// mode only decides where slice intervals execute.
    #[deterministic]
    pub fn with_mode<S: AccessStream>(cfg: SystemConfig, streams: Vec<S>, parallel: bool) -> Self {
        assert_eq!(streams.len(), cfg.cores, "one stream per core");
        let topology = SliceTopology::of(&cfg);
        let per_core = streams.into_iter().map(|s| topology.demux(s)).collect();
        Self::from_slices_with_mode(cfg, per_core, parallel)
    }

    /// Builds the machine from streams that are already demuxed:
    /// `per_core[c]` is [`SliceTopology::demux`] of core `c`'s stream under
    /// `cfg`'s topology. Execution mode follows the core budget as in
    /// [`Llc::new`]; the result is bit-identical to `Llc::new` over the
    /// undemuxed streams. Sub-traces are shared, not copied, so one demux
    /// can back any number of machines.
    ///
    /// # Panics
    /// Panics if the config is invalid or `per_core` is not a
    /// `cfg.cores` × slice-count matrix.
    #[deterministic]
    pub fn from_slices(cfg: SystemConfig, per_core: Vec<Vec<Arc<PackedTrace>>>) -> Self {
        Self::from_slices_with_mode(cfg, per_core, crate::budget::current().total() >= 2)
    }

    /// [`Llc::from_slices`] with an explicit execution mode, as in
    /// [`Llc::with_mode`].
    #[deterministic]
    pub fn from_slices_with_mode(
        cfg: SystemConfig,
        per_core: Vec<Vec<Arc<PackedTrace>>>,
        parallel: bool,
    ) -> Self {
        let topology = SliceTopology::of(&cfg);
        let n = topology.num_slices();
        assert!(
            per_core.iter().all(|slices| slices.len() == n),
            "every core must be demuxed into {n} slices"
        );
        // Each slice simulator runs the slice geometry with a 1/N share of
        // the interval budget (rounded up, as in the shard engine); the
        // outer config keeps the full geometry so merged reports and way
        // quotas stay in whole-LLC terms. At N = 1 this is `cfg` verbatim.
        let mut slice_cfg = cfg;
        slice_cfg.l2 = topology.slice_l2();
        slice_cfg.llc = LlcConfig::monolithic();
        slice_cfg.interval_instructions = cfg.interval_instructions.div_ceil(n as u64);
        Llc {
            inner: ShardedSimulator::from_demuxed(cfg, slice_cfg, per_core, parallel),
            topology,
        }
    }

    /// The system configuration (full-LLC geometry, undivided interval).
    pub fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    /// The address-to-slice mapping in force.
    pub fn topology(&self) -> &SliceTopology {
        &self.topology
    }

    /// Number of LLC slices (and worker threads in parallel mode).
    pub fn num_slices(&self) -> usize {
        self.topology.num_slices()
    }

    /// Whether slice intervals run on worker threads.
    pub fn is_parallel(&self) -> bool {
        self.inner.is_parallel()
    }

    /// Applies a way partition to every slice (quotas in way units; ways
    /// are not divided across slices, so a thread's quota applies in each
    /// slice independently).
    pub fn set_partition(&mut self, targets: &[u32]) {
        self.inner.set_partition(targets);
    }

    /// Reverts every slice to plain shared (global LRU) operation.
    pub fn set_unpartitioned(&mut self) {
        self.inner.set_unpartitioned();
    }

    /// Applies a set partition (quotas in way units, converted to set
    /// ranges within each slice).
    pub fn set_set_partition(&mut self, quotas: &[u32]) {
        self.inner.set_set_partition(quotas);
    }

    /// Selects the L2 replacement policy on every slice.
    pub fn set_replacement(&mut self, kind: ReplacementKind) {
        self.inner.set_replacement(kind);
    }

    /// Selects the partition enforcement mechanism on every slice.
    pub fn set_enforcement(&mut self, kind: EnforcementKind) {
        self.inner.set_enforcement(kind);
    }

    /// Attaches a utility monitor to every slice. `sample_every` is
    /// clamped to the slice set count so callers can pass whole-LLC
    /// sampling rates unchanged.
    pub fn enable_umon(&mut self, sample_every: u64) {
        self.inner.enable_umon(sample_every.min(self.topology.slice_l2().num_sets()));
    }

    /// The machine-wide utility profile: every slice monitor's counters
    /// summed in slice order ([`UtilityMonitor::merge_counters`] — slices
    /// observe disjoint address subsets, so the sum reconstitutes the
    /// whole hits-vs-ways curve). `None` when UMON was never enabled.
    #[deterministic]
    pub fn merged_umon(&self) -> Option<UtilityMonitor> {
        self.inner.merged_umon()
    }

    /// Halves every slice monitor's counters (see
    /// [`UtilityMonitor::decay_counters`]).
    pub fn decay_umon(&mut self) {
        self.inner.decay_umon();
    }

    /// Merged cumulative statistics, current as of the last interval
    /// boundary.
    pub fn stats(&self) -> &GlobalStats {
        self.inner.stats()
    }

    /// Core `t`'s merged clock: the sum of its per-slice clocks.
    pub fn core_clock(&self, t: ThreadId) -> u64 {
        self.inner.core_clock(t)
    }

    /// Merged wall clock: the maximum merged core clock.
    pub fn wall_cycles(&self) -> u64 {
        self.inner.wall_cycles()
    }

    /// Stream events consumed so far, summed over slices.
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    /// Whether every thread of every slice has finished.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Runs every slice to its next interval boundary — concurrently in
    /// parallel mode — and merges the per-slice reports in slice order.
    /// Returns `None` once the workload has completed.
    #[deterministic]
    pub fn run_interval(&mut self) -> Option<IntervalReport> {
        self.inner.run_interval()
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
}

impl Measurable for Llc {
    fn stats(&self) -> &GlobalStats {
        Llc::stats(self)
    }

    fn events_processed(&self) -> u64 {
        Llc::events_processed(self)
    }

    fn wall_cycles(&self) -> u64 {
        Llc::wall_cycles(self)
    }

    fn run_interval(&mut self) -> Option<IntervalReport> {
        Llc::run_interval(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, LatencyConfig};
    use crate::simulator::Simulator;
    use crate::stream::{ReplayStream, ThreadEvent};

    fn tiny_cfg(slices: u32) -> SystemConfig {
        SystemConfig {
            cores: 2,
            l1: CacheConfig::new(2 * 64 * 2, 2, 64), // 2 sets x 2 ways
            l2: CacheConfig::new(8 * 64 * 4, 4, 64), // 8 sets x 4 ways
            llc: LlcConfig::sliced(slices),
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
        vec![ReplayStream::new(walk(32, 3, n)), ReplayStream::new(walk(32, 7, n))]
    }

    fn run(llc: &mut Llc) -> (u64, GlobalStats, Vec<u64>) {
        let mut insts = Vec::new();
        while let Some(r) = llc.run_interval() {
            insts.push(r.threads.iter().map(|t| t.counters.instructions).sum());
            if r.finished {
                break;
            }
        }
        (llc.wall_cycles(), llc.stats().clone(), insts)
    }

    /// N = 1 is the legacy serial simulator, bit for bit.
    #[test]
    fn one_slice_equals_serial() {
        let cfg = tiny_cfg(1);
        let mut serial = Simulator::from_streams(cfg, streams(200));
        while serial.run_interval().is_some() {}
        let mut llc = Llc::new(cfg, streams(200));
        while llc.run_interval().is_some() {}
        assert_eq!(serial.wall_cycles(), llc.wall_cycles());
        assert_eq!(serial.stats(), llc.stats());
    }

    /// Worker-thread execution is bit-identical to the serial reference at
    /// every slice count.
    #[test]
    fn parallel_matches_serial_reference() {
        for slices in [1u32, 2, 4, 8] {
            let cfg = tiny_cfg(slices);
            let (wall_p, stats_p, insts_p) =
                run(&mut Llc::with_mode(cfg, streams(300), true));
            let (wall_s, stats_s, insts_s) =
                run(&mut Llc::serial_reference(cfg, streams(300)));
            assert_eq!(wall_p, wall_s, "N={slices}: wall diverged");
            assert_eq!(stats_p, stats_s, "N={slices}: stats diverged");
            assert_eq!(insts_p, insts_s, "N={slices}: interval shape diverged");
        }
    }

    /// Every slice count conserves total instructions and accesses — the
    /// slice-hash demux loses nothing.
    #[test]
    fn slicing_conserves_work() {
        let (_, base, _) = run(&mut Llc::new(tiny_cfg(1), streams(250)));
        for slices in [2u32, 4, 8] {
            let (_, stats, _) = run(&mut Llc::new(tiny_cfg(slices), streams(250)));
            for t in 0..2 {
                assert_eq!(
                    stats.threads[t].instructions, base.threads[t].instructions,
                    "N={slices} thread {t}"
                );
                assert_eq!(
                    stats.threads[t].l1_hits + stats.threads[t].l1_misses,
                    base.threads[t].l1_hits + base.threads[t].l1_misses,
                    "N={slices} thread {t}"
                );
            }
        }
    }

    /// The monolithic topology maps everything to slice 0; sliced
    /// topologies stay in range and agree per line.
    #[test]
    fn slice_hash_is_line_granular_and_in_range() {
        let mono = SliceTopology::of(&tiny_cfg(1));
        let quad = SliceTopology::of(&tiny_cfg(4));
        for addr in [0u64, 63, 64, 4095, 0xDEAD_BEEF, u64::MAX / 3] {
            assert_eq!(mono.slice_of(addr), 0);
            let s = quad.slice_of(addr);
            assert!(s < 4);
            // All bytes of one line share a slice.
            assert_eq!(quad.slice_of(addr), quad.slice_of(addr | 63));
        }
    }

    /// The Fibonacci hash spreads sequential and strided line patterns
    /// near-uniformly: no slice takes more than twice its fair share.
    #[test]
    fn slice_hash_spreads_regular_patterns() {
        let topo = SliceTopology::of(&tiny_cfg(8));
        for stride in [1u64, 2, 8, 64, 4096] {
            let mut counts = [0u64; 8];
            for i in 0..4096u64 {
                counts[topo.slice_of(i * stride * 64)] += 1;
            }
            let fair = 4096 / 8;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    c > fair / 2 && c < fair * 2,
                    "stride {stride}: slice {s} got {c} of 4096 (fair {fair})"
                );
            }
        }
    }

    /// The per-slice geometry divides sets, not ways, and UMON profiles
    /// merge across slices.
    #[test]
    fn sliced_umon_merges() {
        let cfg = tiny_cfg(4);
        let mut llc = Llc::new(cfg, streams(200));
        llc.enable_umon(cfg.l2.num_sets()); // clamped to the slice set count
        while llc.run_interval().is_some() {}
        let umon = llc.merged_umon().expect("umon enabled");
        let observed: u64 = (0..2)
            .map(|t| {
                umon.way_histogram(t).iter().sum::<u64>() + umon.compulsory_capacity_misses(t)
            })
            .sum();
        assert!(observed > 0, "merged profile saw no sampled accesses");
    }
}
