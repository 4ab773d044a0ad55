//! Sliced-LLC simulation must be deterministic and serial-equivalent —
//! for every workload in the suite.
//!
//! The sliced machine (`icp::sim::slice::Llc`) makes the same two bitwise
//! promises as the set-sharded engine it generalises, with the demux key
//! changed from `set_index % k` to the address-hashed slice:
//!
//! 1. **One slice is the legacy serial simulator.** At N = 1 the slice
//!    geometry is the whole L2 and the demux preserves the entire event
//!    order, so every interval report, counter and the wall clock equal
//!    the monolithic serial path bit for bit.
//! 2. **Worker threads change nothing.** At every N, slice-parallel
//!    execution is bit-identical to the serial-reference engine advancing
//!    the same N slices on one thread in slice order.
//!
//! This suite pins both across every suite benchmark at N ∈ {1, 2, 4, 8},
//! pins a machine built from the trace cache's once-per-workload slice
//! form (`Llc::from_slices` over `TraceCache::get_or_demux`) to one that
//! demuxes inline streams itself, and sanity-checks the slice hash: no
//! slice starves under the suite's Zipf-skewed address streams.

use icp::experiments::TraceCache;
use icp::sim::config::LlcConfig;
use icp::sim::l2::equal_split;
use icp::sim::slice::{Llc, SliceTopology};
use icp::sim::stream::AccessStream;
use icp::sim::{GlobalStats, IntervalReport, Simulator, SystemConfig, ThreadEvent};
use icp::workloads::{suite, BenchmarkSpec, WorkloadScale};

const SEED: u64 = 0x5EED_0009;
const SLICE_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Comparable projection of an interval report (CPI compared by bits —
/// merged deltas must reproduce the exact division).
type Fingerprint = (usize, bool, u64, Vec<(u64, u32, u64)>);

fn fingerprint(r: &IntervalReport) -> Fingerprint {
    let threads = r
        .threads
        .iter()
        .map(|t| (t.counters.active_cycles, t.ways, t.cpi.to_bits()))
        .collect();
    (r.index, r.finished, r.wall_cycles, threads)
}

fn sliced_config(slices: u32) -> SystemConfig {
    let mut cfg = SystemConfig::scaled_down();
    cfg.llc = LlcConfig::sliced(slices);
    cfg
}

/// Runs a sliced machine (equal static partition) to completion, returning
/// everything an experiment driver could observe.
fn run_sliced(mut sim: Llc) -> (u64, u64, GlobalStats, Vec<Fingerprint>) {
    let mut reports = Vec::new();
    while let Some(r) = sim.run_interval() {
        reports.push(fingerprint(&r));
        if r.finished {
            break;
        }
    }
    (sim.wall_cycles(), sim.events_processed(), sim.stats().clone(), reports)
}

fn inline_streams(spec: &BenchmarkSpec, cfg: &SystemConfig) -> Vec<Box<dyn AccessStream>> {
    spec.build_streams(cfg, WorkloadScale::Test, SEED)
}

/// One slice is the legacy serial machine: reports, stats and wall clock
/// all bit-identical to the monolithic `Simulator`, for every suite
/// workload.
#[test]
fn one_slice_identical_to_serial_across_suite() {
    let mono = SystemConfig::scaled_down();
    let cfg = sliced_config(1);
    for spec in suite::all() {
        let mut serial = Simulator::new(mono, inline_streams(&spec, &mono));
        serial.set_partition(&equal_split(mono.l2.ways, mono.cores));
        let mut serial_reports = Vec::new();
        while let Some(r) = serial.run_interval() {
            serial_reports.push(fingerprint(&r));
            if r.finished {
                break;
            }
        }

        let mut one = Llc::new(cfg, inline_streams(&spec, &cfg));
        one.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
        let (wall, events, stats, reports) = run_sliced(one);

        assert_eq!(wall, serial.wall_cycles(), "{}: wall diverged", spec.name);
        assert_eq!(events, serial.events_processed(), "{}: events diverged", spec.name);
        assert_eq!(&stats, serial.stats(), "{}: stats diverged", spec.name);
        assert_eq!(reports, serial_reports, "{}: reports diverged", spec.name);
    }
}

/// Slice-parallel execution is bit-identical to the serial reference of
/// the same decomposition at N ∈ {1, 2, 4, 8}, for every suite workload.
#[test]
fn parallel_identical_to_serial_reference_across_suite() {
    for spec in suite::all() {
        for n in SLICE_COUNTS {
            let cfg = sliced_config(n);
            // Forced-parallel mode: `Llc::new` would degrade to the serial
            // engine on a single-core host, voiding the comparison.
            let mut parallel = Llc::with_mode(cfg, inline_streams(&spec, &cfg), true);
            parallel.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
            assert!(parallel.is_parallel());
            let a = run_sliced(parallel);

            let mut reference = Llc::serial_reference(cfg, inline_streams(&spec, &cfg));
            reference.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
            assert!(!reference.is_parallel());
            let b = run_sliced(reference);

            assert_eq!(a, b, "{} N={n}: parallel != serial reference", spec.name);
        }
    }
}

/// A machine built from the trace cache's slice form equals `Llc::new`
/// over inline streams — interval reports, stats, events and wall clock —
/// in forced-parallel and serial mode, at N ∈ {2, 4, 8}, for every suite
/// workload. The cache demuxes each workload once and every machine
/// shares the sub-traces, so this pins that sharing changes nothing.
#[test]
fn cached_slice_form_identical_to_inline_demux_across_suite() {
    for spec in suite::all() {
        for n in [2u32, 4, 8] {
            let cfg = sliced_config(n);
            let cache = TraceCache::new();
            let mut inline = Llc::new(cfg, inline_streams(&spec, &cfg));
            inline.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
            let want = run_sliced(inline);
            for parallel in [true, false] {
                let slices = cache.get_or_demux(&spec, &cfg, WorkloadScale::Test, SEED);
                let mut cached = Llc::from_slices_with_mode(cfg, slices, parallel);
                cached.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
                assert_eq!(cached.is_parallel(), parallel);
                let got = run_sliced(cached);
                assert_eq!(
                    got, want,
                    "{} N={n} parallel={parallel}: cached slice form != inline demux",
                    spec.name
                );
            }
            assert_eq!((cache.generations(), cache.demuxes()), (1, 1), "{} N={n}", spec.name);
        }
    }
}

/// Slicing conserves the workload: total instructions and demand accesses
/// per thread are independent of the slice count, for every suite workload.
#[test]
fn slice_count_conserves_work_across_suite() {
    for spec in suite::all() {
        let base_cfg = sliced_config(1);
        let (_, _, base, _) = run_sliced(Llc::new(base_cfg, inline_streams(&spec, &base_cfg)));
        for n in [2u32, 4, 8] {
            let cfg = sliced_config(n);
            let (_, _, stats, _) = run_sliced(Llc::new(cfg, inline_streams(&spec, &cfg)));
            for t in 0..cfg.cores {
                assert_eq!(
                    stats.threads[t].instructions, base.threads[t].instructions,
                    "{} N={n} thread {t}: instructions not conserved",
                    spec.name
                );
                assert_eq!(
                    stats.threads[t].l1_hits + stats.threads[t].l1_misses,
                    base.threads[t].l1_hits + base.threads[t].l1_misses,
                    "{} N={n} thread {t}: accesses not conserved",
                    spec.name
                );
            }
        }
    }
}

/// The slice hash spreads Zipf-skewed address streams: counting the slice
/// of every generated access across the suite, no slice receives less than
/// a quarter of its fair share (a starved slice would serialise the
/// machine and silently void the parallel speedup).
#[test]
fn no_slice_starves_under_zipf_streams() {
    for n in [2u32, 4, 8] {
        let cfg = sliced_config(n);
        let topology = SliceTopology::of(&cfg);
        assert_eq!(topology.num_slices(), n as usize);
        let mut counts = vec![0u64; n as usize];
        for spec in suite::all() {
            for mut stream in inline_streams(&spec, &cfg) {
                // Bounded drain: enough events to expose skew, cheap
                // enough to run for all 9 benchmarks × 3 slice counts.
                for _ in 0..20_000 {
                    match stream.next_event() {
                        ThreadEvent::Access { addr, .. } => counts[topology.slice_of(addr)] += 1,
                        ThreadEvent::Barrier => {}
                        ThreadEvent::Finished => break,
                    }
                }
            }
        }
        let total: u64 = counts.iter().sum();
        let fair = total / n as u64;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c * 4 >= fair,
                "slice {s}/{n} starves: {c} of {total} accesses (fair share {fair}): {counts:?}"
            );
        }
    }
}
