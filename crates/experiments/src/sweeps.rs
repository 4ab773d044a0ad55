//! Sensitivity sweeps: how the headline comparison changes with system
//! parameters.
//!
//! The paper's §VII-C varies the core count (Figure 22); a reproduction
//! should also check that its conclusions are not an artifact of one cache
//! size or interval length. Each sweep runs a probe subset of the suite
//! under shared / static-equal / model-based and reports the dynamic
//! scheme's improvements at every point.
//!
//! Each axis is planned as a whole and runs in two scheduled waves
//! ([`crate::sched::weighted_map`], longest job first by
//! [`crate::sched::job_cost`]):
//!
//! 1. **Profiles** ([`SweepMode::Fast`] only): one profiled run per
//!    (point, probe) cell, each feeding the analytical predictor.
//! 2. **Exact cells**: every cell the predictor cannot settle (and every
//!    cell in [`SweepMode::Exact`]) runs as three simulations — shared and
//!    static-equal under the point's baseline configuration, model-based
//!    under the point itself.
//!
//! Rows are then assembled in point order. The set of simulated cells is
//! the one a cell-by-cell walk would simulate, so tables and the result
//! cache's contents are the same at every core budget. A wave may request
//! one key several times (the interval axis's hoisted baselines); the
//! single-flight result cache runs it once and serves the rest as hits.

use icp_cmp_sim::CacheConfig;
use icp_numeric::stats;
use icp_workloads::{suite, BenchmarkSpec};

use crate::miss_model::BenchPredictor;
use crate::runner::{ExperimentConfig, Scheme};
use crate::sched;
use crate::table::{pct, Table};

/// Default fast-mode fallback margin, in improvement percentage points: a
/// predicted improvement closer to zero than this is re-resolved by exact
/// simulation, so reported signs are always simulation-confirmed. Chosen
/// above the predictor's observed mean error (see `EXPERIMENTS.md`).
pub const DEFAULT_FAST_MARGIN: f64 = 3.0;

/// How a sweep evaluates each axis point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SweepMode {
    /// Simulate every scheme at every point — the reference mode; output
    /// tables are bit-identical to simulating without any fast path.
    Exact,
    /// One profiling simulation per (probe, geometry, seed) feeds the
    /// analytical predictor ([`crate::miss_model`]); full simulation runs
    /// only where a predicted improvement lies within `margin` percentage
    /// points of zero (or the predictor cannot be built).
    Fast {
        /// Fallback-to-simulation margin in percentage points.
        margin: f64,
    },
}

impl SweepMode {
    /// Fast mode with the default margin.
    pub fn fast() -> SweepMode {
        SweepMode::Fast { margin: DEFAULT_FAST_MARGIN }
    }
}

/// Probe benchmarks for sweeps: one strongly contended, one moderately,
/// one small-working-set (they should react differently).
fn probes() -> Vec<icp_workloads::BenchmarkSpec> {
    vec![suite::swim(), suite::cg(), suite::ft()]
}

/// One axis point: the configuration the dynamic scheme runs under, and
/// the one its static baselines and fast-path profile run under. The two
/// are identical except on the interval axis, where static-scheme walls
/// are interval-invariant (see `static_scheme_walls_are_interval_invariant`)
/// and the baselines are hoisted to the base interval.
struct AxisPoint {
    point: ExperimentConfig,
    baseline: ExperimentConfig,
}

impl AxisPoint {
    /// A point whose baselines run under the point itself.
    fn at(cfg: ExperimentConfig) -> Self {
        AxisPoint { point: cfg.clone(), baseline: cfg }
    }
}

/// The static scheme the fast path profiles at: the flat equal split on
/// monolithic configs, the *cluster-wise* equal split on sliced ones
/// (one cluster per slice). Anchoring the predictor at the allocation the
/// hierarchical schemes actually start from keeps sliced axis points
/// inside the prediction-error gate — with uneven way counts the flat and
/// cluster-wise splits differ, and the ratio anchoring would otherwise
/// carry that offset into every sliced prediction.
fn profile_anchor(point: &ExperimentConfig) -> Scheme {
    let slices = point.system.llc.slices as usize;
    if slices > 1 {
        Scheme::StaticCustom(crate::miss_model::clustered_equal_split(
            point.system.l2.ways,
            point.system.cores,
            slices,
        ))
    } else {
        Scheme::StaticEqual
    }
}

/// Wave-1 job: profile `bench` under the point's baseline at
/// [`profile_anchor`] and predict its improvements over (shared, equal).
/// `None` sends the cell to exact simulation: the profile yields no
/// predictor, or a predicted improvement lies within `margin` of zero
/// (its sign must be simulation-confirmed).
fn predict(at: &AxisPoint, bench: &BenchmarkSpec, margin: f64) -> Option<(f64, f64)> {
    let profile = at.baseline.run_profiled(bench, &profile_anchor(&at.baseline));
    let (s, e) = BenchPredictor::from_outcome(&profile, &at.point.system)?.improvements();
    if s.abs() < margin || e.abs() < margin {
        None
    } else {
        Some((s, e))
    }
}

/// Mean improvements of the dynamic scheme over (shared, equal) across
/// `probes`, for every point of one axis, in point order. Runs the axis
/// as the two waves described in the module docs.
fn measure_axis(
    points: &[AxisPoint],
    probes: &[BenchmarkSpec],
    mode: SweepMode,
) -> Vec<(f64, f64)> {
    // Every (point, probe) cell, point-major.
    let cells: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|p| (0..probes.len()).map(move |b| (p, b)))
        .collect();
    let predicted: Vec<Option<(f64, f64)>> = match mode {
        SweepMode::Exact => vec![None; cells.len()],
        SweepMode::Fast { margin } => sched::weighted_map(
            cells.clone(),
            |&(p, b)| sched::job_cost(&probes[b], &points[p].baseline),
            |&(p, b)| predict(&points[p], &probes[b], margin),
        ),
    };
    // Each unsettled cell as (shared, static-equal) under the baseline
    // configuration, then model-based under the point.
    let exact_jobs: Vec<(&ExperimentConfig, &BenchmarkSpec, Scheme)> = cells
        .iter()
        .zip(&predicted)
        .filter(|(_, pred)| pred.is_none())
        .flat_map(|(&(p, b), _)| {
            let (at, bench) = (&points[p], &probes[b]);
            [
                (&at.baseline, bench, Scheme::Shared),
                (&at.baseline, bench, Scheme::StaticEqual),
                (&at.point, bench, Scheme::ModelBased),
            ]
        })
        .collect();
    let outs = sched::weighted_map(
        exact_jobs,
        |&(cfg, bench, _)| sched::job_cost(bench, cfg),
        |(cfg, bench, scheme)| cfg.run(bench, scheme),
    );
    let mut triples = outs.chunks_exact(3);
    let improvements: Vec<(f64, f64)> = predicted
        .into_iter()
        .map(|pred| {
            pred.unwrap_or_else(|| {
                let o = triples.next().expect("one exact triple per unpredicted cell");
                (o[2].improvement_percent_over(&o[0]), o[2].improvement_percent_over(&o[1]))
            })
        })
        .collect();
    improvements
        .chunks(probes.len())
        .map(|row| {
            let vs_shared: Vec<f64> = row.iter().map(|&(s, _)| s).collect();
            let vs_equal: Vec<f64> = row.iter().map(|&(_, e)| e).collect();
            (stats::mean(&vs_shared), stats::mean(&vs_equal))
        })
        .collect()
}

/// Measures one axis over the probe set and renders one row per point.
fn axis_table(
    title: &str,
    column: &str,
    axis: Vec<(String, AxisPoint)>,
    mode: SweepMode,
) -> Table {
    let (labels, points): (Vec<String>, Vec<AxisPoint>) = axis.into_iter().unzip();
    let mut t = Table::new(title, &[column, "vs shared", "vs equal"]);
    for (label, (s, e)) in labels.into_iter().zip(measure_axis(&points, &probes(), mode)) {
        t.row(vec![label, pct(s), pct(e)]);
    }
    t
}

/// Sweeps the L2 capacity (way count held at 64; sets scale).
///
/// Expected shape: with a tiny cache everything thrashes and partitioning
/// cannot help much; with a huge cache nothing contends; the sweet spot in
/// between is where the paper's effect lives.
pub fn sweep_cache_size(cfg: &ExperimentConfig) -> Table {
    sweep_cache_size_with(cfg, SweepMode::Exact)
}

/// [`sweep_cache_size`] with an explicit evaluation mode.
pub fn sweep_cache_size_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    let cfg = &cfg.with_default_trace_cache().with_default_result_cache();
    let axis = [64u64, 128, 256, 512, 1024]
        .into_iter()
        .map(|kb| {
            let mut c = cfg.clone();
            c.system.l2 = CacheConfig::new(kb * 1024, 64, 64);
            (format!("{kb} KB"), AxisPoint::at(c))
        })
        .collect();
    axis_table("Sweep: L2 capacity (dynamic scheme improvements, probe set)", "l2 size", axis, mode)
}

/// Sweeps the core/thread count at fixed L2 capacity (the Figure 22 axis,
/// extended).
pub fn sweep_thread_count(cfg: &ExperimentConfig) -> Table {
    sweep_thread_count_with(cfg, SweepMode::Exact)
}

/// [`sweep_thread_count`] with an explicit evaluation mode.
pub fn sweep_thread_count_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    let cfg = &cfg.with_default_trace_cache().with_default_result_cache();
    let axis = [2usize, 4, 8, 16]
        .into_iter()
        .map(|cores| (cores.to_string(), AxisPoint::at(cfg.clone().with_cores(cores))))
        .collect();
    axis_table(
        "Sweep: cores/threads sharing one L2 (dynamic scheme improvements)",
        "cores",
        axis,
        mode,
    )
}

/// Sweeps the execution interval length (the paper reports "little
/// variation", §VII).
pub fn sweep_interval(cfg: &ExperimentConfig) -> Table {
    sweep_interval_with(cfg, SweepMode::Exact)
}

/// [`sweep_interval`] with an explicit evaluation mode.
///
/// The static baselines are *hoisted*: interval boundaries only snapshot
/// counters, so shared / static-equal walls are bit-identical at every
/// interval length (pinned by `static_scheme_walls_are_interval_invariant`)
/// and run once at the base interval — the result cache serves the other
/// axis points' requests as hits.
pub fn sweep_interval_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    let cfg = &cfg.with_default_trace_cache().with_default_result_cache();
    let axis = [8u64, 4, 2, 1]
        .into_iter()
        .map(|divisor| {
            let mut c = cfg.clone();
            c.system.interval_instructions =
                (cfg.system.interval_instructions / divisor).max(1_000);
            let label = c.system.interval_instructions.to_string();
            (label, AxisPoint { point: c, baseline: cfg.clone() })
        })
        .collect();
    axis_table(
        "Sweep: execution interval length (dynamic scheme improvements)",
        "interval (instructions)",
        axis,
        mode,
    )
}

/// Sweeps the DRAM latency: the slower memory is, the more a miss costs
/// and the bigger the partitioning stakes.
pub fn sweep_memory_latency(cfg: &ExperimentConfig) -> Table {
    sweep_memory_latency_with(cfg, SweepMode::Exact)
}

/// [`sweep_memory_latency`] with an explicit evaluation mode.
pub fn sweep_memory_latency_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    let cfg = &cfg.with_default_trace_cache().with_default_result_cache();
    let axis = [75u64, 150, 300]
        .into_iter()
        .map(|mem| {
            let mut c = cfg.clone();
            c.system.latency.memory = mem;
            (mem.to_string(), AxisPoint::at(c))
        })
        .collect();
    axis_table("Sweep: DRAM latency (dynamic scheme improvements)", "latency (cycles)", axis, mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size_sweep_has_expected_rows() {
        let t = sweep_cache_size(&ExperimentConfig::test());
        assert_eq!(t.len(), 5);
        // Every cell parses as a percentage.
        for line in t.to_csv().lines().skip(1) {
            for cell in line.split(',').skip(1) {
                let v: f64 = cell.trim_end_matches('%').parse().unwrap();
                assert!(v.abs() < 100.0, "{line}");
            }
        }
    }

    #[test]
    fn interval_sweep_is_broadly_flat() {
        // The paper: "little variation across the results when the
        // execution interval was either increased or decreased". Allow a
        // generous band at test scale.
        let t = sweep_interval(&ExperimentConfig::test());
        let vals: Vec<f64> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().trim_end_matches('%').parse().unwrap())
            .collect();
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min < 15.0, "interval sensitivity too large: {vals:?}");
        assert!(min > 0.0, "dynamic must beat equal at every interval: {vals:?}");
    }

    #[test]
    fn static_scheme_walls_are_interval_invariant() {
        // The physics behind baseline hoisting: interval boundaries only
        // snapshot counters, and the static schemes never change partition
        // state at a boundary, so their wall cycles cannot depend on the
        // interval length.
        let base = ExperimentConfig::test();
        let bench = suite::swim();
        for scheme in [Scheme::Shared, Scheme::StaticEqual] {
            let mut walls = Vec::new();
            for divisor in [8u64, 2, 1] {
                let mut c = base.clone();
                c.system.interval_instructions =
                    (base.system.interval_instructions / divisor).max(1_000);
                walls.push(c.run(&bench, &scheme).wall_cycles);
            }
            assert!(
                walls.windows(2).all(|w| w[0] == w[1]),
                "{scheme:?} wall cycles vary with interval: {walls:?}"
            );
        }
    }

    #[test]
    fn thread_sweep_runs_at_2_and_8() {
        let mut cfg = ExperimentConfig::test();
        // Keep the test fast: only verify the mechanics at two points.
        cfg.system.interval_instructions *= 2;
        let points: Vec<AxisPoint> =
            [2usize, 8].into_iter().map(|cores| AxisPoint::at(cfg.clone().with_cores(cores))).collect();
        let rows = measure_axis(&points, &probes(), SweepMode::Exact);
        assert_eq!(rows.len(), 2, "one row per point");
        for ((s, e), cores) in rows.into_iter().zip([2, 8]) {
            assert!(s.is_finite() && e.is_finite(), "{cores} cores");
        }
    }

    #[test]
    fn interval_axis_hoists_baselines_through_the_result_cache() {
        // Satellite 1 pin: the static baselines run once per probe at the
        // base interval and every other axis point reuses them.
        let cache = crate::result_cache::ResultCache::shared();
        let cfg =
            ExperimentConfig::test().with_result_cache(std::sync::Arc::clone(&cache));
        let _ = sweep_interval_with(&cfg, SweepMode::Exact);
        assert_eq!(
            cache.simulations(),
            18,
            "3 probes x (2 hoisted baselines + 4 dynamic points)"
        );
        assert_eq!(cache.hits(), 18, "3 probes x 3 repeated points x 2 baselines");
    }

    fn signed_cells(t: &Table) -> Vec<f64> {
        t.to_csv()
            .lines()
            .skip(1)
            .flat_map(|l| {
                l.split(',')
                    .skip(1)
                    .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn fast_mode_anchors_sliced_configs_at_the_cluster_split() {
        // Monolithic configs keep the bit-compatible StaticEqual anchor;
        // sliced configs profile at the cluster-wise equal split, and the
        // profile still yields a usable predictor (no silent fallback to
        // exact simulation on every sliced axis point).
        let mono = ExperimentConfig::test();
        assert_eq!(profile_anchor(&mono), Scheme::StaticEqual);
        let sliced = ExperimentConfig::test().with_topology(6, 2);
        let anchor = profile_anchor(&sliced);
        assert_eq!(
            anchor,
            Scheme::StaticCustom(vec![11, 11, 10, 11, 11, 10]),
            "cluster-wise split of 64 ways over 6 threads in 2 clusters"
        );
        let profile = sliced.run_profiled(&suite::swim(), &anchor);
        assert!(BenchPredictor::from_outcome(&profile, &sliced.system).is_some());
        // Through the planner at margin 0: wave 1 settles the cell, so the
        // only simulation is the profile itself.
        let cache = crate::result_cache::ResultCache::shared();
        let sliced = sliced.with_result_cache(std::sync::Arc::clone(&cache));
        let rows = measure_axis(&[AxisPoint::at(sliced)], &[suite::swim()], SweepMode::Fast { margin: 0.0 });
        let (s, e) = rows[0];
        assert!(s.is_finite() && e.is_finite());
        assert_eq!(cache.simulations(), 1, "no fallback to exact simulation");
    }

    #[test]
    fn fast_mode_agrees_with_exact_on_every_improvement_sign() {
        let cfg = ExperimentConfig::test();
        let exact = signed_cells(&sweep_interval(&cfg));
        let fast = signed_cells(&sweep_interval_with(&cfg, SweepMode::fast()));
        assert_eq!(exact.len(), fast.len());
        for (i, (e, f)) in exact.iter().zip(&fast).enumerate() {
            assert!(
                e.signum() == f.signum() || e.abs() < 1e-9,
                "cell {i}: exact {e:.2} vs fast {f:.2} disagree in sign"
            );
        }
    }

    #[test]
    fn exact_mode_tables_are_identical_to_the_unhoisted_reference() {
        // Bit-identity acceptance: hoisted baselines + result cache must
        // not change a single byte of the interval sweep table relative to
        // simulating every scheme at every point directly.
        let cfg = ExperimentConfig::test();
        let hoisted = sweep_interval(&cfg).render();
        let mut reference = Table::new(
            "Sweep: execution interval length (dynamic scheme improvements)",
            &["interval (instructions)", "vs shared", "vs equal"],
        );
        for divisor in [8u64, 4, 2, 1] {
            let mut c = cfg.clone();
            c.system.interval_instructions =
                (cfg.system.interval_instructions / divisor).max(1_000);
            let outs = c.run_schemes(
                &suite::swim(),
                &[Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased],
            );
            let mut vs_shared = vec![outs[2].improvement_percent_over(&outs[0])];
            let mut vs_equal = vec![outs[2].improvement_percent_over(&outs[1])];
            for b in [suite::cg(), suite::ft()] {
                let outs = c.run_schemes(
                    &b,
                    &[Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased],
                );
                vs_shared.push(outs[2].improvement_percent_over(&outs[0]));
                vs_equal.push(outs[2].improvement_percent_over(&outs[1]));
            }
            reference.row(vec![
                c.system.interval_instructions.to_string(),
                pct(stats::mean(&vs_shared)),
                pct(stats::mean(&vs_equal)),
            ]);
        }
        assert_eq!(hoisted, reference.render());
    }
}
