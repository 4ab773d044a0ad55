//! Headline comparison figures: Figures 19, 20, 21 (4-core improvements of
//! the dynamic scheme over private/shared/throughput baselines), Figure 22
//! (8-core sensitivity) and the Figure 11 progress illustration.

use icp_numeric::stats;
use icp_workloads::suite;

use crate::figures::context::SuiteData;
use crate::runner::{ExperimentConfig, Scheme};
use crate::table::{pct, Table};

/// Figure 19: performance improvement of the dynamic scheme over the
/// statically-equal (private) cache. Paper: up to 23%, average ≈ 11%.
pub fn fig19_vs_private(data: &SuiteData) -> Table {
    improvement_table(
        "Figure 19: dynamic partitioning vs statically equal (private) cache",
        data,
        &data.equal,
    )
}

/// Figure 20: improvement over the shared unpartitioned cache. Paper: up to
/// 15%, average ≈ 9%, with three small-working-set benchmarks near zero.
pub fn fig20_vs_shared(data: &SuiteData) -> Table {
    improvement_table(
        "Figure 20: dynamic partitioning vs shared unpartitioned cache",
        data,
        &data.shared,
    )
}

/// Figure 21: improvement over the throughput-oriented (UCP-style) scheme.
/// Paper: positive everywhere, up to 20%.
pub fn fig21_vs_throughput(data: &SuiteData) -> Table {
    improvement_table(
        "Figure 21: dynamic partitioning vs throughput-oriented scheme",
        data,
        &data.ucp,
    )
}

/// Bar-chart rendering of an improvement comparison (the visual shape of
/// the paper's Figures 19-21).
pub fn improvement_chart(
    title: &str,
    data: &SuiteData,
    baseline: &[icp_core::ExecutionOutcome],
) -> crate::chart::BarChart {
    let mut c = crate::chart::BarChart::new(title).unit("%");
    for ((b, dynp), base) in data.benches.iter().zip(&data.dynamic).zip(baseline) {
        c.bar(b.name, dynp.improvement_percent_over(base));
    }
    c
}

fn improvement_table(
    title: &str,
    data: &SuiteData,
    baseline: &[icp_core::ExecutionOutcome],
) -> Table {
    let mut table = Table::new(title, &["bench", "improvement"]);
    let mut all = Vec::new();
    for ((b, dynp), base) in data.benches.iter().zip(&data.dynamic).zip(baseline) {
        let imp = dynp.improvement_percent_over(base);
        all.push(imp);
        table.row(vec![b.name.to_string(), pct(imp)]);
    }
    table.row(vec!["average".into(), pct(stats::mean(&all))]);
    table.row(vec![
        "max".into(),
        pct(all.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
    ]);
    table
}

/// Figure 22: the 8-core sensitivity study — improvements of the dynamic
/// scheme over private and shared caches with 8 threads on 8 cores sharing
/// the same L2. The paper reports gains similar to the 4-core case.
///
/// The 8-core chip is modelled with a 2-slice address-hashed LLC (the
/// geometry real CMPs use at this core count), through the same
/// [`ExperimentConfig::with_topology`] entry point as the `eight_plus_core`
/// scorecard tier — one code path for every 8+ core configuration. All
/// three schemes run on the same machine, so the relative improvements
/// remain comparable to the paper's monolithic-L2 figure. Each benchmark
/// is generated and demuxed to slices once, in a trace cache, and its
/// three schemes replay that one slice form.
pub fn fig22_eight_core(cfg: &ExperimentConfig) -> Table {
    let cfg8 = cfg.clone().with_topology(8, 2);
    let mut table = Table::new(
        "Figure 22: 8-core CMP (2-slice LLC) — dynamic vs private and vs shared",
        &["bench", "vs private", "vs shared"],
    );
    let benches = suite::all();
    let mut vs_priv = Vec::new();
    let mut vs_shared = Vec::new();
    for b in &benches {
        // Unless the caller shares a trace cache, each benchmark gets its
        // own, so its slice form is freed once its schemes have run.
        let outs = cfg8.with_default_trace_cache().run_schemes(
            b,
            &[Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased],
        );
        let (shared, equal, dynp) = (&outs[0], &outs[1], &outs[2]);
        let p = dynp.improvement_percent_over(equal);
        let s = dynp.improvement_percent_over(shared);
        vs_priv.push(p);
        vs_shared.push(s);
        table.row(vec![b.name.to_string(), pct(p), pct(s)]);
    }
    table.row(vec![
        "average".into(),
        pct(stats::mean(&vs_priv)),
        pct(stats::mean(&vs_shared)),
    ]);
    table
}

/// Figure 11: execution progress of the four threads at a fixed wall-clock
/// point under (a) shared, (b) equal and (c) CPI-based partitions —
/// the illustration of how CPI-based repartitioning pulls the laggard
/// forward. Progress = instructions retired by that cycle, normalised to
/// the fastest thread under the shared cache.
pub fn fig11_progress_illustration(cfg: &ExperimentConfig) -> Table {
    let bench = suite::mgrid();
    let outs = cfg.run_schemes(
        &bench,
        &[Scheme::Shared, Scheme::StaticEqual, Scheme::CpiProportional],
    );
    // Sample at ~60% of the shared run's completion time.
    let at = outs[0].wall_cycles * 6 / 10;
    let progress = |out: &icp_core::ExecutionOutcome| -> Vec<u64> {
        let threads = out.thread_totals.len();
        let mut done = vec![0u64; threads];
        for r in &out.records {
            if r.wall_cycles > at {
                break;
            }
            for (d, i) in done.iter_mut().zip(&r.instructions) {
                *d += i;
            }
        }
        done
    };
    let threads = outs[0].thread_totals.len();
    let mut table = Table::new(
        "Figure 11: thread progress (instructions retired) at a fixed time point",
        &["thread", "shared", "equal", "cpi-based"],
    );
    let series: Vec<Vec<u64>> = outs.iter().map(progress).collect();
    let max = series[0].iter().cloned().max().unwrap_or(1).max(1) as f64;
    #[allow(clippy::needless_range_loop)] // t indexes three parallel series
    for t in 0..threads {
        table.row(vec![
            format!("t{t}"),
            format!("{:.2}", series[0][t] as f64 / max),
            format!("{:.2}", series[1][t] as f64 / max),
            format!("{:.2}", series[2][t] as f64 / max),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::context::SuiteData;

    /// One SuiteData collection shared by the assertions below (collection
    /// is the expensive part).
    fn data() -> (ExperimentConfig, &'static SuiteData) {
        (ExperimentConfig::test(), crate::figures::context::test_data())
    }

    #[test]
    fn headline_orderings_hold() {
        let (_, data) = data();
        // Dynamic beats shared and equal on average, and never loses badly.
        let mean_imp = |base: &[icp_core::ExecutionOutcome]| {
            let imps: Vec<f64> = data
                .dynamic
                .iter()
                .zip(base)
                .map(|(d, b)| d.improvement_percent_over(b))
                .collect();
            (icp_numeric::stats::mean(&imps), imps)
        };
        let (avg_sh, imps_sh) = mean_imp(&data.shared);
        let (avg_eq, imps_eq) = mean_imp(&data.equal);
        let (avg_ucp, imps_ucp) = mean_imp(&data.ucp);
        // Test-scale runs are 10x shorter than figure-scale, so the
        // learning phase weighs more and bands are looser here; the strict
        // paper-band assertions live in `figure_scale_bands` below.
        assert!(avg_sh > 0.0, "vs shared avg {avg_sh} ({imps_sh:?})");
        assert!(avg_eq > 4.0, "vs equal avg {avg_eq} ({imps_eq:?})");
        assert!(avg_ucp > 2.0, "vs ucp avg {avg_ucp} ({imps_ucp:?})");
        // The paper's relation: gains over private exceed gains over shared.
        assert!(avg_eq > avg_sh);
        // No benchmark collapses against any baseline.
        for (name, imps) in [("shared", &imps_sh), ("equal", &imps_eq), ("ucp", &imps_ucp)] {
            for (b, imp) in data.names().iter().zip(imps) {
                assert!(*imp > -15.0, "{b} vs {name}: {imp}");
            }
        }
    }

    #[test]
    fn small_ws_benchmarks_show_small_gain_vs_shared() {
        let (_, data) = data();
        let names = data.names();
        for small in icp_workloads::suite::small_working_set_names() {
            let i = names.iter().position(|n| *n == small).unwrap();
            let imp = data.dynamic[i].improvement_percent_over(&data.shared[i]);
            assert!(
                imp.abs() < 13.0,
                "{small} should show only a small effect vs shared, got {imp}"
            );
        }
    }

    /// The paper-band check at figure scale: slow (~15 s), run with
    /// `cargo test -p icp-experiments --release -- --ignored`.
    #[test]
    #[ignore = "figure-scale run (~15s in release); the repro binary and benches exercise it too"]
    fn figure_scale_bands() {
        let cfg = ExperimentConfig::quick();
        let data = SuiteData::collect(&cfg);
        let imp = |d: &icp_core::ExecutionOutcome, b: &icp_core::ExecutionOutcome| {
            d.improvement_percent_over(b)
        };
        let sh: Vec<f64> = data.dynamic.iter().zip(&data.shared).map(|(d, b)| imp(d, b)).collect();
        let eq: Vec<f64> = data.dynamic.iter().zip(&data.equal).map(|(d, b)| imp(d, b)).collect();
        let ucp: Vec<f64> = data.dynamic.iter().zip(&data.ucp).map(|(d, b)| imp(d, b)).collect();
        let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Paper: up to 15% vs shared, 23% vs private, 20% vs throughput.
        assert!(max(&sh) > 5.0 && max(&sh) < 20.0, "{sh:?}");
        assert!(max(&eq) > 15.0 && max(&eq) < 30.0, "{eq:?}");
        assert!(max(&ucp) > 12.0 && max(&ucp) < 26.0, "{ucp:?}");
        // Everything non-negative within noise.
        for v in sh.iter().chain(&eq).chain(&ucp) {
            assert!(*v > -3.0, "sh {sh:?} eq {eq:?} ucp {ucp:?}");
        }
        // And the full scorecard passes at figure scale.
        let checks = crate::scorecard::scorecard_from(&data);
        for c in &checks {
            assert!(c.pass(), "scorecard claim out of band: {c:?}");
        }
    }

    #[test]
    fn figure_tables_render() {
        let (cfg, data) = data();
        assert_eq!(fig19_vs_private(data).len(), 11); // 9 benches + avg + max
        assert_eq!(fig20_vs_shared(data).len(), 11);
        assert_eq!(fig21_vs_throughput(data).len(), 11);
        let t = fig11_progress_illustration(&cfg);
        assert_eq!(t.len(), cfg.system.cores);
    }
}
