//! Figure 16 — the effect of prefetch destination: L2, L1, or
//! stratified by category.

use std::sync::Arc;

use dol_cpu::{DestinationPolicy, System, SystemConfig};
use dol_metrics::{geomean, Category, TextTable};

use crate::bands::Expectation;
use crate::experiments::Report;
use crate::prefetchers::COMPARISON_SET;
use crate::runner::{AppRun, BaselineRun};
use crate::RunPlan;

/// Reproduces Figure 16: average speedup when all prefetches go to L2,
/// all to L1, and when the destination depends on the access category
/// (LHF → L1, the rest → L2). For monolithic prefetchers stratification
/// uses the offline oracle; TPC stratifies naturally by component (its
/// as-requested behaviour). The paper: L1 beats L2 on average, and
/// stratified placement is best.
pub fn run(plan: &RunPlan) -> Report {
    // Speedups: [policy][config] -> per-app vector.
    let policies = ["to L2", "to L1", "stratified"];
    let mut results: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); COMPARISON_SET.len()]; policies.len()];

    let specs = plan.cap_suite(dol_workloads::spec21());
    let per_app: Vec<Vec<Vec<f64>>> = crate::sweep::map(plan.jobs, &specs, |spec| {
        let base = BaselineRun::capture(spec, plan);
        let lhf_lines = Arc::new(crate::phase::timed(crate::phase::Phase::Metrics, || {
            base.classifier.lines_in(Category::Lhf)
        }));
        policies
            .iter()
            .map(|policy_name| {
                COMPARISON_SET
                    .iter()
                    .map(|cfg| {
                        let policy = match (*policy_name, *cfg) {
                            ("to L2", _) => DestinationPolicy::ForceL2,
                            ("to L1", _) => DestinationPolicy::ForceL1,
                            // TPC's own component-based stratification.
                            ("stratified", "TPC") => DestinationPolicy::AsRequested,
                            ("stratified", _) => {
                                DestinationPolicy::StratifiedByLine(Arc::clone(&lhf_lines))
                            }
                            _ => unreachable!(),
                        };
                        let mut sys_cfg = SystemConfig::isca2018(1);
                        sys_cfg.dest_policy = policy;
                        let sys = System::new(sys_cfg);
                        AppRun::run(&base, cfg, &sys).speedup(&base)
                    })
                    .collect()
            })
            .collect()
    });
    for app in per_app {
        for (pi, row) in app.into_iter().enumerate() {
            for (ci, v) in row.into_iter().enumerate() {
                results[pi][ci].push(v);
            }
        }
    }

    let mut headers = vec!["destination".to_string()];
    headers.extend(COMPARISON_SET.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(headers);
    let mut geo = vec![vec![0.0; COMPARISON_SET.len()]; policies.len()];
    for (pi, policy_name) in policies.iter().enumerate() {
        let vals: Vec<f64> = (0..COMPARISON_SET.len())
            .map(|ci| geomean(&results[pi][ci]))
            .collect();
        geo[pi] = vals.clone();
        t.row_f64(policy_name, &vals);
    }

    // The paper's claim is per-prefetcher ("for most prefetchers, on
    // average, [L1] is better than prefetching only into L2") — count
    // wins per prefetcher rather than averaging across designs.
    let n = COMPARISON_SET.len();
    let l1_wins = (0..n).filter(|&ci| geo[1][ci] >= geo[0][ci] * 0.99).count();
    let strat_beats_l1 = (0..n)
        .filter(|&ci| geo[2][ci] >= geo[1][ci] - 0.005)
        .count();
    let avg = |pi: usize| geomean(&geo[pi]);
    let (l2, l1, strat) = (avg(0), avg(1), avg(2));
    let expectations = vec![
        Expectation::new(
            "prefetching to L1 at least matches L2 for most prefetchers",
            format!("{l1_wins}/{n} prefetchers (averages: L1 {l1:.3}, L2 {l2:.3})"),
            l1_wins * 2 >= n,
        ),
        Expectation::new(
            "stratified placement is never worse than all-L1 (it only demotes \
             low-accuracy categories to L2)",
            format!(
                "{strat_beats_l1}/{n} prefetchers (averages: stratified {strat:.3}, L1 {l1:.3})"
            ),
            strat_beats_l1 * 4 >= n * 3,
        ),
    ];
    Report {
        id: "fig16",
        title: "Prefetch destination: L2 vs L1 vs stratified (paper Figure 16)".into(),
        table: t.render(),
        expectations,
    }
}
