//! Extension experiments beyond the paper's evaluation (see DESIGN.md).

use crate::render::{rate, table};
use crate::runner::{evaluate_schemes, sweep_families, Suite};
use csp_core::{engine, IndexSpec, PredictionFunction, Scheme, UpdateMode};
use csp_sim::{forwarding, SystemConfig};
use csp_workloads::Benchmark;

/// Extension A: the `overlap-last` update function the paper names in
/// Section 3.5 ("for space reasons, we do not simulate the overlap-last
/// predictor in this paper") — compared against plain `last` and `inter`
/// at the same index.
pub fn overlap_last(suite: &Suite) -> String {
    let specs = [
        "last(pid+pc8)1[direct]",
        "overlap-last(pid+pc8)[direct]",
        "inter(pid+pc8)2[direct]",
        "last(pid+pc8)1[forwarded]",
        "overlap-last(pid+pc8)[forwarded]",
        "inter(pid+pc8)2[forwarded]",
    ];
    let schemes: Vec<Scheme> = specs
        .iter()
        .map(|s| s.parse().expect("valid scheme"))
        .collect();
    let stats = evaluate_schemes(suite, &schemes);
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            vec![
                s.scheme.to_string(),
                s.size_log2().to_string(),
                rate(s.mean.sensitivity),
                rate(s.mean.pvp),
            ]
        })
        .collect();
    table(
        "Extension A: overlap-last vs last vs inter (Kaxiras & Goodman's guarded last)",
        &["scheme", "size", "sensitivity", "PVP"],
        &rows,
    )
}

/// Extension C: the bandwidth-latency trade-off of the paper's summary,
/// quantified with the Koufaty-style forwarding estimator: a high-PVP
/// scheme, a high-sensitivity scheme, and the baseline, priced in saved
/// miss latency and injected torus traffic.
pub fn forwarding(suite: &Suite) -> String {
    let schemes: Vec<(&str, Scheme)> = vec![
        (
            "high-PVP",
            "inter(pid+add6)4[direct]".parse().expect("valid"),
        ),
        (
            "high-sens",
            "union(dir+add14)4[direct]".parse().expect("valid"),
        ),
        ("baseline", Scheme::baseline_last()),
    ];
    let config = SystemConfig::paper_16_node();
    let mut rows = Vec::new();
    for bench in [Benchmark::Em3d, Benchmark::Unstruct, Benchmark::Mp3d] {
        let trace = &suite.trace(bench).trace;
        for (label, scheme) in &schemes {
            let preds = engine::predictions_for(trace, scheme);
            let report = forwarding::estimate(trace, &preds, &config);
            let links = forwarding::link_analysis(trace, &preds, &config);
            rows.push(vec![
                bench.name().to_string(),
                (*label).to_string(),
                report.useful_forwards.to_string(),
                report.wasted_forwards.to_string(),
                format!("{:.1}%", report.latency_saved_fraction() * 100.0),
                format!("{:+}", report.net_traffic_hops()),
                format!("{:.2}x", links.hotspot_factor()),
            ]);
        }
    }
    table(
        "Extension C: forwarding benefit estimate (latency saved vs traffic added)",
        &[
            "benchmark",
            "scheme",
            "useful fwd",
            "wasted fwd",
            "latency saved",
            "net hop-msgs",
            "hotspot",
        ],
        &rows,
    )
}

/// Extension: history-depth ablation 1..8 — does the paper's depth-4 cap
/// leave accuracy on the table? (Section 5.4.3 studies only 2 vs 4.)
/// PAs rides along at the same index, which pins every PAs history depth
/// in the committed reproduction.
pub fn depth_ablation(suite: &Suite) -> String {
    let ix = IndexSpec::new(true, 0, false, 6); // the Table 8 winner's index
    let max_depth = csp_core::MAX_DEPTH;
    let cells = sweep_families(suite, &[ix], &[UpdateMode::Direct], max_depth);
    let cell = &cells[0];
    let pas: Vec<Scheme> = (1..=max_depth)
        .map(|d| Scheme::new(PredictionFunction::Pas, ix, d, UpdateMode::Direct))
        .collect();
    let pas = evaluate_schemes(suite, &pas);
    let mut rows = Vec::new();
    for (d, p) in (1..=max_depth).zip(&pas) {
        let u = cell.mean(PredictionFunction::Union, d);
        let i = cell.mean(PredictionFunction::Inter, d);
        rows.push(vec![
            d.to_string(),
            rate(u.sensitivity),
            rate(u.pvp),
            rate(i.sensitivity),
            rate(i.pvp),
            rate(p.mean.sensitivity),
            rate(p.mean.pvp),
        ]);
    }
    table(
        "Extension: history depth 1..8 at pid+add6, direct update",
        &[
            "depth",
            "union sens",
            "union pvp",
            "inter sens",
            "inter pvp",
            "pas sens",
            "pas pvp",
        ],
        &rows,
    )
}

/// Extension: addr field-size ablation, backing Section 5.4.3's prose
/// ("for intersection prediction, sensitivity increases and PVP decreases
/// with larger addr fields; the opposite holds for union").
pub fn field_size_ablation(suite: &Suite) -> String {
    let widths: Vec<u8> = vec![0, 2, 4, 6, 8, 10, 12, 14, 16];
    let indexes: Vec<IndexSpec> = widths
        .iter()
        .map(|&w| IndexSpec::new(true, 0, false, w))
        .collect();
    let cells = sweep_families(suite, &indexes, &[UpdateMode::Direct], 4);
    let mut rows = Vec::new();
    for (w, cell) in widths.iter().zip(&cells) {
        let u = cell.mean(PredictionFunction::Union, 4);
        let i = cell.mean(PredictionFunction::Inter, 4);
        rows.push(vec![
            format!("pid+add{w}"),
            rate(u.sensitivity),
            rate(u.pvp),
            rate(i.sensitivity),
            rate(i.pvp),
        ]);
    }
    table(
        "Extension: addr field width sweep (depth 4, direct update)",
        &[
            "index",
            "union sens",
            "union pvp",
            "inter sens",
            "inter pvp",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> Suite {
        Suite::generate(0.02, 5)
    }

    #[test]
    fn overlap_last_table_renders() {
        let out = overlap_last(&suite());
        assert!(out.contains("overlap-last(pid+pc8)[direct]"));
    }

    #[test]
    fn forwarding_covers_three_schemes() {
        let out = forwarding(&suite());
        assert!(out.contains("high-PVP"));
        assert!(out.contains("high-sens"));
        assert!(out.contains("baseline"));
    }

    #[test]
    fn depth_ablation_lists_all_depths() {
        let out = depth_ablation(&suite());
        for d in 1..=csp_core::MAX_DEPTH {
            assert!(
                out.lines().any(|l| l.starts_with(&d.to_string())),
                "missing depth {d}"
            );
        }
    }

    #[test]
    fn field_sweep_covers_all_widths() {
        let out = field_size_ablation(&suite());
        assert!(out.contains("pid+add16"));
        assert!(out.contains("pid+add0") || out.contains("pid "));
    }

    #[test]
    fn sticky_table_compares_radii_and_baselines() {
        let out = sticky_spatial(&suite());
        assert!(out.contains("sticky(add16, r=0)"));
        assert!(out.contains("sticky(add16, r=2)"));
        assert!(out.contains("last(add16)[direct]") || out.contains("last(add16)"));
    }

    #[test]
    fn confidence_ladder_has_all_thresholds() {
        let out = confidence(&suite());
        for t in 0..=csp_core::confidence::MAX_CONFIDENCE {
            assert!(
                out.contains(&format!("threshold {t}")),
                "missing threshold {t}"
            );
        }
    }

    #[test]
    fn cosmos_covers_all_benchmarks() {
        let out = cosmos(&suite());
        for b in Benchmark::ALL {
            assert!(out.contains(b.name()), "missing {b}");
        }
    }

    #[test]
    fn degree_histogram_percentages_present() {
        let out = degree_histogram(&suite());
        assert!(out.contains("mean degree"));
        assert!(out.lines().count() > 9);
    }
}

/// Extension: sticky-spatial prediction (paper footnote 2 / reference \[4\])
/// vs last/union at matched address indexing.
pub fn sticky_spatial(suite: &Suite) -> String {
    use csp_core::sticky::StickySpatial;
    let mut rows = Vec::new();
    for (label, radius) in [
        ("sticky(add16, r=0)", 0u64),
        ("sticky(add16, r=1)", 1),
        ("sticky(add16, r=2)", 2),
    ] {
        let per: Vec<csp_metrics::Screening> = suite
            .traces()
            .iter()
            .map(|b| StickySpatial::new(16, radius).run(&b.trace).screening())
            .collect();
        let m = csp_metrics::Screening::mean(&per).expect("non-empty suite");
        rows.push(vec![
            label.to_string(),
            StickySpatial::new(16, radius)
                .size_log2_bits(16)
                .to_string(),
            rate(m.sensitivity),
            rate(m.pvp),
        ]);
    }
    for spec in [
        "last(add16)1[direct]",
        "union(add16)2[direct]",
        "union(add16)4[direct]",
    ] {
        let st = crate::runner::evaluate_scheme(suite, &spec.parse().expect("valid scheme"));
        rows.push(vec![
            spec.to_string(),
            st.size_log2().to_string(),
            rate(st.mean.sensitivity),
            rate(st.mean.pvp),
        ]);
    }
    table(
        "Extension: sticky-spatial prediction (Bilir et al.) vs address-based history",
        &["scheme", "size", "sensitivity", "PVP"],
        &rows,
    )
}

/// Extension: confidence gating (Grunwald et al., the paper's reference
/// [11]) — one base scheme, four confidence thresholds, the
/// sensitivity-for-PVP knob.
pub fn confidence(suite: &Suite) -> String {
    use csp_core::confidence::run_with_confidence;
    let scheme: Scheme = "union(pid+pc8)2[direct]".parse().expect("valid scheme");
    let mut rows = Vec::new();
    for threshold in 0..=csp_core::confidence::MAX_CONFIDENCE {
        let per: Vec<csp_metrics::Screening> = suite
            .traces()
            .iter()
            .map(|b| run_with_confidence(&b.trace, &scheme, threshold).screening())
            .collect();
        let m = csp_metrics::Screening::mean(&per).expect("non-empty suite");
        rows.push(vec![
            format!("threshold {threshold}"),
            rate(m.sensitivity),
            rate(m.pvp),
        ]);
    }
    table(
        "Extension: confidence-gated union(pid+pc8)2 (Grunwald-style estimator)",
        &["gate", "sensitivity", "PVP"],
        &rows,
    )
}

/// Extension: Cosmos-style next-writer prediction (Mukherjee & Hill, the
/// paper's reference \[24\]; footnote 5) per benchmark — the complementary
/// question reader-bitmap predictors cannot answer on migratory sharing.
pub fn cosmos(suite: &Suite) -> String {
    use csp_core::cosmos::Cosmos;
    let mut rows = Vec::new();
    for b in suite.traces() {
        for depth in [1usize, 2] {
            let report = Cosmos::new(16, depth).run(&b.trace);
            rows.push(vec![
                b.benchmark.name().to_string(),
                depth.to_string(),
                format!("{:.1}%", report.accuracy() * 100.0),
                format!("{:.1}%", report.coverage() * 100.0),
            ]);
        }
    }
    table(
        "Extension: Cosmos next-writer prediction (accuracy of guessing the next writer)",
        &["benchmark", "history", "accuracy", "coverage"],
        &rows,
    )
}

/// Extension: Weber & Gupta invalidation-degree histogram (the paper's
/// reference \[28\]) — how many readers each write interval really has.
pub fn degree_histogram(suite: &Suite) -> String {
    let mut rows = Vec::new();
    for b in suite.traces() {
        let hist = b.trace.sharing_degree_histogram();
        let total: u64 = hist.iter().sum();
        let pct = |k: usize| format!("{:.1}", hist[k] as f64 / total as f64 * 100.0);
        let four_plus: u64 = hist[4..].iter().sum();
        rows.push(vec![
            b.benchmark.name().to_string(),
            pct(0),
            pct(1),
            pct(2),
            pct(3),
            format!("{:.1}", four_plus as f64 / total as f64 * 100.0),
            format!("{:.2}", b.trace.prevalence() * 16.0),
        ]);
    }
    table(
        "Extension: invalidation degree distribution (% of events with k true readers)",
        &["benchmark", "0", "1", "2", "3", "4+", "mean degree"],
        &rows,
    )
}

/// Extension: per-benchmark breakdown of canonical schemes with Wilson
/// 95% confidence intervals — the per-benchmark visibility the paper's
/// aggregate figures hide, with the measurement-precision analysis its
/// Section 5.3 (after Gastwirth) calls for.
pub fn per_benchmark(suite: &Suite) -> String {
    use csp_metrics::compare::wilson_interval;
    let specs = [
        "last(pid+pc8)1[direct]",
        "inter(pid+add6)4[direct]",
        "union(dir+add14)4[direct]",
        "pas(pid+add4)2[direct]",
    ];
    let mut rows = Vec::new();
    for spec in specs {
        let st = crate::runner::evaluate_scheme(suite, &spec.parse().expect("valid scheme"));
        for (i, b) in Benchmark::ALL.iter().enumerate() {
            let m = st.per_benchmark[i];
            let s = m.screening();
            let (pvp_lo, pvp_hi) = wilson_interval(m.tp, m.predicted_positives());
            let (sens_lo, sens_hi) = wilson_interval(m.tp, m.actual_positives());
            rows.push(vec![
                spec.to_string(),
                b.name().to_string(),
                format!("{:.3} [{:.3},{:.3}]", s.pvp, pvp_lo, pvp_hi),
                format!("{:.3} [{:.3},{:.3}]", s.sensitivity, sens_lo, sens_hi),
            ]);
        }
        rows.push(vec![
            spec.to_string(),
            "(mean)".to_string(),
            rate(st.mean.pvp),
            rate(st.mean.sensitivity),
        ]);
    }
    table(
        "Extension: per-benchmark breakdown with Wilson 95% intervals",
        &[
            "scheme",
            "benchmark",
            "PVP [95% CI]",
            "sensitivity [95% CI]",
        ],
        &rows,
    )
}

/// Extension: machine-size scaling. The paper fixes N = 16; here a
/// parametric producer-consumer + migratory workload runs on 4-, 16- and
/// 64-node machines to show how the prevalence bound and predictor
/// accuracy move with scale (reader sets stay small in absolute terms, so
/// prevalence — and with it the attainable benefit per decision — falls
/// as 1/N while PVP of stable schemes holds).
pub fn node_scaling(_suite: &Suite) -> String {
    use csp_sim::{CacheConfig, MemAccess, MemorySystem, Protocol, SystemConfig};
    use csp_trace::NodeId;

    let mut rows = Vec::new();
    for (nodes, width) in [(4usize, 2usize), (16, 4), (64, 8)] {
        // A fixed-structure workload scaled to the machine: each node owns
        // 80 lines read by 2 fixed partners, plus 40 migratory lines.
        let mut accesses: Vec<MemAccess> = Vec::new();
        let pc_lines: u64 = 80 * nodes as u64;
        let mig_lines: u64 = 40 * nodes as u64;
        let partner = |owner: u64, k: u64| NodeId(((owner + k) % nodes as u64) as u8);
        // Init (first touch by owner).
        for l in 0..pc_lines + mig_lines {
            let owner = NodeId((l % nodes as u64) as u8);
            accesses.push(MemAccess::write(owner, 1, (256 + l) * 64));
        }
        let mut state = 0x9E37u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..12 {
            for l in 0..pc_lines {
                let owner = l % nodes as u64;
                let addr = (256 + l) * 64;
                accesses.push(MemAccess::write(NodeId(owner as u8), 2, addr));
                accesses.push(MemAccess::read(partner(owner, 1), 3, addr + 8));
                accesses.push(MemAccess::read(partner(owner, 2), 3, addr + 16));
            }
            for l in pc_lines..pc_lines + mig_lines {
                let addr = (256 + l) * 64;
                let visitor = NodeId((rand() % nodes as u64) as u8);
                accesses.push(MemAccess::read(visitor, 4, addr));
                accesses.push(MemAccess::write(visitor, 5, addr));
            }
        }
        let config = SystemConfig {
            nodes,
            l1: CacheConfig::new(16 * 1024, 1, 64),
            l2: CacheConfig::new(512 * 1024, 4, 64),
            latency: Default::default(),
            torus_width: width,
            replacement_hints: true,
            protocol: Protocol::Msi,
        };
        let mut sys = MemorySystem::new(config);
        sys.run(accesses);
        let (trace, _) = sys.finish();
        let scheme: Scheme = "inter(pid+add6)2[direct]".parse().expect("valid scheme");
        let s = engine::run_scheme(&trace, &scheme).screening();
        rows.push(vec![
            nodes.to_string(),
            trace.len().to_string(),
            format!("{:.2}%", trace.prevalence() * 100.0),
            format!("{:.2}", trace.prevalence() * nodes as f64),
            rate(s.pvp),
            rate(s.sensitivity),
        ]);
    }
    table(
        "Extension: machine-size scaling (fixed per-node sharing structure)",
        &[
            "nodes",
            "events",
            "prevalence",
            "mean degree",
            "inter2 pvp",
            "inter2 sens",
        ],
        &rows,
    )
}

#[cfg(test)]
mod scaling_tests {
    use super::*;

    #[test]
    fn node_scaling_reports_three_machine_sizes() {
        let suite = Suite::generate(0.02, 5);
        let out = node_scaling(&suite);
        for n in ["4 ", "16 ", "64 "] {
            assert!(
                out.lines().any(|l| l.starts_with(n)),
                "missing row for {n} nodes:\n{out}"
            );
        }
    }

    #[test]
    fn per_benchmark_has_confidence_intervals() {
        let suite = Suite::generate(0.02, 5);
        let out = per_benchmark(&suite);
        assert!(out.contains('['), "expected intervals in:\n{out}");
        assert!(out.contains("(mean)"));
    }
}
