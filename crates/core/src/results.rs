//! Result rendering: plain-text tables and CSV series.
//!
//! The bench binaries regenerate every figure as a numeric series printed to
//! stdout (and optionally written to CSV); this module holds the shared
//! formatting so the binaries, the examples and EXPERIMENTS.md all show the
//! same columns.

use crate::behavior::BehaviorType;
use crate::experiment::LabelledReport;
use crate::report::SimulationReport;
use crate::world::ChurnStats;
use std::fmt::Write as _;

/// Renders a sequence of labelled reports as a CSV document with one row per
/// configuration. Columns cover the quantities Figures 3–7 plot.
pub fn to_csv(results: &[LabelledReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "label,parameter,shared_articles,shared_bandwidth,\
         rational_shared_articles,rational_shared_bandwidth,\
         rational_constructive_fraction,constructive_acceptance_rate,\
         destructive_acceptance_rate,mean_article_quality,completed_downloads\n",
    );
    for r in results {
        let report = &r.report;
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{}",
            r.label,
            r.parameter,
            report.shared_articles,
            report.shared_bandwidth,
            report.rational_shared_articles(),
            report.rational_shared_bandwidth(),
            report.rational_constructive_fraction(),
            report.constructive_acceptance_rate(),
            report.destructive_acceptance_rate(),
            report.mean_article_quality,
            report.completed_downloads,
        );
    }
    out
}

/// Renders a fixed-width text table for terminal output.
pub fn to_table(title: &str, results: &[LabelledReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "configuration", "articles", "bandwidth", "rat.articles", "rat.bandw.", "rat.constr."
    );
    for r in results {
        let report = &r.report;
        let _ = writeln!(
            out,
            "{:<24} {:>10.4} {:>10.4} {:>12.4} {:>12.4} {:>12.4}",
            r.label,
            report.shared_articles,
            report.shared_bandwidth,
            report.rational_shared_articles(),
            report.rational_shared_bandwidth(),
            report.rational_constructive_fraction(),
        );
    }
    out
}

/// Renders the Figure 3 comparison (with vs. without incentive) including
/// the relative improvements the paper reports (≈ +8 % articles, ≈ +11 %
/// bandwidth).
pub fn figure3_summary(with: &SimulationReport, without: &SimulationReport) -> String {
    let article_gain = relative_gain(with.shared_articles, without.shared_articles);
    let bandwidth_gain = relative_gain(with.shared_bandwidth, without.shared_bandwidth);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 3 — sharing with vs. without the incentive scheme"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16} {:>16} {:>12}",
        "metric", "with incentive", "without", "gain"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.4} {:>16.4} {:>11.1}%",
        "shared articles",
        with.shared_articles,
        without.shared_articles,
        article_gain * 100.0
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.4} {:>16.4} {:>11.1}%",
        "shared bandwidth",
        with.shared_bandwidth,
        without.shared_bandwidth,
        bandwidth_gain * 100.0
    );
    let _ = writeln!(
        out,
        "paper reference: approximately +8% articles, +11% bandwidth"
    );
    out
}

/// Relative gain of `a` over `b`, guarding against a zero baseline.
pub fn relative_gain(a: f64, b: f64) -> f64 {
    if b.abs() < 1e-12 {
        if a.abs() < 1e-12 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b) / b
    }
}

/// Renders the churn counters of a run — the Section-VI reputation-
/// persistence numbers: how much reputation re-entrant identities kept
/// (versus the newcomer minimum `r_min`) and how much whitewashers shed.
pub fn churn_summary(stats: &ChurnStats, r_min: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "churn events: {} re-entries, {} departures, {} whitewashes",
        stats.joins, stats.leaves, stats.whitewashes
    );
    let _ = writeln!(
        out,
        "mean sharing reputation at re-entry: {:.4} (newcomer minimum: {r_min:.4})",
        stats.mean_reentry_reputation()
    );
    let _ = writeln!(
        out,
        "mean reputation shed per whitewash:  {:.4}",
        stats.mean_whitewash_shed()
    );
    out
}

/// Renders the per-behaviour breakdown of a single report.
pub fn behavior_table(report: &SimulationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "type", "peers", "articles", "bandwidth", "downloads", "constr.", "destr."
    );
    for behavior in BehaviorType::ALL {
        let b = report.breakdown(behavior);
        if b.peers == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10} {:>10}",
            behavior.label(),
            b.peers,
            b.shared_articles,
            b.shared_bandwidth,
            b.downloaded,
            b.constructive_edits,
            b.destructive_edits,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::LabelledReport;
    use crate::report::{BehaviorBreakdown, SimulationReport};
    use std::collections::BTreeMap;

    fn fake_report(shared_articles: f64, shared_bandwidth: f64) -> SimulationReport {
        let mut by_behavior = BTreeMap::new();
        by_behavior.insert(
            "rational".to_string(),
            BehaviorBreakdown {
                peers: 4,
                shared_articles,
                shared_bandwidth,
                constructive_edits: 3,
                destructive_edits: 1,
                ..Default::default()
            },
        );
        SimulationReport {
            shared_articles,
            shared_bandwidth,
            by_behavior,
            edit_outcomes: Default::default(),
            mean_article_quality: 1.0,
            completed_downloads: 5,
            evaluation_steps: 10,
            seed: 0,
        }
    }

    fn labelled(label: &str, parameter: f64) -> LabelledReport {
        LabelledReport {
            label: label.to_string(),
            parameter,
            report: fake_report(0.3, 0.6),
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_result() {
        let csv = to_csv(&[labelled("a", 1.0), labelled("b", 2.0)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("label,parameter"));
        assert!(lines[1].starts_with("a,1,"));
        assert!(lines[2].starts_with("b,2,"));
        // Each data row has the same number of columns as the header.
        let header_cols = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), header_cols);
    }

    #[test]
    fn table_contains_every_label() {
        let table = to_table(
            "demo",
            &[labelled("config-x", 1.0), labelled("config-y", 2.0)],
        );
        assert!(table.contains("# demo"));
        assert!(table.contains("config-x"));
        assert!(table.contains("config-y"));
    }

    #[test]
    fn figure3_summary_reports_gains() {
        let with = fake_report(0.27, 0.62);
        let without = fake_report(0.25, 0.56);
        let summary = figure3_summary(&with, &without);
        assert!(summary.contains("shared articles"));
        assert!(summary.contains("shared bandwidth"));
        assert!(summary.contains("8% articles"));
        // 0.27 / 0.25 − 1 = 8 %.
        assert!(summary.contains("8.0%"));
    }

    #[test]
    fn relative_gain_edge_cases() {
        assert!((relative_gain(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_gain(0.0, 0.0), 0.0);
        assert_eq!(relative_gain(1.0, 0.0), f64::INFINITY);
        assert!(relative_gain(0.9, 1.0) < 0.0);
    }

    #[test]
    fn behavior_table_skips_absent_types() {
        let table = behavior_table(&fake_report(0.1, 0.2));
        assert!(table.contains("rational"));
        assert!(!table.contains("irrational"));
        assert!(!table.contains("altruistic"));
    }

    #[test]
    fn churn_summary_renders_counters_and_means() {
        let stats = ChurnStats {
            joins: 4,
            leaves: 6,
            whitewashes: 2,
            reentry_reputation_sum: 1.2,
            whitewash_reputation_shed_sum: 0.5,
        };
        let summary = churn_summary(&stats, 0.05);
        assert!(summary.contains("4 re-entries, 6 departures, 2 whitewashes"));
        assert!(summary.contains("0.3000"), "mean re-entry reputation");
        assert!(summary.contains("0.2500"), "mean whitewash shed");
        assert!(summary.contains("0.0500"), "newcomer minimum");
    }
}
