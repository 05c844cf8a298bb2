//! Experiment drivers for the paper's Figures 1, 3, 5 and 6.
//!
//! Each function returns plain data (series of numbers) so the same code is
//! used by the `repro_*` binaries (which print the series), the Criterion
//! benches (which time the underlying algorithms) and the integration tests
//! (which assert the qualitative shape of each figure).

use delicious_sim::generator::{generate, GeneratorConfig, SyntheticCorpus};
use delicious_sim::stats::{CorpusStatistics, PostCountHistogram, StatisticsParams};
use tagging_core::model::ResourceId;
use tagging_core::quality::quality_curve;
use tagging_core::rfd::FrequencyTracker;
use tagging_core::stability::{StabilityAnalyzer, StabilityParams};
use tagging_sim::engine::RunConfig;
use tagging_sim::scenario::Scenario;
use tagging_sim::sweep::{budget_sweep, omega_sweep, resource_sweep, SweepAlgorithms, SweepPoint};
use tagging_strategies::StrategyKind;

use crate::setup::{reference_stability_params, Scale};

/// Data behind Figure 1(a): the relative frequencies of the most frequent tags
/// of one (popular) resource as its post count grows.
#[derive(Debug, Clone)]
pub struct TagFrequencySeries {
    /// The resource the series was computed on.
    pub resource: ResourceId,
    /// Names of the tracked tags (most frequent overall first).
    pub tag_names: Vec<String>,
    /// One row per sampled post count: `(k, relative frequency of each tag)`.
    pub rows: Vec<(usize, Vec<f64>)>,
}

/// Computes the Figure 1(a) series on the most-tagged resource of the corpus.
///
/// `num_tags` tags are tracked (the paper tracks five: google, maps, earth,
/// software, travel) and the series is sampled every `step` posts.
pub fn fig1a_tag_frequencies(
    corpus: &SyntheticCorpus,
    num_tags: usize,
    step: usize,
) -> TagFrequencySeries {
    let resource = corpus
        .resource_ids()
        .max_by_key(|id| corpus.full_sequence(*id).len())
        .expect("corpus is non-empty");
    let posts = corpus.full_sequence(resource);

    // Pick the overall most frequent tags of the full sequence.
    let full = FrequencyTracker::from_posts(posts.iter());
    let mut counts: Vec<(tagging_core::model::TagId, u64)> = full.counts().collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let tracked: Vec<_> = counts.into_iter().take(num_tags).map(|(t, _)| t).collect();
    let tag_names = tracked
        .iter()
        .map(|t| {
            corpus
                .corpus
                .tags
                .name(*t)
                .unwrap_or("<unknown>")
                .to_string()
        })
        .collect();

    let mut rows = Vec::new();
    let mut tracker = FrequencyTracker::new();
    for (idx, post) in posts.iter().enumerate() {
        tracker.push(post);
        let k = idx + 1;
        if k % step.max(1) == 0 || k == posts.len() {
            let rfd = tracker.rfd();
            rows.push((k, tracked.iter().map(|t| rfd.get(*t)).collect()));
        }
    }

    TagFrequencySeries {
        resource,
        tag_names,
        rows,
    }
}

/// Data behind Figure 1(b): the log-binned posts-per-resource histogram of a
/// "whole crawl" style corpus.
pub fn fig1b_posts_distribution(num_resources: usize, seed: u64) -> PostCountHistogram {
    let corpus = generate(&GeneratorConfig::full_web(num_resources, seed));
    PostCountHistogram::from_corpus(&corpus, 10)
}

/// Data behind Figure 3: adjacent similarity and MA score of one resource as a
/// function of its post count, with the paper's illustration parameters
/// (ω = 20 unless overridden).
#[derive(Debug, Clone)]
pub struct StabilitySeries {
    /// The resource the series was computed on.
    pub resource: ResourceId,
    /// `(k, adjacent similarity at post k, MA score at k if defined)`.
    pub rows: Vec<(usize, f64, Option<f64>)>,
    /// The stable point under the supplied parameters, if reached.
    pub stable_point: Option<usize>,
}

/// Computes the Figure 3 series on the most-tagged resource of the corpus.
pub fn fig3_stability_series(corpus: &SyntheticCorpus, params: StabilityParams) -> StabilitySeries {
    let resource = corpus
        .resource_ids()
        .max_by_key(|id| corpus.full_sequence(*id).len())
        .expect("corpus is non-empty");
    let posts = corpus.full_sequence(resource);
    let profile = StabilityAnalyzer::new(params).analyze(posts);
    let rows = (1..=posts.len())
        .map(|k| (k, profile.adjacent_similarity[k - 1], profile.ma_at(k)))
        .collect();
    StabilitySeries {
        resource,
        rows,
        stable_point: profile.stable_point,
    }
}

/// Data behind Figure 5: the tagging-quality curves of two resources — one that
/// stabilises quickly (few significant tags) and one that needs many more posts
/// (complex content) — illustrating why giving a post to a sparsely-tagged
/// resource buys a much larger quality improvement.
#[derive(Debug, Clone)]
pub struct QualityCurvePair {
    /// The quickly-stabilising resource and its quality at each post count.
    pub simple: (ResourceId, Vec<f64>),
    /// The slowly-stabilising resource and its quality at each post count.
    pub complex: (ResourceId, Vec<f64>),
}

/// Computes the Figure 5 curves by picking the least and most complex resources
/// (by latent-profile complexity) that both have reasonably long sequences.
pub fn fig5_quality_curves(corpus: &SyntheticCorpus) -> QualityCurvePair {
    let analyzer = StabilityAnalyzer::new(reference_stability_params());
    let eligible: Vec<ResourceId> = corpus
        .resource_ids()
        .filter(|id| corpus.full_sequence(*id).len() >= 60)
        .collect();
    assert!(
        eligible.len() >= 2,
        "need at least two resources with 60+ posts for Figure 5"
    );
    let simple = *eligible
        .iter()
        .min_by_key(|id| corpus.profiles[id.index()].complexity)
        .expect("non-empty");
    let complex = *eligible
        .iter()
        .max_by_key(|id| corpus.profiles[id.index()].complexity)
        .expect("non-empty");

    let curve_of = |id: ResourceId| {
        let posts = corpus.full_sequence(id);
        let profile = analyzer.analyze(posts);
        let reference = profile.stable_rfd.unwrap_or(profile.final_rfd);
        quality_curve(posts, &reference)
    };

    QualityCurvePair {
        simple: (simple, curve_of(simple)),
        complex: (complex, curve_of(complex)),
    }
}

/// Whether the Figure 6 experiments include the DP optimum at a given scale:
/// everywhere except paper scale, where it dominates the wall-clock time
/// (exactly as in the paper's Figure 6(g)). `repro_fig6` and `repro_bench`
/// must agree on this rule — `repro_bench` times the Figure 6 workload.
pub fn fig6_include_dp(scale: crate::Scale) -> bool {
    scale != crate::Scale::Paper
}

/// The canonical Figure 6 sweep configuration — every strategy, DP per
/// `include_dp`, `seed = 1` — shared by [`fig6_budget_sweep`] and
/// `repro_bench` so the benchmark always times exactly the Figure 6 workload.
pub fn fig6_sweep_setup(
    include_dp: bool,
    dp_table_cap: usize,
    omega: usize,
) -> (SweepAlgorithms, RunConfig) {
    (
        SweepAlgorithms {
            strategies: StrategyKind::ALL.to_vec(),
            include_dp,
            dp_table_cap,
        },
        RunConfig {
            budget: 0,
            omega,
            seed: 1,
        },
    )
}

/// Runs the Figure 6(a)–(d)/(g) budget sweep on a scenario.
///
/// DP is included only when `include_dp` is set (at paper scale it dominates
/// the wall-clock time, exactly as in the paper's Figure 6(g)).
pub fn fig6_budget_sweep(
    scenario: &Scenario,
    budgets: &[usize],
    include_dp: bool,
    dp_table_cap: usize,
    omega: usize,
) -> Vec<SweepPoint> {
    let (algorithms, config) = fig6_sweep_setup(include_dp, dp_table_cap, omega);
    budget_sweep(scenario, budgets, &algorithms, &config)
}

/// Runs the Figure 6(e)/(h) resource-count sweep.
pub fn fig6e_resource_sweep(
    scenario: &Scenario,
    resource_counts: &[usize],
    budget: usize,
    include_dp: bool,
    dp_table_cap: usize,
) -> Vec<SweepPoint> {
    let algorithms = SweepAlgorithms {
        strategies: StrategyKind::ALL.to_vec(),
        include_dp,
        dp_table_cap,
    };
    let config = RunConfig {
        budget,
        omega: 5,
        seed: 1,
    };
    resource_sweep(scenario, resource_counts, &algorithms, &config)
}

/// Runs the Figure 6(f) ω sweep (MU, FP-MU, FP).
pub fn fig6f_omega_sweep(scenario: &Scenario, omegas: &[usize], budget: usize) -> Vec<SweepPoint> {
    let config = RunConfig {
        budget,
        omega: 5,
        seed: 1,
    };
    omega_sweep(scenario, omegas, &config)
}

/// The introduction's headline statistics on a corpus (over-tagged share,
/// wasted posts, under-tagged share, salvage ratio).
pub fn intro_statistics(corpus: &SyntheticCorpus) -> CorpusStatistics {
    CorpusStatistics::compute(
        corpus,
        &StatisticsParams {
            stability: reference_stability_params(),
            under_tagged_threshold: 10,
        },
    )
}

/// Convenience: the strategy names included in a Figure 6 sweep, in the order
/// the metrics appear inside each [`SweepPoint`].
pub fn sweep_strategy_names(include_dp: bool) -> Vec<&'static str> {
    let mut names = Vec::new();
    if include_dp {
        names.push("DP");
    }
    names.extend(StrategyKind::ALL.iter().map(|k| k.name()));
    names
}

/// Returns the default scale used when a binary receives no `--scale` argument.
pub fn default_scale() -> Scale {
    Scale::Default
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{smoke_corpus, smoke_scenario};

    #[test]
    fn fig1a_series_tracks_requested_tags_and_converges() {
        let corpus = smoke_corpus();
        let series = fig1a_tag_frequencies(corpus, 5, 10);
        assert_eq!(series.tag_names.len(), 5);
        assert!(!series.rows.is_empty());
        // Frequencies are valid probabilities.
        for (_, freqs) in &series.rows {
            assert_eq!(freqs.len(), 5);
            for &f in freqs {
                assert!((0.0..=1.0).contains(&f));
            }
        }
        // The change between the last two sampled rows is smaller than between
        // the first two: the rfd converges (Figure 1(a)'s message).
        if series.rows.len() >= 4 {
            let delta = |a: &Vec<f64>, b: &Vec<f64>| -> f64 {
                a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
            };
            let early = delta(&series.rows[0].1, &series.rows[1].1);
            let late = delta(
                &series.rows[series.rows.len() - 2].1,
                &series.rows[series.rows.len() - 1].1,
            );
            assert!(late <= early + 1e-9, "early {early} late {late}");
        }
    }

    #[test]
    fn fig1b_histogram_is_heavy_tailed() {
        let hist = fig1b_posts_distribution(400, 3);
        assert_eq!(hist.total(), 400);
        assert!(hist.is_heavy_tailed());
    }

    #[test]
    fn fig3_series_reaches_stability() {
        let corpus = smoke_corpus();
        let series = fig3_stability_series(corpus, StabilityParams::new(20, 0.99));
        assert!(!series.rows.is_empty());
        // MA is undefined before ω posts.
        assert!(series.rows[0].2.is_none());
        // The most popular synthetic resource accumulates hundreds of posts, so
        // it must reach its stable point.
        assert!(series.stable_point.is_some());
    }

    #[test]
    fn fig5_complex_resource_needs_more_posts() {
        let corpus = smoke_corpus();
        let pair = fig5_quality_curves(corpus);
        let (simple_id, simple_curve) = &pair.simple;
        let (complex_id, complex_curve) = &pair.complex;
        assert_ne!(simple_id, complex_id);
        // Early in the sequence the simple resource reaches high quality sooner
        // than the complex one (compare the first index where quality > 0.95).
        let first_above =
            |curve: &[f64]| curve.iter().position(|&q| q > 0.95).unwrap_or(curve.len());
        assert!(first_above(simple_curve) <= first_above(complex_curve));
    }

    #[test]
    fn fig6_budget_sweep_shapes() {
        let scenario = smoke_scenario();
        let budgets = [0, 150, 300];
        let points = fig6_budget_sweep(scenario, &budgets, true, 300, 5);
        assert_eq!(points.len(), budgets.len());
        let names = sweep_strategy_names(true);
        for point in &points {
            for name in &names {
                assert!(point.metrics(name).is_some(), "{name} missing");
            }
        }
        // At the largest budget: DP ≥ FP ≥ FC in quality (the paper's ordering).
        let last = &points[points.len() - 1];
        let q = |name: &str| last.metrics(name).unwrap().mean_quality;
        assert!(q("DP") >= q("FP") - 1e-9);
        assert!(q("FP") > q("FC"));
        // FC wastes more posts than FP.
        let wasted = |name: &str| last.metrics(name).unwrap().wasted_posts;
        assert!(wasted("FC") >= wasted("FP"));
    }

    #[test]
    fn fig6f_omega_sweep_fp_is_flat() {
        let scenario = smoke_scenario();
        let points = fig6f_omega_sweep(scenario, &[2, 6, 10], 150);
        assert_eq!(points.len(), 3);
        let fp: Vec<f64> = points
            .iter()
            .map(|p| p.metrics("FP").unwrap().mean_quality)
            .collect();
        assert!((fp[0] - fp[2]).abs() < 1e-12);
    }

    #[test]
    fn intro_statistics_report_waste_and_under_tagging() {
        let corpus = smoke_corpus();
        let stats = intro_statistics(corpus);
        assert!(stats.wasted_fraction > 0.0);
        assert!(stats.under_tagged_fraction() > 0.0);
        assert!(stats.mean_stable_point > 0.0);
    }
}
