//! Micro-benchmarks of the core metric machinery: rfd updates, cosine
//! similarity over sparse vectors, MA-score maintenance and stable-point
//! detection. These are the inner loops every strategy and every experiment in
//! the paper rests on (Table V's per-operation costs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use delicious_sim::generator::{generate, GeneratorConfig};
use tagging_bench::setup::{reference_stability_params, smoke_corpus};
use tagging_core::rfd::{rfd_of_prefix, FrequencyTracker};
use tagging_core::similarity::cosine;
use tagging_core::stability::{MaTracker, StabilityAnalyzer, StabilityParams};

/// Incremental frequency tracking and rfd construction over a real sequence.
fn rfd_updates(c: &mut Criterion) {
    let corpus = smoke_corpus();
    let resource = corpus
        .resource_ids()
        .max_by_key(|id| corpus.full_sequence(*id).len())
        .unwrap();
    let posts = corpus.full_sequence(resource);

    let mut group = c.benchmark_group("core_rfd");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("incremental_tracker_full_sequence", |b| {
        b.iter(|| {
            let mut tracker = FrequencyTracker::new();
            for post in posts {
                tracker.push(post);
            }
            tracker.rfd()
        })
    });
    group.bench_function("rfd_of_prefix_half_sequence", |b| {
        b.iter(|| rfd_of_prefix(posts, posts.len() / 2))
    });
    group.finish();
}

/// Cosine similarity between rfds of increasing support size.
fn cosine_similarity(c: &mut Criterion) {
    let corpus = smoke_corpus();
    let mut ids: Vec<_> = corpus.resource_ids().collect();
    ids.sort_by_key(|id| corpus.full_sequence(*id).len());
    let small = {
        let posts = corpus.full_sequence(ids[0]);
        rfd_of_prefix(posts, posts.len())
    };
    let large = {
        let posts = corpus.full_sequence(*ids.last().unwrap());
        rfd_of_prefix(posts, posts.len())
    };

    let mut group = c.benchmark_group("core_cosine");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("small_vs_small", |b| b.iter(|| cosine(&small, &small)));
    group.bench_function("small_vs_large", |b| b.iter(|| cosine(&small, &large)));
    group.bench_function("large_vs_large", |b| b.iter(|| cosine(&large, &large)));
    group.finish();
}

/// MA-score maintenance: incremental tracker vs full offline re-analysis, for
/// several window sizes. This is the Appendix C optimisation the MU strategy
/// depends on.
fn ma_score_maintenance(c: &mut Criterion) {
    let corpus = smoke_corpus();
    let resource = corpus
        .resource_ids()
        .max_by_key(|id| corpus.full_sequence(*id).len())
        .unwrap();
    let posts = corpus.full_sequence(resource);

    let mut group = c.benchmark_group("core_ma_score");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &omega in &[5usize, 20] {
        group.bench_with_input(
            BenchmarkId::new("incremental", omega),
            &omega,
            |b, &omega| {
                b.iter(|| {
                    let mut tracker = MaTracker::new(omega);
                    let mut last = None;
                    for post in posts {
                        last = tracker.push(post);
                    }
                    last
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("offline_analyzer", omega),
            &omega,
            |b, &omega| {
                let analyzer = StabilityAnalyzer::new(StabilityParams::new(omega, 0.9999));
                b.iter(|| analyzer.analyze(posts).ma_scores.last().copied())
            },
        );
    }
    group.finish();
}

/// Stable-point detection over one 2,000-resource paper-sample corpus — the
/// dataset-preparation step of §V-A at the size of a giant service session,
/// which registration and recovery both run.
fn stable_point_detection(c: &mut Criterion) {
    let corpus = generate(&GeneratorConfig::paper_sample().with_resources(2_000));
    let analyzer = StabilityAnalyzer::new(reference_stability_params());
    let mut group = c.benchmark_group("core_stability");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("dataset_stable_point_scan", |b| {
        b.iter(|| {
            corpus
                .resource_ids()
                .filter(|id| analyzer.stable_point(corpus.full_sequence(*id)).is_some())
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    rfd_updates,
    cosine_similarity,
    ma_score_maintenance,
    stable_point_detection
);
criterion_main!(benches);
