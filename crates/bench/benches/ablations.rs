//! Ablation benchmarks for three design choices:
//!
//! * similarity metric (cosine, as fixed by the paper, vs Jaccard / Hellinger /
//!   total-variation) — both the cost of the metric and the tagging quality the
//!   MU-style machinery reaches with it;
//! * priority-queue CHOOSE (the paper's Algorithm 3/4) vs a naive linear scan;
//! * quality-table construction for DP with narrow vs wide per-resource caps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tagging_bench::setup::{scenario_params, smoke_corpus};
use tagging_core::model::{Post, ResourceId};
use tagging_core::rfd::rfd_of_prefix;
use tagging_core::similarity::MetricKind;
use tagging_sim::scenario::Scenario;
use tagging_strategies::dp::QualityTable;
use tagging_strategies::framework::{
    run_allocation, AllocationStrategy, AllocationView, ReplaySource,
};

/// Cost of the different similarity metrics on realistic rfds.
fn similarity_metric_cost(c: &mut Criterion) {
    let corpus = smoke_corpus();
    let resource = corpus
        .resource_ids()
        .max_by_key(|id| corpus.full_sequence(*id).len())
        .unwrap();
    let posts = corpus.full_sequence(resource);
    let a = rfd_of_prefix(posts, posts.len() / 2);
    let b = rfd_of_prefix(posts, posts.len());

    let mut group = c.benchmark_group("ablation_similarity_metric");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in MetricKind::ALL {
        let metric = kind.build();
        group.bench_function(metric.name(), |bencher| {
            bencher.iter(|| metric.similarity(&a, &b))
        });
    }
    group.finish();
}

/// A Fewest-Posts-First variant that scans all resources on every CHOOSE instead
/// of maintaining a priority queue — the structure the paper's complexity
/// analysis (Table V) argues against.
struct FewestPostsScan;

impl AllocationStrategy for FewestPostsScan {
    fn name(&self) -> &'static str {
        "FP-scan"
    }
    fn init(&mut self, _view: &AllocationView<'_>) {}
    fn choose(&mut self, view: &AllocationView<'_>) -> ResourceId {
        (0..view.len())
            .map(|i| ResourceId(i as u32))
            .min_by_key(|id| (view.total_count(*id), id.0))
            .expect("at least one resource")
    }
    fn update(&mut self, _view: &AllocationView<'_>, _resource: ResourceId, _post: Option<&Post>) {}
}

/// Heap-based FP vs linear-scan FP at growing budgets.
fn heap_vs_scan(c: &mut Criterion) {
    let scenario = Scenario::from_corpus(smoke_corpus(), &scenario_params());
    let mut group = c.benchmark_group("ablation_heap_vs_scan");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &budget in &[200usize, 800] {
        group.bench_with_input(BenchmarkId::new("heap", budget), &budget, |b, &budget| {
            b.iter(|| {
                let mut fp = tagging_strategies::FewestPostsFirst::new();
                let mut source = ReplaySource::new(scenario.future.clone());
                run_allocation(
                    &mut fp,
                    &mut source,
                    &scenario.initial,
                    &scenario.popularity,
                    budget,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("scan", budget), &budget, |b, &budget| {
            b.iter(|| {
                let mut fp = FewestPostsScan;
                let mut source = ReplaySource::new(scenario.future.clone());
                run_allocation(
                    &mut fp,
                    &mut source,
                    &scenario.initial,
                    &scenario.popularity,
                    budget,
                )
            })
        });
    }
    group.finish();
}

/// DP quality-table construction with narrow vs wide per-resource caps — the
/// `O(n·|T|·B)` term of the paper's DP complexity.
fn dp_table_construction(c: &mut Criterion) {
    let scenario = Scenario::from_corpus(smoke_corpus(), &scenario_params()).take(100);
    let mut group = c.benchmark_group("ablation_dp_table");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for &cap in &[50usize, 200] {
        group.bench_with_input(BenchmarkId::new("cap", cap), &cap, |b, &cap| {
            b.iter(|| {
                QualityTable::from_posts(
                    &scenario.initial,
                    &scenario.future,
                    &scenario.references,
                    cap,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    similarity_metric_cost,
    heap_vs_scan,
    dp_table_construction
);
criterion_main!(benches);
