//! Criterion benchmarks behind the paper's Figures 6(g) and 6(h): the runtime
//! of every incentive allocation strategy as a function of the budget and of the
//! number of resources, plus the DP optimum on reduced instances.
//!
//! Absolute numbers differ from the paper's C++ prototype, but the shape is the
//! point: DP grows super-linearly with the budget while the practical strategies
//! stay near-linear, RR/FC are the cheapest, and MU/FP-MU pay for maintaining MA
//! scores (Table V's complexity analysis). `fp_batch_levelled` times FP's
//! native batch on levelled counts, where its pop bound matters most.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tagging_bench::setup::{scenario_params, smoke_corpus};
use tagging_core::model::{Post, TagId};
use tagging_sim::engine::{run_dp_capped, run_strategy, RunConfig};
use tagging_sim::scenario::Scenario;
use tagging_strategies::batch::BatchState;
use tagging_strategies::framework::AllocationView;
use tagging_strategies::StrategyKind;

/// Figure 6(g): runtime vs budget at a fixed number of resources.
fn runtime_vs_budget(c: &mut Criterion) {
    let scenario = Scenario::from_corpus(smoke_corpus(), &scenario_params());
    let mut group = c.benchmark_group("fig6g_runtime_vs_budget");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);

    for &budget in &[100usize, 400, 800] {
        for kind in StrategyKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), budget),
                &budget,
                |b, &budget| {
                    let config = RunConfig {
                        budget,
                        omega: 5,
                        seed: 1,
                    };
                    b.iter(|| run_strategy(&scenario, kind, &config));
                },
            );
        }
    }
    // DP only on the smallest budgets: it is the paper's offline reference and
    // becomes orders of magnitude slower than the practical strategies.
    for &budget in &[100usize, 200] {
        group.bench_with_input(BenchmarkId::new("DP", budget), &budget, |b, &budget| {
            let config = RunConfig {
                budget,
                omega: 5,
                seed: 1,
            };
            b.iter(|| run_dp_capped(&scenario, &config, 200));
        });
    }
    group.finish();
}

/// Figure 6(h): runtime vs number of resources at a fixed budget.
fn runtime_vs_resources(c: &mut Criterion) {
    let full = Scenario::from_corpus(smoke_corpus(), &scenario_params());
    let mut group = c.benchmark_group("fig6h_runtime_vs_resources");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);

    for &n in &[50usize, 100, 200] {
        let scenario = full.take(n);
        for kind in StrategyKind::ALL {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, _| {
                let config = RunConfig {
                    budget: 400,
                    omega: 5,
                    seed: 1,
                };
                b.iter(|| run_strategy(&scenario, kind, &config));
            });
        }
        group.bench_with_input(BenchmarkId::new("DP", n), &n, |b, _| {
            let config = RunConfig {
                budget: 100,
                omega: 5,
                seed: 1,
            };
            b.iter(|| run_dp_capped(&scenario, &config, 100));
        });
    }
    group.finish();
}

/// FP's native batch once the counts are level: 2,000 resources at one post
/// count, leased in batches of 8 for one full level (250 batches). A batch
/// should touch only the 8 heap entries it fills, not every tied entry.
fn fp_batch_levelled(c: &mut Criterion) {
    const RESOURCES: usize = 2_000;
    const BATCH: usize = 8;
    let post = Post::new([TagId(0)]).expect("non-empty post");
    let initial = vec![vec![post; 10]; RESOURCES];
    let popularity = vec![1.0 / RESOURCES as f64; RESOURCES];
    let mut group = c.benchmark_group("fp_batch_levelled");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("FP", BATCH), |b| {
        b.iter(|| {
            let mut allocated = vec![0u32; RESOURCES];
            let mut fp = StrategyKind::Fp.build_batch(5, 1);
            fp.init(&AllocationView {
                initial_sequences: &initial,
                allocated: &allocated,
                popularity: &popularity,
            });
            let mut state = BatchState::new(&initial, &popularity, &mut allocated);
            for _ in 0..RESOURCES / BATCH {
                fp.allocate_batch(&mut state, BATCH);
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    runtime_vs_budget,
    runtime_vs_resources,
    fp_batch_levelled
);
criterion_main!(benches);
