//! The batched-semantics contract, checked for every practical strategy:
//!
//! 1. a native `allocate_batch(k)` override is indistinguishable from the
//!    defining default — `k` sequential `allocate_one` calls — for every ω and
//!    batch sizes {1, 7, 64}, including across batches with interleaved
//!    observations and exhausted post sources;
//! 2. the batched protocol at batch size 1 degenerates to the classic
//!    sequential framework loop, bit for bit;
//! 3. FP's native batch stays equivalent on random, heavily tied post counts,
//!    where its pop bound decides how much of the heap a batch touches.

use proptest::prelude::*;

use tagging_core::model::{Post, ResourceId, TagId};
use tagging_strategies::batch::{run_allocation_batched, BatchAllocator, BatchState};
use tagging_strategies::framework::{
    run_allocation, AllocationStrategy, AllocationView, ReplaySource,
};
use tagging_strategies::StrategyKind;

fn post(tag: u32) -> Post {
    Post::new([TagId(tag)]).unwrap()
}

/// A stable sequence: the same post repeated.
fn stable(tag: u32, n: usize) -> Vec<Post> {
    vec![post(tag); n]
}

/// An unstable sequence: cycling disjoint tags.
fn unstable(base: u32, n: usize) -> Vec<Post> {
    (0..n).map(|i| post(base + (i % 5) as u32)).collect()
}

/// A 10-resource state with mixed counts, mixed stability, skewed popularity
/// and two resources whose recorded future runs out mid-run.
fn fixture() -> (Vec<Vec<Post>>, Vec<f64>, Vec<Vec<Post>>) {
    let initial = vec![
        Vec::new(),
        stable(10, 1),
        unstable(20, 2),
        stable(30, 5),
        unstable(40, 9),
        stable(50, 12),
        unstable(60, 3),
        stable(70, 7),
        unstable(80, 4),
        stable(90, 6),
    ];
    let weights = [8.0, 1.0, 4.0, 2.0, 6.0, 3.0, 1.0, 5.0, 2.0, 1.0];
    let total: f64 = weights.iter().sum();
    let popularity: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let future: Vec<Vec<Post>> = (0..10)
        .map(|i| match i {
            // Resource 2 runs dry almost immediately, resource 5 immediately.
            2 => unstable(20, 3),
            5 => Vec::new(),
            i if i % 2 == 0 => unstable(100 + 10 * i as u32, 200),
            i => stable(100 + 10 * i as u32, 200),
        })
        .collect();
    (initial, popularity, future)
}

/// Wraps a strategy so the *default* `allocate_batch` / `observe_batch`
/// bodies run even when the inner type overrides them natively — the
/// reference the natives are tested against.
struct ForcedDefault(Box<dyn BatchAllocator + Send>);

impl AllocationStrategy for ForcedDefault {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init(&mut self, view: &AllocationView<'_>) {
        self.0.init(view);
    }
    fn choose(&mut self, view: &AllocationView<'_>) -> ResourceId {
        self.0.choose(view)
    }
    fn update(&mut self, view: &AllocationView<'_>, resource: ResourceId, post: Option<&Post>) {
        self.0.update(view, resource, post);
    }
}

impl BatchAllocator for ForcedDefault {
    fn allocate_one(&mut self, state: &mut BatchState<'_>) -> ResourceId {
        self.0.allocate_one(state)
    }
    fn observe_one(
        &mut self,
        view: &AllocationView<'_>,
        resource: ResourceId,
        post: Option<&Post>,
    ) {
        self.0.observe_one(view, resource, post);
    }
    // allocate_batch / observe_batch intentionally NOT overridden: the
    // provided defaults are the semantics.
}

const OMEGAS: [usize; 3] = [2, 5, 9];
const BATCH_SIZES: [usize; 3] = [1, 7, 64];
const BUDGET: usize = 150;

#[test]
fn native_batches_equal_k_sequential_single_allocations() {
    let (initial, popularity, future) = fixture();
    for kind in StrategyKind::ALL {
        for omega in OMEGAS {
            for k in BATCH_SIZES {
                let mut native = kind.build_batch(omega, 42);
                let mut source = ReplaySource::new(future.clone());
                let got = run_allocation_batched(
                    native.as_mut(),
                    &mut source,
                    &initial,
                    &popularity,
                    BUDGET,
                    k,
                );

                let mut reference = ForcedDefault(kind.build_batch(omega, 42));
                let mut source = ReplaySource::new(future.clone());
                let want = run_allocation_batched(
                    &mut reference,
                    &mut source,
                    &initial,
                    &popularity,
                    BUDGET,
                    k,
                );

                assert_eq!(
                    got,
                    want,
                    "{} ω={omega} k={k}: native batch diverged from k sequential single allocations",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn batch_size_one_equals_the_classic_sequential_loop() {
    let (initial, popularity, future) = fixture();
    for kind in StrategyKind::ALL {
        for omega in OMEGAS {
            let mut classic = kind.build(omega, 42);
            let mut source = ReplaySource::new(future.clone());
            let want = run_allocation(classic.as_mut(), &mut source, &initial, &popularity, BUDGET);

            let mut batched = kind.build_batch(omega, 42);
            let mut source = ReplaySource::new(future.clone());
            let got = run_allocation_batched(
                batched.as_mut(),
                &mut source,
                &initial,
                &popularity,
                BUDGET,
                1,
            );

            assert_eq!(
                got,
                want,
                "{} ω={omega}: batch size 1 diverged from the classic loop",
                kind.name()
            );
        }
    }
}

#[test]
fn every_batch_size_spends_exactly_the_budget() {
    let (initial, popularity, future) = fixture();
    // 151 is not divisible by 7 or 64, so the last batch is a partial one.
    let budget = 151;
    for kind in StrategyKind::ALL {
        for k in BATCH_SIZES {
            let mut strategy = kind.build_batch(5, 1);
            let mut source = ReplaySource::new(future.clone());
            let outcome = run_allocation_batched(
                strategy.as_mut(),
                &mut source,
                &initial,
                &popularity,
                budget,
                k,
            );
            assert_eq!(outcome.budget_spent(), budget, "{} k={k}", kind.name());
            assert_eq!(
                outcome.allocated.iter().map(|&x| x as usize).sum::<usize>(),
                budget,
                "{} k={k}",
                kind.name()
            );
        }
    }
}

#[test]
fn mu_batch_spreads_over_distinct_unstable_resources() {
    // Three unstable resources, all with defined MA scores: a single batch of
    // 3 must lease all three (no resource is re-ranked before its completion
    // is observed), whereas three sequential classic steps may revisit one.
    let initial = vec![unstable(0, 8), unstable(10, 8), unstable(20, 8)];
    let popularity = vec![1.0 / 3.0; 3];
    let mut mu = StrategyKind::Mu.build_batch(4, 1);
    let mut allocated = vec![0u32; 3];
    {
        let view = AllocationView {
            initial_sequences: &initial,
            allocated: &allocated,
            popularity: &popularity,
        };
        mu.init(&view);
    }
    let ids = {
        let mut state = BatchState::new(&initial, &popularity, &mut allocated);
        mu.allocate_batch(&mut state, 3)
    };
    let mut seen: Vec<u32> = ids.iter().map(|id| id.0).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 3, "batch must lease three distinct resources");
    assert_eq!(allocated, vec![1, 1, 1]);
}

#[test]
fn observations_between_batches_change_future_batches() {
    // After observing wildly divergent posts on resource 0, MU must prefer it
    // again in the next batch — the deferred UPDATE really is applied.
    let initial = vec![unstable(0, 8), stable(50, 8)];
    let popularity = vec![0.5, 0.5];
    let mut mu = StrategyKind::Mu.build_batch(4, 1);
    let mut allocated = vec![0u32; 2];
    {
        let view = AllocationView {
            initial_sequences: &initial,
            allocated: &allocated,
            popularity: &popularity,
        };
        mu.init(&view);
    }
    let first = {
        let mut state = BatchState::new(&initial, &popularity, &mut allocated);
        mu.allocate_batch(&mut state, 1)
    };
    assert_eq!(first, vec![ResourceId(0)], "the unstable resource leads");
    // Report a completion that keeps resource 0 maximally unstable.
    {
        let view = AllocationView {
            initial_sequences: &initial,
            allocated: &allocated,
            popularity: &popularity,
        };
        mu.observe_batch(&view, &[(ResourceId(0), Some(post(999)))]);
    }
    let second = {
        let mut state = BatchState::new(&initial, &popularity, &mut allocated);
        mu.allocate_batch(&mut state, 1)
    };
    assert_eq!(second, vec![ResourceId(0)], "re-enqueued after observation");
}

/// Strategy: 1–500 post counts drawn from a 3-wide range, so FP's heap holds
/// long runs of tied entries, as it does once FP has levelled the counts.
fn arb_tied_counts() -> impl Strategy<Value = Vec<usize>> {
    (0usize..40, proptest::collection::vec(0usize..3, 1..=500))
        .prop_map(|(base, offsets)| offsets.into_iter().map(|o| base + o).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FP's native `allocate_batch(k)` equals `k` sequential `allocate_one`s
    /// over several batches in a row, on tie-heavy counts.
    #[test]
    fn fp_native_batch_matches_sequential_on_tied_counts(
        counts in arb_tied_counts(),
        k in 1usize..=32,
        batches in 1usize..=6,
    ) {
        let initial: Vec<Vec<Post>> = counts.iter().map(|&c| vec![post(0); c]).collect();
        let popularity = vec![1.0 / counts.len() as f64; counts.len()];
        let budget = k * batches;
        let run = |strategy: &mut dyn BatchAllocator| {
            let mut source = ReplaySource::new(vec![Vec::new(); counts.len()]);
            run_allocation_batched(strategy, &mut source, &initial, &popularity, budget, k)
        };
        let got = run(StrategyKind::Fp.build_batch(5, 1).as_mut());
        let want = run(&mut ForcedDefault(StrategyKind::Fp.build_batch(5, 1)));
        prop_assert_eq!(got, want);
    }
}
