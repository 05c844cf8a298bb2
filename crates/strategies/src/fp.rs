//! The Fewest Posts First strategy (paper §IV-C, Algorithm 3).
//!
//! FP always gives the next post task to the resource with the smallest total
//! post count `c_i + x_i`. The intuition (paper Figure 5) is that an extra post
//! improves a sparsely-tagged resource's quality far more than it improves an
//! already well-tagged one.
//!
//! A binary heap keyed by `(total posts, resource id)` keeps CHOOSE and UPDATE
//! at `O(log n)`; there is always exactly one heap entry per resource because
//! UPDATE reinserts the resource chosen by the preceding CHOOSE.
//!
//! The paper ultimately *recommends* FP: it is nearly as effective as the more
//! sophisticated FP-MU, cheaper to run, and needs no knowledge of the new posts'
//! contents (only their count), so it can even run offline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tagging_core::model::{Post, ResourceId};

use crate::batch::{water_fill, BatchAllocator, BatchState};
use crate::framework::{AllocationStrategy, AllocationView};

/// Fewest Posts First: allocate to the resource with the fewest posts so far.
#[derive(Debug, Default)]
pub struct FewestPostsFirst {
    /// Min-heap of `(total posts, resource id)`.
    queue: BinaryHeap<Reverse<(u64, u32)>>,
}

impl FewestPostsFirst {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resources currently enqueued (for diagnostics/tests).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Pops the entries that a water-fill of `k ≥ 1` tasks can reach.
    fn pop_reachable(&mut self, k: usize) -> Vec<(u64, u32)> {
        // The heap pops in (count, id) order, so the peeked entry `(c, id)`
        // gets a task only after every popped entry below `c` is lifted to
        // `c` and every popped entry already at `c` (all of smaller id)
        // takes one more; once those tasks alone cover the batch, it and
        // every deeper entry stay untouched and cannot affect the order.
        let mut entries: Vec<(u64, u32)> = Vec::new();
        let mut popped_sum = 0u64;
        // Popped entries at the last popped count.
        let mut tied = 0u64;
        while let Some(&Reverse((count, id))) = self.queue.peek() {
            let lift = count * entries.len() as u64 - popped_sum;
            let ahead = match entries.last() {
                Some(&(last, _)) if last == count => tied,
                _ => 0,
            };
            if !entries.is_empty() && lift + ahead >= k as u64 {
                break;
            }
            self.queue.pop();
            entries.push((count, id));
            popped_sum += count;
            tied = ahead + 1;
        }
        assert!(
            !entries.is_empty(),
            "FP queue is empty: init() not called or no resources"
        );
        entries
    }
}

impl AllocationStrategy for FewestPostsFirst {
    fn name(&self) -> &'static str {
        "FP"
    }

    fn init(&mut self, view: &AllocationView<'_>) {
        self.queue.clear();
        for i in 0..view.len() {
            let id = ResourceId(i as u32);
            self.queue
                .push(Reverse((view.total_count(id) as u64, id.0)));
        }
    }

    fn choose(&mut self, _view: &AllocationView<'_>) -> ResourceId {
        let Reverse((_count, id)) = self
            .queue
            .pop()
            .expect("FP queue is empty: init() not called or no resources");
        ResourceId(id)
    }

    fn update(&mut self, view: &AllocationView<'_>, resource: ResourceId, _post: Option<&Post>) {
        // Reinsert with the updated total count (c_i + x_i already reflects the
        // completed task because the framework increments x before UPDATE).
        self.queue
            .push(Reverse((view.total_count(resource) as u64, resource.0)));
    }
}

impl BatchAllocator for FewestPostsFirst {
    fn allocate_one(&mut self, state: &mut BatchState<'_>) -> ResourceId {
        // FP only looks at counts, which are fully known at allocation time:
        // pop the minimum and reinsert it with its bumped count, exactly as the
        // classic CHOOSE + UPDATE pair does (FP's UPDATE ignores the post).
        let Reverse((_count, id)) = self
            .queue
            .pop()
            .expect("FP queue is empty: init() not called or no resources");
        let id = ResourceId(id);
        state.commit(id);
        self.queue
            .push(Reverse((state.total_count(id) as u64, id.0)));
        id
    }

    fn observe_one(
        &mut self,
        _view: &AllocationView<'_>,
        _resource: ResourceId,
        _post: Option<&Post>,
    ) {
        // Nothing to observe: counts were already advanced at allocation time.
    }

    /// Native batch: a water-fill. `k` sequential FP allocations repeatedly
    /// bump the `(count, id)`-minimum, i.e. they fill post-count levels from
    /// the bottom in id order. Instead of `k` heap round-trips, pop only the
    /// resources the fill can touch, replay the fill arithmetically and push
    /// each touched resource back once. At most `k` entries plus the entries
    /// below the fill's final level are popped, so a batch costs
    /// `O((k + m) log n)` for `m` entries below that level — `O(k log n)` once
    /// the counts are levelled.
    fn allocate_batch(&mut self, state: &mut BatchState<'_>, k: usize) -> Vec<ResourceId> {
        if k == 0 {
            return Vec::new();
        }
        let entries = self.pop_reachable(k);
        let mut out = Vec::with_capacity(k);
        let finals = water_fill(entries, k, |id| {
            state.commit(id);
            out.push(id);
        });
        for (count, id) in finals {
            self.queue.push(Reverse((count, id)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{run_allocation, ReplaySource};
    use tagging_core::model::TagId;

    fn post(tag: u32) -> Post {
        Post::new([TagId(tag)]).unwrap()
    }

    /// Builds initial sequences with the given per-resource post counts.
    fn initial_with_counts(counts: &[usize]) -> Vec<Vec<Post>> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| vec![post(i as u32); c])
            .collect()
    }

    #[test]
    fn fp_levels_post_counts() {
        let initial = initial_with_counts(&[10, 2, 5, 1]);
        let popularity = vec![0.25; 4];
        let mut fp = FewestPostsFirst::new();
        let mut source = ReplaySource::new(vec![vec![post(9); 100]; 4]);
        // Budget 12: resources should be levelled towards equal totals.
        let outcome = run_allocation(&mut fp, &mut source, &initial, &popularity, 12);
        let totals: Vec<usize> = (0..4)
            .map(|i| initial[i].len() + outcome.allocated[i] as usize)
            .collect();
        // Total = 18 + 12 = 30. FP water-fills the smallest counts first, so no
        // resource that received tasks should end above the untouched maximum.
        assert_eq!(outcome.allocated.iter().sum::<u32>(), 12);
        assert_eq!(
            outcome.allocated[0], 0,
            "the most-tagged resource gets nothing"
        );
        // The three under-tagged resources are levelled to within one post.
        let levelled = &totals[1..];
        assert!(levelled.iter().max().unwrap() - levelled.iter().min().unwrap() <= 1);
    }

    #[test]
    fn fp_chooses_globally_fewest_each_step() {
        let initial = initial_with_counts(&[3, 1, 2]);
        let popularity = vec![1.0 / 3.0; 3];
        let mut fp = FewestPostsFirst::new();
        let mut source = ReplaySource::new(vec![vec![post(9); 100]; 3]);
        let outcome = run_allocation(&mut fp, &mut source, &initial, &popularity, 4);
        let order: Vec<u32> = outcome.trace.iter().map(|s| s.resource.0).collect();
        // counts start (3,1,2): picks r1 (→2), then r1 or r2 (both 2; id tie-break
        // favours r1), then r2, then the remaining 2-count resource…
        assert_eq!(order[0], 1);
        // After 4 units the totals must be as level as possible: (3,3,3) + 1 extra.
        let totals: Vec<u64> = (0..3)
            .map(|i| (initial[i].len() + outcome.allocated[i] as usize) as u64)
            .collect();
        assert_eq!(totals.iter().sum::<u64>(), 10);
        assert!(totals.iter().max().unwrap() - totals.iter().min().unwrap() <= 1);
    }

    #[test]
    fn fp_budget_exactly_spent_and_queue_invariant() {
        let initial = initial_with_counts(&[0, 0, 0, 0, 0]);
        let popularity = vec![0.2; 5];
        let mut fp = FewestPostsFirst::new();
        let mut source = ReplaySource::new(vec![vec![post(1); 50]; 5]);
        let outcome = run_allocation(&mut fp, &mut source, &initial, &popularity, 23);
        assert_eq!(outcome.allocated.iter().sum::<u32>(), 23);
        // One heap entry per resource after the run.
        assert_eq!(fp.queue_len(), 5);
        // Perfectly even split within one unit.
        let max = outcome.allocated.iter().max().unwrap();
        let min = outcome.allocated.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn fp_works_when_source_is_exhausted() {
        // FP only looks at counts, so undelivered posts do not disturb it.
        let initial = initial_with_counts(&[1, 5]);
        let popularity = vec![0.5, 0.5];
        let mut fp = FewestPostsFirst::new();
        let mut source = ReplaySource::new(vec![vec![post(0); 2], vec![post(1); 2]]);
        let outcome = run_allocation(&mut fp, &mut source, &initial, &popularity, 6);
        assert_eq!(outcome.allocated.iter().sum::<u32>(), 6);
        assert!(outcome.undelivered > 0);
    }

    #[test]
    fn levelled_queue_pops_only_the_batch() {
        // 2,000 resources at one count: a batch of k reaches exactly the k
        // smallest ids, so only those k entries may leave the heap.
        let mut fp = FewestPostsFirst::new();
        fp.queue.extend((0..2_000u32).map(|id| Reverse((7, id))));
        for k in [1usize, 8, 32] {
            let popped = fp.pop_reachable(k);
            let want: Vec<(u64, u32)> = (0..k as u32).map(|id| (7, id)).collect();
            assert_eq!(popped, want, "k={k}");
            fp.queue.extend(popped.into_iter().map(Reverse));
        }
        // One level higher for the first 3 ids: the batch still pops only the
        // k entries left at the lower level.
        let mut fp = FewestPostsFirst::new();
        fp.queue
            .extend((0..2_000u32).map(|id| Reverse((if id < 3 { 8 } else { 7 }, id))));
        let popped = fp.pop_reachable(8);
        let want: Vec<(u64, u32)> = (3..11).map(|id| (7, id)).collect();
        assert_eq!(popped, want);
    }

    #[test]
    #[should_panic(expected = "queue is empty")]
    fn fp_choose_before_init_panics() {
        let mut fp = FewestPostsFirst::new();
        let initial: Vec<Vec<Post>> = vec![vec![]];
        let allocated = vec![0u32];
        let popularity = vec![1.0];
        let view = AllocationView {
            initial_sequences: &initial,
            allocated: &allocated,
            popularity: &popularity,
        };
        let _ = fp.choose(&view);
    }
}
