//! A [`Scenario`] is the frozen starting point of an incentive-tagging
//! experiment: for every resource, its initial ("January") posts, the recorded
//! future posts a post task can draw from, its reference (stable) rfd, its
//! stable point, and its popularity weight.
//!
//! It corresponds to the experimental setup of the paper's §V-A: strategies see
//! the initial posts and the posts they solicit; quality is always measured
//! against the stable rfd computed from the *full* sequence with the strict
//! dataset-preparation parameters (ω_s = 20, τ_s = 0.9999 in the paper).

use tagging_core::model::{Post, ResourceId};
use tagging_core::rfd::{rfd_of_prefix, Rfd};
use tagging_core::stability::{StabilityAnalyzer, StabilityParams};

use delicious_sim::generator::SyntheticCorpus;
use tagging_runtime::Runtime;

/// Frozen experiment input derived from a synthetic corpus.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Initial post sequences (the paper's `c_i` posts), indexed by resource.
    pub initial: Vec<Vec<Post>>,
    /// Recorded future posts available to post tasks, indexed by resource.
    pub future: Vec<Vec<Post>>,
    /// Reference (practically-stable) rfds quality is measured against.
    pub references: Vec<Rfd>,
    /// Stable point of each resource (posts needed before the rfd is stable);
    /// `None` when the full sequence never stabilises.
    pub stable_points: Vec<Option<usize>>,
    /// Popularity weights (sum to 1) driving the Free-Choice tagger model.
    pub popularity: Vec<f64>,
    /// Post-count threshold at or below which a resource counts as under-tagged.
    pub under_tagged_threshold: usize,
}

/// Parameters used when deriving a scenario from a corpus.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Stability parameters used to compute reference rfds and stable points.
    pub stability: StabilityParams,
    /// Under-tagged threshold (the paper uses 10 posts).
    pub under_tagged_threshold: usize,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            stability: StabilityParams::dataset_preparation(),
            under_tagged_threshold: 10,
        }
    }
}

impl Scenario {
    /// Derives a scenario from a synthetic corpus on the process-default
    /// [`Runtime`].
    ///
    /// Resources that never reach a stable point keep the rfd of their full
    /// sequence as the reference — the closest available estimate of their
    /// stable description (the paper sidesteps this by filtering such resources
    /// out of its sample; we keep them with this substitute reference).
    pub fn from_corpus(corpus: &SyntheticCorpus, params: &ScenarioParams) -> Self {
        Self::from_corpus_with(corpus, params, &Runtime::from_env())
    }

    /// [`Scenario::from_corpus`] on an explicit [`Runtime`]: the per-resource
    /// stability analysis is a pure function of each resource's full post
    /// sequence, so it fans out over the runtime's threads and the result is
    /// bit-identical at any thread count.
    pub fn from_corpus_with(
        corpus: &SyntheticCorpus,
        params: &ScenarioParams,
        runtime: &Runtime,
    ) -> Self {
        let analyzer = StabilityAnalyzer::new(params.stability);
        let n = corpus.len();
        let per_resource = runtime.par_map_indexed(n, |i| {
            let id = ResourceId(i as u32);
            let full = corpus.full_sequence(id);
            let c = corpus.initial_posts[i];
            let profile = analyzer.analyze(full);
            let reference = profile.stable_rfd.unwrap_or(profile.final_rfd);
            (
                full[..c].to_vec(),
                full[c..].to_vec(),
                reference,
                profile.stable_point,
            )
        });

        let mut initial = Vec::with_capacity(n);
        let mut future = Vec::with_capacity(n);
        let mut references = Vec::with_capacity(n);
        let mut stable_points = Vec::with_capacity(n);
        for (init, fut, reference, stable_point) in per_resource {
            initial.push(init);
            future.push(fut);
            references.push(reference);
            stable_points.push(stable_point);
        }

        Self {
            initial,
            future,
            references,
            stable_points,
            popularity: corpus.popularity.clone(),
            under_tagged_threshold: params.under_tagged_threshold,
        }
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.initial.len()
    }

    /// True when the scenario has no resources.
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty()
    }

    /// The paper's `c_i`: initial post count of a resource.
    pub fn initial_count(&self, id: ResourceId) -> usize {
        self.initial[id.index()].len()
    }

    /// Mean tagging quality of the initial state (the paper's 0.865 baseline).
    pub fn initial_quality(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: f64 = (0..self.len())
            .map(|i| {
                let rfd = rfd_of_prefix(&self.initial[i], self.initial[i].len());
                tagging_core::similarity::cosine(&rfd, &self.references[i])
            })
            .sum();
        total / self.len() as f64
    }

    /// Number of resources that are under-tagged in the initial state.
    pub fn initially_under_tagged(&self) -> usize {
        self.initial
            .iter()
            .filter(|posts| posts.len() <= self.under_tagged_threshold)
            .count()
    }

    /// Number of resources already past their stable point in the initial state.
    pub fn initially_over_tagged(&self) -> usize {
        (0..self.len())
            .filter(|&i| match self.stable_points[i] {
                Some(sp) => self.initial[i].len() >= sp,
                None => false,
            })
            .count()
    }

    /// Restricts the scenario to its first `n` resources (used by the
    /// "effect of the number of resources" sweeps). Returns a new scenario.
    pub fn take(&self, n: usize) -> Self {
        let n = n.min(self.len());
        Self {
            initial: self.initial[..n].to_vec(),
            future: self.future[..n].to_vec(),
            references: self.references[..n].to_vec(),
            stable_points: self.stable_points[..n].to_vec(),
            popularity: renormalise(&self.popularity[..n]),
            under_tagged_threshold: self.under_tagged_threshold,
        }
    }
}

/// Renormalises a weight slice to sum to 1 (uniform fallback when degenerate).
fn renormalise(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return vec![1.0 / weights.len().max(1) as f64; weights.len()];
    }
    weights
        .iter()
        .map(|&w| {
            if w.is_finite() && w > 0.0 {
                w / total
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delicious_sim::generator::{generate, GeneratorConfig};

    fn scenario() -> Scenario {
        let corpus = generate(&GeneratorConfig::small(60, 21));
        Scenario::from_corpus(
            &corpus,
            &ScenarioParams {
                stability: StabilityParams::new(10, 0.995),
                under_tagged_threshold: 10,
            },
        )
    }

    #[test]
    fn scenario_covers_all_resources() {
        let s = scenario();
        assert_eq!(s.len(), 60);
        assert!(!s.is_empty());
        assert_eq!(s.future.len(), 60);
        assert_eq!(s.references.len(), 60);
        assert_eq!(s.stable_points.len(), 60);
        for i in 0..s.len() {
            assert!(!s.initial[i].is_empty());
            assert!(!s.references[i].is_empty());
        }
    }

    #[test]
    fn initial_quality_is_in_unit_interval_and_below_one() {
        let s = scenario();
        let q = s.initial_quality();
        assert!(q > 0.0 && q < 1.0, "initial quality {q}");
        // Plenty of resources start under-tagged, so the initial quality should
        // leave visible room for improvement.
        assert!(q < 0.995);
    }

    #[test]
    fn initial_counts_match_corpus() {
        let corpus = generate(&GeneratorConfig::small(30, 5));
        let s = Scenario::from_corpus(&corpus, &ScenarioParams::default());
        for id in corpus.resource_ids() {
            assert_eq!(s.initial_count(id), corpus.initial_posts[id.index()]);
            assert_eq!(
                s.initial[id.index()].len() + s.future[id.index()].len(),
                corpus.full_sequence(id).len()
            );
        }
    }

    #[test]
    fn under_and_over_tagged_counts_are_consistent() {
        let s = scenario();
        let under = s.initially_under_tagged();
        let over = s.initially_over_tagged();
        assert!(under <= s.len());
        assert!(over <= s.len());
        // Under-tagged resources (≤10 posts) cannot be over-tagged, since stable
        // points in the synthetic corpus are well above 10.
        assert!(under + over <= s.len() + 5);
    }

    #[test]
    fn take_restricts_and_renormalises() {
        let s = scenario();
        let sub = s.take(10);
        assert_eq!(sub.len(), 10);
        let total: f64 = sub.popularity.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Taking more than available returns everything.
        let all = s.take(10_000);
        assert_eq!(all.len(), s.len());
    }

    #[test]
    fn from_corpus_is_bit_identical_at_any_thread_count() {
        let corpus = generate(&GeneratorConfig::small(40, 9));
        let params = ScenarioParams::default();
        let sequential = Scenario::from_corpus_with(&corpus, &params, &Runtime::sequential());
        for threads in [2, 8] {
            let parallel = Scenario::from_corpus_with(&corpus, &params, &Runtime::new(threads));
            assert_eq!(parallel.initial, sequential.initial, "threads {threads}");
            assert_eq!(parallel.future, sequential.future, "threads {threads}");
            assert_eq!(
                parallel.references, sequential.references,
                "threads {threads}"
            );
            assert_eq!(
                parallel.stable_points, sequential.stable_points,
                "threads {threads}"
            );
            assert_eq!(
                parallel.popularity, sequential.popularity,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn renormalise_handles_degenerate_weights() {
        let out = renormalise(&[0.0, 0.0]);
        assert_eq!(out, vec![0.5, 0.5]);
        let out = renormalise(&[2.0, 2.0]);
        assert_eq!(out, vec![0.5, 0.5]);
    }
}
