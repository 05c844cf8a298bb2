//! Tagging stability: adjacent similarity, the Moving-Average (MA) score and the
//! practically-stable rfd (paper Definitions 6–8, Figure 3).
//!
//! * The *adjacent similarity at the j-th post* is `s(F_i(j−1), F_i(j))` — how
//!   much the rfd moved when post `j` arrived.
//! * The *MA score* `m_i(k, ω)` (Definition 7) is the mean of the last `ω − 1`
//!   adjacent similarities, i.e. over posts `k−ω+2 .. k`. It is only defined for
//!   `k ≥ ω`.
//! * The *practically-stable rfd* `φ̂_i(ω, τ)` (Definition 8) is `F_i(k*)` where
//!   `k*` is the smallest `k ≥ ω` with `m_i(k, ω) > τ`. `k*` is what the paper
//!   informally calls the resource's *stable point*.
//!
//! Two implementations are provided:
//!
//! * [`StabilityAnalyzer`] — offline analysis of a full post sequence, used for
//!   dataset preparation (finding resources that reach their stable point) and
//!   for the DP optimal algorithm. [`StabilityAnalyzer::analyze`] is a single
//!   pass that keeps no per-post rfd history: it clones `F(k)` once, at the
//!   stable point, and returns the last `F(len)` alongside;
//! * [`MaTracker`] — the incremental structure used by the MU / FP-MU
//!   strategies: pushing one post updates the MA score in `O(d)` where `d` is the
//!   number of distinct tags of the resource, using the sliding-window recurrence
//!   from Appendix C:
//!   `(ω−1)·m_i(k,ω) = (ω−1)·m_i(k−1,ω) − s(F(k−ω), F(k−ω+1)) + s(F(k−1), F(k))`.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::model::Post;
use crate::rfd::{FrequencyTracker, Rfd};
use crate::similarity::{cosine, SimilarityMetric};

/// The `(ω, τ)` parameters of Definitions 7–8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StabilityParams {
    /// Window size ω ≥ 2 of the moving average.
    pub omega: usize,
    /// Stability threshold τ (close to 1).
    pub tau: f64,
}

impl StabilityParams {
    /// Creates a parameter set, panicking when `omega < 2` — the MA score is not
    /// defined for smaller windows (Definition 7 requires ω ≥ 2).
    pub fn new(omega: usize, tau: f64) -> Self {
        assert!(
            omega >= 2,
            "the MA window ω must be at least 2 (got {omega})"
        );
        assert!(
            (0.0..=1.0).contains(&tau),
            "the stability threshold τ must lie in [0, 1] (got {tau})"
        );
        Self { omega, tau }
    }

    /// The strict parameters used by the paper to *prepare* the dataset
    /// (§V-A: ω_s = 20, τ_s = 0.9999).
    pub fn dataset_preparation() -> Self {
        Self::new(20, 0.9999)
    }

    /// The default parameters used by the MU / FP-MU strategies in the paper's
    /// experiments (§V-A: ω = 5).
    pub fn strategy_default() -> Self {
        Self::new(5, 0.99)
    }
}

impl Default for StabilityParams {
    fn default() -> Self {
        Self::strategy_default()
    }
}

/// Result of the offline stability analysis of one post sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityProfile {
    /// Adjacent similarity `s(F(j−1), F(j))` for `j = 1..=k` (index 0 holds j=1).
    pub adjacent_similarity: Vec<f64>,
    /// MA scores `m(k, ω)` for `k = ω..=len` in order; empty when the sequence is
    /// shorter than ω.
    pub ma_scores: Vec<f64>,
    /// The smallest `k` with `m(k, ω) > τ`, if any — the resource's stable point.
    pub stable_point: Option<usize>,
    /// The rfd at the stable point (`φ̂`), if the stable point exists.
    pub stable_rfd: Option<Rfd>,
    /// The rfd `F(len)` of the whole sequence (empty for an empty sequence).
    pub final_rfd: Rfd,
    /// Parameters the profile was computed with.
    pub params: StabilityParams,
}

impl StabilityProfile {
    /// MA score at post count `k` (`k ≥ ω`), if defined.
    pub fn ma_at(&self, k: usize) -> Option<f64> {
        if k < self.params.omega {
            return None;
        }
        self.ma_scores.get(k - self.params.omega).copied()
    }

    /// True when the sequence reached its stable point.
    pub fn is_stable(&self) -> bool {
        self.stable_point.is_some()
    }
}

/// Offline stability analysis over full post sequences.
#[derive(Debug, Clone)]
pub struct StabilityAnalyzer<M = crate::similarity::CosineSimilarity> {
    params: StabilityParams,
    metric: M,
}

impl StabilityAnalyzer {
    /// Analyzer using the paper's cosine similarity.
    pub fn new(params: StabilityParams) -> Self {
        Self {
            params,
            metric: crate::similarity::CosineSimilarity,
        }
    }
}

impl<M: SimilarityMetric> StabilityAnalyzer<M> {
    /// Analyzer using a custom similarity metric (for ablations).
    pub fn with_metric(params: StabilityParams, metric: M) -> Self {
        Self { params, metric }
    }

    /// The parameters this analyzer was configured with.
    pub fn params(&self) -> StabilityParams {
        self.params
    }

    /// Computes the full stability profile of a post sequence in one pass:
    /// each post updates the rfd, its adjacent similarity and the MA window,
    /// and `F(k)` is kept only at the stable point and at the end.
    pub fn analyze(&self, posts: &[Post]) -> StabilityProfile {
        let omega = self.params.omega;
        let tau = self.params.tau;
        // m(k, ω) averages adjacent similarities at posts k-ω+2 ..= k, i.e.
        // ω−1 values; `adjacent[j-1]` holds the similarity at post j.
        let window = omega - 1;

        let mut tracker = FrequencyTracker::new();
        let mut prev_rfd = Rfd::empty();
        let mut adjacent = Vec::with_capacity(posts.len());
        let mut ma_scores = Vec::with_capacity((posts.len() + 1).saturating_sub(omega));
        let mut window_sum = 0.0;
        let mut stable_point = None;
        let mut stable_rfd = None;

        for (idx, post) in posts.iter().enumerate() {
            let k = idx + 1;
            tracker.push(post);
            let cur = tracker.rfd();
            adjacent.push(self.metric.similarity(&prev_rfd, &cur));
            if k >= omega {
                if k == omega {
                    // The first window: the similarities at posts 2..=ω.
                    window_sum = adjacent[1..].iter().sum();
                } else {
                    window_sum += adjacent[k - 1];
                    window_sum -= adjacent[k - 1 - window];
                }
                let ma = window_sum / window as f64;
                ma_scores.push(ma);
                if stable_point.is_none() && ma > tau {
                    stable_point = Some(k);
                    stable_rfd = Some(cur.clone());
                }
            }
            prev_rfd = cur;
        }

        StabilityProfile {
            adjacent_similarity: adjacent,
            ma_scores,
            stable_point,
            stable_rfd,
            final_rfd: prev_rfd,
            params: self.params,
        }
    }

    /// Returns the practically-stable rfd `φ̂(ω, τ)` of a sequence, if it exists.
    pub fn stable_rfd(&self, posts: &[Post]) -> Option<Rfd> {
        self.analyze(posts).stable_rfd
    }

    /// Returns the stable point (smallest `k ≥ ω` with `m(k, ω) > τ`), if any.
    pub fn stable_point(&self, posts: &[Post]) -> Option<usize> {
        self.analyze(posts).stable_point
    }

    /// Returns the *unstable point*: the largest `k` such that the adjacent
    /// similarity at every post `j ≤ k` stays below `threshold` (the paper uses
    /// 0.95 and observes unstable points around 10 posts). Returns 0 when even
    /// the first post exceeds the threshold.
    pub fn unstable_point(&self, posts: &[Post], threshold: f64) -> usize {
        let profile = self.analyze(posts);
        let mut point = 0;
        for (idx, &sim) in profile.adjacent_similarity.iter().enumerate() {
            if sim < threshold {
                point = idx + 1;
            } else {
                break;
            }
        }
        point
    }
}

/// Incremental MA-score tracker for a single resource, as used by the MU and
/// FP-MU strategies (Algorithm 4 plus the Appendix C optimisation).
///
/// The tracker keeps the current [`FrequencyTracker`], the previous rfd and a
/// queue of the last `ω − 1` adjacent similarities, so each [`MaTracker::push`]
/// costs `O(d)` (d = distinct tags of the resource) instead of `O(ω·d)`.
#[derive(Debug, Clone)]
pub struct MaTracker {
    omega: usize,
    tracker: FrequencyTracker,
    prev_rfd: Rfd,
    /// Last `ω − 1` adjacent similarities (front = oldest).
    window: VecDeque<f64>,
    window_sum: f64,
    posts_seen: usize,
}

impl MaTracker {
    /// Creates a tracker with window size `omega ≥ 2` that has seen no posts.
    pub fn new(omega: usize) -> Self {
        assert!(
            omega >= 2,
            "the MA window ω must be at least 2 (got {omega})"
        );
        Self {
            omega,
            tracker: FrequencyTracker::new(),
            prev_rfd: Rfd::empty(),
            window: VecDeque::with_capacity(omega),
            window_sum: 0.0,
            posts_seen: 0,
        }
    }

    /// Creates a tracker pre-loaded with an initial post prefix.
    pub fn from_posts<'a, I: IntoIterator<Item = &'a Post>>(omega: usize, posts: I) -> Self {
        let mut t = Self::new(omega);
        for p in posts {
            t.push(p);
        }
        t
    }

    /// The window size ω.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Number of posts consumed.
    pub fn post_count(&self) -> usize {
        self.posts_seen
    }

    /// The current rfd `F(k)`.
    pub fn rfd(&self) -> Rfd {
        self.tracker.rfd()
    }

    /// Consumes one post and returns the new MA score if it is defined
    /// (i.e. once at least ω posts have been seen).
    pub fn push(&mut self, post: &Post) -> Option<f64> {
        self.tracker.push(post);
        let cur = self.tracker.rfd();
        let adjacent = cosine(&self.prev_rfd, &cur);
        self.prev_rfd = cur;
        self.posts_seen += 1;

        self.window.push_back(adjacent);
        self.window_sum += adjacent;
        // Keep only the last ω − 1 adjacent similarities.
        while self.window.len() > self.omega - 1 {
            if let Some(old) = self.window.pop_front() {
                self.window_sum -= old;
            }
        }
        self.ma_score()
    }

    /// The current MA score `m(k, ω)`, or `None` while `k < ω`.
    pub fn ma_score(&self) -> Option<f64> {
        if self.posts_seen < self.omega {
            None
        } else {
            Some(self.window_sum / (self.omega - 1) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Post, TagDictionary, TagId};

    fn post(dict: &mut TagDictionary, names: &[&str]) -> Post {
        Post::from_names(dict, names.iter().copied()).unwrap()
    }

    /// A sequence in which every post is identical becomes perfectly stable: all
    /// adjacent similarities after the first equal 1.
    fn constant_sequence(n: usize) -> Vec<Post> {
        (0..n)
            .map(|_| Post::new([TagId(0), TagId(1)]).unwrap())
            .collect()
    }

    #[test]
    #[should_panic(expected = "ω must be at least 2")]
    fn params_reject_omega_one() {
        StabilityParams::new(1, 0.9);
    }

    #[test]
    #[should_panic(expected = "τ must lie in")]
    fn params_reject_bad_tau() {
        StabilityParams::new(5, 1.5);
    }

    #[test]
    fn paper_parameter_presets() {
        let prep = StabilityParams::dataset_preparation();
        assert_eq!(prep.omega, 20);
        assert!((prep.tau - 0.9999).abs() < 1e-12);
        let strat = StabilityParams::strategy_default();
        assert_eq!(strat.omega, 5);
    }

    #[test]
    fn adjacent_similarity_first_post_is_zero() {
        // F(0) is the empty distribution, so s(F(0), F(1)) = 0 by convention.
        let analyzer = StabilityAnalyzer::new(StabilityParams::new(2, 0.9));
        let posts = constant_sequence(3);
        let profile = analyzer.analyze(&posts);
        assert_eq!(profile.adjacent_similarity.len(), 3);
        assert_eq!(profile.adjacent_similarity[0], 0.0);
        assert!((profile.adjacent_similarity[1] - 1.0).abs() < 1e-12);
        assert!((profile.adjacent_similarity[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ma_score_not_defined_below_omega() {
        let analyzer = StabilityAnalyzer::new(StabilityParams::new(5, 0.99));
        let posts = constant_sequence(4);
        let profile = analyzer.analyze(&posts);
        assert!(profile.ma_scores.is_empty());
        assert!(profile.stable_point.is_none());
        assert!(profile.ma_at(4).is_none());
    }

    #[test]
    fn constant_sequence_stabilises_at_omega() {
        let omega = 5;
        let analyzer = StabilityAnalyzer::new(StabilityParams::new(omega, 0.99));
        let posts = constant_sequence(10);
        let profile = analyzer.analyze(&posts);
        // m(5, 5) averages adjacent sims at posts 2..=5, which are all 1.
        assert!((profile.ma_at(5).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(profile.stable_point, Some(omega));
        let stable = profile.stable_rfd.unwrap();
        assert!((stable.get(TagId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ma_window_excludes_initial_zero_when_omega_small() {
        // With ω = 2 the MA at k=2 is just the adjacent similarity at post 2.
        let analyzer = StabilityAnalyzer::new(StabilityParams::new(2, 0.5));
        let posts = constant_sequence(2);
        let profile = analyzer.analyze(&posts);
        assert!((profile.ma_at(2).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(profile.stable_point, Some(2));
    }

    #[test]
    fn alternating_sequence_has_low_ma() {
        // Posts alternate between two disjoint tags; the rfd keeps swinging and
        // adjacent similarity stays well below 1.
        let mut dict = TagDictionary::new();
        let a = post(&mut dict, &["a"]);
        let b = post(&mut dict, &["b"]);
        let posts: Vec<Post> = (0..40)
            .map(|i| if i % 2 == 0 { a.clone() } else { b.clone() })
            .collect();
        let analyzer = StabilityAnalyzer::new(StabilityParams::new(5, 0.999));
        let profile = analyzer.analyze(&posts);
        // The distribution does converge towards (0.5, 0.5) so similarity rises,
        // but the early window must not be flagged stable at a strict threshold.
        assert!(profile.ma_at(5).unwrap() < 0.999);
    }

    #[test]
    fn stable_point_is_smallest_k() {
        // Construct a sequence that is noisy for a while then constant.
        let mut dict = TagDictionary::new();
        let noisy: Vec<Post> = vec![
            post(&mut dict, &["x"]),
            post(&mut dict, &["y"]),
            post(&mut dict, &["z"]),
            post(&mut dict, &["x", "w"]),
        ];
        let steady = post(&mut dict, &["x", "y"]);
        let mut posts = noisy;
        for _ in 0..30 {
            posts.push(steady.clone());
        }
        let params = StabilityParams::new(4, 0.995);
        let analyzer = StabilityAnalyzer::new(params);
        let profile = analyzer.analyze(&posts);
        let sp = profile.stable_point.expect("sequence should stabilise");
        // Every MA score before the stable point is ≤ τ and the one at it is > τ.
        for k in params.omega..sp {
            assert!(profile.ma_at(k).unwrap() <= params.tau, "k={k}");
        }
        assert!(profile.ma_at(sp).unwrap() > params.tau);
    }

    #[test]
    fn unstable_point_counts_leading_low_similarity() {
        let mut dict = TagDictionary::new();
        let mut posts = vec![
            post(&mut dict, &["a"]),
            post(&mut dict, &["b"]),
            post(&mut dict, &["c"]),
        ];
        let steady = post(&mut dict, &["a", "b", "c"]);
        for _ in 0..20 {
            posts.push(steady.clone());
        }
        let analyzer = StabilityAnalyzer::new(StabilityParams::new(3, 0.99));
        let up = analyzer.unstable_point(&posts, 0.95);
        assert!(up >= 3, "the three noisy posts are unstable, got {up}");
        assert!(up < 10);
    }

    #[test]
    fn incremental_tracker_matches_offline_analyzer() {
        let mut dict = TagDictionary::new();
        let vocab = ["google", "maps", "earth", "software", "travel"];
        // Deterministic pseudo-random-ish sequence mixing the vocabulary.
        let posts: Vec<Post> = (0..60)
            .map(|i| {
                let a = vocab[i % vocab.len()];
                let b = vocab[(i * 7 + 3) % vocab.len()];
                post(&mut dict, &[a, b])
            })
            .collect();
        for omega in [2, 3, 5, 8] {
            let analyzer = StabilityAnalyzer::new(StabilityParams::new(omega, 0.9999));
            let profile = analyzer.analyze(&posts);
            let mut tracker = MaTracker::new(omega);
            for (idx, p) in posts.iter().enumerate() {
                let ma = tracker.push(p);
                let k = idx + 1;
                if k < omega {
                    assert!(ma.is_none(), "ω={omega} k={k}");
                } else {
                    let expected = profile.ma_at(k).unwrap();
                    assert!(
                        (ma.unwrap() - expected).abs() < 1e-9,
                        "ω={omega} k={k}: incremental {} vs offline {}",
                        ma.unwrap(),
                        expected
                    );
                }
            }
        }
    }

    #[test]
    fn ma_tracker_from_posts_equals_pushing() {
        let posts = constant_sequence(8);
        let mut pushed = MaTracker::new(4);
        for p in &posts {
            pushed.push(p);
        }
        let preloaded = MaTracker::from_posts(4, posts.iter());
        assert_eq!(pushed.post_count(), preloaded.post_count());
        assert_eq!(pushed.ma_score(), preloaded.ma_score());
        assert_eq!(pushed.rfd(), preloaded.rfd());
    }

    #[test]
    #[should_panic(expected = "ω must be at least 2")]
    fn ma_tracker_rejects_omega_one() {
        MaTracker::new(1);
    }
}
