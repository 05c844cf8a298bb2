//! Tagging quality (paper Definitions 9–10) and quality curves.
//!
//! The tagging quality of a resource that has received `k` posts is the
//! similarity between its current rfd and its (practically-)stable rfd:
//! `q_i(k) = s(F_i(k), φ̂_i)`. The quality of a resource set is the mean of the
//! per-resource qualities.
//!
//! [`QualityEvaluator`] bundles a reference (stable) rfd per resource so that
//! strategies and the simulation engine can evaluate `q_i(c_i + x_i)` cheaply.
//! [`quality_curve`] computes `q_i(k)` for every prefix length `k` of a post
//! sequence — this is exactly the curve shown in the paper's Figure 5 and is the
//! quantity the DP optimal algorithm tabulates.

use std::collections::HashMap;

use crate::model::{Post, ResourceId};
use crate::rfd::{FrequencyTracker, Rfd};
use crate::similarity::{CosineSimilarity, SimilarityMetric};
use crate::stability::{StabilityAnalyzer, StabilityParams};

/// Evaluates per-resource and set-level tagging quality against fixed reference
/// (stable) rfds.
pub struct QualityEvaluator<M = CosineSimilarity> {
    reference: HashMap<ResourceId, Rfd>,
    metric: M,
}

impl QualityEvaluator<CosineSimilarity> {
    /// Creates an evaluator using the paper's cosine similarity.
    pub fn new() -> Self {
        Self {
            reference: HashMap::new(),
            metric: CosineSimilarity,
        }
    }

    /// Builds an evaluator whose reference rfds are the practically-stable rfds
    /// of the given full post sequences (resources that never stabilise fall back
    /// to the rfd of their full sequence, which is the best available estimate).
    pub fn from_sequences<'a, I>(params: StabilityParams, sequences: I) -> Self
    where
        I: IntoIterator<Item = (ResourceId, &'a [Post])>,
    {
        let analyzer = StabilityAnalyzer::new(params);
        let mut evaluator = Self::new();
        for (id, posts) in sequences {
            let profile = analyzer.analyze(posts);
            let reference = profile.stable_rfd.unwrap_or(profile.final_rfd);
            evaluator.set_reference(id, reference);
        }
        evaluator
    }
}

impl Default for QualityEvaluator<CosineSimilarity> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: SimilarityMetric> QualityEvaluator<M> {
    /// Creates an evaluator with a custom similarity metric.
    pub fn with_metric(metric: M) -> Self {
        Self {
            reference: HashMap::new(),
            metric,
        }
    }

    /// Registers (or replaces) the reference rfd `φ̂_i` of a resource.
    pub fn set_reference(&mut self, id: ResourceId, reference: Rfd) {
        self.reference.insert(id, reference);
    }

    /// The reference rfd of a resource, if registered.
    pub fn reference(&self, id: ResourceId) -> Option<&Rfd> {
        self.reference.get(&id)
    }

    /// Number of resources with a registered reference.
    pub fn len(&self) -> usize {
        self.reference.len()
    }

    /// True when no reference has been registered.
    pub fn is_empty(&self) -> bool {
        self.reference.is_empty()
    }

    /// `q_i(k)` for an explicit current rfd. Returns 0 when the resource has no
    /// registered reference (an unknown resource has undefined quality; treating
    /// it as 0 keeps set-level averages conservative).
    pub fn quality_of_rfd(&self, id: ResourceId, current: &Rfd) -> f64 {
        match self.reference.get(&id) {
            Some(reference) => self.metric.similarity(current, reference),
            None => 0.0,
        }
    }

    /// `q_i(k)` computed from the first `k` posts of the resource's sequence.
    pub fn quality_at(&self, id: ResourceId, posts: &[Post], k: usize) -> f64 {
        let rfd = crate::rfd::rfd_of_prefix(posts, k);
        self.quality_of_rfd(id, &rfd)
    }

    /// Set-level quality `q(R, k) = (1/n) Σ_i q_i(k_i)` over explicit rfds.
    pub fn set_quality<'a, I>(&self, current: I) -> f64
    where
        I: IntoIterator<Item = (ResourceId, &'a Rfd)>,
    {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (id, rfd) in current {
            sum += self.quality_of_rfd(id, rfd);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// The quality curve of one resource: `q_i(k)` for `k = 0..=posts.len()`,
/// evaluated against the supplied reference rfd.
///
/// Index `k` of the returned vector holds `q_i(k)`; index 0 is always the
/// quality of the empty rfd, which is 0 by the similarity convention.
pub fn quality_curve(posts: &[Post], reference: &Rfd) -> Vec<f64> {
    quality_curve_with_metric(posts, reference, &CosineSimilarity)
}

/// [`quality_curve`] with a custom similarity metric.
pub fn quality_curve_with_metric<M: SimilarityMetric>(
    posts: &[Post],
    reference: &Rfd,
    metric: &M,
) -> Vec<f64> {
    let mut curve = Vec::with_capacity(posts.len() + 1);
    let mut tracker = FrequencyTracker::new();
    curve.push(metric.similarity(&Rfd::empty(), reference));
    for post in posts {
        tracker.push(post);
        curve.push(metric.similarity(&tracker.rfd(), reference));
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Post, TagDictionary, TagId};
    use crate::similarity::cosine;

    fn post(dict: &mut TagDictionary, names: &[&str]) -> Post {
        Post::from_names(dict, names.iter().copied()).unwrap()
    }

    /// Reproduces the paper's running example (Examples 1–3, Tables I, II, IV).
    ///
    /// Resources: r1 = Google Earth with posts ({google, earth},
    /// {google, geographic}, {earth}); r2 = Picasa with posts ({pictures},
    /// {pictures}). Stable rfds are given by Table II. The paper reports
    /// q1(3) = 0.953 and q2(2) = 0.897 and set quality 0.925.
    fn paper_example() -> (TagDictionary, Vec<Post>, Vec<Post>, Rfd, Rfd) {
        let mut dict = TagDictionary::new();
        let r1_posts = vec![
            post(&mut dict, &["google", "earth"]),
            post(&mut dict, &["google", "geographic"]),
            post(&mut dict, &["earth"]),
        ];
        let r2_posts = vec![
            post(&mut dict, &["pictures"]),
            post(&mut dict, &["pictures"]),
        ];
        let google = dict.get("google").unwrap();
        let earth = dict.get("earth").unwrap();
        let geographic = dict.get("geographic").unwrap();
        let pictures = dict.get("pictures").unwrap();
        let phi1 = Rfd::from_weights([(google, 0.25), (geographic, 0.25), (earth, 0.5)]);
        let phi2 = Rfd::from_weights([(google, 0.33), (pictures, 0.67)]);
        (dict, r1_posts, r2_posts, phi1, phi2)
    }

    #[test]
    fn paper_example_2_per_resource_quality() {
        let (_dict, r1_posts, r2_posts, phi1, phi2) = paper_example();
        let mut eval = QualityEvaluator::new();
        eval.set_reference(ResourceId(0), phi1);
        eval.set_reference(ResourceId(1), phi2);

        let q1 = eval.quality_at(ResourceId(0), &r1_posts, 3);
        let q2 = eval.quality_at(ResourceId(1), &r2_posts, 2);
        assert!((q1 - 0.953).abs() < 5e-3, "q1(3) = {q1}");
        assert!((q2 - 0.897).abs() < 5e-3, "q2(2) = {q2}");
    }

    #[test]
    fn paper_example_2_set_quality() {
        let (_dict, r1_posts, r2_posts, phi1, phi2) = paper_example();
        let mut eval = QualityEvaluator::new();
        eval.set_reference(ResourceId(0), phi1);
        eval.set_reference(ResourceId(1), phi2);
        let rfd1 = crate::rfd::rfd_of_prefix(&r1_posts, 3);
        let rfd2 = crate::rfd::rfd_of_prefix(&r2_posts, 2);
        let q = eval.set_quality([(ResourceId(0), &rfd1), (ResourceId(1), &rfd2)]);
        assert!((q - 0.925).abs() < 5e-3, "q(R) = {q}");
    }

    #[test]
    fn quality_of_unknown_resource_is_zero() {
        let eval = QualityEvaluator::new();
        let rfd = Rfd::from_counts([(TagId(0), 1)]);
        assert_eq!(eval.quality_of_rfd(ResourceId(7), &rfd), 0.0);
        assert!(eval.is_empty());
    }

    #[test]
    fn set_quality_of_empty_set_is_zero() {
        let eval = QualityEvaluator::new();
        assert_eq!(
            eval.set_quality(std::iter::empty::<(ResourceId, &Rfd)>()),
            0.0
        );
    }

    #[test]
    fn quality_curve_is_zero_at_k0_and_matches_direct_evaluation() {
        let (_dict, r1_posts, _r2, phi1, _phi2) = paper_example();
        let curve = quality_curve(&r1_posts, &phi1);
        assert_eq!(curve.len(), r1_posts.len() + 1);
        assert_eq!(curve[0], 0.0);
        for (k, &q) in curve.iter().enumerate().skip(1) {
            let direct = cosine(&crate::rfd::rfd_of_prefix(&r1_posts, k), &phi1);
            assert!((q - direct).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn quality_reaches_one_when_rfd_equals_reference() {
        let mut dict = TagDictionary::new();
        let steady = post(&mut dict, &["a", "b"]);
        let posts = vec![steady.clone(); 10];
        let reference = crate::rfd::rfd_of_prefix(&posts, 10);
        let curve = quality_curve(&posts, &reference);
        assert!((curve[10] - 1.0).abs() < 1e-12);
        // and it is non-decreasing for this constant stream
        for k in 1..10 {
            assert!(curve[k + 1] >= curve[k] - 1e-12);
        }
    }

    #[test]
    fn from_sequences_uses_stable_rfd_when_available() {
        let mut dict = TagDictionary::new();
        let steady = post(&mut dict, &["a", "b"]);
        let stable_posts = vec![steady.clone(); 30];
        // A short, never-stable sequence falls back to the full-sequence rfd.
        let short_posts = vec![post(&mut dict, &["c"]), post(&mut dict, &["d"])];

        let params = StabilityParams::new(5, 0.99);
        let eval = QualityEvaluator::from_sequences(
            params,
            [
                (ResourceId(0), stable_posts.as_slice()),
                (ResourceId(1), short_posts.as_slice()),
            ],
        );
        assert_eq!(eval.len(), 2);
        // The stable resource's reference equals its converged rfd (a: .5, b: .5).
        let r0 = eval.reference(ResourceId(0)).unwrap();
        assert!((r0.get(dict.get("a").unwrap()) - 0.5).abs() < 1e-12);
        // The short resource's reference is the rfd of its 2 posts.
        let r1 = eval.reference(ResourceId(1)).unwrap();
        assert!((r1.get(dict.get("c").unwrap()) - 0.5).abs() < 1e-12);
        // Quality of the stable resource at full length is 1.
        let q = eval.quality_at(ResourceId(0), &stable_posts, 30);
        assert!((q - 1.0).abs() < 1e-9);
    }

    #[test]
    fn custom_metric_is_used() {
        use crate::similarity::JaccardSimilarity;
        let mut eval = QualityEvaluator::with_metric(JaccardSimilarity);
        let reference = Rfd::from_counts([(TagId(0), 10), (TagId(1), 1)]);
        eval.set_reference(ResourceId(0), reference);
        // Jaccard ignores weights: rfd over the same two tags has quality 1.
        let current = Rfd::from_counts([(TagId(0), 1), (TagId(1), 10)]);
        assert!((eval.quality_of_rfd(ResourceId(0), &current) - 1.0).abs() < 1e-12);
    }
}
