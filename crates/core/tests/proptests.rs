//! Property-based tests for the core data structures and metrics.
//!
//! These check the mathematical invariants the rest of the workspace relies on:
//! rfds are probability distributions, similarity metrics are bounded and
//! symmetric, the incremental trackers agree with the offline definitions, and
//! quality is invariant under tag relabelling. The [`reference`] module keeps
//! the straightforward form of the rfd and stability kernels (a fresh count map
//! per post, a stored rfd per post, a second pass over the MA window) as a
//! bit-level oracle for the optimised single-pass code.

use proptest::prelude::*;

use delicious_sim::generator::{generate, GeneratorConfig};
use tagging_core::model::{Post, ResourceId, TagId};
use tagging_core::quality::quality_curve;
use tagging_core::rfd::{rfd_of_prefix, FrequencyTracker, Rfd};
use tagging_core::similarity::{cosine, MetricKind};
use tagging_core::stability::{MaTracker, StabilityAnalyzer, StabilityParams};
use tagging_sim::scenario::{Scenario, ScenarioParams};

/// The rfd and stability kernels in their plain form, computed over bare
/// `(tag, weight)` vectors so nothing here shares code with the crate.
mod reference {
    use std::collections::BTreeMap;

    use tagging_core::model::{Post, TagId};

    /// A sparse rfd: `(tag, relative frequency)` in ascending tag order.
    pub type Entries = Vec<(TagId, f64)>;

    /// Normalises counts through a freshly built map, dropping zero counts.
    pub fn rfd_from_counts<I: IntoIterator<Item = (TagId, u64)>>(counts: I) -> Entries {
        let mut map: BTreeMap<TagId, u64> = BTreeMap::new();
        for (tag, c) in counts {
            if c > 0 {
                *map.entry(tag).or_insert(0) += c;
            }
        }
        let total: u64 = map.values().sum();
        if total == 0 {
            return Vec::new();
        }
        map.into_iter()
            .map(|(t, c)| (t, c as f64 / total as f64))
            .collect()
    }

    /// Cosine similarity, 0 when either side is empty, clamped to [0, 1].
    pub fn cosine(a: &Entries, b: &Entries) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let norm = |e: &Entries| e.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        let denom = norm(a) * norm(b);
        if denom == 0.0 {
            return 0.0;
        }
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (dot / denom).clamp(0.0, 1.0)
    }

    /// `F(k)` for every `k = 0..=len`, each from its own count map.
    pub fn rfd_history(posts: &[Post]) -> Vec<Entries> {
        let mut counts: BTreeMap<TagId, u64> = BTreeMap::new();
        let mut history = vec![Vec::new()];
        for post in posts {
            for tag in post.iter() {
                *counts.entry(tag).or_insert(0) += 1;
            }
            history.push(rfd_from_counts(counts.iter().map(|(&t, &c)| (t, c))));
        }
        history
    }

    /// Definitions 6–8 evaluated from the stored history in two passes.
    pub struct Profile {
        pub adjacent: Vec<f64>,
        pub ma_scores: Vec<f64>,
        pub stable_point: Option<usize>,
        pub stable_rfd: Option<Entries>,
        pub final_rfd: Entries,
    }

    pub fn analyze(posts: &[Post], omega: usize, tau: f64) -> Profile {
        let history = rfd_history(posts);
        let adjacent: Vec<f64> = history.windows(2).map(|w| cosine(&w[0], &w[1])).collect();
        let mut ma_scores = Vec::new();
        let mut stable_point = None;
        if posts.len() >= omega {
            let window = omega - 1;
            let mut window_sum: f64 = adjacent[(omega - window)..omega].iter().sum();
            ma_scores.push(window_sum / window as f64);
            for k in (omega + 1)..=posts.len() {
                window_sum += adjacent[k - 1];
                window_sum -= adjacent[k - 1 - window];
                ma_scores.push(window_sum / window as f64);
            }
            stable_point = ma_scores.iter().position(|&ma| ma > tau).map(|i| i + omega);
        }
        Profile {
            adjacent,
            ma_scores,
            stable_point,
            stable_rfd: stable_point.map(|k| history[k].clone()),
            final_rfd: history[posts.len()].clone(),
        }
    }
}

/// An rfd as comparable bits: `(tag, f64::to_bits(weight))`.
fn rfd_bits(rfd: &Rfd) -> Vec<(u32, u64)> {
    rfd.iter().map(|(t, w)| (t.0, w.to_bits())).collect()
}

fn entry_bits(entries: &reference::Entries) -> Vec<(u32, u64)> {
    entries.iter().map(|(t, w)| (t.0, w.to_bits())).collect()
}

fn f64_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that every field of the analyzer's profile equals the reference's
/// bit for bit.
fn assert_profile_matches_reference(posts: &[Post], omega: usize, tau: f64) {
    let params = StabilityParams::new(omega, tau);
    let got = StabilityAnalyzer::new(params).analyze(posts);
    let want = reference::analyze(posts, omega, tau);
    let case = format!("ω={omega} τ={tau} len={}", posts.len());
    assert_eq!(
        f64_bits(&got.adjacent_similarity),
        f64_bits(&want.adjacent),
        "adjacent, {case}"
    );
    assert_eq!(
        f64_bits(&got.ma_scores),
        f64_bits(&want.ma_scores),
        "MA, {case}"
    );
    assert_eq!(got.stable_point, want.stable_point, "stable point, {case}");
    assert_eq!(
        got.stable_rfd.as_ref().map(rfd_bits),
        want.stable_rfd.as_ref().map(entry_bits),
        "stable rfd, {case}"
    );
    assert_eq!(
        rfd_bits(&got.final_rfd),
        entry_bits(&want.final_rfd),
        "final rfd, {case}"
    );
    assert_eq!(got.params, params);
}

/// The (ω, τ) grid of the oracle tests: the strategies' ω = 5, the dataset
/// preparation's ω = 20 and τ = 0.9999, and looser values around them.
const OMEGAS: [usize; 3] = [2, 5, 20];
const TAUS: [f64; 3] = [0.9, 0.99, 0.9999];

/// Strategy: up to 300 posts drawn from a pool of 1–4 posts, so the rfd
/// converges and long sequences cross even τ = 0.9999.
fn arb_converging_sequence() -> impl Strategy<Value = Vec<Post>> {
    (
        proptest::collection::vec(arb_post(), 1..=4),
        proptest::collection::vec(0usize..4, 0..300),
    )
        .prop_map(|(pool, picks)| {
            picks
                .iter()
                .map(|&i| pool[i % pool.len()].clone())
                .collect()
        })
}

/// Strategy: a post over a small tag universe (1–6 distinct tags out of 12).
fn arb_post() -> impl Strategy<Value = Post> {
    proptest::collection::btree_set(0u32..12, 1..=6)
        .prop_map(|tags| Post::new(tags.into_iter().map(TagId)).expect("non-empty"))
}

/// Strategy: a post sequence of 0–60 posts.
fn arb_sequence() -> impl Strategy<Value = Vec<Post>> {
    proptest::collection::vec(arb_post(), 0..60)
}

/// Strategy: raw (tag, count) pairs for building rfds.
fn arb_counts() -> impl Strategy<Value = Vec<(TagId, u64)>> {
    proptest::collection::vec((0u32..20, 0u64..50), 0..15)
        .prop_map(|v| v.into_iter().map(|(t, c)| (TagId(t), c)).collect())
}

proptest! {
    /// `FrequencyTracker::rfd` equals the per-post count-map rfd bit for bit
    /// at every prefix.
    #[test]
    fn tracker_rfd_is_bit_identical_to_reference(posts in arb_sequence()) {
        let history = reference::rfd_history(&posts);
        let mut tracker = FrequencyTracker::new();
        prop_assert_eq!(rfd_bits(&tracker.rfd()), entry_bits(&history[0]));
        for (idx, post) in posts.iter().enumerate() {
            tracker.push(post);
            prop_assert_eq!(rfd_bits(&tracker.rfd()), entry_bits(&history[idx + 1]));
        }
    }

    /// Every field of `StabilityAnalyzer::analyze` equals the two-pass,
    /// history-keeping reference bit for bit, on random sequences.
    #[test]
    fn analyze_is_bit_identical_to_reference(
        posts in arb_sequence(),
        omega in 0usize..3,
        tau in 0usize..3,
    ) {
        assert_profile_matches_reference(&posts, OMEGAS[omega], TAUS[tau]);
    }

    /// The same on converging sequences, which reach their stable points.
    #[test]
    fn analyze_is_bit_identical_to_reference_when_stabilising(
        posts in arb_converging_sequence(),
        omega in 0usize..3,
        tau in 0usize..3,
    ) {
        assert_profile_matches_reference(&posts, OMEGAS[omega], TAUS[tau]);
    }

    /// A non-empty rfd always sums to 1; the empty rfd sums to 0.
    #[test]
    fn rfd_total_mass_is_one_or_zero(counts in arb_counts()) {
        let rfd = Rfd::from_counts(counts.iter().copied());
        let mass = rfd.total_mass();
        if rfd.is_empty() {
            prop_assert!(mass.abs() < 1e-12);
        } else {
            prop_assert!((mass - 1.0).abs() < 1e-9, "mass = {mass}");
        }
    }

    /// Every component of an rfd lies in (0, 1].
    #[test]
    fn rfd_components_are_probabilities(counts in arb_counts()) {
        let rfd = Rfd::from_counts(counts.iter().copied());
        for (_, w) in rfd.iter() {
            prop_assert!(w > 0.0 && w <= 1.0 + 1e-12);
        }
    }

    /// The incremental frequency tracker agrees with the non-incremental
    /// definition at every prefix length.
    #[test]
    fn tracker_matches_prefix_definition(posts in arb_sequence()) {
        let mut tracker = FrequencyTracker::new();
        for (idx, post) in posts.iter().enumerate() {
            tracker.push(post);
            let k = idx + 1;
            prop_assert_eq!(tracker.rfd(), rfd_of_prefix(&posts, k));
        }
    }

    /// All similarity metrics return values in [0, 1], are symmetric, and give 1
    /// on identical non-empty inputs.
    #[test]
    fn similarity_metrics_bounded_symmetric_reflexive(
        a in arb_counts(),
        b in arb_counts(),
    ) {
        let ra = Rfd::from_counts(a.iter().copied());
        let rb = Rfd::from_counts(b.iter().copied());
        for kind in MetricKind::ALL {
            let metric = kind.build();
            let s_ab = metric.similarity(&ra, &rb);
            let s_ba = metric.similarity(&rb, &ra);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s_ab), "{}: {}", metric.name(), s_ab);
            prop_assert!((s_ab - s_ba).abs() < 1e-9, "{} asymmetric", metric.name());
            if !ra.is_empty() {
                let s_aa = metric.similarity(&ra, &ra);
                prop_assert!((s_aa - 1.0).abs() < 1e-9, "{}: self-sim {}", metric.name(), s_aa);
            }
        }
    }

    /// Cosine similarity is invariant to scaling the raw counts.
    #[test]
    fn cosine_scale_invariant(counts in arb_counts(), factor in 1u64..20) {
        let a = Rfd::from_counts(counts.iter().copied());
        let b = Rfd::from_counts(counts.iter().map(|&(t, c)| (t, c * factor)));
        if !a.is_empty() {
            prop_assert!((cosine(&a, &b) - 1.0).abs() < 1e-9);
        }
    }

    /// The incremental MA tracker agrees with the offline stability analyzer at
    /// every prefix, for several window sizes.
    #[test]
    fn ma_tracker_matches_offline(posts in arb_sequence(), omega in 2usize..8) {
        let analyzer = StabilityAnalyzer::new(StabilityParams::new(omega, 0.9999));
        let profile = analyzer.analyze(&posts);
        let mut tracker = MaTracker::new(omega);
        for (idx, post) in posts.iter().enumerate() {
            let ma = tracker.push(post);
            let k = idx + 1;
            match (ma, profile.ma_at(k)) {
                (Some(inc), Some(off)) => prop_assert!((inc - off).abs() < 1e-9),
                (None, None) => {}
                (inc, off) => prop_assert!(false, "definedness mismatch at k={k}: {inc:?} vs {off:?}"),
            }
        }
    }

    /// The MA score, when defined, lies in [0, 1].
    #[test]
    fn ma_scores_bounded(posts in arb_sequence()) {
        let analyzer = StabilityAnalyzer::new(StabilityParams::strategy_default());
        let profile = analyzer.analyze(&posts);
        for &ma in &profile.ma_scores {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&ma));
        }
    }

    /// The stable point, if reported, really is the smallest k whose MA score
    /// exceeds τ.
    #[test]
    fn stable_point_is_minimal(posts in arb_sequence(), tau in 0.5f64..0.999) {
        let params = StabilityParams::new(4, tau);
        let analyzer = StabilityAnalyzer::new(params);
        let profile = analyzer.analyze(&posts);
        if let Some(sp) = profile.stable_point {
            prop_assert!(profile.ma_at(sp).unwrap() > tau);
            for k in params.omega..sp {
                prop_assert!(profile.ma_at(k).unwrap() <= tau, "earlier k={k} already stable");
            }
        } else {
            for k in params.omega..=posts.len() {
                prop_assert!(profile.ma_at(k).unwrap() <= tau);
            }
        }
    }

    /// A quality curve evaluated against the final rfd of the same sequence ends
    /// at exactly 1 and stays within [0, 1] throughout.
    #[test]
    fn quality_curve_bounded_and_ends_at_one(posts in arb_sequence()) {
        prop_assume!(!posts.is_empty());
        let reference = rfd_of_prefix(&posts, posts.len());
        let curve = quality_curve(&posts, &reference);
        prop_assert_eq!(curve.len(), posts.len() + 1);
        for &q in &curve {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&q));
        }
        prop_assert!((curve[posts.len()] - 1.0).abs() < 1e-9);
    }

    /// Quality is invariant under a relabelling (permutation) of tag ids applied
    /// consistently to both the posts and the reference rfd.
    #[test]
    fn quality_invariant_under_tag_relabelling(posts in arb_sequence(), shift in 1u32..50) {
        prop_assume!(!posts.is_empty());
        let reference = rfd_of_prefix(&posts, posts.len());
        let relabel = |t: TagId| TagId(t.0 + shift);
        let shifted_posts: Vec<Post> = posts
            .iter()
            .map(|p| Post::new(p.iter().map(relabel)).unwrap())
            .collect();
        let shifted_reference = Rfd::from_weights(reference.iter().map(|(t, w)| (relabel(t), w)));
        let original = quality_curve(&posts, &reference);
        let shifted = quality_curve(&shifted_posts, &shifted_reference);
        for (o, s) in original.iter().zip(shifted.iter()) {
            prop_assert!((o - s).abs() < 1e-9);
        }
    }
}

/// A scenario frozen from a paper-shaped corpus carries exactly the reference
/// kernel's stable rfds (or full-sequence rfds) and stable points.
#[test]
fn scenario_matches_reference_on_paper_sample_corpus() {
    let corpus = generate(&GeneratorConfig::paper_sample().with_resources(300));
    let params = ScenarioParams::default();
    let scenario = Scenario::from_corpus(&corpus, &params);
    let (omega, tau) = (params.stability.omega, params.stability.tau);
    let mut stabilised = 0;
    for i in 0..corpus.len() {
        let want = reference::analyze(corpus.full_sequence(ResourceId(i as u32)), omega, tau);
        assert_eq!(scenario.stable_points[i], want.stable_point, "resource {i}");
        let reference = want.stable_rfd.as_ref().unwrap_or(&want.final_rfd);
        assert_eq!(
            rfd_bits(&scenario.references[i]),
            entry_bits(reference),
            "resource {i}"
        );
        stabilised += usize::from(want.stable_point.is_some());
    }
    // Both reference branches are exercised.
    assert!(
        stabilised > 0 && stabilised < corpus.len(),
        "{stabilised} of {} stable",
        corpus.len()
    );
}
