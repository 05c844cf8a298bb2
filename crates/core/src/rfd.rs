//! Relative tag frequency distributions (paper §III-B, Definitions 3–5).
//!
//! For a resource `r_i` that has received `k` posts:
//!
//! * the *frequency* of tag `t`, `h_i(t, k)`, is the number of the first `k`
//!   posts that contain `t` (Definition 3);
//! * the *relative tag frequency* `f_i(t, k)` normalises `h_i(t, k)` by the sum
//!   of all tag frequencies, i.e. by the number of (tag, post) incidences among
//!   the first `k` posts (Definition 4);
//! * the *relative tag frequency distribution* (rfd) `F_i(k)` is the vector of
//!   relative frequencies over the whole tag universe (Definition 5).
//!
//! Because a resource typically uses only a tiny fraction of the global tag
//! universe `T`, rfds are stored as **sparse vectors** ([`Rfd`]), exactly the
//! optimisation the paper describes for the MU strategy ("the number of distinct
//! tags associated with a particular resource is usually very small compared
//! with |T|").
//!
//! [`FrequencyTracker`] maintains `h_i(·, k)` incrementally as posts arrive:
//! a push costs `O(|post| log d)`, where `d` is the number of distinct tags
//! seen so far, and [`FrequencyTracker::rfd`] costs `O(d)` with one allocation
//! — it walks the tracker's already-sorted counts instead of rebuilding a map,
//! so it never depends on `|T|` or `k`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::model::{Post, TagId};

/// A sparse relative tag frequency distribution `F_i(k)`.
///
/// Entries are kept sorted by [`TagId`] and always sum to 1 (unless the
/// distribution is empty, which models the paper's `F_i(0) = 0` case).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Rfd {
    entries: Vec<(TagId, f64)>,
}

impl Rfd {
    /// The empty distribution `F_i(0)` (all components zero).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds an rfd from raw tag counts, normalising them so the components
    /// sum to 1. Zero or negative counts are dropped.
    ///
    /// Returns the empty rfd when every count is zero.
    pub fn from_counts<I: IntoIterator<Item = (TagId, u64)>>(counts: I) -> Self {
        let mut map: BTreeMap<TagId, u64> = BTreeMap::new();
        for (tag, c) in counts {
            if c > 0 {
                *map.entry(tag).or_insert(0) += c;
            }
        }
        Self::from_sorted_counts(&map)
    }

    /// Normalises counts that are already keyed and sorted by tag — the one
    /// place an rfd is made from counts, so [`Rfd::from_counts`] and
    /// [`FrequencyTracker::rfd`] perform the same divisions.
    fn from_sorted_counts(counts: &BTreeMap<TagId, u64>) -> Self {
        let total: u64 = counts.values().sum();
        if total == 0 {
            return Self::empty();
        }
        let mut entries = Vec::with_capacity(counts.len());
        entries.extend(
            counts
                .iter()
                .filter(|&(_, &c)| c > 0)
                .map(|(&t, &c)| (t, c as f64 / total as f64)),
        );
        Self { entries }
    }

    /// Builds an rfd directly from already-normalised `(tag, weight)` pairs.
    ///
    /// The weights are re-normalised defensively so the invariant "components
    /// sum to 1" always holds; non-positive weights are dropped.
    pub fn from_weights<I: IntoIterator<Item = (TagId, f64)>>(weights: I) -> Self {
        let mut map: BTreeMap<TagId, f64> = BTreeMap::new();
        for (tag, w) in weights {
            if w > 0.0 && w.is_finite() {
                *map.entry(tag).or_insert(0.0) += w;
            }
        }
        let total: f64 = map.values().sum();
        if total <= 0.0 {
            return Self::empty();
        }
        let entries = map.into_iter().map(|(t, w)| (t, w / total)).collect();
        Self { entries }
    }

    /// Returns `f_i(t, k)` — the relative frequency of `tag`, 0 when absent.
    pub fn get(&self, tag: TagId) -> f64 {
        match self.entries.binary_search_by_key(&tag, |(t, _)| *t) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Number of tags with non-zero relative frequency.
    pub fn support(&self) -> usize {
        self.entries.len()
    }

    /// Returns true for the all-zero distribution `F_i(0)`.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(tag, relative frequency)` pairs in ascending tag order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sum of all components (1 for non-empty rfds, 0 for the empty rfd).
    pub fn total_mass(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w).sum()
    }

    /// Euclidean (L2) norm of the sparse vector.
    pub fn l2_norm(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another rfd, exploiting sparsity (merge join).
    pub fn dot(&self, other: &Rfd) -> f64 {
        let mut acc = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (ta, wa) = self.entries[i];
            let (tb, wb) = other.entries[j];
            match ta.cmp(&tb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// L1 distance to another rfd (used by alternative similarity metrics).
    pub fn l1_distance(&self, other: &Rfd) -> f64 {
        let mut acc = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() || j < other.entries.len() {
            match (self.entries.get(i), other.entries.get(j)) {
                (Some(&(ta, wa)), Some(&(tb, wb))) => match ta.cmp(&tb) {
                    std::cmp::Ordering::Less => {
                        acc += wa;
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        acc += wb;
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        acc += (wa - wb).abs();
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(_, wa)), None) => {
                    acc += wa;
                    i += 1;
                }
                (None, Some(&(_, wb))) => {
                    acc += wb;
                    j += 1;
                }
                (None, None) => break,
            }
        }
        acc
    }

    /// The tags of the distribution ordered by descending relative frequency
    /// (ties broken by ascending tag id). Used by the case studies to show the
    /// "top tags" of a resource.
    pub fn top_tags(&self, k: usize) -> Vec<(TagId, f64)> {
        let mut sorted: Vec<(TagId, f64)> = self.entries.clone();
        sorted.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        sorted.truncate(k);
        sorted
    }

    /// Converts the sparse representation into a dense vector of length
    /// `universe_size`. Intended for tests and small examples only.
    pub fn to_dense(&self, universe_size: usize) -> Vec<f64> {
        let mut dense = vec![0.0; universe_size];
        for &(tag, w) in &self.entries {
            if tag.index() < universe_size {
                dense[tag.index()] = w;
            }
        }
        dense
    }
}

/// Incrementally maintains the tag frequencies `h_i(·, k)` of one resource as
/// posts arrive, and produces the rfd `F_i(k)` on demand.
///
/// The tracker is the workhorse behind both the MU strategy's incremental MA
/// score maintenance and the simulation engine: pushing a post costs
/// `O(|post| log d)` where `d` is the number of distinct tags seen so far, and
/// producing `F_i(k)` costs `O(d)` with a single allocation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FrequencyTracker {
    counts: BTreeMap<TagId, u64>,
    /// Total number of (tag, post) incidences, i.e. `Σ_t h_i(t, k)`.
    incidences: u64,
    /// Number of posts consumed so far (the paper's `k`).
    posts: u64,
}

impl FrequencyTracker {
    /// Creates a tracker that has seen no posts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker pre-loaded with an initial prefix of posts.
    pub fn from_posts<'a, I: IntoIterator<Item = &'a Post>>(posts: I) -> Self {
        let mut tracker = Self::new();
        for p in posts {
            tracker.push(p);
        }
        tracker
    }

    /// Consumes one more post, updating `h_i(·, k)` and `k`.
    pub fn push(&mut self, post: &Post) {
        for tag in post.iter() {
            *self.counts.entry(tag).or_insert(0) += 1;
            self.incidences += 1;
        }
        self.posts += 1;
    }

    /// Number of posts consumed (the paper's `k`).
    pub fn post_count(&self) -> u64 {
        self.posts
    }

    /// `h_i(t, k)`: the number of consumed posts containing `tag`.
    pub fn frequency(&self, tag: TagId) -> u64 {
        self.counts.get(&tag).copied().unwrap_or(0)
    }

    /// `f_i(t, k)`: the relative frequency of `tag` (0 when no post has been seen).
    pub fn relative_frequency(&self, tag: TagId) -> f64 {
        if self.incidences == 0 {
            0.0
        } else {
            self.frequency(tag) as f64 / self.incidences as f64
        }
    }

    /// Number of distinct tags seen so far.
    pub fn distinct_tags(&self) -> usize {
        self.counts.len()
    }

    /// Total (tag, post) incidences `Σ_t h_i(t, k)` — the rfd normaliser.
    pub fn total_incidences(&self) -> u64 {
        self.incidences
    }

    /// Produces the current rfd `F_i(k)`.
    ///
    /// Equal bit for bit to [`Rfd::from_counts`] over [`Self::counts`]: the
    /// counts are already sorted by tag, and the normaliser is their sum (not
    /// the cached incidence count), so even a deserialized tracker yields
    /// components that sum to 1.
    pub fn rfd(&self) -> Rfd {
        Rfd::from_sorted_counts(&self.counts)
    }

    /// Iterates over the raw `(tag, h_i(tag, k))` counts.
    pub fn counts(&self) -> impl Iterator<Item = (TagId, u64)> + '_ {
        self.counts.iter().map(|(&t, &c)| (t, c))
    }
}

/// Convenience function: compute `F_i(k)` directly from the first `k` posts of a
/// sequence, as done in the paper's definitions (non-incremental form).
pub fn rfd_of_prefix(posts: &[Post], k: usize) -> Rfd {
    let tracker = FrequencyTracker::from_posts(posts.iter().take(k));
    tracker.rfd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TagDictionary;

    fn post(dict: &mut TagDictionary, names: &[&str]) -> Post {
        Post::from_names(dict, names.iter().copied()).unwrap()
    }

    #[test]
    fn empty_rfd_is_all_zero() {
        let rfd = Rfd::empty();
        assert!(rfd.is_empty());
        assert_eq!(rfd.get(TagId(0)), 0.0);
        assert_eq!(rfd.total_mass(), 0.0);
        assert_eq!(rfd.l2_norm(), 0.0);
    }

    #[test]
    fn from_counts_normalises() {
        let rfd = Rfd::from_counts([(TagId(0), 2), (TagId(1), 1), (TagId(2), 1)]);
        assert!((rfd.get(TagId(0)) - 0.5).abs() < 1e-12);
        assert!((rfd.get(TagId(1)) - 0.25).abs() < 1e-12);
        assert!((rfd.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(rfd.support(), 3);
    }

    #[test]
    fn from_counts_drops_zeros_and_merges_duplicates() {
        let rfd = Rfd::from_counts([(TagId(3), 0), (TagId(1), 2), (TagId(1), 2)]);
        assert_eq!(rfd.support(), 1);
        assert!((rfd.get(TagId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_renormalises_and_filters() {
        let rfd = Rfd::from_weights([
            (TagId(0), 0.2),
            (TagId(1), 0.2),
            (TagId(2), -1.0),
            (TagId(3), f64::NAN),
        ]);
        assert_eq!(rfd.support(), 2);
        assert!((rfd.get(TagId(0)) - 0.5).abs() < 1e-12);
        assert!((rfd.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_all_invalid_gives_empty() {
        let rfd = Rfd::from_weights([(TagId(0), 0.0), (TagId(1), -3.0)]);
        assert!(rfd.is_empty());
    }

    #[test]
    fn dot_product_merge_join() {
        let a = Rfd::from_counts([(TagId(0), 1), (TagId(2), 1)]);
        let b = Rfd::from_counts([(TagId(2), 1), (TagId(3), 1)]);
        // a = {0: .5, 2: .5}, b = {2: .5, 3: .5}, dot = .25
        assert!((a.dot(&b) - 0.25).abs() < 1e-12);
        assert!((a.dot(&a) - 0.5).abs() < 1e-12);
        assert_eq!(a.dot(&Rfd::empty()), 0.0);
    }

    #[test]
    fn l1_distance_handles_disjoint_support() {
        let a = Rfd::from_counts([(TagId(0), 1)]);
        let b = Rfd::from_counts([(TagId(1), 1)]);
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-12);
        assert!((a.l1_distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn top_tags_orders_by_weight_then_id() {
        let rfd = Rfd::from_counts([(TagId(5), 3), (TagId(1), 3), (TagId(2), 1)]);
        let top = rfd.top_tags(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, TagId(1));
        assert_eq!(top[1].0, TagId(5));
    }

    #[test]
    fn to_dense_roundtrip() {
        let rfd = Rfd::from_counts([(TagId(0), 1), (TagId(3), 3)]);
        let dense = rfd.to_dense(5);
        assert_eq!(dense.len(), 5);
        assert!((dense[0] - 0.25).abs() < 1e-12);
        assert!((dense[3] - 0.75).abs() < 1e-12);
        assert_eq!(dense[1], 0.0);
    }

    #[test]
    fn tracker_matches_paper_definition_3_and_4() {
        // Table I of the paper: r1 receives ({google, earth}, {google, geographic}, {earth}).
        let mut dict = TagDictionary::new();
        let p1 = post(&mut dict, &["google", "earth"]);
        let p2 = post(&mut dict, &["google", "geographic"]);
        let p3 = post(&mut dict, &["earth"]);
        let google = dict.get("google").unwrap();
        let earth = dict.get("earth").unwrap();
        let geographic = dict.get("geographic").unwrap();

        let mut tracker = FrequencyTracker::new();
        tracker.push(&p1);
        tracker.push(&p2);
        tracker.push(&p3);

        // h(google, 3) = 2, h(earth, 3) = 2, h(geographic, 3) = 1; total incidences = 5.
        assert_eq!(tracker.post_count(), 3);
        assert_eq!(tracker.frequency(google), 2);
        assert_eq!(tracker.frequency(earth), 2);
        assert_eq!(tracker.frequency(geographic), 1);
        assert_eq!(tracker.total_incidences(), 5);
        assert!((tracker.relative_frequency(google) - 0.4).abs() < 1e-12);
        assert!((tracker.relative_frequency(geographic) - 0.2).abs() < 1e-12);

        // Table II first row: F1(3) = (google .4, geographic .2, earth .4, pictures 0).
        let rfd = tracker.rfd();
        assert!((rfd.get(google) - 0.4).abs() < 1e-12);
        assert!((rfd.get(earth) - 0.4).abs() < 1e-12);
        assert!((rfd.get(geographic) - 0.2).abs() < 1e-12);
        assert_eq!(rfd.get(TagId(99)), 0.0);
    }

    #[test]
    fn tracker_zero_posts_gives_empty_rfd() {
        let tracker = FrequencyTracker::new();
        assert_eq!(tracker.post_count(), 0);
        assert_eq!(tracker.relative_frequency(TagId(0)), 0.0);
        assert!(tracker.rfd().is_empty());
    }

    #[test]
    fn rfd_of_prefix_matches_incremental() {
        let mut dict = TagDictionary::new();
        let posts = vec![
            post(&mut dict, &["a", "b"]),
            post(&mut dict, &["b", "c"]),
            post(&mut dict, &["a"]),
            post(&mut dict, &["d", "a", "c"]),
        ];
        for k in 0..=posts.len() {
            let direct = rfd_of_prefix(&posts, k);
            let tracker = FrequencyTracker::from_posts(posts.iter().take(k));
            assert_eq!(direct, tracker.rfd(), "prefix length {k}");
        }
    }

    #[test]
    fn tracker_distinct_tags() {
        let mut dict = TagDictionary::new();
        let mut tracker = FrequencyTracker::new();
        tracker.push(&post(&mut dict, &["a", "b"]));
        tracker.push(&post(&mut dict, &["b", "c"]));
        assert_eq!(tracker.distinct_tags(), 3);
        let seen: Vec<_> = tracker.counts().collect();
        assert_eq!(seen.len(), 3);
    }
}
