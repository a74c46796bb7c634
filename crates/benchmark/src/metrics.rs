//! Set- and sequence-based notebook distance metrics of the A-EDA
//! benchmark (paper §6.3): Precision and T-BLEU-n.
//!
//! Both treat a notebook as the sequence of its views' canonical
//! identities; the gold standard is a set of curated notebooks.

use std::collections::{HashMap, HashSet};

/// Precision (paper §6.3, metric 1): notebooks as *sets* of distinct views;
/// a view is a hit if it occurs in any gold-standard notebook.
pub fn precision(generated: &[String], golds: &[Vec<String>]) -> f64 {
    let gen_set: HashSet<&String> = generated.iter().collect();
    if gen_set.is_empty() {
        return 0.0;
    }
    let gold_union: HashSet<&String> = golds.iter().flatten().collect();
    let hits = gen_set.iter().filter(|v| gold_union.contains(**v)).count();
    hits as f64 / gen_set.len() as f64
}

/// T-BLEU-n (paper §6.3, metrics 2–4): BLEU \[33\] over view sequences —
/// clipped n-gram precision against the gold set, geometric mean over
/// orders `1..=n`, with the standard brevity penalty. Stricter than
/// Precision since it accounts for view prevalence and order.
pub fn t_bleu(generated: &[String], golds: &[Vec<String>], max_n: usize) -> f64 {
    assert!(max_n >= 1, "BLEU order must be at least 1");
    if generated.is_empty() || golds.is_empty() {
        return 0.0;
    }

    let mut log_precision_sum = 0.0f64;
    for n in 1..=max_n {
        let p = modified_ngram_precision(generated, golds, n);
        if p <= 0.0 {
            return 0.0;
        }
        log_precision_sum += p.ln();
    }
    let geo_mean = (log_precision_sum / max_n as f64).exp();

    // Brevity penalty with the closest reference length.
    let c = generated.len() as f64;
    let r = golds
        .iter()
        .map(|g| g.len())
        .min_by_key(|&len| {
            let diff = (len as i64 - generated.len() as i64).abs();
            (diff, len)
        })
        .unwrap_or(0) as f64;
    let bp = if c >= r { 1.0 } else { (1.0 - r / c).exp() };
    bp * geo_mean
}

fn ngrams(seq: &[String], n: usize) -> HashMap<Vec<&str>, usize> {
    let mut out = HashMap::new();
    if seq.len() < n {
        return out;
    }
    for w in seq.windows(n) {
        let key: Vec<&str> = w.iter().map(String::as_str).collect();
        *out.entry(key).or_insert(0) += 1;
    }
    out
}

fn modified_ngram_precision(generated: &[String], golds: &[Vec<String>], n: usize) -> f64 {
    let gen_grams = ngrams(generated, n);
    let total: usize = gen_grams.values().sum();
    if total == 0 {
        return 0.0;
    }
    let ref_grams: Vec<HashMap<Vec<&str>, usize>> = golds.iter().map(|g| ngrams(g, n)).collect();
    let mut clipped = 0usize;
    for (gram, &count) in &gen_grams {
        let max_ref = ref_grams
            .iter()
            .map(|r| r.get(gram).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        clipped += count.min(max_ref);
    }
    clipped as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn precision_counts_hits() {
        let golds = vec![s(&["a", "b", "c"]), s(&["c", "d"])];
        assert_eq!(precision(&s(&["a", "d", "z"]), &golds), 2.0 / 3.0);
        assert_eq!(precision(&s(&["z", "y"]), &golds), 0.0);
        assert_eq!(precision(&s(&["a", "a", "a"]), &golds), 1.0); // set semantics
        assert_eq!(precision(&[], &golds), 0.0);
    }

    #[test]
    fn bleu_perfect_match_is_one() {
        let gold = vec![s(&["a", "b", "c", "d"])];
        let v = s(&["a", "b", "c", "d"]);
        for n in 1..=3 {
            let score = t_bleu(&v, &gold, n);
            assert!((score - 1.0).abs() < 1e-12, "n={n}: {score}");
        }
    }

    #[test]
    fn bleu_orders_are_increasingly_strict() {
        let gold = vec![s(&["a", "b", "c", "d"])];
        // Same views, scrambled order: unigram precision perfect, higher
        // orders degrade.
        let scrambled = s(&["d", "c", "b", "a"]);
        let b1 = t_bleu(&scrambled, &gold, 1);
        let b2 = t_bleu(&scrambled, &gold, 2);
        let b3 = t_bleu(&scrambled, &gold, 3);
        assert!((b1 - 1.0).abs() < 1e-12);
        assert!(b2 < b1);
        assert!(b3 <= b2);
    }

    #[test]
    fn bleu_clips_repeats() {
        let gold = vec![s(&["a", "b"])];
        // "a" appears once in the gold; spamming it does not pay.
        let spam = s(&["a", "a", "a", "a"]);
        let b1 = t_bleu(&spam, &gold, 1);
        assert!((b1 - 0.25).abs() < 1e-12, "{b1}");
    }

    #[test]
    fn brevity_penalty_hits_short_candidates() {
        let gold = vec![s(&["a", "b", "c", "d", "e", "f"])];
        let short = s(&["a", "b"]);
        let b1 = t_bleu(&short, &gold, 1);
        assert!(b1 < 1.0, "short candidate must be penalized, got {b1}");
        assert!(b1 > 0.0);
    }

    #[test]
    fn bleu_multiple_references_takes_best() {
        let golds = vec![s(&["a", "b"]), s(&["x", "y", "z"])];
        let v = s(&["x", "y", "z"]);
        assert!((t_bleu(&v, &golds, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bleu_zero_when_no_overlap() {
        let golds = vec![s(&["a", "b"])];
        assert_eq!(t_bleu(&s(&["q", "r"]), &golds, 1), 0.0);
        assert_eq!(t_bleu(&[], &golds, 1), 0.0);
        assert_eq!(t_bleu(&s(&["a"]), &[], 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "BLEU order")]
    fn bleu_rejects_order_zero() {
        let _ = t_bleu(&[], &[], 0);
    }
}
