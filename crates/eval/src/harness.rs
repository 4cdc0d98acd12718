//! Evaluation harness: turn model predictions on the held-out interactions
//! into the paper's table rows (per-type ranking + averaged metrics).

use crate::metrics::{ndcg_at_k, precision_at_k, rmse, Candidate, TOP_N};
use siterec_graphs::Split;
use std::collections::BTreeMap;

/// Averaged evaluation result across store types (one table row).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalResult {
    /// NDCG@3 / @5 / @10.
    pub ndcg3: f64,
    /// NDCG@5.
    pub ndcg5: f64,
    /// NDCG@10.
    pub ndcg10: f64,
    /// Precision@3 / @5 / @10 (Eq. 18 with N = 30).
    pub precision3: f64,
    /// Precision@5.
    pub precision5: f64,
    /// Precision@10.
    pub precision10: f64,
    /// RMSE on normalized order counts.
    pub rmse: f64,
    /// Number of store types that contributed to the averages.
    pub types_evaluated: usize,
}

/// Per-type ranking metrics (Figs. 12–13).
#[derive(Debug, Clone)]
pub struct TypeResult {
    /// Store-type index.
    pub ty: usize,
    /// NDCG@3 for the type.
    pub ndcg3: f64,
    /// Precision@3 for the type.
    pub precision3: f64,
    /// Number of candidate regions evaluated.
    pub candidates: usize,
}

/// Minimum held-out candidates a type needs to be rankable.
pub const MIN_CANDIDATES: usize = 5;

/// Ground-truth list size for a candidate pool.
///
/// The paper fixes `N = 30` with roughly 65 held-out candidates per type
/// (39,465 stores / 122 types, 20% test), i.e. the truth set covers ~45% of
/// the pool. At reduced simulation scale a fixed 30 would swallow entire
/// pools and saturate every metric at 1, so we keep the paper's value as a
/// cap and preserve its truth-to-pool ratio below it.
pub fn top_n_for(pool: usize) -> usize {
    TOP_N.min(((pool as f64) * 0.45).round().max(3.0) as usize)
}

/// Evaluate a prediction function on the held-out interactions.
///
/// `predict` receives all test `(region, type)` pairs at once and returns one
/// score per pair (higher = more recommended). Types with fewer than
/// [`MIN_CANDIDATES`] held-out candidates are skipped, mirroring the paper's
/// averaging over "all types in test data".
pub fn evaluate(split: &Split, predict: impl FnOnce(&[(usize, usize)]) -> Vec<f32>) -> EvalResult {
    let (result, _) = evaluate_with_types(split, predict);
    result
}

/// Like [`evaluate`], additionally returning per-type results.
pub fn evaluate_with_types(
    split: &Split,
    predict: impl FnOnce(&[(usize, usize)]) -> Vec<f32>,
) -> (EvalResult, Vec<TypeResult>) {
    use siterec_obs as obs;
    let _span = obs::span!("eval.evaluate", test_pairs = split.test.len());
    let pairs: Vec<(usize, usize)> = split.test.iter().map(|i| (i.region, i.ty)).collect();
    let preds = predict(&pairs);
    assert_eq!(preds.len(), pairs.len(), "prediction arity mismatch");

    // Group candidates by type.
    let mut by_type: BTreeMap<usize, Vec<Candidate>> = BTreeMap::new();
    let mut rmse_pairs = Vec::with_capacity(pairs.len());
    for (i, interaction) in split.test.iter().enumerate() {
        by_type.entry(interaction.ty).or_default().push(Candidate {
            region: interaction.region,
            predicted: preds[i],
            actual: interaction.count as f32,
        });
        rmse_pairs.push((preds[i], interaction.norm));
    }

    let mut acc = EvalResult {
        rmse: rmse(&rmse_pairs),
        ..Default::default()
    };
    let mut per_type = Vec::new();
    for (&ty, cands) in &by_type {
        if cands.len() < MIN_CANDIDATES {
            continue;
        }
        let n = top_n_for(cands.len());
        let n3 = ndcg_at_k(cands, 3, n);
        let p3 = precision_at_k(cands, 3, n);
        acc.ndcg3 += n3;
        acc.ndcg5 += ndcg_at_k(cands, 5, n);
        acc.ndcg10 += ndcg_at_k(cands, 10, n);
        acc.precision3 += p3;
        acc.precision5 += precision_at_k(cands, 5, n);
        acc.precision10 += precision_at_k(cands, 10, n);
        acc.types_evaluated += 1;
        per_type.push(TypeResult {
            ty,
            ndcg3: n3,
            precision3: p3,
            candidates: cands.len(),
        });
    }
    if acc.types_evaluated > 0 {
        let n = acc.types_evaluated as f64;
        acc.ndcg3 /= n;
        acc.ndcg5 /= n;
        acc.ndcg10 /= n;
        acc.precision3 /= n;
        acc.precision5 /= n;
        acc.precision10 /= n;
    }
    obs::hist_record("eval.ndcg3", acc.ndcg3);
    obs::hist_record("eval.rmse", acc.rmse);
    obs::olog!(
        Debug,
        "eval: {} types, ndcg@3={:.4} p@3={:.4} rmse={:.4}",
        acc.types_evaluated,
        acc.ndcg3,
        acc.precision3,
        acc.rmse
    );
    (acc, per_type)
}

/// Evaluate restricted to a candidate subset (Fig. 14's downtown / suburb /
/// average region distributions): only test interactions whose region is in
/// `allowed` are ranked.
pub fn evaluate_subset(
    split: &Split,
    allowed: &[usize],
    predict: impl FnOnce(&[(usize, usize)]) -> Vec<f32>,
) -> EvalResult {
    let mut sub = split.clone();
    let allow: std::collections::HashSet<usize> = allowed.iter().copied().collect();
    sub.test.retain(|i| allow.contains(&i.region));
    evaluate(&sub, predict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_graphs::Split;
    use siterec_sim::{O2oDataset, SimConfig};

    fn split() -> Split {
        let d = O2oDataset::generate(SimConfig::tiny(61));
        Split::new(&d, 0.8, 11)
    }

    #[test]
    fn oracle_predictor_scores_high() {
        let s = split();
        let (res, per_type) = evaluate_with_types(&s, |pairs| {
            pairs
                .iter()
                .map(|&(r, t)| {
                    s.test
                        .iter()
                        .find(|i| i.region == r && i.ty == t)
                        .map(|i| i.norm)
                        .unwrap_or(0.0)
                })
                .collect()
        });
        assert!(res.types_evaluated > 0);
        assert!(res.ndcg3 > 0.95, "oracle ndcg3 {}", res.ndcg3);
        assert!(res.precision3 > 0.95, "oracle p3 {}", res.precision3);
        assert!(res.rmse < 1e-6);
        assert!(!per_type.is_empty());
    }

    #[test]
    fn random_predictor_scores_lower_than_oracle() {
        let s = split();
        // Deterministic pseudo-random scores.
        let rand_res = evaluate(&s, |pairs| {
            pairs
                .iter()
                .enumerate()
                .map(|(i, _)| ((i * 2654435761) % 1000) as f32 / 1000.0)
                .collect()
        });
        let oracle = evaluate(&s, |pairs| {
            pairs
                .iter()
                .map(|&(r, t)| {
                    s.test
                        .iter()
                        .find(|i| i.region == r && i.ty == t)
                        .map(|i| i.norm)
                        .unwrap_or(0.0)
                })
                .collect()
        });
        assert!(oracle.ndcg3 > rand_res.ndcg3 + 0.05);
        assert!(oracle.rmse < rand_res.rmse);
    }

    #[test]
    fn constant_predictions_are_handled() {
        let s = split();
        let res = evaluate(&s, |pairs| vec![0.5; pairs.len()]);
        assert!(res.ndcg3.is_finite());
        assert!((0.0..=1.0).contains(&res.precision3));
    }

    #[test]
    fn subset_evaluation_filters_candidates() {
        let s = split();
        let all_regions: Vec<usize> = s.test.iter().map(|i| i.region).collect();
        let half = &all_regions[..all_regions.len() / 2];
        let res = evaluate_subset(&s, half, |pairs| {
            assert!(pairs.iter().all(|(r, _)| half.contains(r)));
            vec![0.1; pairs.len()]
        });
        assert!(res.types_evaluated <= evaluate(&s, |p| vec![0.1; p.len()]).types_evaluated);
    }
}
