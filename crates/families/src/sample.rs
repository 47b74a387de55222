//! Distribution-preserving workload sampling.
//!
//! §4.1.1: "we sampled 100 queries from each family, in a way that the
//! distribution of elapsed times of the larger family was preserved."
//! Running the full families to learn their elapsed times is exactly the
//! 375-machine-day problem the paper describes, so — like the authors —
//! we stratify on a cheap stand-in: each query's *estimated* cost in the
//! initial configuration. Queries are bucketed by order of magnitude of
//! that cost and the sample takes from each bucket proportionally
//! (largest-remainder allocation), so the sample's cost distribution
//! matches the family's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tab_sqlq::Query;
use tab_storage::{par_map, Parallelism};

/// Sample `n` queries preserving the distribution of `cost_of` across
/// log10 buckets. Deterministic for a fixed seed. If the family has at
/// most `n` queries it is returned whole.
///
/// The cost model is evaluated over `par` — stratification costs one
/// planner invocation per enumerated query (thousands per family),
/// which dominates the sampling step. The sampled workload is identical
/// at any thread count: costs are collected in query order before
/// bucketing.
pub fn sample_preserving(
    queries: &[Query],
    cost_of: impl Fn(&Query) -> f64 + Sync,
    n: usize,
    seed: u64,
    par: Parallelism,
) -> Vec<Query> {
    if queries.len() <= n {
        return queries.to_vec();
    }
    let costs = par_map(par, queries, cost_of);
    let mut rng = StdRng::seed_from_u64(seed);

    // Bucket by order of magnitude.
    let mut buckets: Vec<(i32, Vec<usize>)> = Vec::new();
    for (i, c) in costs.iter().enumerate() {
        let c = c.max(1e-9);
        let b = c.log10().floor() as i32;
        match buckets.iter_mut().find(|(k, _)| *k == b) {
            Some((_, v)) => v.push(i),
            None => buckets.push((b, vec![i])),
        }
    }
    buckets.sort_by_key(|(k, _)| *k);

    // Largest-remainder proportional allocation.
    let total = queries.len() as f64;
    let mut alloc: Vec<(usize, f64)> = buckets
        .iter()
        .map(|(_, v)| {
            let exact = n as f64 * v.len() as f64 / total;
            (exact.floor() as usize, exact.fract())
        })
        .collect();
    let mut assigned: usize = alloc.iter().map(|(a, _)| a).sum();
    let mut order: Vec<usize> = (0..alloc.len()).collect();
    order.sort_by(|&a, &b| {
        alloc[b]
            .1
            .partial_cmp(&alloc[a].1)
            .expect("finite fractions")
    });
    for &i in &order {
        if assigned >= n {
            break;
        }
        if alloc[i].0 < buckets[i].1.len() {
            alloc[i].0 += 1;
            assigned += 1;
        }
    }
    // If rounding still left a shortfall (tiny buckets), take greedily.
    let mut i = 0;
    while assigned < n {
        if alloc[i].0 < buckets[i].1.len() {
            alloc[i].0 += 1;
            assigned += 1;
        }
        i = (i + 1) % buckets.len();
    }

    let mut out = Vec::with_capacity(n);
    for ((_, members), (take, _)) in buckets.iter().zip(&alloc) {
        let mut m = members.clone();
        m.shuffle(&mut rng);
        for &idx in m.iter().take(*take) {
            out.push(queries[idx].clone());
        }
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_sqlq::parse;

    fn mk(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                parse(&format!(
                    "SELECT t.a, COUNT(*) FROM t WHERE t.b = {i} GROUP BY t.a"
                ))
                .unwrap()
            })
            .collect()
    }

    /// Cost keyed off the constant in the query, for test determinism.
    fn cost(q: &Query) -> f64 {
        match &q.predicates[0] {
            tab_sqlq::Predicate::ConstEq(_, v) => {
                let i = v.as_int().unwrap();
                if i % 10 == 0 {
                    5000.0 // 10% expensive
                } else {
                    5.0
                }
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn preserves_bucket_proportions() {
        let qs = mk(1000);
        let sample = sample_preserving(&qs, cost, 100, 42, Parallelism::sequential());
        assert_eq!(sample.len(), 100);
        let expensive = sample.iter().filter(|q| cost(q) > 100.0).count();
        assert!(
            (8..=12).contains(&expensive),
            "expected ~10 expensive, got {expensive}"
        );
    }

    #[test]
    fn small_family_returned_whole() {
        let qs = mk(40);
        let sample = sample_preserving(&qs, cost, 100, 1, Parallelism::sequential());
        assert_eq!(sample.len(), 40);
    }

    #[test]
    fn deterministic_for_seed() {
        let qs = mk(500);
        let a = sample_preserving(&qs, cost, 100, 7, Parallelism::sequential());
        let b = sample_preserving(&qs, cost, 100, 7, Parallelism::sequential());
        assert_eq!(a, b);
        let c = sample_preserving(&qs, cost, 100, 8, Parallelism::sequential());
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_matches_serial() {
        let qs = mk(800);
        let serial = sample_preserving(&qs, cost, 100, 11, Parallelism::sequential());
        for threads in [1, 2, 4] {
            let par = sample_preserving(&qs, cost, 100, 11, Parallelism::new(threads));
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn no_duplicates() {
        let qs = mk(300);
        let sample = sample_preserving(&qs, cost, 100, 3, Parallelism::sequential());
        let mut texts: Vec<String> = sample.iter().map(|q| q.to_string()).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 100);
    }
}
