//! The Fast-Top method (§4.3): LeftTops join plus online checks for the
//! pruned topologies.
//!
//! The paper's SQL1: the top sub-query computes the unpruned topology
//! results as in Full-Top (but against the much smaller LeftTops table);
//! one lower sub-query per pruned topology checks whether some pair
//! satisfies the constraints, is related by the pruned topology's path,
//! and does not appear in the exception table.

use std::time::Instant;

use ts_exec::Work;

use crate::catalog::Tops;
use crate::methods::common::{online_path_check, Selections};
use crate::methods::{full_top, EvalOutcome, Method, QueryContext};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (also reachable via [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, work: Work) -> EvalOutcome {
    // lint: allow(nondeterministic-source): wall-clock timing statistic only;
    // it lands in the outcome's millis field and never reaches catalog bytes
    let start = Instant::now();
    let sel = Selections::new(ctx, q);

    // Top sub-query: unpruned topologies from LeftTops.
    let (mut tids, plan) = full_top::distinct_tids(&sel, Tops::Left, &work);

    // Lower sub-queries: one online path check per pruned topology of
    // this espair, in id order, over the σs the top sub-query shares.
    let mut pruned: Vec<_> = ctx
        .catalog
        .ranked(q.scheme, sel.o.espair)
        .iter()
        .copied()
        .filter(|&tid| ctx.catalog.meta(tid).pruned)
        .collect();
    pruned.sort_unstable();
    let n_pruned = pruned.len();
    if !pruned.is_empty() {
        let (a_ids, b_ids) = (sel.ids(0, &work), sel.ids(1, &work));
        for tid in pruned {
            if work.interrupted() {
                break;
            }
            if online_path_check(ctx, tid, a_ids, b_ids, &work) {
                tids.push(tid);
            }
        }
    }
    tids.sort_unstable();
    tids.dedup();

    EvalOutcome {
        method: Method::FastTop,
        topologies: tids.into_iter().map(|t| (t, 0.0)).collect(),
        work: work.get(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        detail: format!("{plan} plan over LeftTops UNION {n_pruned} online path checks"),
        exhausted: work.exhausted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::methods::full_top;
    use crate::prune::{prune_catalog, PruneOptions};
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_storage::Predicate;

    /// Fast-Top must produce exactly Full-Top's answer regardless of the
    /// pruning threshold — the central correctness property of §4.
    #[test]
    fn fast_top_equals_full_top_at_any_threshold() {
        let (db, g, schema) = figure3();
        let (cat0, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        let queries = [
            TopologyQuery::new(
                PROTEIN,
                Predicate::contains(1, "enzyme"),
                DNA,
                Predicate::eq(1, "mRNA"),
                3,
            ),
            TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3),
            TopologyQuery::new(PROTEIN, Predicate::contains(1, "vitamin"), DNA, Predicate::True, 3),
        ];
        for threshold in [0, 1, 2, u64::MAX] {
            let mut cat = cat0.clone();
            prune_catalog(&mut cat, PruneOptions { threshold, max_pruned: 64 });
            let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
            for q in &queries {
                let fast = eval(&ctx, q, Work::new());
                let full = full_top::eval(&ctx, q, Work::new());
                assert_eq!(fast.tid_set(), full.tid_set(), "threshold={threshold} query={q:?}");
            }
        }
    }

    #[test]
    fn exception_pair_not_claimed_by_pruned_check() {
        // Select ONLY protein 78 and DNA 215. Their topologies are T3/T4;
        // the pruned P-U-D topology must NOT be reported even though a
        // P-U-D path exists between them (exception table blocks it).
        let (db, g, schema) = figure3();
        let (mut cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "MMS2"), // only protein 78
            DNA,
            Predicate::contains(2, "MMS2"), // only DNA 215
            3,
        );
        let out = eval(&ctx, &q, Work::new());
        for &(tid, _) in &out.topologies {
            let meta = ctx.catalog.meta(tid);
            assert!(
                meta.path_sig.is_none() || meta.path_sig.as_ref().map(|s| s.len()) == Some(1),
                "P-U-D simple topology wrongly claimed for (78, 215)"
            );
        }
        // And the true complex topologies are found (they live in LeftTops).
        assert_eq!(out.tid_set().len(), 2); // T3, T4
    }

    #[test]
    fn detail_reports_pruned_check_count() {
        let (db, g, schema) = figure3();
        let (mut cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3);
        let out = eval(&ctx, &q, Work::new());
        assert!(
            out.detail.contains("UNION 2 online path checks"),
            "two P-D path topologies pruned: {}",
            out.detail
        );
    }
}
