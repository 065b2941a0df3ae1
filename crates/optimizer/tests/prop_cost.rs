//! Property tests for the Theorem-1 cost model and the System-R planner.

use proptest::prelude::*;
use ts_optimizer::{
    et_stack_cost, plan_join_order, CostModel, DgjOpParams, DgjStackParams, JoinEdge, JoinGraph,
    Relation,
};

fn arb_op() -> impl Strategy<Value = DgjOpParams> {
    (0.1f64..10.0, 0.0f64..1.0, 0.5f64..4.0).prop_map(|(fanout, rho, probe_cost)| DgjOpParams {
        fanout,
        rho,
        probe_cost,
    })
}

fn arb_stack() -> impl Strategy<Value = DgjStackParams> {
    (proptest::collection::vec(arb_op(), 1..4), proptest::collection::vec(1.0f64..200.0, 1..30))
        .prop_map(|(ops, groups)| DgjStackParams { ops, groups })
}

/// Stacks whose groups repeat a handful of cardinalities many times
/// over, like real per-topology frequencies.
fn arb_repetitive_stack() -> impl Strategy<Value = DgjStackParams> {
    (
        proptest::collection::vec(arb_op(), 1..4),
        proptest::collection::vec(1u32..60, 1..5),
        proptest::collection::vec(0usize..8, 1..120),
    )
        .prop_map(|(ops, palette, picks)| DgjStackParams {
            ops,
            groups: picks.iter().map(|&i| f64::from(palette[i % palette.len()])).collect(),
        })
}

/// The naive reference: Lemmas 1–2 and Theorems 2–4 evaluated for every
/// group separately, and Theorem 1's DP with a fresh row per level.
struct Naive {
    np: Vec<f64>,
    nc: Vec<f64>,
    ec: Vec<f64>,
}

impl Naive {
    fn derive(p: &DgjStackParams) -> Naive {
        let n = p.ops.len();
        let mut x = vec![0.0; n + 2];
        x[n + 1] = 1.0;
        let mut delta = vec![0.0; n + 2];
        for i in (1..=n).rev() {
            let op = p.ops[i - 1];
            x[i] = 1.0 - (1.0 - op.rho * x[i + 1]).max(0.0).powf(op.fanout.max(0.0));
            delta[i] = op.probe_cost + op.fanout * op.rho * delta[i + 1];
        }
        let x1 = if n == 0 { 1.0 } else { x[1] };
        let d1 = if n == 0 { 0.0 } else { delta[1] };
        let mut out = Naive { np: Vec::new(), nc: Vec::new(), ec: Vec::new() };
        for &card in &p.groups {
            let np = (1.0 - x1).max(0.0).powf(card);
            out.np.push(np);
            out.nc.push(np * card * d1);
            out.ec.push(Self::ec(p, &x, &delta, 1, card.max(0.0)).max(0.0));
        }
        out
    }

    fn ec(p: &DgjStackParams, x: &[f64], delta: &[f64], l: usize, h: f64) -> f64 {
        if l > p.ops.len() || h <= 0.0 {
            return 0.0;
        }
        let op = p.ops[l - 1];
        let xl = x[l].clamp(0.0, 1.0);
        if xl <= f64::EPSILON {
            return 0.0;
        }
        let q = 1.0 - xl;
        let qh = q.powf(h);
        let s0 = 1.0 - qh;
        let s1 = if q <= f64::EPSILON {
            0.0
        } else {
            xl * q * (1.0 - h * q.powf(h - 1.0) + (h - 1.0) * qh) / ((1.0 - q) * (1.0 - q))
        };
        s1 * delta[l] + s0 * (op.probe_cost + Self::ec(p, x, delta, l + 1, op.fanout))
    }

    fn cost(p: &DgjStackParams, k: usize) -> f64 {
        let m = p.groups.len();
        if m == 0 || k == 0 {
            return 0.0;
        }
        let model = Naive::derive(p);
        let kmax = k.min(m);
        let mut next = vec![0.0f64; kmax + 1];
        for l in (1..=m).rev() {
            let mut cur = vec![0.0f64; kmax + 1];
            for kk in 1..=kmax {
                let i = l - 1;
                cur[kk] = model.ec[i]
                    + (1.0 - model.np[i]) * next[kk - 1]
                    + model.nc[i]
                    + model.np[i] * next[kk];
            }
            next = cur;
        }
        next[kmax]
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memoized_model_matches_the_naive_reference_bit_for_bit(
        p in arb_repetitive_stack(),
        k in 1usize..12,
    ) {
        let (model, naive) = (CostModel::derive(&p), Naive::derive(&p));
        prop_assert_eq!(bits(&model.np), bits(&naive.np));
        prop_assert_eq!(bits(&model.nc), bits(&naive.nc));
        prop_assert_eq!(bits(&model.ec), bits(&naive.ec));
        prop_assert_eq!(et_stack_cost(&p, k).to_bits(), Naive::cost(&p, k).to_bits());
    }

    #[test]
    fn probabilities_are_probabilities(p in arb_stack()) {
        let m = CostModel::derive(&p);
        for &x in &m.x[1..] {
            prop_assert!((0.0..=1.0).contains(&x), "x = {x}");
        }
        for (&np, &nc) in m.np.iter().zip(m.nc.iter()) {
            prop_assert!((0.0..=1.0).contains(&np), "np = {np}");
            prop_assert!(nc >= 0.0);
        }
        for &ec in &m.ec {
            prop_assert!(ec >= 0.0 && ec.is_finite());
        }
    }

    #[test]
    fn cost_monotone_in_k(p in arb_stack()) {
        let mut prev = 0.0;
        for k in 1..=6 {
            let c = et_stack_cost(&p, k);
            prop_assert!(c.is_finite());
            prop_assert!(c + 1e-9 >= prev, "k={k}: {c} < {prev}");
            prev = c;
        }
    }

    #[test]
    fn impossible_results_cost_only_the_failures(mut p in arb_stack()) {
        // With rho = 0 everywhere, no group ever yields a result: the
        // total cost is exactly the sum of per-group no-result costs.
        for op in &mut p.ops {
            op.rho = 0.0;
        }
        let m = CostModel::derive(&p);
        let expected: f64 = m.nc.iter().sum();
        let c = et_stack_cost(&p, 3);
        prop_assert!((c - expected).abs() < 1e-6 * expected.max(1.0), "{c} vs {expected}");
    }

    #[test]
    fn certain_results_stop_after_k_groups(mut p in arb_stack()) {
        // With rho = 1 and fanout >= 1, the first tuple of each group is a
        // result: the plan touches exactly min(k, m) groups.
        for op in &mut p.ops {
            op.rho = 1.0;
            op.fanout = op.fanout.max(1.0);
        }
        let m = p.groups.len();
        let k = 2usize.min(m);
        let model = CostModel::derive(&p);
        let expected: f64 = model.ec.iter().take(k).sum();
        let c = et_stack_cost(&p, k);
        prop_assert!((c - expected).abs() < 1e-6 * expected.max(1.0), "{c} vs {expected}");
    }

    #[test]
    fn planner_always_produces_a_connected_plan(
        cards in proptest::collection::vec(10.0f64..10_000.0, 2..5),
        sels in proptest::collection::vec(0.01f64..1.0, 2..5),
        k in proptest::option::of(1usize..20),
    ) {
        let n = cards.len().min(sels.len());
        let relations: Vec<Relation> = (0..n)
            .map(|i| Relation {
                name: format!("R{i}"),
                card: cards[i],
                sel: sels[i],
                probe_cost: Some(1.0),
                group_source: i == 0,
            })
            .collect();
        // Star join graph around R0.
        let edges: Vec<JoinEdge> = (1..n)
            .map(|i| JoinEdge { a: 0, b: i, sel: 1.0 / cards[i].max(2.0) })
            .collect();
        let jg = JoinGraph { relations, edges, group_count: 50.0 };
        let choice = plan_join_order(&jg, k);
        prop_assert!(choice.cost.is_finite() && choice.cost >= 0.0);
        // The plan must mention every relation exactly once.
        let explain = choice.plan.explain(&jg);
        for i in 0..n {
            let name = format!("R{i}");
            prop_assert_eq!(explain.matches(&name).count(), 1, "{}", explain);
        }
        // ET plans only when a top-k target exists.
        if k.is_none() {
            prop_assert!(!choice.used_early_termination);
        }
    }
}
