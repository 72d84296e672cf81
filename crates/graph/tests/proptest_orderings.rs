//! Property tests for the ordering and community machinery:
//! conductance/sweep cuts and community orderings on arbitrary graphs.

use bear_graph::community::{community_degree_ordering, label_propagation};
use bear_graph::conductance::{conductance, sweep_cut};
use bear_graph::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(n * 2))
            .prop_map(move |edges| Graph::from_edges(n, &edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn conductance_always_in_unit_range(g in arb_graph(), mask_seed in 0u64..100) {
        let sym = g.symmetrized_pattern();
        let n = g.num_nodes();
        let mut s = mask_seed.wrapping_add(3);
        let in_set: Vec<bool> = (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 40) % 2 == 0
            })
            .collect();
        let phi = conductance(&sym, &in_set);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&phi), "phi = {phi}");
    }

    #[test]
    fn sweep_cut_community_is_valid(g in arb_graph()) {
        let n = g.num_nodes();
        // Synthetic scores decaying from node 0.
        let scores: Vec<f64> = (0..n).map(|u| 1.0 / (1.0 + u as f64)).collect();
        let cut = sweep_cut(&g, &scores, n);
        prop_assert!(cut.community.len() <= n);
        // Members are distinct.
        let mut sorted = cut.community.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), cut.community.len());
        // Conductance consistent with a recomputation.
        if !cut.community.is_empty() {
            let sym = g.symmetrized_pattern();
            let mut in_set = vec![false; n];
            for &u in &cut.community {
                in_set[u] = true;
            }
            prop_assert!((cut.conductance - conductance(&sym, &in_set)).abs() < 1e-9);
        }
    }

    #[test]
    fn community_ordering_is_degree_monotone(g in arb_graph()) {
        let mut rng = StdRng::seed_from_u64(11);
        let labels = label_propagation(&g, 10, &mut rng);
        let order = community_degree_ordering(&g, &labels);
        let deg = g.undirected_degrees();
        for w in order.windows(2) {
            prop_assert!(deg[w[0]] <= deg[w[1]]);
        }
    }
}
