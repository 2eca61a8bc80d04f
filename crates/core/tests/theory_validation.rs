//! Empirical validation of the paper's Section-5 theory on generated
//! graphs (uses `fs-gen` fixtures).
//!
//! These tests turn Lemma 5.3, Theorem 5.4, and the Section-5.1
//! MultipleRW imbalance argument into executable checks on a small
//! `G_AB`-style graph, and Lemma 5.1 / Theorem 5.2 into checks on
//! explicit Cartesian powers `G^m` of a tiny graph.

use frontier_sampling::frontier::Frontier;
use frontier_sampling::theory::{subset_degree_profile, total_variation};
use frontier_sampling::{Budget, CostModel, WalkMethod};
use fs_gen::composite::bridge_join;
use fs_graph::{graph_from_undirected_pairs, Graph, GraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small G_AB: BA(150, m=1) ⊕ BA(150, m=5), bridged.
fn small_gab(seed: u64) -> (Graph, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = fs_gen::barabasi_albert(150, 1, &mut rng);
    let b = fs_gen::barabasi_albert(150, 5, &mut rng);
    (bridge_join(&a, &b), 150)
}

/// Empirical steady-state distribution of the number of FS walkers inside
/// V_A, measured along one long FS trajectory.
fn empirical_kfs(graph: &Graph, n_a: usize, m: usize, steps: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = graph.num_vertices();
    let starts: Vec<VertexId> = (0..m).map(|_| VertexId::new(rng.gen_range(0..n))).collect();
    let mut frontier = Frontier::from_positions(graph, starts);
    // Burn-in to forget the start.
    for _ in 0..steps / 5 {
        frontier.step(graph, &mut rng);
    }
    let mut counts = vec![0u64; m + 1];
    for _ in 0..steps {
        frontier.step(graph, &mut rng);
        let k = frontier
            .positions()
            .iter()
            .filter(|v| v.index() < n_a)
            .count();
        counts[k] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / steps as f64)
        .collect()
}

#[test]
fn lemma_5_3_empirical_pmf_matches_closed_form() {
    // Use a well-mixing connected graph (a single-edge bridge would make
    // component-count changes too rare for a trajectory average): V_A =
    // the first half of a BA graph, which contains the high-degree early
    // vertices, so d̄_A > d̄_B and the pmf differs visibly from the
    // binomial.
    let mut rng = SmallRng::seed_from_u64(301);
    let g = fs_gen::barabasi_albert(300, 3, &mut rng);
    let n_a = 150;
    let prof = subset_degree_profile(&g, |v| v.index() < n_a);
    assert!(
        prof.d_a > prof.d_b * 1.3,
        "fixture must have a degree contrast: {} vs {}",
        prof.d_a,
        prof.d_b
    );
    let m = 6;
    let empirical = empirical_kfs(&g, n_a, m, 2_000_000, 302);
    let closed: Vec<f64> = (0..=m).map(|k| prof.kfs_pmf(m, k)).collect();
    let tv = total_variation(&empirical, &closed);
    assert!(
        tv < 0.02,
        "TV(empirical, Lemma 5.3) = {tv}\nempirical {empirical:?}\nclosed {closed:?}"
    );
    // And the binomial (K_un) must NOT fit — the degree weighting matters.
    let binom: Vec<f64> = (0..=m).map(|k| prof.kun_pmf(m, k)).collect();
    let tv_binom = total_variation(&empirical, &binom);
    assert!(
        tv_binom > 2.0 * tv,
        "empirical K_fs should reject the unweighted binomial: {tv_binom} vs {tv}"
    );
}

#[test]
fn theorem_5_4_fs_start_approaches_steady_state_with_m() {
    // TV distance between the uniform-start distribution K_un(m) and the
    // steady-state K_fs(m) shrinks as m grows (all closed-form).
    let (g, n_a) = small_gab(303);
    let prof = subset_degree_profile(&g, |v| v.index() < n_a);
    let tv_at = |m: usize| {
        let fs: Vec<f64> = (0..=m).map(|k| prof.kfs_pmf(m, k)).collect();
        let un: Vec<f64> = (0..=m).map(|k| prof.kun_pmf(m, k)).collect();
        total_variation(&fs, &un)
    };
    let tvs = [tv_at(2), tv_at(8), tv_at(32), tv_at(128)];
    assert!(
        tvs.windows(2).all(|w| w[0] > w[1]),
        "TV not monotone: {tvs:?}"
    );
    assert!(tvs[3] < 0.1, "TV at m=128 still {}", tvs[3]);
}

#[test]
fn section_5_1_multiplerw_oversamples_sparse_half_after_uniform_start() {
    // G_A has ~equal vertices but 1/5 the volume. Uniform starts put half
    // the MultipleRW walkers in G_A, but its per-edge "share" is much
    // smaller — so G_A's edges get oversampled per edge. FS corrects this.
    let (g, n_a) = small_gab(304);
    let vol_a: usize = (0..n_a).map(|i| g.degree(VertexId::new(i))).sum();
    let vol: usize = g.volume();
    let edge_share_a = vol_a as f64 / vol as f64; // ≈ 1/6

    let samples_in_a = |method: WalkMethod, seed: u64| -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut in_a = 0usize;
        let mut total = 0usize;
        // Average over restarts to measure the *expected* sampling share.
        for rep in 0..400 {
            let _ = rep;
            let mut budget = Budget::new(200.0);
            method.sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
                total += 1;
                if e.source.index() < n_a {
                    in_a += 1;
                }
            });
        }
        in_a as f64 / total as f64
    };

    let mrw_share = samples_in_a(WalkMethod::multiple(10), 305);
    let fs_share = samples_in_a(WalkMethod::frontier(10), 306);

    // MultipleRW grossly oversamples the sparse half (close to its vertex
    // share of 1/2 rather than its edge share of ~1/6); FS must sit much
    // closer to the edge share.
    assert!(
        mrw_share > edge_share_a + 0.1,
        "MultipleRW share {mrw_share} vs edge share {edge_share_a}"
    );
    assert!(
        (fs_share - edge_share_a).abs() < 0.08,
        "FS share {fs_share} vs edge share {edge_share_a}"
    );
    assert!(
        (fs_share - edge_share_a).abs() < (mrw_share - edge_share_a).abs(),
        "FS must be closer to uniform edge sampling than MultipleRW"
    );
}

#[test]
fn distributed_fs_matches_centralized_fs_on_kfs_distribution() {
    // Theorem 5.5: the DFS jump chain *is* FS; compare K distributions.
    let (g, n_a) = small_gab(307);
    let prof = subset_degree_profile(&g, |v| v.index() < n_a);
    let m = 5;
    // Run DFS, tracking walker membership via sampled-edge endpoints is
    // awkward; instead run many short DFS processes and record the final
    // edge's side — both methods must agree with each other.
    let side_share = |distributed: bool, seed: u64| -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut in_a = 0usize;
        let mut total = 0usize;
        let method = if distributed {
            WalkMethod::distributed_frontier(m)
        } else {
            WalkMethod::frontier(m)
        };
        for _ in 0..2_000 {
            let mut budget = Budget::new(60.0);
            method.sample_edges(&g, &CostModel::unit(), &mut budget, &mut rng, |e| {
                total += 1;
                if e.source.index() < n_a {
                    in_a += 1;
                }
            });
        }
        in_a as f64 / total as f64
    };
    let fs = side_share(false, 308);
    let dfs = side_share(true, 309);
    assert!(
        (fs - dfs).abs() < 0.02,
        "FS share {fs} vs DFS share {dfs} — Theorem 5.5 violated"
    );
    let _ = prof; // profile retained for context/debugging
}

// ---------------------------------------------------------------------
// Lemma 5.1 / Theorem 5.2 on explicit Cartesian powers `G^m`.
//
// `G^m = (V^m, E^m)` with `(v, u) ∈ E^m` iff `v` and `u` differ in
// exactly one coordinate `i` and `(v_i, u_i) ∈ E`. Frontier Sampling is a
// single random walk on `G^m` (Lemma 5.1); the tests below drive both
// processes and compare their empirical state/edge distributions.
//
// State encoding: tuple `(v_1, …, v_m)` ↦ `Σ_i v_i · n^(i-1)` — mixed-
// radix with base `n = |V|`. Only sensible for tiny `n^m`.
// ---------------------------------------------------------------------

/// Encodes a walker tuple as a `G^m` vertex index (mixed radix, base
/// `n`).
pub fn encode_state(positions: &[VertexId], n: usize) -> usize {
    let mut idx = 0usize;
    for &v in positions.iter().rev() {
        idx = idx * n + v.index();
    }
    idx
}

/// Decodes a `G^m` vertex index back into the walker tuple.
pub fn decode_state(mut idx: usize, n: usize, m: usize) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        out.push(VertexId::new(idx % n));
        idx /= n;
    }
    out
}

/// Builds the explicit `m`-th Cartesian power of `graph`.
///
/// # Panics
/// Panics if `|V|^m` exceeds `max_states` (guard against accidental
/// explosion; Lemma-validation tests use `n ≤ 10`, `m ≤ 3`).
pub fn cartesian_power(graph: &Graph, m: usize, max_states: usize) -> Graph {
    assert!(m >= 1);
    let n = graph.num_vertices();
    let states = n
        .checked_pow(m as u32)
        .filter(|&s| s <= max_states)
        .unwrap_or_else(|| panic!("|V|^m exceeds the {max_states}-state guard"));

    let mut b = GraphBuilder::new(states);
    for idx in 0..states {
        let tuple = decode_state(idx, n, m);
        for (i, &vi) in tuple.iter().enumerate() {
            for &w in graph.neighbors(vi) {
                let mut next = tuple.clone();
                next[i] = w;
                let jdx = encode_state(&next, n);
                // Directed arc; symmetry of G makes G^m symmetric too.
                b.add_edge(VertexId::new(idx), VertexId::new(jdx));
            }
        }
    }
    b.build()
}

/// Theorem 5.2(II): closed-form stationary probability of FS state
/// `(v_1, …, v_m)`:
/// `P[L∞ = (v_1, …, v_m)] = Σ_i deg(v_i) / (m · |V|^{m−1} · vol(V))`.
pub fn fs_stationary_probability(graph: &Graph, positions: &[VertexId]) -> f64 {
    let m = positions.len();
    let n = graph.num_vertices();
    let deg_sum: usize = positions.iter().map(|&v| graph.degree(v)).sum();
    deg_sum as f64 / (m as f64 * (n as f64).powi(m as i32 - 1) * graph.volume() as f64)
}

fn lollipop() -> Graph {
    graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
}

#[test]
fn encode_decode_roundtrip() {
    let n = 5;
    for idx in 0..125 {
        let t = decode_state(idx, n, 3);
        assert_eq!(encode_state(&t, n), idx);
    }
}

#[test]
fn cartesian_power_m1_is_isomorphic_to_g() {
    let g = lollipop();
    let gm = cartesian_power(&g, 1, 1000);
    assert_eq!(gm.num_vertices(), g.num_vertices());
    assert_eq!(gm.num_arcs(), g.num_arcs());
    for arc in g.arcs() {
        assert!(gm.has_edge(arc.source, arc.target));
    }
}

#[test]
fn cartesian_power_edge_count_matches_formula() {
    // |E^m| = m |V|^{m-1} |E| (proof of Theorem 5.2).
    let g = lollipop();
    for m in [1usize, 2, 3] {
        let gm = cartesian_power(&g, m, 100_000);
        let expect = m * g.num_vertices().pow(m as u32 - 1) * g.num_arcs();
        assert_eq!(gm.num_arcs(), expect, "m = {m}");
    }
}

#[test]
fn fs_stationary_matches_rw_on_gm_degrees() {
    // In a RW on G^m the stationary probability of a state is
    // deg_{G^m}(state)/vol(G^m); Theorem 5.2(II) says that equals the
    // closed form. Check state by state.
    let g = lollipop();
    let m = 2;
    let gm = cartesian_power(&g, m, 10_000);
    let vol = gm.volume() as f64;
    for idx in 0..gm.num_vertices() {
        let tuple = decode_state(idx, g.num_vertices(), m);
        let rw_pi = gm.degree(VertexId::new(idx)) as f64 / vol;
        let closed = fs_stationary_probability(&g, &tuple);
        assert!(
            (rw_pi - closed).abs() < 1e-12,
            "state {tuple:?}: {rw_pi} vs {closed}"
        );
    }
}

#[test]
fn lemma_5_1_fs_equals_rw_on_gm() {
    // Drive FS on G and a plain RW on the explicit G^2; compare
    // empirical state distributions.
    let g = lollipop();
    let n = g.num_vertices();
    let m = 2;
    let gm = cartesian_power(&g, m, 10_000);
    let steps = 600_000usize;

    // FS state occupancy.
    let mut rng = SmallRng::seed_from_u64(261);
    let mut fs_counts = vec![0u32; gm.num_vertices()];
    let mut frontier = Frontier::from_positions(&g, vec![VertexId::new(0), VertexId::new(0)]);
    for _ in 0..steps {
        frontier.step(&g, &mut rng).unwrap();
        fs_counts[encode_state(frontier.positions(), n)] += 1;
    }

    // Plain RW on G^m occupancy.
    let mut rw_counts = vec![0u32; gm.num_vertices()];
    let mut pos = VertexId::new(0);
    for _ in 0..steps {
        let e = frontier_sampling::walk::step(&gm, pos, &mut rng)
            .sampled()
            .unwrap();
        pos = e.target;
        rw_counts[pos.index()] += 1;
    }

    for idx in 0..gm.num_vertices() {
        let a = fs_counts[idx] as f64 / steps as f64;
        let b = rw_counts[idx] as f64 / steps as f64;
        assert!(
            (a - b).abs() < 0.012,
            "state {idx}: FS {a} vs RW-on-G^m {b}"
        );
    }
}

#[test]
fn figure_2_markov_chain_materialises() {
    // Figure 2 illustrates the m = 2 chain where states are unordered
    // pairs with transition probability 1/(deg u + deg v). Verify a
    // couple of transition probabilities on the explicit chain.
    let g = lollipop();
    let gm = cartesian_power(&g, 2, 10_000);
    // State (0, 1): deg 2 + 2 = 4 outgoing arcs.
    let s = encode_state(&[VertexId::new(0), VertexId::new(1)], 4);
    assert_eq!(gm.degree(VertexId::new(s)), 4);
}

#[test]
#[should_panic(expected = "guard")]
fn state_guard_panics() {
    let g = lollipop();
    let _ = cartesian_power(&g, 10, 1000);
}
