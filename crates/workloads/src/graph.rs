//! Synthetic power-law graph generation (CSR).
//!
//! The paper's graph benchmarks use the DIMACS'10 `coPapersCiteseer`
//! citation graph, which is not redistributable here. An R-MAT generator
//! with the usual skewed partition probabilities reproduces the property
//! that drives the paper's observations on graph workloads: highly skewed
//! degree distributions, which create (a) hub pages that are reused
//! intensively and (b) large inter-TB imbalance in memory-access counts.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// R-MAT quadrant probabilities.
///
/// The defaults `(0.57, 0.19, 0.19, 0.05)` are the standard "social
/// network-like" skew used by Graph500.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// The derived bottom-right probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// The R-MAT recursion both generators share: one uniform draw per
/// level picks a quadrant, which appends one bit to the source and one
/// to the destination.
///
/// A draw is `rand`'s `f64` sample `r = x * 2^-53` of `x = next_u64() >> 11`.
/// Scaling by a power of two is exact, so `r < t` holds iff
/// `x < ceil(t * 2^53)`, and the sampler compares `x` against integer
/// thresholds without converting it.
struct RmatSampler {
    /// Cumulative quadrant thresholds `a`, `a + b` and `a + b + c`,
    /// summed in that order and scaled by `2^53`.
    a: u64,
    ab: u64,
    abc: u64,
    /// Recursion depth: `ceil(log2(num_nodes))`.
    levels: u32,
}

impl RmatSampler {
    /// # Panics
    ///
    /// Panics with "invalid RmatParams" if `params` lie outside the
    /// probability simplex. Such params would otherwise skew the graph
    /// silently: with `a + b + c > 1` quadrant d is never picked, and c
    /// gets weight `1 - a - b`.
    fn new(params: RmatParams, num_nodes: usize) -> Self {
        let RmatParams { a, b, c } = params;
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
            "invalid RmatParams {params:?}: entries must be non-negative and a + b + c <= 1"
        );
        let scaled = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
        RmatSampler {
            a: scaled(a),
            ab: scaled(a + b),
            abc: scaled(a + b + c),
            levels: usize::BITS - (num_nodes - 1).leading_zeros(),
        }
    }

    /// The `(src, dst)` bits of the quadrant the draw `x` falls in:
    /// below `a` → (0, 0), below `a + b` → (0, 1), below `a + b + c` →
    /// (1, 0), the rest → (1, 1). The thresholds are non-negative
    /// summands in increasing order, so `x < a` implies `x < a + b`
    /// implies `x < a + b + c`, and the bits follow from the three
    /// comparisons without a branch.
    #[inline]
    fn quadrant(&self, x: u64) -> (usize, usize) {
        let (in_a, in_ab, in_abc) = (x < self.a, x < self.ab, x < self.abc);
        let src = !in_ab;
        let dst = (!in_a & in_ab) | !in_abc;
        (usize::from(src), usize::from(dst))
    }

    /// Draws one edge, `levels` uniforms from `rng`. Endpoints may reach
    /// the next power of two above `num_nodes`; callers reject those.
    #[inline]
    fn edge(&self, rng: &mut SmallRng) -> (usize, usize) {
        let (mut src, mut dst) = (0usize, 0usize);
        for _ in 0..self.levels {
            let (sbit, dbit) = self.quadrant(rng.next_u64() >> 11);
            src = (src << 1) | sbit;
            dst = (dst << 1) | dbit;
        }
        (src, dst)
    }
}

/// A directed graph in compressed sparse row form.
///
/// # Example
///
/// ```
/// use workloads::{CsrGraph, RmatParams};
///
/// let g = CsrGraph::rmat(1 << 10, 8 << 10, RmatParams::default(), 42);
/// assert_eq!(g.num_nodes(), 1 << 10);
/// assert_eq!(g.num_edges(), 8 << 10);
/// let hub = g.max_degree();
/// assert!(hub > 8 * 4, "power-law graphs have hubs: max degree {hub}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `row_ptr[i]..row_ptr[i+1]` indexes node `i`'s neighbors in
    /// `col_idx`. Length `num_nodes + 1`.
    row_ptr: Vec<u32>,
    /// Flattened adjacency lists.
    col_idx: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; num_nodes];
        for &(s, d) in edges {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "edge ({s}, {d}) out of range for {num_nodes} nodes"
            );
            degree[s as usize] += 1;
        }
        let mut row_ptr = vec![0u32; num_nodes + 1];
        for i in 0..num_nodes {
            row_ptr[i + 1] = row_ptr[i] + degree[i];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; edges.len()];
        for &(s, d) in edges {
            col_idx[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        }
        CsrGraph { row_ptr, col_idx }
    }

    /// Generates an R-MAT graph with `num_nodes` (rounded up to a power of
    /// two internally) and exactly `num_edges` directed edges,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes < 2`, or if `params` lie outside the
    /// probability simplex (a negative or NaN entry, or `a + b + c > 1`).
    pub fn rmat(num_nodes: usize, num_edges: usize, params: RmatParams, seed: u64) -> Self {
        assert!(num_nodes > 1, "graph needs at least two nodes");
        let sampler = RmatSampler::new(params, num_nodes);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(num_edges);
        while edges.len() < num_edges {
            let (src, dst) = sampler.edge(&mut rng);
            if src < num_nodes && dst < num_nodes && src != dst {
                edges.push((src as u32, dst as u32));
            }
        }
        Self::from_edges(num_nodes, &edges)
    }

    /// Generates a *clustered* power-law graph: like [`CsrGraph::rmat`]
    /// but most destination endpoints are drawn from a window around the
    /// source node, as in citation graphs whose node ordering follows
    /// publication clusters (the DIMACS `coPapersCiteseer` input the paper
    /// uses is such a graph). The remaining edges keep the R-MAT
    /// destination, preserving skewed in-degree hubs.
    ///
    /// `locality` is the fraction of edges rewired into the ±`window`
    /// neighbourhood of their source.
    ///
    /// Each R-MAT level picks its quadrant without branches, from three
    /// comparisons that agree with those of an `if r < a … else if …`
    /// chain on every draw, so a seed consumes the same random stream
    /// and builds the same graph as the chain would.
    ///
    /// # Panics
    ///
    /// Panics if `locality` is outside `[0, 1]`, if `num_nodes < 2`, or
    /// if `params` lie outside the probability simplex (a negative or NaN
    /// entry, or `a + b + c > 1`).
    pub fn clustered_rmat(
        num_nodes: usize,
        num_edges: usize,
        params: RmatParams,
        locality: f64,
        window: usize,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&locality), "locality must be in [0,1]");
        assert!(num_nodes > 1, "graph needs at least two nodes");
        let sampler = RmatSampler::new(params, num_nodes);
        let window = window.max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(num_edges);
        while edges.len() < num_edges {
            let (src, mut dst) = sampler.edge(&mut rng);
            if src >= num_nodes {
                continue;
            }
            if rng.gen::<f64>() < locality {
                // Rewire into the source's cluster window.
                let delta = rng.gen_range(0..=2 * window) as i64 - window as i64;
                let local = (src as i64 + delta).rem_euclid(num_nodes as i64) as usize;
                dst = local;
            }
            if dst < num_nodes && src != dst {
                edges.push((src as u32, dst as u32));
            }
        }
        Self::from_edges(num_nodes, &edges)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: u32) -> usize {
        let n = node as usize;
        (self.row_ptr[n + 1] - self.row_ptr[n]) as usize
    }

    /// Neighbors of `node`.
    pub fn neighbors(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.col_idx[self.row_ptr[n] as usize..self.row_ptr[n + 1] as usize]
    }

    /// The row-pointer array (for address generation over the CSR
    /// buffers).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Maximum out-degree (hub size).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32)
            .map(|n| self.degree(n))
            .max()
            .unwrap_or(0)
    }

    /// Gini-style skew indicator: fraction of edges owned by the top 1% of
    /// nodes by degree.
    pub fn top1pct_edge_share(&self) -> f64 {
        if self.num_edges() == 0 {
            return 0.0;
        }
        let mut degrees: Vec<usize> = (0..self.num_nodes() as u32)
            .map(|n| self.degree(n))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = (self.num_nodes() / 100).max(1);
        let owned: usize = degrees[..top].iter().sum();
        owned as f64 / self.num_edges() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_correct_csr() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_validates_endpoints() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn rmat_is_deterministic() {
        let g1 = CsrGraph::rmat(256, 1024, RmatParams::default(), 7);
        let g2 = CsrGraph::rmat(256, 1024, RmatParams::default(), 7);
        assert_eq!(g1, g2);
        let g3 = CsrGraph::rmat(256, 1024, RmatParams::default(), 8);
        assert_ne!(g1, g3);
    }

    #[test]
    fn rmat_has_requested_shape() {
        let g = CsrGraph::rmat(1000, 5000, RmatParams::default(), 1);
        assert_eq!(g.num_nodes(), 1000);
        assert_eq!(g.num_edges(), 5000);
        // row_ptr is monotone and ends at num_edges.
        assert!(g.row_ptr().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*g.row_ptr().last().unwrap() as usize, 5000);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = CsrGraph::rmat(1 << 12, 1 << 15, RmatParams::default(), 42);
        let avg = g.num_edges() / g.num_nodes();
        assert!(
            g.max_degree() > 10 * avg,
            "hub degree {} should dwarf average {avg}",
            g.max_degree()
        );
        assert!(
            g.top1pct_edge_share() > 0.05,
            "top 1% share {:.3} should reflect skew",
            g.top1pct_edge_share()
        );
    }

    #[test]
    fn uniform_params_are_not_skewed() {
        let uniform = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let g = CsrGraph::rmat(1 << 12, 1 << 15, uniform, 42);
        let skewed = CsrGraph::rmat(1 << 12, 1 << 15, RmatParams::default(), 42);
        assert!(g.max_degree() < skewed.max_degree());
        assert!((uniform.d() - 0.25).abs() < 1e-12);
    }

    /// The quadrant pick as the generators wrote it before the sampler:
    /// the reference the branch-free pick must match.
    fn chain(params: RmatParams, r: f64) -> (usize, usize) {
        if r < params.a {
            (0, 0)
        } else if r < params.a + params.b {
            (0, 1)
        } else if r < params.a + params.b + params.c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// `rand`'s `f64` draw from the 53 bits `x = next_u64() >> 11`.
    fn unit(x: u64) -> f64 {
        x as f64 * (1.0 / (1u64 << 53) as f64)
    }

    const MAX_DRAW: u64 = (1 << 53) - 1;

    /// Valid params: random simplex points, points with zero entries,
    /// and points whose `a + b + c` sums to exactly 1.
    fn param_cases(rng: &mut SmallRng) -> Vec<RmatParams> {
        let p = |a, b, c| RmatParams { a, b, c };
        let mut cases = vec![
            RmatParams::default(),
            p(0.25, 0.25, 0.25),
            p(0.5, 0.25, 0.25),
            p(0.25, 0.25, 0.5),
            p(1.0, 0.0, 0.0),
            p(0.0, 1.0, 0.0),
            p(0.0, 0.0, 1.0),
            p(0.0, 0.0, 0.0),
            p(0.0, 0.5, 0.0),
            p(0.3, 0.0, 0.7),
            p(1e-300, 0.0, 1e-300),
        ];
        for _ in 0..2000 {
            let mut w: [f64; 4] = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            // Zero some entries; with d zeroed the sum is 1 up to rounding.
            for x in &mut w {
                if rng.gen_bool(0.2) {
                    *x = 0.0;
                }
            }
            let total: f64 = w.iter().sum();
            if total == 0.0 {
                continue;
            }
            let (a, b) = (w[0] / total, w[1] / total);
            let c = if w[3] == 0.0 {
                1.0 - (a + b)
            } else {
                w[2] / total
            };
            cases.push(p(a, b, c));
        }
        cases.retain(|q| q.a + q.b + q.c <= 1.0);
        cases
    }

    #[test]
    fn branch_free_quadrant_matches_the_chain() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let cases = param_cases(&mut rng);
        let sum_one = cases.iter().filter(|q| q.a + q.b + q.c == 1.0).count();
        assert!(sum_one > 100, "only {sum_one} cases sum to exactly 1");
        let mut on_threshold = 0;
        for params in cases {
            let sampler = RmatSampler::new(params, 2);
            let mut draws: Vec<u64> = (0..200).map(|_| rng.next_u64() >> 11).collect();
            draws.extend([0, 1, MAX_DRAW - 1, MAX_DRAW]);
            for t in [
                params.a,
                params.a + params.b,
                params.a + params.b + params.c,
            ] {
                let scaled = t * (1u64 << 53) as f64;
                for x in [scaled.floor(), scaled.ceil()] {
                    let x = x as u64;
                    draws.extend([x.saturating_sub(1), x, x + 1].map(|x| x.min(MAX_DRAW)));
                    on_threshold += usize::from(unit(x.min(MAX_DRAW)) == t);
                }
            }
            for x in draws {
                assert_eq!(
                    sampler.quadrant(x),
                    chain(params, unit(x)),
                    "{params:?} at x = {x} (r = {})",
                    unit(x)
                );
            }
        }
        assert!(
            on_threshold > 1000,
            "only {on_threshold} draws hit a threshold exactly"
        );
    }

    #[test]
    fn sampler_consumes_the_stream_as_the_chain_does() {
        let mut rng = SmallRng::seed_from_u64(11);
        for params in param_cases(&mut rng).into_iter().take(200) {
            let seed = rng.next_u64();
            let sampler = RmatSampler::new(params, 1000);
            let (mut fast, mut reference) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            for _ in 0..50 {
                let (mut src, mut dst) = (0usize, 0usize);
                for _ in 0..sampler.levels {
                    let (sbit, dbit) = chain(params, reference.gen());
                    src = (src << 1) | sbit;
                    dst = (dst << 1) | dbit;
                }
                assert_eq!(sampler.edge(&mut fast), (src, dst), "{params:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid RmatParams")]
    fn rmat_rejects_a_negative_entry() {
        let params = RmatParams {
            a: 0.6,
            b: -0.1,
            c: 0.3,
        };
        let _ = CsrGraph::rmat(64, 128, params, 1);
    }

    #[test]
    #[should_panic(expected = "invalid RmatParams")]
    fn rmat_rejects_a_nan_entry() {
        let params = RmatParams {
            a: f64::NAN,
            b: 0.2,
            c: 0.2,
        };
        let _ = CsrGraph::rmat(64, 128, params, 1);
    }

    /// `a + b + c > 1` would leave quadrant d unreachable.
    #[test]
    #[should_panic(expected = "invalid RmatParams")]
    fn rmat_rejects_a_sum_above_one() {
        let params = RmatParams {
            a: 0.6,
            b: 0.3,
            c: 0.2,
        };
        let _ = CsrGraph::rmat(64, 128, params, 1);
    }

    #[test]
    #[should_panic(expected = "invalid RmatParams")]
    fn clustered_rmat_rejects_a_negative_entry() {
        let params = RmatParams {
            a: -0.5,
            b: 0.2,
            c: 0.2,
        };
        let _ = CsrGraph::clustered_rmat(64, 128, params, 0.5, 4, 1);
    }

    #[test]
    #[should_panic(expected = "invalid RmatParams")]
    fn clustered_rmat_rejects_a_nan_entry() {
        let params = RmatParams {
            a: 0.5,
            b: 0.2,
            c: f64::NAN,
        };
        let _ = CsrGraph::clustered_rmat(64, 128, params, 0.5, 4, 1);
    }

    #[test]
    #[should_panic(expected = "invalid RmatParams")]
    fn clustered_rmat_rejects_a_sum_above_one() {
        let params = RmatParams {
            a: 0.57,
            b: 0.19,
            c: f64::INFINITY,
        };
        let _ = CsrGraph::clustered_rmat(64, 128, params, 0.5, 4, 1);
    }

    #[test]
    fn self_loops_excluded() {
        let g = CsrGraph::rmat(128, 512, RmatParams::default(), 3);
        for n in 0..g.num_nodes() as u32 {
            assert!(!g.neighbors(n).contains(&n), "self loop at {n}");
        }
    }
}
