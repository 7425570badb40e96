//! Synthetic network topology with landmark-based locality binning.
//!
//! The paper (§6.1) generates "an underlying topology of peers connected with
//! links of variable latencies between 10 and 500 ms" and groups peers into
//! `k = 6` physical localities using the landmark technique of Ratnasamy et
//! al. (INFOCOM 2002). We reproduce that procedure:
//!
//! 1. peers are placed in a 2-D metric space, biased around `k` population
//!    centres (cities / ISP regions);
//! 2. the pairwise link latency is an affine function of Euclidean distance,
//!    clamped to the paper's `[10 ms, 500 ms]` range;
//! 3. `k` **landmark** hosts sit near the population centres; each peer
//!    measures its distance to every landmark and is *binned* by the ordering
//!    of those distances, exactly as in the landmark technique. With
//!    well-separated centres the dominant bin per centre recovers the
//!    intended locality, and stragglers are folded into the bin of their
//!    nearest landmark.

use std::fmt;

use rand::Rng;

use crate::NodeId;

/// A point in the synthetic 2-D latency space. Units are abstract; the
/// [`LatencyModel`] converts distances to milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Identifier of a physical locality (a landmark bin), in `0..k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalityId(pub u16);

impl fmt::Display for LocalityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

/// Affine distance→latency mapping with the paper's clamp range.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Latency floor in ms (paper: 10).
    pub min_ms: u64,
    /// Latency ceiling in ms (paper: 500).
    pub max_ms: u64,
    /// Milliseconds per unit of Euclidean distance.
    pub ms_per_unit: f64,
    /// Fixed per-link overhead added before clamping.
    pub base_ms: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Calibrated so intra-cluster links land in ~10-60 ms and
        // inter-cluster links in ~150-500 ms for the default geometry below.
        LatencyModel {
            min_ms: 10,
            max_ms: 500,
            ms_per_unit: 0.45,
            base_ms: 5.0,
        }
    }
}

impl LatencyModel {
    /// Latency in milliseconds for a link spanning `dist` space units.
    pub fn latency_ms(&self, dist: f64) -> u64 {
        let raw = self.base_ms + dist * self.ms_per_unit;
        (raw.round() as u64).clamp(self.min_ms, self.max_ms)
    }
}

/// Parameters for synthetic topology generation.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of localities `k` (paper: 6).
    pub localities: u16,
    /// Side length of the square space peers are placed in.
    pub world_size: f64,
    /// Standard deviation of peer placement around its locality centre.
    pub cluster_radius: f64,
    /// Distance→latency mapping.
    pub latency: LatencyModel,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            localities: 6,
            world_size: 1_000.0,
            cluster_radius: 45.0,
            latency: LatencyModel::default(),
        }
    }
}

/// The generated topology: landmark positions plus per-node coordinates and
/// locality assignments. Nodes are added incrementally as peers arrive
/// (churn), so the topology grows alongside the [`crate::World`].
#[derive(Debug, Clone)]
pub struct Topology {
    cfg: TopologyConfig,
    centres: Vec<Point>,
    landmarks: Vec<Point>,
    coords: Vec<Point>,
    locality: Vec<LocalityId>,
}

impl Topology {
    /// Create a topology with `cfg.localities` population centres laid out on
    /// a circle (guaranteeing separation), each with a landmark nearby.
    pub fn new(cfg: TopologyConfig, rng: &mut impl Rng) -> Topology {
        assert!(cfg.localities >= 1, "need at least one locality");
        let k = cfg.localities as usize;
        let half = cfg.world_size / 2.0;
        let ring_r = cfg.world_size * 0.38;
        let mut centres = Vec::with_capacity(k);
        let mut landmarks = Vec::with_capacity(k);
        for i in 0..k {
            let theta = (i as f64 / k as f64) * std::f64::consts::TAU;
            let c = Point::new(half + ring_r * theta.cos(), half + ring_r * theta.sin());
            centres.push(c);
            // The landmark is a host near (not exactly at) the centre, as in
            // a real deployment where landmarks are well-known servers.
            let jx: f64 = rng.gen_range(-5.0..5.0);
            let jy: f64 = rng.gen_range(-5.0..5.0);
            landmarks.push(Point::new(c.x + jx, c.y + jy));
        }
        Topology {
            cfg,
            centres,
            landmarks,
            coords: Vec::new(),
            locality: Vec::new(),
        }
    }

    /// Sample a coordinate for a fresh peer: pick a locality uniformly, then
    /// place the peer with a Gaussian scatter around that locality's centre.
    pub fn sample_point(&self, rng: &mut impl Rng) -> Point {
        let c = self.centres[rng.gen_range(0..self.centres.len())];
        self.sample_point_near(c, rng)
    }

    /// Sample a coordinate within the given locality.
    pub fn sample_point_in(&self, loc: LocalityId, rng: &mut impl Rng) -> Point {
        let c = self.centres[loc.0 as usize % self.centres.len()];
        self.sample_point_near(c, rng)
    }

    fn sample_point_near(&self, c: Point, rng: &mut impl Rng) -> Point {
        // Box-Muller Gaussian scatter.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = self.cfg.cluster_radius * (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        let x = (c.x + r * theta.cos()).clamp(0.0, self.cfg.world_size);
        let y = (c.y + r * theta.sin()).clamp(0.0, self.cfg.world_size);
        Point::new(x, y)
    }

    /// Register a node's coordinate and bin it into a locality using the
    /// landmark-ordering technique. Must be called with `node` ids in
    /// strictly increasing dense order (the [`crate::World`] does this).
    pub fn register(&mut self, node: NodeId, at: Point) -> LocalityId {
        assert_eq!(
            node.index(),
            self.coords.len(),
            "nodes must be registered densely in id order"
        );
        let loc = self.bin(at);
        self.coords.push(at);
        self.locality.push(loc);
        loc
    }

    /// The landmark bin for a coordinate: peers sort landmarks by measured
    /// distance; the full ordering is the bin signature. We fold each
    /// signature onto the locality of its *nearest* landmark, which is the
    /// canonical coarsening used when the number of desired bins is `k`.
    pub fn bin(&self, at: Point) -> LocalityId {
        // Allocation-free argmin; strict `<` keeps the lowest index on
        // ties, matching what the stable sort in `landmark_ordering` puts
        // first.
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, lm) in self.landmarks.iter().enumerate() {
            let d = at.dist(lm);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        LocalityId(best as u16)
    }

    /// The full landmark-distance ordering (the raw bin signature) for a
    /// coordinate — exposed for analysis and tests.
    pub fn landmark_ordering(&self, at: Point) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.landmarks.len()).collect();
        order.sort_by(|&a, &b| {
            at.dist(&self.landmarks[a])
                .partial_cmp(&at.dist(&self.landmarks[b]))
                .expect("distances are finite")
        });
        order
    }

    /// Coordinate of a registered node.
    pub fn coord(&self, node: NodeId) -> Point {
        self.coords[node.index()]
    }

    /// Locality of a registered node.
    pub fn locality(&self, node: NodeId) -> LocalityId {
        self.locality[node.index()]
    }

    /// One-way link latency between two registered nodes, in milliseconds.
    pub fn latency(&self, a: NodeId, b: NodeId) -> u64 {
        if a == b {
            return 0;
        }
        self.latency_between(self.coord(a), self.coord(b))
    }

    /// One-way latency between two raw coordinates (used for origin servers,
    /// which are fixed points rather than peers).
    pub fn latency_between(&self, a: Point, b: Point) -> u64 {
        self.cfg.latency.latency_ms(a.dist(&b))
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when no nodes are registered yet.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo(seed: u64) -> (Topology, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Topology::new(TopologyConfig::default(), &mut rng);
        (t, rng)
    }

    #[test]
    fn latency_model_clamps_to_paper_range() {
        let m = LatencyModel::default();
        assert_eq!(m.latency_ms(0.0), 10);
        assert_eq!(m.latency_ms(1e6), 500);
        let mid = m.latency_ms(400.0);
        assert!((10..=500).contains(&mid));
    }

    #[test]
    fn intra_locality_links_are_much_faster_than_inter() {
        let (mut t, mut rng) = topo(42);
        // Register 60 peers in locality 0 and 60 in locality 3.
        let mut ids = Vec::new();
        for i in 0..120 {
            let loc = LocalityId(if i < 60 { 0 } else { 3 });
            let p = t.sample_point_in(loc, &mut rng);
            let id = NodeId::from_index(i);
            t.register(id, p);
            ids.push(id);
        }
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..60 {
            for j in (i + 1)..120 {
                let l = t.latency(ids[i], ids[j]);
                if j < 60 {
                    intra.push(l);
                } else {
                    inter.push(l);
                }
            }
        }
        let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            avg(&inter) > 3.0 * avg(&intra),
            "inter {} vs intra {}",
            avg(&inter),
            avg(&intra)
        );
        for &l in intra.iter().chain(inter.iter()) {
            assert!((10..=500).contains(&l));
        }
    }

    #[test]
    fn binning_recovers_intended_locality() {
        let (mut t, mut rng) = topo(7);
        let mut correct = 0u32;
        let total = 600u32;
        for i in 0..total {
            let want = LocalityId((i % 6) as u16);
            let p = t.sample_point_in(want, &mut rng);
            let got = t.register(NodeId::from_index(i as usize), p);
            if got == want {
                correct += 1;
            }
        }
        // With circle-separated centres virtually all peers bin correctly.
        assert!(correct as f64 / total as f64 > 0.97, "{correct}/{total}");
    }

    #[test]
    fn landmark_ordering_is_a_permutation() {
        let (t, mut rng) = topo(3);
        let mut r = rng.clone();
        let p = t.sample_point(&mut r);
        let mut ord = t.landmark_ordering(p);
        ord.sort_unstable();
        assert_eq!(ord, (0..6).collect::<Vec<_>>());
        let _ = &mut rng;
    }

    #[test]
    fn self_latency_is_zero_and_symmetric() {
        let (mut t, mut rng) = topo(11);
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        let pa = t.sample_point(&mut rng);
        let pb = t.sample_point(&mut rng);
        t.register(a, pa);
        t.register(b, pb);
        assert_eq!(t.latency(a, a), 0);
        assert_eq!(t.latency(a, b), t.latency(b, a));
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn register_out_of_order_panics() {
        let (mut t, mut rng) = topo(5);
        let p = t.sample_point(&mut rng);
        t.register(NodeId::from_index(3), p);
    }
}
