//! Topology builders: the paper's three evaluation settings plus the
//! scalable deterministic generators (grid, campus, stadium) used by
//! the 10k+-node scaling scenarios.

use airguard_phy::{Meters, Position, TileIndex};
use airguard_sim::{MasterSeed, NodeId};
use rand::RngExt;

/// One CBR flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Traffic source.
    pub src: NodeId,
    /// Traffic sink.
    pub dst: NodeId,
    /// Offered rate in bits per second.
    pub rate_bps: u64,
    /// Payload bytes per packet.
    pub payload: u32,
    /// Whether this flow's senders are part of the measured population
    /// (interferer flows are not).
    pub measured: bool,
}

/// A fully specified node placement plus traffic matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Node positions; node id = index.
    pub positions: Vec<Position>,
    /// All flows (measured and interferer).
    pub flows: Vec<Flow>,
}

impl Topology {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Sources of measured flows, in id order.
    #[must_use]
    pub fn measured_senders(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .flows
            .iter()
            .filter(|f| f.measured)
            .map(|f| f.src)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The (src, dst) pairs of measured flows, for fairness computations.
    #[must_use]
    pub fn measured_flow_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.flows
            .iter()
            .filter(|f| f.measured)
            .map(|f| (f.src, f.dst))
            .collect()
    }

    /// The paper's Fig. 3 star: receiver R (node 0) at the origin,
    /// `n_senders` senders on a 150 m circle, each with a backlogged
    /// CBR flow of `rate_bps` to R. With `with_interferers`, the flows
    /// A→B and C→D (500 Kb/s) are placed 500 m on either side of R
    /// (nodes `n+1..n+4`), giving the TWO-FLOW scenario.
    ///
    /// # Panics
    ///
    /// Panics if `n_senders` is zero.
    #[must_use]
    pub fn star(n_senders: usize, rate_bps: u64, payload: u32, with_interferers: bool) -> Self {
        assert!(n_senders > 0, "a star needs at least one sender");
        let mut positions = vec![Position::new(0.0, 0.0)];
        let mut flows = Vec::new();
        for k in 0..n_senders {
            let angle = std::f64::consts::TAU * k as f64 / n_senders as f64;
            positions.push(Position::new(0.0, 0.0).offset_polar(150.0, angle));
            flows.push(Flow {
                src: NodeId::new((k + 1) as u32),
                dst: NodeId::new(0),
                rate_bps,
                payload,
                measured: true,
            });
        }
        if with_interferers {
            let base = (n_senders + 1) as u32;
            // A and B sit 500 m west of R; C and D 500 m east. Each pair is
            // 100 m apart (reliable in-pair delivery), both ≈ 502 m from R:
            // R senses their transmissions with high probability while the
            // far-side senders mostly do not — the §5 carrier-sense
            // asymmetry.
            let quad = [
                Position::new(-500.0, -50.0), // A
                Position::new(-500.0, 50.0),  // B
                Position::new(500.0, -50.0),  // C
                Position::new(500.0, 50.0),   // D
            ];
            positions.extend_from_slice(&quad);
            for (s, d) in [(0u32, 1u32), (2, 3)] {
                flows.push(Flow {
                    src: NodeId::new(base + s),
                    dst: NodeId::new(base + d),
                    rate_bps: 500_000,
                    payload,
                    measured: false,
                });
            }
        }
        Topology { positions, flows }
    }

    /// The Fig. 9 random setting: `n` nodes placed uniformly in a
    /// `width × height` m² area, each setting up a backlogged CBR flow to
    /// its nearest neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn random(
        n: usize,
        width: f64,
        height: f64,
        rate_bps: u64,
        payload: u32,
        seed: MasterSeed,
    ) -> Self {
        assert!(n >= 2, "a random topology needs at least two nodes");
        let mut rng = seed.stream("topology", 0);
        let positions: Vec<Position> = (0..n)
            .map(|_| Position::new(rng.random_range(0.0..width), rng.random_range(0.0..height)))
            .collect();
        // "Each node sets up a CBR connection with one of its neighbors":
        // prefer a random node within plausible delivery range (200 m);
        // fall back to the nearest node when isolated. The neighbor
        // search runs on a 200 m tile grid instead of the old all-pairs
        // scan (which degraded quadratically at high density); the grid
        // returns the identical ascending-id candidate list, so the
        // subsequent range draw — and therefore the whole topology — is
        // byte-identical to the scan it replaces.
        let index = TileIndex::build(&positions, Meters::new(200.0));
        let mut flows = Vec::new();
        for (i, &pos) in positions.iter().enumerate() {
            let neighbors = index.candidates(i);
            let dst = if neighbors.is_empty() {
                positions
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .min_by(|a, b| {
                        pos.distance_to(*a.1)
                            .partial_cmp(&pos.distance_to(*b.1))
                            .expect("distances are not NaN") // lint:allow(panic-expect) — positions are finite by construction, so pairwise distances are never NaN
                    })
                    .map(|(j, _)| j)
                    .expect("n >= 2 guarantees another node") // lint:allow(panic-expect) — scenario validation rejects single-node topologies before flows are built
            } else {
                neighbors[rng.random_range(0..neighbors.len())] as usize
            };
            flows.push(Flow {
                src: NodeId::new(i as u32),
                dst: NodeId::new(dst as u32),
                rate_bps,
                payload,
                measured: true,
            });
        }
        Topology { positions, flows }
    }

    /// A deterministic square lattice of `n` nodes with `spacing`
    /// meters between neighbors; each node runs a backlogged CBR flow
    /// to a lattice neighbor one `spacing` away — its right row
    /// neighbor when one exists, else left, and when a partial last row
    /// holds a single node (no row neighbor at all) the node directly
    /// above. Placement is RNG-free and O(n), usable up to 100k nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `spacing` is not positive.
    #[must_use]
    pub fn grid(n: usize, spacing: f64, rate_bps: u64, payload: u32) -> Self {
        assert!(n >= 2, "a grid topology needs at least two nodes");
        assert!(spacing > 0.0, "grid spacing must be positive");
        let side = (n as f64).sqrt().ceil() as usize;
        let mut positions = Vec::with_capacity(n);
        let mut flows = Vec::with_capacity(n);
        for i in 0..n {
            let (row, col) = (i / side, i % side);
            positions.push(Position::new(col as f64 * spacing, row as f64 * spacing));
        }
        for i in 0..n {
            let col = i % side;
            // Right neighbor when it exists (same row, in range of the
            // lattice); otherwise left. A single-node last row has no
            // row neighbor either way — `i - 1` would be the previous
            // row's far-right node, `spacing * hypot(side - 1, 1)`
            // meters away — so it sends to the node directly above.
            let dst = if col + 1 < side && i + 1 < n {
                i + 1
            } else if col > 0 {
                i - 1
            } else {
                i - side
            };
            flows.push(Flow {
                src: NodeId::new(i as u32),
                dst: NodeId::new(dst as u32),
                rate_bps,
                payload,
                measured: true,
            });
        }
        Topology { positions, flows }
    }

    /// A campus: `clusters` buildings on a square lattice spaced
    /// `cluster_spacing` meters apart, each holding `per_cluster` nodes
    /// stratified over a 300 × 300 m court (jittered sub-grid — every
    /// node gets its own cell, so density never stalls placement the
    /// way rejection sampling would). Flows stay within a cluster
    /// (node k → k+1 cyclically), so when `cluster_spacing` exceeds the
    /// interference cutoff the clusters are causally independent — the
    /// shape intra-run sharding exploits.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero, `per_cluster < 2`, or
    /// `cluster_spacing` is not positive.
    #[must_use]
    pub fn campus(
        clusters: usize,
        per_cluster: usize,
        cluster_spacing: f64,
        rate_bps: u64,
        payload: u32,
        seed: MasterSeed,
    ) -> Self {
        assert!(clusters > 0, "a campus needs at least one cluster");
        assert!(per_cluster >= 2, "a cluster needs at least two nodes");
        assert!(cluster_spacing > 0.0, "cluster spacing must be positive");
        const COURT: f64 = 300.0;
        let campus_side = (clusters as f64).sqrt().ceil() as usize;
        let cells = (per_cluster as f64).sqrt().ceil() as usize;
        let cell = COURT / cells as f64;
        let mut rng = seed.stream("topology.campus", 0);
        let mut positions = Vec::with_capacity(clusters * per_cluster);
        let mut flows = Vec::with_capacity(clusters * per_cluster);
        for c in 0..clusters {
            let origin = Position::new(
                (c % campus_side) as f64 * cluster_spacing,
                (c / campus_side) as f64 * cluster_spacing,
            );
            let base = c * per_cluster;
            for k in 0..per_cluster {
                let (row, col) = (k / cells, k % cells);
                positions.push(Position::new(
                    origin.x + col as f64 * cell + rng.random_range(0.0..cell),
                    origin.y + row as f64 * cell + rng.random_range(0.0..cell),
                ));
                flows.push(Flow {
                    src: NodeId::new((base + k) as u32),
                    dst: NodeId::new((base + (k + 1) % per_cluster) as u32),
                    rate_bps,
                    payload,
                    measured: true,
                });
            }
        }
        Topology { positions, flows }
    }

    /// A stadium bowl: `n` nodes on concentric rings around the origin,
    /// starting at `inner_radius` with 4 m between rings and roughly
    /// 2 m of arc per seat. Everyone is within a few hundred meters of
    /// everyone else — the maximum-contention single-cell shape. Flows
    /// pair adjacent seats on the same ring. RNG-free and O(n).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `inner_radius` is not positive.
    #[must_use]
    pub fn stadium(n: usize, inner_radius: f64, rate_bps: u64, payload: u32) -> Self {
        assert!(n >= 2, "a stadium needs at least two nodes");
        assert!(inner_radius > 0.0, "inner radius must be positive");
        const RING_STEP: f64 = 4.0;
        const SEAT_ARC: f64 = 2.0;
        let mut positions = Vec::with_capacity(n);
        let mut flows = Vec::with_capacity(n);
        let mut ring_starts = Vec::new();
        let mut radius = inner_radius;
        while positions.len() < n {
            let seats = ((std::f64::consts::TAU * radius / SEAT_ARC).floor() as usize)
                .max(1)
                .min(n - positions.len());
            ring_starts.push((positions.len(), seats));
            for s in 0..seats {
                let angle = std::f64::consts::TAU * s as f64 / seats as f64;
                positions.push(Position::new(0.0, 0.0).offset_polar(radius, angle));
            }
            radius += RING_STEP;
        }
        for &(start, seats) in &ring_starts {
            for s in 0..seats {
                let src = start + s;
                // A one-seat ring pairs with the previous node, or the
                // next one when it is the innermost (n ≥ 2 guarantees a
                // neighbor exists).
                let dst = if seats > 1 {
                    start + (s + 1) % seats
                } else if src > 0 {
                    src - 1
                } else {
                    src + 1
                };
                flows.push(Flow {
                    src: NodeId::new(src as u32),
                    dst: NodeId::new(dst as u32),
                    rate_bps,
                    payload,
                    measured: true,
                });
            }
        }
        Topology { positions, flows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_geometry_matches_the_paper() {
        let t = Topology::star(8, 2_000_000, 512, false);
        assert_eq!(t.node_count(), 9);
        let r = t.positions[0];
        for k in 1..=8 {
            let d = r.distance_to(t.positions[k]).value();
            assert!((d - 150.0).abs() < 1e-9, "sender {k} at {d} m");
        }
        assert_eq!(t.measured_senders().len(), 8);
        assert!(t.flows.iter().all(|f| f.dst == NodeId::new(0)));
    }

    #[test]
    fn interferers_sit_500m_out() {
        let t = Topology::star(8, 2_000_000, 512, true);
        assert_eq!(t.node_count(), 13);
        let r = t.positions[0];
        for k in 9..13 {
            let d = r.distance_to(t.positions[k]).value();
            assert!((d - 502.5).abs() < 1.0, "interferer {k} at {d} m");
        }
        // A-B pair distance is 100 m.
        assert!((t.positions[9].distance_to(t.positions[10]).value() - 100.0).abs() < 1e-9);
        // Interferer flows are unmeasured and slower.
        let unmeasured: Vec<&Flow> = t.flows.iter().filter(|f| !f.measured).collect();
        assert_eq!(unmeasured.len(), 2);
        assert!(unmeasured.iter().all(|f| f.rate_bps == 500_000));
    }

    #[test]
    fn senders_are_equidistant_neighbors() {
        let t = Topology::star(8, 2_000_000, 512, false);
        // Adjacent senders on the circle: 2·150·sin(π/8) ≈ 114.8 m.
        let d = t.positions[1].distance_to(t.positions[2]).value();
        assert!((d - 114.8).abs() < 0.5, "adjacent distance {d}");
    }

    #[test]
    fn random_topology_is_reproducible_and_in_bounds() {
        let a = Topology::random(40, 1500.0, 700.0, 2_000_000, 512, MasterSeed::new(5));
        let b = Topology::random(40, 1500.0, 700.0, 2_000_000, 512, MasterSeed::new(5));
        assert_eq!(a, b, "same seed, same topology");
        let c = Topology::random(40, 1500.0, 700.0, 2_000_000, 512, MasterSeed::new(6));
        assert_ne!(a, c, "different seed, different topology");
        for p in &a.positions {
            assert!((0.0..=1500.0).contains(&p.x));
            assert!((0.0..=700.0).contains(&p.y));
        }
        assert_eq!(a.flows.len(), 40, "every node originates a flow");
        for f in &a.flows {
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn random_flows_prefer_close_neighbors() {
        let t = Topology::random(40, 1500.0, 700.0, 2_000_000, 512, MasterSeed::new(7));
        let close = t
            .flows
            .iter()
            .filter(|f| {
                t.positions[f.src.index()]
                    .distance_to(t.positions[f.dst.index()])
                    .value()
                    <= 200.0
            })
            .count();
        assert!(
            close * 10 >= t.flows.len() * 7,
            "most flows should be within delivery range, got {close}/40"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sender")]
    fn empty_star_rejected() {
        let _ = Topology::star(0, 1, 512, false);
    }

    #[test]
    fn random_neighbor_grid_matches_the_all_pairs_scan() {
        // The tile-accelerated neighbor search must reproduce the old
        // O(n²) scan exactly: same candidate lists, same draws, same
        // topology bytes. This is the scan it replaced, kept here as
        // the specification.
        for seed in [5, 6, 7, 101] {
            let t = Topology::random(40, 1500.0, 700.0, 2_000_000, 512, MasterSeed::new(seed));
            let mut rng = MasterSeed::new(seed).stream("topology", 0);
            let positions: Vec<Position> = (0..40)
                .map(|_| Position::new(rng.random_range(0.0..1500.0), rng.random_range(0.0..700.0)))
                .collect();
            assert_eq!(t.positions, positions, "placement unchanged");
            for (i, &pos) in positions.iter().enumerate() {
                let neighbors: Vec<usize> = positions
                    .iter()
                    .enumerate()
                    .filter(|&(j, &p)| j != i && pos.distance_to(p).value() <= 200.0)
                    .map(|(j, _)| j)
                    .collect();
                let expect = if neighbors.is_empty() {
                    positions
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .min_by(|a, b| {
                            pos.distance_to(*a.1)
                                .partial_cmp(&pos.distance_to(*b.1))
                                .expect("finite")
                        })
                        .map(|(j, _)| j)
                        .expect("n >= 2")
                } else {
                    neighbors[rng.random_range(0..neighbors.len())]
                };
                assert_eq!(t.flows[i].dst, NodeId::new(expect as u32), "node {i}");
            }
        }
    }

    #[test]
    fn grid_is_deterministic_and_flows_stay_adjacent() {
        // 10_000 is a perfect square; 13 leaves a last row holding a
        // single node (side 4, node 12 alone on row 3), which must flow
        // to the node directly above it — not to the previous row's
        // far-right node a diagonal away.
        for n in [10_000, 13] {
            let t = Topology::grid(n, 50.0, 2_000_000, 512);
            assert_eq!(t.node_count(), n);
            assert_eq!(t, Topology::grid(n, 50.0, 2_000_000, 512));
            for f in &t.flows {
                assert_ne!(f.src, f.dst);
                let d = t.positions[f.src.index()]
                    .distance_to(t.positions[f.dst.index()])
                    .value();
                assert!((d - 50.0).abs() < 1e-9, "flow spans {d} m in n={n}");
            }
        }
        let t = Topology::grid(13, 50.0, 2_000_000, 512);
        assert_eq!(t.flows[12].dst.index(), 8, "lone last-row node sends up");
    }

    #[test]
    fn campus_clusters_are_separated_and_self_contained() {
        let t = Topology::campus(16, 40, 3_000.0, 2_000_000, 512, MasterSeed::new(9));
        assert_eq!(t.node_count(), 640);
        assert_eq!(
            t,
            Topology::campus(16, 40, 3_000.0, 2_000_000, 512, MasterSeed::new(9)),
            "same seed, same campus"
        );
        for f in &t.flows {
            assert_ne!(f.src, f.dst);
            assert_eq!(
                f.src.index() / 40,
                f.dst.index() / 40,
                "flows never cross clusters"
            );
        }
        // Nodes of different clusters are far beyond the ~1.1 km
        // paper-default interference cutoff.
        let inter = t.positions[0].distance_to(t.positions[40]).value();
        assert!(inter > 2_000.0, "clusters only {inter} m apart");
        // Within a cluster everything fits in the 300 m court.
        for k in 1..40 {
            let d = t.positions[0].distance_to(t.positions[k]).value();
            assert!(d < 300.0 * std::f64::consts::SQRT_2 + 1.0, "in-court {d}");
        }
    }

    #[test]
    fn stadium_rings_grow_outward() {
        let t = Topology::stadium(5_000, 30.0, 2_000_000, 512);
        assert_eq!(t.node_count(), 5_000);
        assert_eq!(t, Topology::stadium(5_000, 30.0, 2_000_000, 512));
        let center = Position::new(0.0, 0.0);
        let mut max_r = 0.0f64;
        for p in &t.positions {
            let r = center.distance_to(*p).value();
            assert!(r >= 30.0 - 1e-9);
            max_r = max_r.max(r);
        }
        assert!(max_r < 500.0, "stadium should stay compact, radius {max_r}");
        for f in &t.flows {
            assert_ne!(f.src, f.dst);
        }
    }
}
