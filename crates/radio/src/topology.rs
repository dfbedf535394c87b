//! Interference topologies: from one shared channel to a graph of
//! neighborhoods.
//!
//! The paper is single-hop: every station hears every other station, so
//! one global [`crate::SlotTruth`] describes the slot for everyone. The
//! strongest related work (Ghaffari–Haeupler, Czumaj–Davies) generalizes
//! exactly this to *multi-hop* radio networks, where a station only hears
//! its graph neighbors and each node perceives its own channel state.
//!
//! [`Topology`] captures the interference graph:
//!
//! * [`Topology::Complete`] — the paper's single shared channel. Every
//!   node's neighborhood is the whole network, so per-neighborhood
//!   resolution degenerates to the global rule and the multi-hop engine
//!   path is bit-identical to the single-channel one (locked by golden
//!   fixtures in `jle-engine`).
//! * [`Topology::unit_disk`] — seeded random positions in the unit
//!   square, edge iff distance ≤ radius. Generation is a *pure function*
//!   of `(n, radius, seed)` — same inputs, same graph, on every
//!   platform.
//! * [`Topology::explicit`] — an arbitrary validated adjacency.
//!   Construction rejects self-loops and out-of-range node ids, and the
//!   stored adjacency is symmetric by construction (radio links are
//!   undirected); [`Topology::from_directed_arcs`] additionally *checks*
//!   symmetry of caller-supplied directed arcs instead of silently
//!   mirroring them.
//!
//! Ground truth per node is resolved over the **closed** neighborhood
//! `N[i] = N(i) ∪ {i}`: a node that transmits contributes to its own
//! perceived slot (its radio occupies its own channel), which is exactly
//! what makes the complete graph collapse to the global rule. The
//! arithmetic itself — jam ⇒ `Collision`, else 0/1/≥2 transmitters ⇒
//! `Null`/`Single`/`Collision` — lives in one place, [`resolve`], shared
//! by [`crate::SlotTruth::observed`] and the per-neighborhood path so the
//! two can never drift.

use crate::slot::ChannelState;

/// The ground-truth slot-resolution arithmetic, shared by the global
/// channel ([`crate::SlotTruth::observed`]) and the per-neighborhood
/// multi-hop path.
///
/// A jammed slot always reads as [`ChannelState::Collision`], even with
/// zero or one transmitters ("to the listening stations, a jammed slot is
/// indistinguishable from the case of at least two transmitters");
/// otherwise the transmitter count resolves 0 → `Null`, 1 → `Single`,
/// ≥2 → `Collision`.
#[inline]
pub const fn resolve(transmitters: u64, jammed: bool) -> ChannelState {
    if jammed {
        ChannelState::Collision
    } else {
        match transmitters {
            0 => ChannelState::Null,
            1 => ChannelState::Single,
            _ => ChannelState::Collision,
        }
    }
}

/// Why a topology could not be built or used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge connects a node to itself; interference graphs are simple.
    SelfLoop {
        /// The offending node id.
        node: u64,
    },
    /// An edge references a node id `>= n`.
    OutOfRange {
        /// The offending node id.
        node: u64,
        /// The declared node count.
        n: u64,
    },
    /// A directed arc has no reverse arc (radio links are undirected).
    Asymmetric {
        /// Tail of the one-way arc.
        from: u64,
        /// Head of the one-way arc.
        to: u64,
    },
    /// The graph was built for a different station count than the run.
    SizeMismatch {
        /// Nodes in the topology.
        topology: u64,
        /// Stations in the simulation config.
        stations: u64,
    },
    /// A graph topology needs at least one node.
    Empty,
    /// Node count exceeds the `u32` index space of the graph storage.
    TooLarge {
        /// The requested node count.
        n: u64,
    },
    /// A [`Topology::parse`] descriptor is malformed or out of bounds.
    Descriptor {
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::SelfLoop { node } => {
                write!(f, "self-loop on node {node}: interference graphs are simple graphs")
            }
            TopologyError::OutOfRange { node, n } => {
                write!(f, "edge references node {node}, but the graph has {n} nodes (valid ids are 0..{n})")
            }
            TopologyError::Asymmetric { from, to } => {
                write!(
                    f,
                    "arc {from} -> {to} has no reverse arc {to} -> {from}: radio links are undirected"
                )
            }
            TopologyError::SizeMismatch { topology, stations } => {
                write!(
                    f,
                    "topology has {topology} nodes but the simulation has {stations} stations"
                )
            }
            TopologyError::Empty => write!(f, "a graph topology needs at least one node"),
            TopologyError::TooLarge { n } => {
                write!(f, "graph topology with {n} nodes exceeds the u32 index space")
            }
            TopologyError::Descriptor { reason } => write!(f, "bad topology descriptor: {reason}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// How a [`Graph`] was generated, for canonical descriptors.
#[derive(Debug, Clone, PartialEq)]
enum GraphKind {
    UnitDisk { radius: f64, seed: u64 },
    Explicit,
    DenseLinear { clusters: u32, size: u32 },
    CoreTail { core: u32, tail: u32 },
}

/// A validated interference graph in CSR form, with connected components
/// precomputed for the engine's per-component sharding.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: u32,
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<u32>,
    /// Connected-component id per node (ids are dense, assigned in
    /// order of each component's smallest node).
    component: Vec<u32>,
    /// Node ids sorted by `(component, id)` — each component's members
    /// are a contiguous range, ready for deterministic sharding.
    comp_order: Vec<u32>,
    /// Range offsets into `comp_order`, length `component_count + 1`.
    comp_offsets: Vec<u32>,
    kind: GraphKind,
}

impl Graph {
    /// Build the CSR + component structure from a validated, deduplicated,
    /// symmetric edge set (both directions present for every edge).
    fn from_arcs(n: u32, mut arcs: Vec<(u32, u32)>, kind: GraphKind) -> Graph {
        arcs.sort_unstable();
        arcs.dedup();
        let mut offsets = vec![0u32; n as usize + 1];
        for &(u, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }
        let neighbors: Vec<u32> = arcs.iter().map(|&(_, v)| v).collect();

        // Connected components by iterative DFS, component ids in order of
        // the smallest node id in each component.
        let mut component = vec![u32::MAX; n as usize];
        let mut n_components = 0u32;
        let mut stack = Vec::new();
        for start in 0..n {
            if component[start as usize] != u32::MAX {
                continue;
            }
            let id = n_components;
            n_components += 1;
            component[start as usize] = id;
            stack.push(start);
            while let Some(u) = stack.pop() {
                let (lo, hi) = (offsets[u as usize] as usize, offsets[u as usize + 1] as usize);
                for &v in &neighbors[lo..hi] {
                    if component[v as usize] == u32::MAX {
                        component[v as usize] = id;
                        stack.push(v);
                    }
                }
            }
        }
        let mut comp_order: Vec<u32> = (0..n).collect();
        comp_order.sort_unstable_by_key(|&i| (component[i as usize], i));
        let mut comp_offsets = vec![0u32; n_components as usize + 1];
        for &c in &component {
            comp_offsets[c as usize + 1] += 1;
        }
        for i in 0..n_components as usize {
            comp_offsets[i + 1] += comp_offsets[i];
        }
        Graph { n, offsets, neighbors, component, comp_order, comp_offsets, kind }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.neighbors.len() as u64 / 2
    }

    /// The sorted open neighborhood `N(i)` of node `i`.
    #[inline]
    pub fn neighbors(&self, i: u32) -> &[u32] {
        &self.neighbors[self.offsets[i as usize] as usize..self.offsets[i as usize + 1] as usize]
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: u32) -> u32 {
        self.offsets[i as usize + 1] - self.offsets[i as usize]
    }

    /// Connected-component id of node `i` (dense ids, assigned in order
    /// of each component's smallest member).
    #[inline]
    pub fn component_of(&self, i: u32) -> u32 {
        self.component[i as usize]
    }

    /// Number of connected components.
    #[inline]
    pub fn component_count(&self) -> u32 {
        self.comp_offsets.len() as u32 - 1
    }

    /// The members of component `c`, sorted by node id. Components are
    /// contiguous ranges of one shared array, so per-component work can be
    /// sharded without gathering.
    #[inline]
    pub fn component_members(&self, c: u32) -> &[u32] {
        &self.comp_order
            [self.comp_offsets[c as usize] as usize..self.comp_offsets[c as usize + 1] as usize]
    }

    /// Count the transmitters in the **closed** neighborhood `N[i]` and,
    /// when the count is exactly one, identify that lone transmitter.
    /// `tx(j)` reports whether node `j` transmitted this slot.
    ///
    /// This is the multi-hop half of the shared-resolution contract: feed
    /// the count (plus the slot's jam flag) through [`resolve`] to get
    /// node `i`'s perceived channel state.
    #[inline]
    pub fn closed_neighborhood_tx(
        &self,
        i: u32,
        mut tx: impl FnMut(u32) -> bool,
    ) -> (u64, Option<u32>) {
        let mut count = 0u64;
        let mut lone = None;
        if tx(i) {
            count = 1;
            lone = Some(i);
        }
        for &j in self.neighbors(i) {
            if tx(j) {
                count += 1;
                lone = if count == 1 { Some(j) } else { None };
            }
        }
        (count, lone)
    }
}

/// The interference topology of a simulated network.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// The paper's single-hop model: every station hears every other.
    /// Size-agnostic — valid for any station count.
    Complete,
    /// A multi-hop interference graph.
    Graph(Box<Graph>),
}

impl Topology {
    /// The single shared channel (the paper's model).
    pub fn complete() -> Topology {
        Topology::Complete
    }

    /// Build a graph from an undirected edge list. Symmetry holds by
    /// construction (each pair is stored in both directions); self-loops
    /// and out-of-range ids are rejected with descriptive errors, and
    /// duplicate edges are deduplicated.
    pub fn explicit(n: u64, edges: &[(u64, u64)]) -> Result<Topology, TopologyError> {
        let n = Self::check_n(n)?;
        let mut arcs = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            Self::check_edge(n, u, v)?;
            arcs.push((u as u32, v as u32));
            arcs.push((v as u32, u as u32));
        }
        Ok(Topology::Graph(Box::new(Graph::from_arcs(n, arcs, GraphKind::Explicit))))
    }

    /// Build a graph from *directed* arcs, enforcing that every arc has
    /// its reverse (radio links are undirected). Use this when the arc
    /// list comes from an external source that could be silently one-way;
    /// [`Topology::explicit`] mirrors pairs instead.
    pub fn from_directed_arcs(n: u64, arcs: &[(u64, u64)]) -> Result<Topology, TopologyError> {
        let n32 = Self::check_n(n)?;
        let mut set: Vec<(u32, u32)> = Vec::with_capacity(arcs.len());
        for &(u, v) in arcs {
            Self::check_edge(n32, u, v)?;
            set.push((u as u32, v as u32));
        }
        set.sort_unstable();
        set.dedup();
        for &(u, v) in &set {
            if set.binary_search(&(v, u)).is_err() {
                return Err(TopologyError::Asymmetric { from: u as u64, to: v as u64 });
            }
        }
        Ok(Topology::Graph(Box::new(Graph::from_arcs(n32, set, GraphKind::Explicit))))
    }

    /// A unit-disk graph: `n` seeded positions in the unit square, edge
    /// iff Euclidean distance ≤ `radius`. A **pure function** of its
    /// arguments: positions come from a SplitMix64 stream derived only
    /// from `seed`, so the same `(n, radius, seed)` builds the same graph
    /// everywhere, every time (property-tested).
    pub fn unit_disk(n: u64, radius: f64, seed: u64) -> Result<Topology, TopologyError> {
        let n32 = Self::check_n(n)?;
        let pts = unit_disk_positions(n, seed);
        let r2 = radius * radius;
        // Bucket the points on a grid of cells at least 2·radius wide (and
        // at most about n cells), so a pair within reach sits in the same
        // or a neighbouring cell: the all-pairs edge set, without testing
        // all pairs.
        let cells = ((0.5 / radius) as usize).min((n as f64).sqrt() as usize).max(1);
        let cell = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
        let mut buckets = vec![Vec::new(); cells * cells];
        for (i, &(x, y)) in pts.iter().enumerate() {
            buckets[cell(y) * cells + cell(x)].push(i);
        }
        let mut arcs = Vec::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            let (cx, cy) = (cell(x), cell(y));
            for gy in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
                for gx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                    for &j in buckets[gy * cells + gx].iter().filter(|&&j| j > i) {
                        let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                        if dx * dx + dy * dy <= r2 {
                            arcs.push((i as u32, j as u32));
                            arcs.push((j as u32, i as u32));
                        }
                    }
                }
            }
        }
        Ok(Topology::Graph(Box::new(Graph::from_arcs(
            n32,
            arcs,
            GraphKind::UnitDisk { radius, seed },
        ))))
    }

    /// The dense-linear scenario: a chain of `clusters` cliques of `size`
    /// nodes each, consecutive cliques bridged by one gateway edge (last
    /// node of clique `k` — first node of clique `k+1`). Returns the
    /// topology and the cluster assignment (node → cluster index).
    ///
    /// # Panics
    /// Panics if `clusters == 0` or `size == 0`.
    pub fn dense_linear(clusters: u32, size: u32) -> (Topology, Vec<u32>) {
        assert!(clusters > 0 && size > 0, "dense_linear needs clusters >= 1 and size >= 1");
        let n = clusters as u64 * size as u64;
        let mut arcs = Vec::new();
        for c in 0..clusters {
            let base = c * size;
            for a in 0..size {
                for b in (a + 1)..size {
                    arcs.push((base + a, base + b));
                    arcs.push((base + b, base + a));
                }
            }
            if c + 1 < clusters {
                let (gw, next) = (base + size - 1, (c + 1) * size);
                arcs.push((gw, next));
                arcs.push((next, gw));
            }
        }
        let n32 = Self::check_n(n).expect("dense_linear size fits u32");
        let clusters_of: Vec<u32> = (0..n as u32).map(|i| i / size).collect();
        let graph = Graph::from_arcs(n32, arcs, GraphKind::DenseLinear { clusters, size });
        (Topology::Graph(Box::new(graph)), clusters_of)
    }

    /// The core-tail scenario: a clique of `core` nodes with a path of
    /// `tail` nodes hanging off node 0. Returns the topology and the
    /// cluster assignment: the core is cluster 0; each tail node is its
    /// own singleton cluster.
    ///
    /// # Panics
    /// Panics if `core == 0`.
    pub fn core_tail(core: u32, tail: u32) -> (Topology, Vec<u32>) {
        assert!(core > 0, "core_tail needs core >= 1");
        let n = core as u64 + tail as u64;
        let mut arcs = Vec::new();
        for a in 0..core {
            for b in (a + 1)..core {
                arcs.push((a, b));
                arcs.push((b, a));
            }
        }
        for t in 0..tail {
            let node = core + t;
            let prev = if t == 0 { 0 } else { node - 1 };
            arcs.push((prev, node));
            arcs.push((node, prev));
        }
        let n32 = Self::check_n(n).expect("core_tail size fits u32");
        let clusters_of: Vec<u32> =
            (0..n as u32).map(|i| if i < core { 0 } else { i - core + 1 }).collect();
        let graph = Graph::from_arcs(n32, arcs, GraphKind::CoreTail { core, tail });
        (Topology::Graph(Box::new(graph)), clusters_of)
    }

    /// Parse a descriptor in CLI form — `complete`, `dense-linear:K,M`,
    /// `core-tail:C,T` or `unit-disk:N,R,SEED` — into the topology plus
    /// the cluster assignment its generator defines (`None` for
    /// `complete` and for unit disks, which have no canonical
    /// clustering). Sizes are bounded before anything is built: K, M and
    /// C in 1..=4096, T in 0..=4096, N in 1..=16384.
    pub fn parse(spec: &str) -> Result<(Topology, Option<Vec<u32>>), TopologyError> {
        if spec == "complete" {
            return Ok((Topology::Complete, None));
        }
        let bad = |reason: String| TopologyError::Descriptor { reason };
        let (kind, rest) =
            spec.split_once(':').ok_or_else(|| bad(format!("expected KIND:ARGS, got `{spec}`")))?;
        let int = |s: &str, what: &str| {
            s.trim().parse::<u64>().map_err(|e| bad(format!("{kind}: {what}: {e}")))
        };
        let bounded = |s: &str, what: &str, lo: u64, hi: u64| {
            let v = int(s, what)?;
            match u32::try_from(v) {
                Ok(v32) if (lo..=hi).contains(&v) => Ok(v32),
                _ => Err(bad(format!("{kind}: {what} must be in {lo}..={hi}"))),
            }
        };
        match (kind, rest.split(',').collect::<Vec<_>>().as_slice()) {
            ("dense-linear", [k, m]) => {
                let (k, m) = (bounded(k, "K", 1, 4_096)?, bounded(m, "M", 1, 4_096)?);
                let (topo, clusters) = Topology::dense_linear(k, m);
                Ok((topo, Some(clusters)))
            }
            ("core-tail", [c, t]) => {
                let (c, t) = (bounded(c, "C", 1, 4_096)?, bounded(t, "T", 0, 4_096)?);
                let (topo, clusters) = Topology::core_tail(c, t);
                Ok((topo, Some(clusters)))
            }
            ("unit-disk", [n, r, seed]) => {
                let n = bounded(n, "N", 1, 16_384)?;
                let r: f64 = r.trim().parse().map_err(|e| bad(format!("unit-disk: R: {e}")))?;
                Ok((Topology::unit_disk(n.into(), r, int(seed, "SEED")?)?, None))
            }
            ("dense-linear", _) => Err(bad("dense-linear:K,M takes two integers".into())),
            ("core-tail", _) => Err(bad("core-tail:C,T takes two integers".into())),
            ("unit-disk", _) => Err(bad("unit-disk:N,R,SEED takes three values".into())),
            (other, _) => Err(bad(format!(
                "unknown kind `{other}` (expected complete, dense-linear, core-tail, or unit-disk)"
            ))),
        }
    }

    fn check_n(n: u64) -> Result<u32, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        u32::try_from(n).map_err(|_| TopologyError::TooLarge { n })
    }

    fn check_edge(n: u32, u: u64, v: u64) -> Result<(), TopologyError> {
        if u == v {
            return Err(TopologyError::SelfLoop { node: u });
        }
        for node in [u, v] {
            if node >= n as u64 {
                return Err(TopologyError::OutOfRange { node, n: n as u64 });
            }
        }
        Ok(())
    }

    /// Whether this is the single-hop complete topology.
    #[inline]
    pub fn is_complete(&self) -> bool {
        matches!(self, Topology::Complete)
    }

    /// The underlying graph, if any.
    #[inline]
    pub fn graph(&self) -> Option<&Graph> {
        match self {
            Topology::Complete => None,
            Topology::Graph(g) => Some(g),
        }
    }

    /// Check the topology against a station count. `Complete` fits any
    /// `n`; a graph must match exactly.
    pub fn validate_for(&self, stations: u64) -> Result<(), TopologyError> {
        match self {
            Topology::Complete => Ok(()),
            Topology::Graph(g) if g.n() as u64 == stations => Ok(()),
            Topology::Graph(g) => {
                Err(TopologyError::SizeMismatch { topology: g.n() as u64, stations })
            }
        }
    }

    /// Canonical descriptor for cache keys, CLI labels, and reports. Two
    /// topologies with the same descriptor resolve slots identically.
    pub fn descriptor(&self) -> String {
        match self {
            Topology::Complete => "complete".to_string(),
            Topology::Graph(g) => match &g.kind {
                GraphKind::UnitDisk { radius, seed } => {
                    format!("unit-disk(n={},r={radius},seed={seed})", g.n())
                }
                GraphKind::Explicit => {
                    format!("explicit(n={},m={},fnv={:016x})", g.n(), g.edge_count(), g.edge_fnv())
                }
                GraphKind::DenseLinear { clusters, size } => {
                    format!("dense-linear(k={clusters},m={size})")
                }
                GraphKind::CoreTail { core, tail } => format!("core-tail(core={core},tail={tail})"),
            },
        }
    }
}

impl Graph {
    /// FNV-1a over the canonical arc list, so explicit graphs get a
    /// content-derived descriptor.
    fn edge_fnv(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u32| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for u in 0..self.n {
            for &v in self.neighbors(u) {
                mix(u);
                mix(v);
            }
        }
        h
    }
}

/// The seeded positions behind [`Topology::unit_disk`] — exposed so plots
/// and tests can reconstruct the embedding. Pure function of `(n, seed)`:
/// node `i` takes the `2i`-th and `2i+1`-th outputs of a SplitMix64
/// stream seeded with `seed`, mapped to `[0, 1)`.
pub fn unit_disk_positions(n: u64, seed: u64) -> Vec<(f64, f64)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let unit = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (0..n).map(|_| (unit(next()), unit(next()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotTruth;

    #[test]
    fn parse_accepts_all_cli_forms() {
        assert!(matches!(Topology::parse("complete").unwrap().0, Topology::Complete));
        let (_, clusters) = Topology::parse("dense-linear:3,4").unwrap();
        assert_eq!(clusters.unwrap().len(), 12);
        let (_, clusters) = Topology::parse("core-tail:4,3").unwrap();
        assert_eq!(clusters.unwrap().len(), 7);
        let (topo, clusters) = Topology::parse("unit-disk:16,0.5,7").unwrap();
        assert_eq!((topo.graph().unwrap().n(), clusters), (16, None));
        assert_eq!(topo, Topology::unit_disk(16, 0.5, 7).unwrap());
        assert!(Topology::parse("moebius:4").is_err());
    }

    #[test]
    fn parse_bounds_sizes_before_building() {
        // Past the cap — and far past it, where building would allocate
        // 2^32 positions and loop over every pair — is refused up front.
        for spec in ["unit-disk:16385,0.5,1", "unit-disk:4294967295,0.5,1", "unit-disk:0,0.5,1"] {
            let err = Topology::parse(spec).unwrap_err();
            assert_eq!(
                err.to_string(),
                "bad topology descriptor: unit-disk: N must be in 1..=16384",
                "{spec}"
            );
        }
        for spec in [
            "dense-linear:0,4",
            "dense-linear:4097,1",
            "dense-linear:4294967297,1",
            "core-tail:0,1",
            "core-tail:1,4097",
            "dense-linear:3",
            "unit-disk:4,0.5",
            "unit-disk:4,x,1",
            "dense-linear",
        ] {
            assert!(
                matches!(Topology::parse(spec), Err(TopologyError::Descriptor { .. })),
                "{spec}"
            );
        }
        assert!(Topology::parse("core-tail:1,0").is_ok());
    }

    #[test]
    fn resolve_matches_slot_truth_observed() {
        for k in [0u64, 1, 2, 7, 1000] {
            for jam in [false, true] {
                assert_eq!(resolve(k, jam), SlotTruth::new(k, jam).observed());
            }
        }
    }

    #[test]
    fn explicit_rejects_self_loops() {
        let err = Topology::explicit(4, &[(0, 1), (2, 2)]).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop { node: 2 });
        assert!(err.to_string().contains("self-loop on node 2"));
    }

    #[test]
    fn explicit_rejects_out_of_range_ids() {
        let err = Topology::explicit(4, &[(0, 7)]).unwrap_err();
        assert_eq!(err, TopologyError::OutOfRange { node: 7, n: 4 });
        assert!(err.to_string().contains("node 7"));
        assert!(err.to_string().contains("4 nodes"));
    }

    #[test]
    fn explicit_rejects_empty_graphs() {
        assert_eq!(Topology::explicit(0, &[]).unwrap_err(), TopologyError::Empty);
    }

    #[test]
    fn explicit_adjacency_is_symmetric_and_deduplicated() {
        let t = Topology::explicit(4, &[(0, 1), (1, 0), (1, 2), (0, 1)]).unwrap();
        let g = t.graph().unwrap();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn directed_arcs_enforce_symmetry() {
        let err = Topology::from_directed_arcs(3, &[(0, 1), (1, 0), (1, 2)]).unwrap_err();
        assert_eq!(err, TopologyError::Asymmetric { from: 1, to: 2 });
        assert!(err.to_string().contains("no reverse arc"));
        let ok = Topology::from_directed_arcs(3, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(ok.graph().unwrap().edge_count(), 1);
    }

    #[test]
    fn validate_for_matches_sizes() {
        let t = Topology::explicit(4, &[(0, 1)]).unwrap();
        assert!(t.validate_for(4).is_ok());
        assert_eq!(
            t.validate_for(5).unwrap_err(),
            TopologyError::SizeMismatch { topology: 4, stations: 5 }
        );
        assert!(Topology::complete().validate_for(1).is_ok());
        assert!(Topology::complete().validate_for(1 << 40).is_ok());
    }

    #[test]
    fn unit_disk_is_pure_in_its_seed() {
        let a = Topology::unit_disk(64, 0.25, 7).unwrap();
        let b = Topology::unit_disk(64, 0.25, 7).unwrap();
        assert_eq!(a, b);
        let c = Topology::unit_disk(64, 0.25, 8).unwrap();
        assert_ne!(a, c, "different seeds should embed differently");
        assert_eq!(unit_disk_positions(64, 7), unit_disk_positions(64, 7));
    }

    #[test]
    fn unit_disk_radius_sqrt2_is_complete() {
        let t = Topology::unit_disk(10, 1.5, 3).unwrap();
        let g = t.graph().unwrap();
        assert_eq!(g.edge_count(), 45, "r > sqrt(2) connects every pair in the unit square");
        assert_eq!(g.component_count(), 1);
    }

    #[test]
    fn dense_linear_is_connected_chain_of_cliques() {
        let (t, clusters) = Topology::dense_linear(4, 3);
        let g = t.graph().unwrap();
        assert_eq!(g.n(), 12);
        assert_eq!(g.component_count(), 1, "gateway edges connect the chain");
        assert_eq!(clusters, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        // Gateway: node 2 (last of clique 0) touches node 3 (first of clique 1).
        assert!(g.neighbors(2).contains(&3));
        assert!(!g.neighbors(0).contains(&3), "non-gateway nodes stay inside their clique");
        // In-clique degree 2 + gateway for the bridge nodes.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(t.descriptor(), "dense-linear(k=4,m=3)");
    }

    #[test]
    fn core_tail_shape() {
        let (t, clusters) = Topology::core_tail(4, 3);
        let g = t.graph().unwrap();
        assert_eq!(g.n(), 7);
        assert_eq!(g.component_count(), 1);
        assert_eq!(clusters, vec![0, 0, 0, 0, 1, 2, 3]);
        assert_eq!(g.degree(0), 4, "core node 0 carries the tail");
        assert_eq!(g.neighbors(4), &[0, 5]);
        assert_eq!(g.neighbors(6), &[5], "tail end");
        assert_eq!(t.descriptor(), "core-tail(core=4,tail=3)");
    }

    #[test]
    fn components_partition_disconnected_graphs() {
        let t = Topology::explicit(6, &[(0, 1), (2, 3), (3, 4)]).unwrap();
        let g = t.graph().unwrap();
        assert_eq!(g.component_count(), 3);
        assert_eq!(g.component_of(0), g.component_of(1));
        assert_eq!(g.component_of(2), g.component_of(4));
        assert_ne!(g.component_of(0), g.component_of(2));
        assert_eq!(g.component_members(g.component_of(2)), &[2, 3, 4]);
        assert_eq!(g.component_members(g.component_of(5)), &[5]);
        let total: usize = (0..g.component_count()).map(|c| g.component_members(c).len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn closed_neighborhood_counts_include_self() {
        let t = Topology::explicit(4, &[(0, 1), (1, 2)]).unwrap();
        let g = t.graph().unwrap();
        let tx = [true, false, true, true];
        // Node 0 hears itself and node 1: one transmitter (itself).
        assert_eq!(g.closed_neighborhood_tx(0, |j| tx[j as usize]), (1, Some(0)));
        // Node 1 hears 0 and 2: two transmitters.
        assert_eq!(g.closed_neighborhood_tx(1, |j| tx[j as usize]), (2, None));
        // Node 3 is isolated and transmitting: its own Single.
        assert_eq!(g.closed_neighborhood_tx(3, |j| tx[j as usize]), (1, Some(3)));
    }

    #[test]
    fn descriptors_are_canonical() {
        assert_eq!(Topology::complete().descriptor(), "complete");
        let u = Topology::unit_disk(16, 0.3, 42).unwrap();
        assert_eq!(u.descriptor(), "unit-disk(n=16,r=0.3,seed=42)");
        let e1 = Topology::explicit(3, &[(0, 1)]).unwrap();
        let e2 = Topology::explicit(3, &[(1, 0)]).unwrap();
        assert_eq!(e1.descriptor(), e2.descriptor(), "descriptor is content-derived");
        let e3 = Topology::explicit(3, &[(1, 2)]).unwrap();
        assert_ne!(e1.descriptor(), e3.descriptor());
    }

    #[test]
    fn too_large_is_rejected() {
        assert_eq!(
            Topology::explicit(1 << 40, &[]).unwrap_err(),
            TopologyError::TooLarge { n: 1 << 40 }
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Unit-disk generation is a pure function of its seed, and the
        /// adjacency it produces is symmetric, simple, and exactly the
        /// pairs within the radius.
        #[test]
        fn unit_disk_pure_and_symmetric(n in 1u64..48, seed: u64, r_pct in 0u32..150) {
            let r = r_pct as f64 / 100.0;
            let a = Topology::unit_disk(n, r, seed).unwrap();
            let b = Topology::unit_disk(n, r, seed).unwrap();
            prop_assert_eq!(&a, &b);
            let g = a.graph().unwrap();
            let pts = unit_disk_positions(n, seed);
            for u in 0..g.n() {
                for &v in g.neighbors(u) {
                    prop_assert!(u != v, "no self-loops");
                    prop_assert!(g.neighbors(v).contains(&u), "symmetry");
                }
                // The grid finds exactly the all-pairs edge set.
                let within = |v: u32| {
                    let (i, j) = (u.min(v) as usize, u.max(v) as usize);
                    let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                    v != u && dx * dx + dy * dy <= r * r
                };
                let want: Vec<u32> = (0..g.n()).filter(|&v| within(v)).collect();
                prop_assert_eq!(g.neighbors(u), &want[..]);
            }
        }

        /// Explicit construction yields symmetric adjacency and components
        /// that partition the node set.
        #[test]
        fn explicit_symmetric_components_partition(
            n in 1u64..32,
            edges in proptest::collection::vec((0u64..32, 0u64..32), 0..64),
        ) {
            let valid: Vec<(u64, u64)> =
                edges.into_iter().filter(|&(u, v)| u != v && u < n && v < n).collect();
            let t = Topology::explicit(n, &valid).unwrap();
            let g = t.graph().unwrap();
            let mut seen = vec![false; n as usize];
            for c in 0..g.component_count() {
                for &m in g.component_members(c) {
                    prop_assert!(!seen[m as usize], "components must be disjoint");
                    seen[m as usize] = true;
                    prop_assert_eq!(g.component_of(m), c);
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "components must cover every node");
            for u in 0..g.n() {
                for &v in g.neighbors(u) {
                    prop_assert!(g.neighbors(v).contains(&u));
                }
            }
        }

        /// On any topology, closed-neighborhood resolution with the full
        /// transmitter set equals the global rule when the graph is
        /// complete (here: a unit-disk with radius > sqrt(2)).
        #[test]
        fn complete_disk_local_equals_global(
            n in 1u64..24,
            tx_bits in proptest::collection::vec(any::<bool>(), 24),
            jam: bool,
        ) {
            let t = Topology::unit_disk(n, 1.5, 1).unwrap();
            let g = t.graph().unwrap();
            let global: u64 = tx_bits.iter().take(n as usize).filter(|&&b| b).count() as u64;
            for i in 0..g.n() {
                let (count, _) = g.closed_neighborhood_tx(i, |j| tx_bits[j as usize]);
                prop_assert_eq!(count, global);
                prop_assert_eq!(
                    resolve(count, jam),
                    crate::slot::SlotTruth::new(global, jam).observed()
                );
            }
        }
    }
}
