//! Compact DAG representation of a single job.
//!
//! A [`JobGraph`] stores the precedence DAG of one job in CSR form:
//! children and parents adjacency, plus a cached topological order. The
//! representation is immutable after construction via [`GraphBuilder`],
//! which validates acyclicity.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Identifier of a subjob (vertex) within a single job's DAG.
///
/// Node ids are dense indices `0..n` local to one [`JobGraph`]; ids of
/// different jobs are unrelated (the paper's vertex sets are disjoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

serde::impl_serde_newtype!(NodeId(u32));

impl NodeId {
    /// The node id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Errors produced while building or validating a [`JobGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph under construction.
        n: u32,
    },
    /// A self-loop `(v, v)` was added.
    SelfLoop(u32),
    /// The edge set contains a directed cycle.
    Cyclic,
    /// The same edge was added twice.
    DuplicateEdge(u32, u32),
    /// The graph has no nodes. The paper's jobs are non-empty (a job with no
    /// subjobs has no completion time).
    Empty,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node v{node} out of range (n = {n})")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at v{v}"),
            GraphError::Cyclic => write!(f, "edge set contains a directed cycle"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge (v{u}, v{v})"),
            GraphError::Empty => write!(f, "job graph must contain at least one subjob"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable DAG of unit-time subjobs, in CSR (compressed sparse row)
/// layout with a cached topological order.
///
/// Construction goes through [`GraphBuilder`], which checks acyclicity; a
/// `JobGraph` therefore always satisfies its invariants:
///
/// * `n() >= 1`;
/// * children/parents adjacency are mutually consistent;
/// * `topo_order()` is a valid topological order of all nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobGraph {
    n: u32,
    /// CSR offsets into `children`, length `n + 1`.
    child_start: Vec<u32>,
    /// Concatenated child lists.
    children: Vec<u32>,
    /// CSR offsets into `parents`, length `n + 1`.
    parent_start: Vec<u32>,
    /// Concatenated parent lists.
    parents: Vec<u32>,
    /// A topological order (every edge goes forward in this order).
    topo: Vec<u32>,
}

impl JobGraph {
    /// Number of subjobs. This equals the job's *work* `W` because subjobs
    /// are unit time (Section 3 of the paper).
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The job's work `W` — the aggregate number of subjobs.
    #[inline]
    pub fn work(&self) -> u64 {
        self.n as u64
    }

    /// Number of precedence edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.children.len()
    }

    /// Children (immediate successors) of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.children[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Parents (immediate predecessors) of `v`.
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.parents[self.parent_start[i] as usize..self.parent_start[i + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.children(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.parents(v).len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// A topological order of the nodes (sources first).
    #[inline]
    pub fn topo_order(&self) -> &[u32] {
        &self.topo
    }

    /// Source nodes (in-degree 0). For an out-tree this is the single root.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Sink nodes (out-degree 0), i.e. the leaves of an out-tree.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Per-node **height** `H(v)`: the number of nodes on the longest
    /// directed path from `v` to a sink, so a sink has height 1
    /// (paper, Section 5). Heights drive the Longest-Path-First priority.
    pub fn heights(&self) -> Vec<u32> {
        let mut h = Vec::new();
        self.heights_into(&mut h);
        h
    }

    /// [`heights`](Self::heights) into a caller-owned buffer, so schedulers
    /// that keep per-job priorities can recycle the buffers of finished
    /// jobs. `out` is cleared and refilled; its capacity is kept.
    pub fn heights_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.n(), 1);
        // Walk the topological order backwards: children are finalized first.
        for &v in self.topo.iter().rev() {
            let vi = v as usize;
            for &c in self.children(NodeId(v)) {
                out[vi] = out[vi].max(out[c as usize] + 1);
            }
        }
    }

    /// Per-node **depth** `D(v)`: the number of nodes on the longest directed
    /// path from a source to `v`, so a source has depth 1 (paper, Section 5;
    /// for out-trees this is the usual root distance + 1).
    pub fn depths(&self) -> Vec<u32> {
        let mut d = Vec::new();
        self.depths_into(&mut d);
        d
    }

    /// [`depths`](Self::depths) into a caller-owned buffer, so hot paths
    /// that profile many graphs (streaming admission) can reuse one
    /// allocation. `out` is cleared and refilled; its capacity is kept.
    pub fn depths_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.n(), 1);
        for &v in &self.topo {
            let dv = out[v as usize];
            for &c in self.children(NodeId(v)) {
                let ci = c as usize;
                out[ci] = out[ci].max(dv + 1);
            }
        }
    }

    /// The job's **span** `P`: the number of nodes on the longest directed
    /// path. The span lower-bounds the job's flow in *any* schedule.
    pub fn span(&self) -> u64 {
        self.heights().iter().copied().max().unwrap_or(0) as u64
    }

    /// Collect all edges `(u, v)` in an unspecified but deterministic order.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut e = Vec::with_capacity(self.num_edges());
        for v in 0..self.n {
            for &c in self.children(NodeId(v)) {
                e.push((v, c));
            }
        }
        e
    }

    /// The induced subgraph on the nodes with `keep[v] == true`, with dense
    /// re-labelling. Returns the subgraph and the map from new node ids to
    /// original ids. Panics if no node is kept.
    ///
    /// The guess-and-double wrapper (paper Section 5.4) restarts
    /// Algorithm 𝒜 on the *unexecuted* portion of each job; since executed
    /// sets are ancestor-closed, the kept set is descendant-closed and the
    /// subgraph of an out-forest is again an out-forest. The scheduler
    /// passes such sets as masks instead of building the subgraph; tests
    /// use this materialized form as their reference.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (JobGraph, Vec<u32>) {
        assert_eq!(keep.len(), self.n(), "keep mask length mismatch");
        let mut new_id = vec![u32::MAX; self.n()];
        let mut old_id = Vec::new();
        for v in 0..self.n() {
            if keep[v] {
                new_id[v] = old_id.len() as u32;
                old_id.push(v as u32);
            }
        }
        assert!(!old_id.is_empty(), "induced subgraph must be non-empty");
        let mut b = GraphBuilder::new(old_id.len());
        for (u, v) in self.edges() {
            if keep[u as usize] && keep[v as usize] {
                b.edge(new_id[u as usize], new_id[v as usize]);
            }
        }
        (b.build().expect("subgraph of a DAG is a DAG"), old_id)
    }

    /// Disjoint union of jobs: relabels each graph's nodes into one graph.
    /// Used by the paper's batching reduction (Section 5.4), which merges all
    /// jobs arriving in a window into a single job. Returns per-input offsets
    /// of the relabelling alongside the union.
    pub fn disjoint_union(graphs: &[&JobGraph]) -> (JobGraph, Vec<u32>) {
        assert!(!graphs.is_empty(), "disjoint_union of zero graphs");
        let total: u32 = graphs.iter().map(|g| g.n).sum();
        let mut b = GraphBuilder::new(total as usize);
        let mut offsets = Vec::with_capacity(graphs.len());
        let mut off = 0u32;
        for g in graphs {
            offsets.push(off);
            for (u, v) in g.edges() {
                b.edge(off + u, off + v);
            }
            off += g.n;
        }
        (b.build().expect("union of DAGs is a DAG"), offsets)
    }
}

// Serde: serialize as (n, edges) and rebuild (re-validating) on deserialize,
// so a hand-edited instance file cannot smuggle in a cyclic "DAG".
impl Serialize for JobGraph {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("edges".to_string(), self.edges().to_value()),
        ])
    }
}

impl Deserialize for JobGraph {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let n = u32::from_value(v.get("n").ok_or_else(|| SerdeError::missing_field("n"))?)?;
        let edges = Vec::<(u32, u32)>::from_value(
            v.get("edges").ok_or_else(|| SerdeError::missing_field("edges"))?,
        )?;
        let mut b = GraphBuilder::new(n as usize);
        for (u, v) in edges {
            b.edge(u, v);
        }
        b.build().map_err(SerdeError::custom)
    }
}

/// Mutable builder for [`JobGraph`]. Collect edges, then [`build`](Self::build)
/// validates and freezes the graph.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Start a builder for a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Append `k` fresh nodes, returning the id of the first.
    pub fn add_nodes(&mut self, k: usize) -> u32 {
        let first = self.n as u32;
        self.n += k;
        first
    }

    /// Current number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add a precedence edge `u -> v` (`u` must finish before `v` starts).
    pub fn edge(&mut self, u: u32, v: u32) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Validate and freeze into a [`JobGraph`].
    ///
    /// Checks: non-empty, ids in range, no self-loops, no duplicate edges,
    /// acyclic (Kahn's algorithm; the resulting peel order becomes the cached
    /// topological order).
    pub fn build(&self) -> Result<JobGraph, GraphError> {
        let n = self.n;
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let n32 = u32::try_from(n).expect("graph too large for u32 node ids");
        for &(u, v) in &self.edges {
            if u >= n32 {
                return Err(GraphError::NodeOutOfRange { node: u, n: n32 });
            }
            if v >= n32 {
                return Err(GraphError::NodeOutOfRange { node: v, n: n32 });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
        }
        // Duplicate detection without hashing: sort a copy.
        let mut sorted = self.edges.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }

        // CSR for children from the sorted edge list (sorted by source).
        let mut child_start = vec![0u32; n + 1];
        for &(u, _) in &sorted {
            child_start[u as usize + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let children: Vec<u32> = sorted.iter().map(|&(_, v)| v).collect();

        // CSR for parents: counting sort by target.
        let mut parent_start = vec![0u32; n + 1];
        for &(_, v) in &sorted {
            parent_start[v as usize + 1] += 1;
        }
        for i in 0..n {
            parent_start[i + 1] += parent_start[i];
        }
        let mut cursor = parent_start.clone();
        let mut parents = vec![0u32; sorted.len()];
        for &(u, v) in &sorted {
            let slot = cursor[v as usize] as usize;
            parents[slot] = u;
            cursor[v as usize] += 1;
        }

        // Kahn's algorithm for acyclicity + topological order.
        let mut indeg: Vec<u32> = (0..n).map(|i| parent_start[i + 1] - parent_start[i]).collect();
        let mut queue: Vec<u32> = (0..n32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            topo.push(v);
            let (s, e) = (child_start[v as usize], child_start[v as usize + 1]);
            for &c in &children[s as usize..e as usize] {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cyclic);
        }

        Ok(JobGraph { n: n32, child_start, children, parent_start, parents, topo })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> JobGraph {
        // 0 -> {1, 2} -> 3
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.work(), 1);
        assert_eq!(g.span(), 1);
        assert_eq!(g.heights(), vec![1]);
        assert_eq!(g.depths(), vec![1]);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(0)]);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 2);
        assert_eq!(b.build().unwrap_err(), GraphError::NodeOutOfRange { node: 2, n: 2 });
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(1, 1);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop(1));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).edge(0, 1);
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(0, 1));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).edge(2, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::Cyclic);
    }

    #[test]
    fn two_cycle_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).edge(1, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::Cyclic);
    }

    #[test]
    fn diamond_adjacency() {
        let g = diamond();
        assert_eq!(g.children(NodeId(0)), &[1, 2]);
        assert_eq!(g.children(NodeId(1)), &[3]);
        assert_eq!(g.children(NodeId(3)), &[] as &[u32]);
        assert_eq!(g.parents(NodeId(3)), &[1, 2]);
        assert_eq!(g.parents(NodeId(0)), &[] as &[u32]);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(0)), 2);
    }

    #[test]
    fn diamond_metrics() {
        let g = diamond();
        assert_eq!(g.work(), 4);
        assert_eq!(g.span(), 3);
        assert_eq!(g.heights(), vec![3, 2, 2, 1]);
        assert_eq!(g.depths(), vec![1, 2, 2, 3]);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
    }

    #[test]
    fn topo_order_is_valid() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.n()];
            for (i, &v) in g.topo_order().iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u as usize] < pos[v as usize]);
        }
    }

    #[test]
    fn disconnected_components_allowed() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(g.sources(), vec![NodeId(0), NodeId(2), NodeId(4)]);
        assert_eq!(g.span(), 2);
    }

    #[test]
    fn chain_depth_height_mirror() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.edge(i, i + 1);
        }
        let g = b.build().unwrap();
        assert_eq!(g.heights(), vec![5, 4, 3, 2, 1]);
        assert_eq!(g.depths(), vec![1, 2, 3, 4, 5]);
        assert_eq!(g.span(), 5);
    }

    #[test]
    fn depth_uses_longest_path_not_shortest() {
        // 0 -> 3 directly, and 0 -> 1 -> 2 -> 3: depth of 3 must be 4.
        let mut b = GraphBuilder::new(4);
        b.edge(0, 3).edge(0, 1).edge(1, 2).edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(g.depths()[3], 4);
        assert_eq!(g.heights()[0], 4);
    }

    #[test]
    fn induced_subgraph_descendant_closed() {
        // chain(4) keep suffix {2, 3}.
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(1, 2).edge(2, 3);
        let g = b.build().unwrap();
        let (sub, old) = g.induced_subgraph(&[false, false, true, true]);
        assert_eq!(sub.n(), 2);
        assert_eq!(old, vec![2, 3]);
        assert_eq!(sub.edges(), vec![(0, 1)]);
        assert_eq!(sub.span(), 2);
    }

    #[test]
    fn induced_subgraph_drops_cross_edges() {
        let g = diamond();
        // Keep 1 and 3 only: the edge 1->3 survives, others vanish.
        let (sub, old) = g.induced_subgraph(&[false, true, false, true]);
        assert_eq!(old, vec![1, 3]);
        assert_eq!(sub.edges(), vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn induced_subgraph_empty_panics() {
        diamond().induced_subgraph(&[false; 4]);
    }

    #[test]
    fn disjoint_union_relabels() {
        let g = diamond();
        let (u, offsets) = JobGraph::disjoint_union(&[&g, &g]);
        assert_eq!(u.n(), 8);
        assert_eq!(offsets, vec![0, 4]);
        assert_eq!(u.num_edges(), 8);
        assert_eq!(u.span(), 3);
        assert_eq!(u.sources().len(), 2);
    }

    #[test]
    fn edges_roundtrip_through_builder() {
        let g = diamond();
        let mut b = GraphBuilder::new(g.n());
        for (u, v) in g.edges() {
            b.edge(u, v);
        }
        assert_eq!(b.build().unwrap(), g);
    }

    #[test]
    fn serde_roundtrip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: JobGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn serde_rejects_cyclic_payload() {
        let json = r#"{"n":2,"edges":[[0,1],[1,0]]}"#;
        assert!(serde_json::from_str::<JobGraph>(json).is_err());
    }
}
