//! Reliability-graph structure and solvers.

use crate::bdd_err;
use reliab_bdd::{Bdd, NodeId as BddNode};
use reliab_core::{ensure_probability, Error, Result};
use reliab_dist::Lifetime;
use reliab_numeric::quadrature::integrate_to_infinity;

/// Handle to a graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(usize);

/// Handle to a graph edge (a failure-prone component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(usize);

impl EdgeId {
    /// Index into probability/lifetime vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    u: usize,
    v: usize,
    directed: bool,
}

/// Builder for [`RelGraph`].
#[derive(Debug, Default)]
pub struct RelGraphBuilder {
    node_names: Vec<String>,
    edge_names: Vec<String>,
    edges: Vec<Edge>,
}

impl RelGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        RelGraphBuilder::default()
    }

    /// Adds a node.
    pub fn node(&mut self, name: &str) -> NodeIdx {
        self.node_names.push(name.to_owned());
        NodeIdx(self.node_names.len() - 1)
    }

    /// Adds an undirected edge (usable in both directions).
    pub fn edge(&mut self, u: NodeIdx, v: NodeIdx, name: &str) -> EdgeId {
        self.edge_names.push(name.to_owned());
        self.edges.push(Edge {
            u: u.0,
            v: v.0,
            directed: false,
        });
        EdgeId(self.edge_names.len() - 1)
    }

    /// Adds a directed edge `u → v`.
    pub fn arc(&mut self, u: NodeIdx, v: NodeIdx, name: &str) -> EdgeId {
        self.edge_names.push(name.to_owned());
        self.edges.push(Edge {
            u: u.0,
            v: v.0,
            directed: true,
        });
        EdgeId(self.edge_names.len() - 1)
    }

    /// Finalizes the graph with the given terminals.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if the graph has no edges or more edges
    /// than the BDD kernel holds, terminals coincide, or no source→sink
    /// path exists at all.
    pub fn build(self, source: NodeIdx, sink: NodeIdx) -> Result<RelGraph> {
        if self.edges.is_empty() {
            return Err(Error::model("reliability graph has no edges"));
        }
        // Every compile makes one BDD variable per edge.
        reliab_bdd::check_nvars(self.edges.len()).map_err(bdd_err)?;
        if source == sink {
            return Err(Error::model("source and sink must differ"));
        }
        if source.0 >= self.node_names.len() || sink.0 >= self.node_names.len() {
            return Err(Error::model("terminal node handle out of range"));
        }
        let g = RelGraph {
            node_names: self.node_names,
            edge_names: self.edge_names,
            edges: self.edges,
            source: source.0,
            sink: sink.0,
        };
        if !g.connected(&vec![None; g.edges.len()], true) {
            return Err(Error::model(
                "sink is unreachable from source even with all edges up",
            ));
        }
        Ok(g)
    }
}

/// A compiled reliability graph; see [`RelGraphBuilder`].
#[derive(Debug, Clone)]
pub struct RelGraph {
    node_names: Vec<String>,
    edge_names: Vec<String>,
    edges: Vec<Edge>,
    source: usize,
    sink: usize,
}

impl RelGraph {
    /// Number of edges (components).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Edge name by handle.
    pub fn edge_name(&self, e: EdgeId) -> &str {
        &self.edge_names[e.0]
    }

    /// Compiles the works function to a BDD once, so the probability
    /// pass and both minimal set families read the same diagram: the
    /// OR, over every simple source→sink path found by DFS, of the AND
    /// of its edges. A simple path's edge set contains no other path's,
    /// and the BDD is canonical, so no path needs filtering. The
    /// compiled graph keeps a copy of this one, so it can outlive it.
    pub fn compile(&self) -> CompiledGraph {
        // adjacency: node -> (neighbor, edge index)
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.node_names.len()];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.u].push((e.v, i));
            if !e.directed {
                adj[e.v].push((e.u, i));
            }
        }
        let mut bdd = Bdd::new(self.edges.len() as u32);
        let mut works = BddNode::FALSE;
        let mut visited = vec![false; self.node_names.len()];
        let mut or_path = |path: &[usize]| {
            let edges: Vec<BddNode> = path
                .iter()
                .map(|&e| bdd.var(e as u32).expect("one BDD variable per edge"))
                .collect();
            let conj = bdd.and_all(edges);
            works = bdd.or(works, conj);
        };
        self.dfs_paths(
            self.source,
            &adj,
            &mut visited,
            &mut Vec::new(),
            &mut or_path,
        );
        CompiledGraph {
            graph: self.clone(),
            bdd,
            works,
        }
    }

    /// Minimal s-t path sets; see [`CompiledGraph::minimal_path_sets`].
    pub fn minimal_path_sets(&self) -> Vec<Vec<EdgeId>> {
        self.compile().minimal_path_sets()
    }

    /// Minimal cut sets; see [`CompiledGraph::minimal_cut_sets`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if the graph has more than `max_sets`
    /// minimal cut sets.
    pub fn minimal_cut_sets(&self, max_sets: usize) -> Result<Vec<Vec<EdgeId>>> {
        self.compile().minimal_cut_sets(max_sets)
    }

    /// Exact s-t reliability given per-edge up-probabilities; see
    /// [`CompiledGraph::reliability`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on bad probability vectors.
    pub fn reliability(&self, edge_up: &[f64]) -> Result<f64> {
        self.compile().reliability(edge_up)
    }

    fn dfs_paths(
        &self,
        at: usize,
        adj: &[Vec<(usize, usize)>],
        visited: &mut [bool],
        path_edges: &mut Vec<usize>,
        on_path: &mut impl FnMut(&[usize]),
    ) {
        if at == self.sink {
            on_path(path_edges);
            return;
        }
        visited[at] = true;
        for &(next, eidx) in &adj[at] {
            if visited[next] {
                continue;
            }
            path_edges.push(eidx);
            self.dfs_paths(next, adj, visited, path_edges, on_path);
            path_edges.pop();
        }
        visited[at] = false;
    }

    /// Exact s-t reliability by recursive edge factoring (pivotal
    /// decomposition): `R = p_e · R(G | e up) + (1-p_e) · R(G | e down)`
    /// with connectivity short-circuits. Exponential worst case; used to
    /// cross-validate the BDD path and in ordering ablations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on bad probability vectors.
    pub fn factoring_reliability(&self, edge_up: &[f64]) -> Result<f64> {
        self.check_probs(edge_up)?;
        // State per edge: None = undecided, Some(true/false) = forced.
        let mut state: Vec<Option<bool>> = vec![None; self.edges.len()];
        Ok(self.factor_rec(&mut state, edge_up))
    }

    fn connected(&self, state: &[Option<bool>], optimistic: bool) -> bool {
        // optimistic: undecided edges count as up; pessimistic: as down.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.node_names.len()];
        for (i, e) in self.edges.iter().enumerate() {
            let up = match state[i] {
                Some(b) => b,
                None => optimistic,
            };
            if up {
                adj[e.u].push(e.v);
                if !e.directed {
                    adj[e.v].push(e.u);
                }
            }
        }
        let mut seen = vec![false; self.node_names.len()];
        let mut stack = vec![self.source];
        seen[self.source] = true;
        while let Some(n) = stack.pop() {
            if n == self.sink {
                return true;
            }
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        false
    }

    fn factor_rec(&self, state: &mut Vec<Option<bool>>, p: &[f64]) -> f64 {
        if self.connected(state, false) {
            return 1.0; // already connected with forced-up edges only
        }
        if !self.connected(state, true) {
            return 0.0; // cannot connect even with every undecided edge up
        }
        let pivot = state
            .iter()
            .position(|s| s.is_none())
            .expect("some edge undecided, else one branch above fired");
        state[pivot] = Some(true);
        let up = self.factor_rec(state, p);
        state[pivot] = Some(false);
        let down = self.factor_rec(state, p);
        state[pivot] = None;
        p[pivot] * up + (1.0 - p[pivot]) * down
    }

    /// All-terminal reliability: the probability that *every* node can
    /// reach every other over working edges (network-wide
    /// connectivity, the measure used for backbone meshes).
    ///
    /// Computed by pivotal decomposition with connectivity
    /// short-circuits, like [`RelGraph::factoring_reliability`] but
    /// testing spanning connectivity instead of s-t connectivity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] if the graph contains directed
    /// arcs (all-terminal reliability is defined here for undirected
    /// networks) and [`Error::InvalidParameter`] on bad probabilities.
    pub fn all_terminal_reliability(&self, edge_up: &[f64]) -> Result<f64> {
        self.check_probs(edge_up)?;
        if self.edges.iter().any(|e| e.directed) {
            return Err(Error::Unsupported(
                "all-terminal reliability requires an undirected graph".into(),
            ));
        }
        let mut state: Vec<Option<bool>> = vec![None; self.edges.len()];
        Ok(self.factor_all_rec(&mut state, edge_up))
    }

    /// k-terminal reliability: the probability that every node in
    /// `terminals` lies in one connected component of working edges —
    /// the general SHARPE measure of which two-terminal (`{s, t}`) and
    /// all-terminal (every node) are the special cases.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for directed graphs,
    /// [`Error::InvalidParameter`] for an empty/duplicate terminal set
    /// or bad probabilities.
    pub fn k_terminal_reliability(&self, terminals: &[NodeIdx], edge_up: &[f64]) -> Result<f64> {
        self.check_probs(edge_up)?;
        if self.edges.iter().any(|e| e.directed) {
            return Err(Error::Unsupported(
                "k-terminal reliability requires an undirected graph".into(),
            ));
        }
        if terminals.is_empty() {
            return Err(Error::invalid("terminal set is empty"));
        }
        let mut set = vec![false; self.node_names.len()];
        for t in terminals {
            if t.0 >= self.node_names.len() {
                return Err(Error::invalid("terminal node handle out of range"));
            }
            if set[t.0] {
                return Err(Error::invalid("duplicate terminal node"));
            }
            set[t.0] = true;
        }
        if terminals.len() == 1 {
            return Ok(1.0); // one node is always connected to itself
        }
        let mut state: Vec<Option<bool>> = vec![None; self.edges.len()];
        Ok(self.factor_terminals_rec(&mut state, edge_up, &set, terminals[0].0))
    }

    /// Whether the graph restricted per `state` connects every marked
    /// terminal to `root` (undirected reachability).
    fn terminals_connected(
        &self,
        state: &[Option<bool>],
        optimistic: bool,
        terminal: &[bool],
        root: usize,
    ) -> bool {
        let n = self.node_names.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            let up = state[i].unwrap_or(optimistic);
            if up {
                adj[e.u].push(e.v);
                adj[e.v].push(e.u);
            }
        }
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        seen[root] = true;
        let mut remaining = terminal.iter().filter(|&&t| t).count() - 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    if terminal[w] {
                        remaining -= 1;
                        if remaining == 0 {
                            return true;
                        }
                    }
                    stack.push(w);
                }
            }
        }
        remaining == 0
    }

    fn factor_terminals_rec(
        &self,
        state: &mut Vec<Option<bool>>,
        p: &[f64],
        terminal: &[bool],
        root: usize,
    ) -> f64 {
        if self.terminals_connected(state, false, terminal, root) {
            return 1.0;
        }
        if !self.terminals_connected(state, true, terminal, root) {
            return 0.0;
        }
        let pivot = state
            .iter()
            .position(|s| s.is_none())
            .expect("undecided edge exists when neither bound fires");
        state[pivot] = Some(true);
        let up = self.factor_terminals_rec(state, p, terminal, root);
        state[pivot] = Some(false);
        let down = self.factor_terminals_rec(state, p, terminal, root);
        state[pivot] = None;
        p[pivot] * up + (1.0 - p[pivot]) * down
    }

    /// Whether the graph restricted per `state` connects all nodes.
    fn spanning_connected(&self, state: &[Option<bool>], optimistic: bool) -> bool {
        let all = vec![true; self.node_names.len()];
        self.terminals_connected(state, optimistic, &all, 0)
    }

    fn factor_all_rec(&self, state: &mut Vec<Option<bool>>, p: &[f64]) -> f64 {
        if self.spanning_connected(state, false) {
            return 1.0;
        }
        if !self.spanning_connected(state, true) {
            return 0.0;
        }
        let pivot = state
            .iter()
            .position(|s| s.is_none())
            .expect("undecided edge exists when neither bound fires");
        state[pivot] = Some(true);
        let up = self.factor_all_rec(state, p);
        state[pivot] = Some(false);
        let down = self.factor_all_rec(state, p);
        state[pivot] = None;
        p[pivot] * up + (1.0 - p[pivot]) * down
    }

    /// System MTTF under per-edge lifetime distributions.
    ///
    /// # Errors
    ///
    /// Propagates evaluation and quadrature errors.
    pub fn mttf(&self, lifetimes: &[&dyn Lifetime]) -> Result<f64> {
        if lifetimes.len() != self.edges.len() {
            return Err(Error::invalid(format!(
                "{} lifetimes supplied for {} edges",
                lifetimes.len(),
                self.edges.len()
            )));
        }
        let CompiledGraph { bdd, works, .. } = self.compile();
        let scale = lifetimes
            .iter()
            .map(|d| d.mean())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        integrate_to_infinity(
            |t| {
                let probs: std::result::Result<Vec<f64>, _> =
                    lifetimes.iter().map(|d| d.survival(t)).collect();
                match probs {
                    Ok(p) => bdd.probability(works, &p).unwrap_or(f64::NAN),
                    Err(_) => f64::NAN,
                }
            },
            scale,
            1e-10,
            80,
        )
        .map_err(|e| Error::numerical(e.to_string()))
    }

    fn check_probs(&self, p: &[f64]) -> Result<()> {
        if p.len() != self.edges.len() {
            return Err(Error::invalid(format!(
                "{} probabilities supplied for {} edges",
                p.len(),
                self.edges.len()
            )));
        }
        for (i, &v) in p.iter().enumerate() {
            ensure_probability(v, &format!("reliability of edge '{}'", self.edge_names[i]))?;
        }
        Ok(())
    }
}

/// A reliability graph with its works function compiled to a BDD; see
/// [`RelGraph::compile`].
#[derive(Debug)]
pub struct CompiledGraph {
    graph: RelGraph,
    bdd: Bdd,
    works: BddNode,
}

impl CompiledGraph {
    /// The graph this was compiled from.
    pub fn graph(&self) -> &RelGraph {
        &self.graph
    }

    /// Exact s-t reliability given per-edge up-probabilities: one
    /// linear pass over the compiled BDD.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on bad probability vectors.
    pub fn reliability(&self, edge_up: &[f64]) -> Result<f64> {
        self.graph.check_probs(edge_up)?;
        self.bdd.probability(self.works, edge_up).map_err(bdd_err)
    }

    /// Statistics of the BDD manager that holds the works function.
    pub fn bdd_stats(&self) -> reliab_bdd::BddStats {
        self.bdd.stats()
    }

    /// Minimal s-t path sets as sorted edge-id lists, by length and
    /// then edge ids: the minimal solutions of the works function.
    pub fn minimal_path_sets(&self) -> Vec<Vec<EdgeId>> {
        self.edge_sets(false, usize::MAX)
            .expect("an uncapped family always lists")
    }

    /// Minimal cut sets as sorted edge-id lists, by length and then
    /// edge ids: the minimal solutions of the works function's dual,
    /// read off the same BDD as the path sets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if the graph has more than `max_sets`
    /// minimal cut sets.
    pub fn minimal_cut_sets(&self, max_sets: usize) -> Result<Vec<Vec<EdgeId>>> {
        self.edge_sets(true, max_sets)
    }

    /// Counts the minimal path (or, for `cuts`, cut) sets, then lists
    /// them unless there are more than `max_sets`.
    fn edge_sets(&self, cuts: bool, max_sets: usize) -> Result<Vec<Vec<EdgeId>>> {
        let family = if cuts {
            self.bdd.dual_minimal_family(self.works)
        } else {
            self.bdd.minimal_family(self.works)
        };
        let count = family.count();
        if count > max_sets as u64 {
            return Err(Error::model(format!(
                "the reliability graph has {count} minimal cut sets, \
                 more than the cap of {max_sets}"
            )));
        }
        Ok(family.sets(|v| EdgeId(v as usize)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic 5-edge bridge network.
    fn bridge() -> (RelGraph, Vec<EdgeId>) {
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let a = b.node("a");
        let c = b.node("c");
        let t = b.node("t");
        let e1 = b.edge(s, a, "e1");
        let e2 = b.edge(s, c, "e2");
        let e3 = b.edge(a, c, "bridge");
        let e4 = b.edge(a, t, "e4");
        let e5 = b.edge(c, t, "e5");
        (b.build(s, t).unwrap(), vec![e1, e2, e3, e4, e5])
    }

    /// Exact bridge reliability for all edges with probability p:
    /// R = 2p^2 + 2p^3 - 5p^4 + 2p^5.
    fn bridge_closed_form(p: f64) -> f64 {
        2.0 * p.powi(2) + 2.0 * p.powi(3) - 5.0 * p.powi(4) + 2.0 * p.powi(5)
    }

    #[test]
    fn series_and_parallel() {
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let m = b.node("m");
        let t = b.node("t");
        b.edge(s, m, "e1");
        b.edge(m, t, "e2");
        let g = b.build(s, t).unwrap();
        assert!((g.reliability(&[0.9, 0.8]).unwrap() - 0.72).abs() < 1e-15);

        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        b.edge(s, t, "e1");
        b.edge(s, t, "e2");
        let g = b.build(s, t).unwrap();
        assert!((g.reliability(&[0.9, 0.8]).unwrap() - 0.98).abs() < 1e-15);
    }

    #[test]
    fn bridge_network_closed_form() {
        let (g, _) = bridge();
        for &p in &[0.5, 0.9, 0.99] {
            let r = g.reliability(&[p; 5]).unwrap();
            assert!(
                (r - bridge_closed_form(p)).abs() < 1e-12,
                "p = {p}: {r} vs {}",
                bridge_closed_form(p)
            );
        }
    }

    #[test]
    fn factoring_agrees_with_bdd() {
        let (g, _) = bridge();
        let probs = [0.95, 0.9, 0.85, 0.8, 0.75];
        let r_bdd = g.reliability(&probs).unwrap();
        let r_fac = g.factoring_reliability(&probs).unwrap();
        assert!((r_bdd - r_fac).abs() < 1e-12);
    }

    #[test]
    fn bridge_path_and_cut_sets() {
        let (g, e) = bridge();
        let set = |ids: &[usize]| ids.iter().map(|&i| e[i]).collect::<Vec<_>>();
        // By length, then edge ids.
        let paths = g.minimal_path_sets();
        assert_eq!(
            paths,
            vec![set(&[0, 3]), set(&[1, 4]), set(&[0, 2, 4]), set(&[1, 2, 3])]
        );
        let cuts = g.minimal_cut_sets(4).unwrap();
        assert_eq!(
            cuts,
            vec![set(&[0, 1]), set(&[3, 4]), set(&[0, 2, 4]), set(&[1, 2, 3])]
        );
        // The cap is checked against the exact count.
        let err = g.minimal_cut_sets(3).unwrap_err().to_string();
        assert!(err.contains("4 minimal cut sets"), "{err}");
        // One compile answers all three questions, and listing the set
        // families adds no node to the diagram the probability read.
        let compiled = g.compile();
        let probs = [0.95, 0.9, 0.85, 0.8, 0.75];
        let r = compiled.reliability(&probs).unwrap();
        assert_eq!(r.to_bits(), g.reliability(&probs).unwrap().to_bits());
        let nodes = compiled.bdd_stats().arena_nodes;
        assert_eq!(compiled.minimal_path_sets(), paths);
        assert_eq!(compiled.minimal_cut_sets(4).unwrap(), cuts);
        assert_eq!(compiled.bdd_stats().arena_nodes, nodes);
    }

    #[test]
    fn directed_arcs_respected() {
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let m = b.node("m");
        let t = b.node("t");
        b.arc(t, m, "backwards-1");
        b.arc(m, s, "backwards-2");
        // Only backwards arcs: no s->t path; build must fail.
        assert!(b.build(s, t).is_err());

        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let m = b.node("m");
        let t = b.node("t");
        b.arc(s, m, "f1");
        b.arc(m, t, "f2");
        b.arc(t, s, "loop-back");
        let g = b.build(s, t).unwrap();
        // The loop-back arc is irrelevant to s->t connectivity.
        let r = g.reliability(&[0.9, 0.9, 0.1]).unwrap();
        assert!((r - 0.81).abs() < 1e-12);
    }

    #[test]
    fn build_validation() {
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        assert!(b.build(s, t).is_err()); // no edges

        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        b.node("t");
        let q = b.edge(s, s, "self");
        let _ = q;
        assert!(b.build(s, s).is_err()); // source == sink
    }

    #[test]
    fn probability_validation() {
        let (g, _) = bridge();
        assert!(g.reliability(&[0.9; 4]).is_err());
        assert!(g.reliability(&[0.9, 0.9, 0.9, 0.9, 1.5]).is_err());
    }

    #[test]
    fn mttf_two_parallel_links() {
        use reliab_dist::Exponential;
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        b.edge(s, t, "a");
        b.edge(s, t, "b");
        let g = b.build(s, t).unwrap();
        let d = Exponential::new(1.0).unwrap();
        let mttf = g.mttf(&[&d, &d]).unwrap();
        assert!((mttf - 1.5).abs() < 1e-7);
    }

    #[test]
    fn all_terminal_triangle_closed_form() {
        // Triangle: connected iff at least 2 of the 3 edges work.
        // R_all = 3p²(1-p) + p³.
        let mut b = RelGraphBuilder::new();
        let n0 = b.node("0");
        let n1 = b.node("1");
        let n2 = b.node("2");
        b.edge(n0, n1, "a");
        b.edge(n1, n2, "b");
        b.edge(n2, n0, "c");
        let g = b.build(n0, n2).unwrap();
        for &p in &[0.5, 0.9, 0.99] {
            let r = g.all_terminal_reliability(&[p; 3]).unwrap();
            let expected = 3.0 * p * p * (1.0 - p) + p * p * p;
            assert!((r - expected).abs() < 1e-12, "p = {p}");
        }
    }

    #[test]
    fn all_terminal_never_exceeds_two_terminal() {
        let (g, _) = bridge();
        let probs = [0.9, 0.85, 0.8, 0.75, 0.7];
        let two = g.reliability(&probs).unwrap();
        let all = g.all_terminal_reliability(&probs).unwrap();
        assert!(all <= two + 1e-12);
        assert!(all > 0.0);
    }

    #[test]
    fn all_terminal_series_line() {
        // A path graph is all-connected iff every edge works.
        let mut b = RelGraphBuilder::new();
        let nodes: Vec<_> = (0..4).map(|i| b.node(&format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            b.edge(w[0], w[1], "e");
        }
        let g = b.build(nodes[0], nodes[3]).unwrap();
        let r = g.all_terminal_reliability(&[0.9, 0.8, 0.7]).unwrap();
        assert!((r - 0.9 * 0.8 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn k_terminal_interpolates_between_two_and_all() {
        let (g, _) = bridge();
        let probs = [0.9, 0.85, 0.8, 0.75, 0.7];
        // Node handles in bridge(): s=0, a=1, c=2, t=3.
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let a = b.node("a");
        let c = b.node("c");
        let t = b.node("t");
        let _ = (a, c);
        let two = g.reliability(&probs).unwrap();
        let k_two = g.k_terminal_reliability(&[s, t], &probs).unwrap();
        assert!(
            (two - k_two).abs() < 1e-12,
            "{{s,t}}-terminal == two-terminal"
        );
        let all = g.all_terminal_reliability(&probs).unwrap();
        let k_all = g.k_terminal_reliability(&[s, a, c, t], &probs).unwrap();
        assert!((all - k_all).abs() < 1e-12);
        // A 3-terminal measure sits between the two.
        let k3 = g.k_terminal_reliability(&[s, a, t], &probs).unwrap();
        assert!(
            all - 1e-12 <= k3 && k3 <= two + 1e-12,
            "{all} <= {k3} <= {two}"
        );
    }

    #[test]
    fn k_terminal_validation() {
        let (g, _) = bridge();
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let probs = [0.9; 5];
        assert!(g.k_terminal_reliability(&[], &probs).is_err());
        assert!(g.k_terminal_reliability(&[s, s], &probs).is_err());
        assert_eq!(g.k_terminal_reliability(&[s], &probs).unwrap(), 1.0);
    }

    #[test]
    fn factoring_measures_match_brute_force_enumeration() {
        // Exhaustive 2^|E| check on the bridge network for all three
        // measures.
        let (g, _) = bridge();
        let probs = [0.9, 0.6, 0.5, 0.7, 0.8];
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let a = b.node("a");
        let c = b.node("c");
        let t = b.node("t");
        // Brute force: recompute each measure by enumerating all edge
        // subsets, using the factoring code with fully forced states as
        // the connectivity oracle (states forced = no recursion).
        let brute = |terminals: &[NodeIdx]| -> f64 {
            let mut total = 0.0;
            for mask in 0..(1u32 << 5) {
                let mut prob = 1.0;
                let mut state: Vec<Option<bool>> = Vec::with_capacity(5);
                for (i, &p) in probs.iter().enumerate() {
                    let up = mask & (1 << i) != 0;
                    prob *= if up { p } else { 1.0 - p };
                    state.push(Some(up));
                }
                // connectivity via the public measure on forced states:
                // reuse k_terminal's oracle through a 1-probability call.
                let forced: Vec<f64> = state
                    .iter()
                    .map(|s| if s.unwrap() { 1.0 } else { 0.0 })
                    .collect();
                let connected = g.k_terminal_reliability(terminals, &forced).unwrap();
                total += prob * connected;
            }
            total
        };
        let st = [s, t];
        assert!((g.reliability(&probs).unwrap() - brute(&st)).abs() < 1e-12);
        let all = [s, a, c, t];
        assert!((g.all_terminal_reliability(&probs).unwrap() - brute(&all)).abs() < 1e-12);
        let three = [s, c, t];
        assert!((g.k_terminal_reliability(&three, &probs).unwrap() - brute(&three)).abs() < 1e-12);
    }

    #[test]
    fn all_terminal_rejects_directed_arcs() {
        let mut b = RelGraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        b.arc(s, t, "one-way");
        let g = b.build(s, t).unwrap();
        assert!(g.all_terminal_reliability(&[0.9]).is_err());
    }

    #[test]
    fn mesh_graph_larger_case() {
        // 3x3 grid, source top-left, sink bottom-right.
        let mut b = RelGraphBuilder::new();
        let nodes: Vec<Vec<NodeIdx>> = (0..3)
            .map(|r| (0..3).map(|c| b.node(&format!("n{r}{c}"))).collect())
            .collect();
        let mut edges = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    edges.push(b.edge(nodes[r][c], nodes[r][c + 1], &format!("h{r}{c}")));
                }
                if r + 1 < 3 {
                    edges.push(b.edge(nodes[r][c], nodes[r + 1][c], &format!("v{r}{c}")));
                }
            }
        }
        let g = b.build(nodes[0][0], nodes[2][2]).unwrap();
        let p = vec![0.9; edges.len()];
        let r_bdd = g.reliability(&p).unwrap();
        let r_fac = g.factoring_reliability(&p).unwrap();
        assert!((r_bdd - r_fac).abs() < 1e-10);
        assert!(r_bdd > 0.9 && r_bdd < 1.0);
    }
}
