//! Reliability block diagrams: the success-space view of a structure
//! function. A [`Block`] diagram lowers onto the kernel's [`FtNode`]
//! (series = AND, parallel = OR of the components' "works" events) and
//! compiles through the fault-tree kernel in declaration order.

use crate::structure::{Polarity, Structure};
use crate::tree::{CompileOptions, EventId, FtNode};
use reliab_core::{Error, ImportanceMeasures, Result};
use reliab_dist::Lifetime;
use reliab_numeric::quadrature::integrate_to_infinity;
use reliab_obs as obs;

/// Handle to an RBD component, returned by [`RbdBuilder::component`]:
/// an item of the structure function, like a basic event.
pub type ComponentId = EventId;

/// The structural composition of an RBD.
///
/// `Block` values are plain data; the same [`ComponentId`] may appear in
/// multiple blocks (a *shared* component), and evaluation remains exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// A single component.
    Component(ComponentId),
    /// All sub-blocks must work.
    Series(Vec<Block>),
    /// At least one sub-block must work.
    Parallel(Vec<Block>),
    /// At least `k` of the sub-blocks must work.
    KOfN {
        /// Minimum number of working sub-blocks.
        k: usize,
        /// The sub-blocks.
        blocks: Vec<Block>,
    },
}

impl Block {
    /// Series composition.
    pub fn series(blocks: Vec<Block>) -> Block {
        Block::Series(blocks)
    }

    /// Parallel composition.
    pub fn parallel(blocks: Vec<Block>) -> Block {
        Block::Parallel(blocks)
    }

    /// Parallel composition of bare components.
    pub fn parallel_of(components: &[ComponentId]) -> Block {
        Block::Parallel(components.iter().map(|&c| Block::Component(c)).collect())
    }

    /// Series composition of bare components.
    pub fn series_of(components: &[ComponentId]) -> Block {
        Block::Series(components.iter().map(|&c| Block::Component(c)).collect())
    }

    /// k-of-n composition.
    pub fn k_of_n(k: usize, blocks: Vec<Block>) -> Block {
        Block::KOfN { k, blocks }
    }

    /// k-of-n over bare components.
    pub fn k_of_n_components(k: usize, components: &[ComponentId]) -> Block {
        Block::KOfN {
            k,
            blocks: components.iter().map(|&c| Block::Component(c)).collect(),
        }
    }
}

impl From<ComponentId> for Block {
    fn from(c: ComponentId) -> Block {
        Block::Component(c)
    }
}

/// A block in success space: a series group is the AND, a parallel
/// group the OR of its members' "works" functions.
impl From<Block> for FtNode {
    fn from(block: Block) -> FtNode {
        let lower = |blocks: Vec<Block>| blocks.into_iter().map(FtNode::from).collect();
        match block {
            Block::Component(c) => FtNode::Basic(c),
            Block::Series(blocks) => FtNode::And(lower(blocks)),
            Block::Parallel(blocks) => FtNode::Or(lower(blocks)),
            Block::KOfN { k, blocks } => FtNode::KOfN {
                k,
                inputs: lower(blocks),
            },
        }
    }
}

/// Builder for [`Rbd`] models: declare components, compose a [`Block`]
/// tree, then [`RbdBuilder::build`].
#[derive(Debug, Default)]
pub struct RbdBuilder {
    names: Vec<String>,
}

impl RbdBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        RbdBuilder::default()
    }

    /// Declares a component and returns its handle. Component names are
    /// labels only; declaring the same name twice creates two distinct
    /// components.
    pub fn component(&mut self, name: &str) -> ComponentId {
        self.names.push(name.to_owned());
        EventId(self.names.len() - 1)
    }

    /// Declares `n` components named `prefix-0 .. prefix-(n-1)`.
    pub fn components(&mut self, prefix: &str, n: usize) -> Vec<ComponentId> {
        (0..n)
            .map(|i| self.component(&format!("{prefix}-{i}")))
            .collect()
    }

    /// Compiles the diagram into an evaluable [`Rbd`]. `root` is a
    /// [`Block`], or a kernel [`FtNode`] read in success space (AND =
    /// series, OR = parallel).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for an empty diagram, more components
    /// than the BDD kernel holds, an empty series/parallel/k-of-n
    /// group, a k-of-n with `k` out of range, or a component handle not
    /// created by this builder.
    pub fn build(self, root: impl Into<FtNode>) -> Result<Rbd> {
        let root = root.into();
        Ok(Rbd {
            sf: Structure::compile(self.names, &root, &CompileOptions::new(), Polarity::Success)?,
        })
    }
}

/// A compiled reliability block diagram.
///
/// All evaluation is exact (BDD-based), including diagrams with shared
/// components; see [`RbdBuilder`] for construction.
#[derive(Debug)]
pub struct Rbd {
    sf: Structure,
}

impl Rbd {
    /// Number of declared components.
    pub fn num_components(&self) -> usize {
        self.sf.names.len()
    }

    /// Component name by handle.
    pub fn component_name(&self, c: ComponentId) -> &str {
        &self.sf.names[c.index()]
    }

    /// Size of the compiled BDD (nodes) — the cost driver for
    /// evaluation, reported for ordering experiments.
    pub fn bdd_size(&self) -> usize {
        self.sf.bdd.node_count(self.sf.root)
    }

    /// Table sizes and cache counters of the underlying BDD manager.
    pub fn bdd_stats(&self) -> reliab_bdd::BddStats {
        self.sf.bdd.stats()
    }

    /// System availability (or any point probability), given each
    /// component's probability of being up.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a length mismatch or
    /// probabilities outside `[0, 1]`.
    pub fn availability(&self, component_up: &[f64]) -> Result<f64> {
        let _span = obs::span("rbd.availability");
        self.sf.probability(component_up)
    }

    /// System reliability at time `t` given each component's lifetime
    /// distribution (no repair).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a length mismatch and
    /// propagates distribution errors.
    pub fn reliability(&self, lifetimes: &[&dyn Lifetime], t: f64) -> Result<f64> {
        self.check_lifetimes(lifetimes)?;
        let probs: Vec<f64> = lifetimes
            .iter()
            .map(|d| d.survival(t))
            .collect::<Result<_>>()?;
        self.availability(&probs)
    }

    /// System MTTF under the given component lifetimes:
    /// `∫₀^∞ R_sys(t) dt` by adaptive quadrature.
    ///
    /// # Errors
    ///
    /// Propagates reliability-evaluation and quadrature errors.
    pub fn mttf(&self, lifetimes: &[&dyn Lifetime]) -> Result<f64> {
        self.check_lifetimes(lifetimes)?;
        // Window scale: the largest component mean (system dies no later
        // than its longest-lived path, so this is a sane scale).
        let scale = lifetimes
            .iter()
            .map(|d| d.mean())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        integrate_to_infinity(
            |t| self.reliability(lifetimes, t).unwrap_or(f64::NAN),
            scale,
            1e-10,
            80,
        )
        .map_err(|e| Error::numerical(e.to_string()))
    }

    /// Importance measures for every component at the given component
    /// availabilities.
    ///
    /// * Birnbaum: `∂A_sys/∂p_i` (equal to `∂Q_sys/∂q_i`).
    /// * Criticality: `Birnbaum_i · q_i / Q_sys`.
    /// * Fussell–Vesely (fractional form): `1 − Q_sys(q_i := 0) / Q_sys`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on bad probabilities and
    /// [`Error::Model`] if the system cannot fail at these inputs
    /// (`Q_sys = 0`, importance undefined).
    pub fn importance(&mut self, component_up: &[f64]) -> Result<Vec<ImportanceMeasures>> {
        let _span = obs::span("rbd.importance");
        self.sf.importance(component_up)
    }

    fn check_lifetimes(&self, lifetimes: &[&dyn Lifetime]) -> Result<()> {
        if lifetimes.len() != self.num_components() {
            return Err(Error::invalid(format!(
                "{} lifetimes supplied for {} components",
                lifetimes.len(),
                self.num_components()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_dist::Exponential;

    #[test]
    fn series_parallel_closed_forms() {
        let mut b = RbdBuilder::new();
        let c = b.components("c", 3);
        let rbd = b.build(Block::series_of(&c)).unwrap();
        let a = rbd.availability(&[0.9, 0.8, 0.7]).unwrap();
        assert!((a - 0.9 * 0.8 * 0.7).abs() < 1e-15);

        let mut b = RbdBuilder::new();
        let c = b.components("c", 3);
        let rbd = b.build(Block::parallel_of(&c)).unwrap();
        let a = rbd.availability(&[0.9, 0.8, 0.7]).unwrap();
        assert!((a - (1.0 - 0.1 * 0.2 * 0.3)).abs() < 1e-15);
    }

    #[test]
    fn two_of_three_closed_form() {
        let mut b = RbdBuilder::new();
        let c = b.components("unit", 3);
        let rbd = b.build(Block::k_of_n_components(2, &c)).unwrap();
        let p = 0.9f64;
        let a = rbd.availability(&[p, p, p]).unwrap();
        let expected = 3.0 * p * p * (1.0 - p) + p * p * p;
        assert!((a - expected).abs() < 1e-14);
    }

    #[test]
    fn shared_component_is_exact() {
        // (A and B) or (A and C): naive block math double-counts A.
        let mut b = RbdBuilder::new();
        let a = b.component("a");
        let bb = b.component("b");
        let cc = b.component("c");
        let diagram = Block::parallel(vec![Block::series_of(&[a, bb]), Block::series_of(&[a, cc])]);
        let rbd = b.build(diagram).unwrap();
        let got = rbd.availability(&[0.5, 0.5, 0.5]).unwrap();
        // P(A)·P(B ∪ C) = 0.5 · 0.75.
        assert!((got - 0.375).abs() < 1e-15);
    }

    #[test]
    fn nested_structures() {
        // ((c0 || c1) series (c2 || c3)) — the classic bridge-free
        // series-parallel network.
        let mut b = RbdBuilder::new();
        let c = b.components("c", 4);
        let diagram = Block::series(vec![
            Block::parallel_of(&c[0..2]),
            Block::parallel_of(&c[2..4]),
        ]);
        let rbd = b.build(diagram).unwrap();
        let a = rbd.availability(&[0.9, 0.9, 0.8, 0.8]).unwrap();
        let expected = (1.0 - 0.01) * (1.0 - 0.04);
        assert!((a - expected).abs() < 1e-14);
    }

    #[test]
    fn validation_catches_structure_errors() {
        let mut b = RbdBuilder::new();
        let c0 = b.component("a");
        assert!(RbdBuilder::new().build(Block::Component(c0)).is_err()); // no components
        let b2 = {
            let mut b2 = RbdBuilder::new();
            b2.component("x");
            b2
        };
        assert!(b2.build(Block::Series(vec![])).is_err());
        let mut b3 = RbdBuilder::new();
        let x = b3.component("x");
        assert!(b3
            .build(Block::KOfN {
                k: 5,
                blocks: vec![Block::Component(x)]
            })
            .is_err());
    }

    #[test]
    fn probability_vector_validation() {
        let mut b = RbdBuilder::new();
        let c = b.components("c", 2);
        let rbd = b.build(Block::series_of(&c)).unwrap();
        assert!(rbd.availability(&[0.9]).is_err());
        assert!(rbd.availability(&[0.9, 1.1]).is_err());
    }

    #[test]
    fn reliability_with_exponential_components() {
        let mut b = RbdBuilder::new();
        let c = b.components("c", 2);
        let rbd = b.build(Block::parallel_of(&c)).unwrap();
        let d1 = Exponential::new(1.0).unwrap();
        let d2 = Exponential::new(2.0).unwrap();
        let t = 0.5;
        let r = rbd.reliability(&[&d1, &d2], t).unwrap();
        let expected = 1.0 - (1.0 - (-t).exp()) * (1.0 - (-2.0 * t).exp());
        assert!((r - expected).abs() < 1e-13);
    }

    #[test]
    fn mttf_parallel_exponential() {
        // Two parallel exp(1) units: MTTF = 1 + 1/2 = 1.5.
        let mut b = RbdBuilder::new();
        let c = b.components("c", 2);
        let rbd = b.build(Block::parallel_of(&c)).unwrap();
        let d = Exponential::new(1.0).unwrap();
        let mttf = rbd.mttf(&[&d, &d]).unwrap();
        assert!((mttf - 1.5).abs() < 1e-7, "{mttf}");
    }

    #[test]
    fn mttf_series_exponential() {
        // Series of exp(1) and exp(3): rate adds, MTTF = 1/4.
        let mut b = RbdBuilder::new();
        let c = b.components("c", 2);
        let rbd = b.build(Block::series_of(&c)).unwrap();
        let d1 = Exponential::new(1.0).unwrap();
        let d2 = Exponential::new(3.0).unwrap();
        let mttf = rbd.mttf(&[&d1, &d2]).unwrap();
        assert!((mttf - 0.25).abs() < 1e-8, "{mttf}");
    }

    #[test]
    fn importance_series_system() {
        // In a series system the weakest component has the highest
        // Birnbaum importance... the *strongest* has: B_i = prod_{j!=i} p_j.
        let mut b = RbdBuilder::new();
        let c = b.components("c", 2);
        let mut rbd = b.build(Block::series_of(&c)).unwrap();
        let imp = rbd.importance(&[0.9, 0.99]).unwrap();
        assert!((imp[0].birnbaum - 0.99).abs() < 1e-12);
        assert!((imp[1].birnbaum - 0.9).abs() < 1e-12);
        // Criticality ranks the weak component first.
        assert!(imp[0].criticality > imp[1].criticality);
        // FV in a series system: every failure involves any component's
        // cut set; values within [0,1].
        for m in &imp {
            assert!((0.0..=1.0).contains(&m.fussell_vesely));
        }
    }

    #[test]
    fn importance_undefined_for_perfect_system() {
        let mut b = RbdBuilder::new();
        let c = b.components("c", 2);
        let mut rbd = b.build(Block::parallel_of(&c)).unwrap();
        assert!(rbd.importance(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn bdd_size_reported() {
        let mut b = RbdBuilder::new();
        let c = b.components("c", 8);
        let rbd = b.build(Block::k_of_n_components(4, &c)).unwrap();
        assert!(rbd.bdd_size() > 0);
        assert_eq!(rbd.num_components(), 8);
        assert_eq!(rbd.component_name(c[3]), "c-3");
    }
}
