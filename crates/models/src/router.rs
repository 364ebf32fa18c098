//! Cisco-class core-router availability (E10): the tutorial's
//! hierarchical composition pattern. Each subsystem gets its own small
//! model (CTMCs for the redundant route processors and the switch
//! fabric, RBDs for power and line cards), and the top level is a
//! series RBD over subsystem availabilities — the "downtime budget"
//! table practitioners actually negotiate over.

use crate::multiproc::coverage_ctmc;
use reliab_core::{
    downtime_minutes_per_year, ensure_finite_positive, ensure_probability, Error, Result,
};
use reliab_ftree::{Block, RbdBuilder};
use reliab_hier::ModelGraph;

/// Router model parameters (rates per hour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterParams {
    /// Route-processor failure rate.
    pub rp_lambda: f64,
    /// Route-processor repair rate.
    pub rp_mu: f64,
    /// Failover coverage for the redundant route processors.
    pub rp_coverage: f64,
    /// Switch-fabric failure rate.
    pub fabric_lambda: f64,
    /// Switch-fabric repair rate.
    pub fabric_mu: f64,
    /// Number of power supplies installed.
    pub power_n: usize,
    /// Power supplies required.
    pub power_k: usize,
    /// Power-supply failure rate.
    pub power_lambda: f64,
    /// Power-supply repair rate.
    pub power_mu: f64,
    /// Number of line cards installed.
    pub linecard_n: usize,
    /// Line cards required for (full) service.
    pub linecard_k: usize,
    /// Line-card failure rate.
    pub linecard_lambda: f64,
    /// Line-card repair rate.
    pub linecard_mu: f64,
}

impl Default for RouterParams {
    /// Representative carrier-class numbers (per-hour rates; MTTRs of
    /// 2-4 h correspond to staffed sites with spares).
    fn default() -> Self {
        RouterParams {
            rp_lambda: 1.0 / 30_000.0,
            rp_mu: 0.5,
            rp_coverage: 0.99,
            fabric_lambda: 1.0 / 100_000.0,
            fabric_mu: 0.25,
            power_n: 3,
            power_k: 2,
            power_lambda: 1.0 / 50_000.0,
            power_mu: 0.25,
            linecard_n: 8,
            linecard_k: 7,
            linecard_lambda: 1.0 / 40_000.0,
            linecard_mu: 0.5,
        }
    }
}

impl RouterParams {
    fn validate(&self) -> Result<()> {
        for (v, what) in [
            (self.rp_lambda, "rp_lambda"),
            (self.rp_mu, "rp_mu"),
            (self.fabric_lambda, "fabric_lambda"),
            (self.fabric_mu, "fabric_mu"),
            (self.power_lambda, "power_lambda"),
            (self.power_mu, "power_mu"),
            (self.linecard_lambda, "linecard_lambda"),
            (self.linecard_mu, "linecard_mu"),
        ] {
            ensure_finite_positive(v, what)?;
        }
        ensure_probability(self.rp_coverage, "rp_coverage")?;
        if self.power_k == 0 || self.power_k > self.power_n {
            return Err(Error::invalid(format!(
                "power redundancy {}-of-{} invalid",
                self.power_k, self.power_n
            )));
        }
        if self.linecard_k == 0 || self.linecard_k > self.linecard_n {
            return Err(Error::invalid(format!(
                "linecard redundancy {}-of-{} invalid",
                self.linecard_k, self.linecard_n
            )));
        }
        Ok(())
    }
}

/// One subsystem row of the downtime-budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsystemRow {
    /// Subsystem name.
    pub name: String,
    /// Subsystem steady-state availability.
    pub availability: f64,
    /// Downtime attributable to this subsystem alone (minutes/year).
    pub downtime_min_per_year: f64,
}

/// Full hierarchical solution of the router model.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterReport {
    /// Per-subsystem rows, in composition order.
    pub subsystems: Vec<SubsystemRow>,
    /// System availability (series composition of the rows).
    pub system_availability: f64,
    /// Total system downtime (minutes/year).
    pub system_downtime_min_per_year: f64,
}

/// `k`-of-`n` availability of identical independently repaired units.
fn k_of_n_availability(n: usize, k: usize, unit_avail: f64) -> Result<f64> {
    let mut b = RbdBuilder::new();
    let units = b.components("unit", n);
    let rbd = b.build(Block::k_of_n_components(k, &units))?;
    rbd.availability(&vec![unit_avail; n])
}

/// Solves the router model as a two-level hierarchy (CTMC / RBD leaves
/// combined through a [`ModelGraph`]) and returns the downtime-budget
/// report.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] on bad parameters and
/// propagates submodel errors.
pub fn router_availability(p: &RouterParams) -> Result<RouterReport> {
    p.validate()?;
    let p = *p;
    let mut g = ModelGraph::new();

    // Leaf 1: redundant route processors (CTMC with coverage + repair).
    let rp = g.source("route-processors", move || {
        let (ctmc, s2, s1, _) = coverage_ctmc(p.rp_lambda, p.rp_coverage, Some(p.rp_mu))?;
        ctmc.steady_state_probability_of(&[s2, s1])
    });
    // Leaf 2: switch fabric (2-state CTMC => closed form).
    let fabric = g.source("switch-fabric", move || {
        Ok(p.fabric_mu / (p.fabric_lambda + p.fabric_mu))
    });
    // Leaf 3: power shelf (k-of-n RBD).
    let power = g.source("power", move || {
        let unit = p.power_mu / (p.power_lambda + p.power_mu);
        k_of_n_availability(p.power_n, p.power_k, unit)
    });
    // Leaf 4: line cards (k-of-n RBD).
    let linecards = g.source("linecards", move || {
        let unit = p.linecard_mu / (p.linecard_lambda + p.linecard_mu);
        k_of_n_availability(p.linecard_n, p.linecard_k, unit)
    });
    // Top: series composition.
    let top = g.node("router", &[rp, fabric, power, linecards], |v| {
        Ok(v.iter().product())
    });

    let values = g.solve()?;
    let mut subsystems = Vec::new();
    for m in [rp, fabric, power, linecards] {
        let a = values[m.index()];
        subsystems.push(SubsystemRow {
            name: g.name(m).to_owned(),
            availability: a,
            downtime_min_per_year: downtime_minutes_per_year(a)?,
        });
    }
    let system = values[top.index()];
    Ok(RouterReport {
        subsystems,
        system_availability: system,
        system_downtime_min_per_year: downtime_minutes_per_year(system)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_router_is_carrier_grade() {
        let r = router_availability(&RouterParams::default()).unwrap();
        // Carrier availability targets sit near five nines.
        assert!(
            r.system_availability > 0.9999,
            "availability {}",
            r.system_availability
        );
        assert!(r.system_downtime_min_per_year < 60.0);
        assert_eq!(r.subsystems.len(), 4);
    }

    #[test]
    fn system_is_product_of_subsystems() {
        let r = router_availability(&RouterParams::default()).unwrap();
        let product: f64 = r.subsystems.iter().map(|s| s.availability).product();
        assert!((r.system_availability - product).abs() < 1e-12);
    }

    #[test]
    fn subsystem_downtimes_approximately_add() {
        // For high availabilities, total downtime ≈ sum of parts — the
        // rationale behind downtime budgets.
        let r = router_availability(&RouterParams::default()).unwrap();
        let sum: f64 = r.subsystems.iter().map(|s| s.downtime_min_per_year).sum();
        assert!(
            (r.system_downtime_min_per_year - sum).abs() / sum < 0.01,
            "total {} vs sum {sum}",
            r.system_downtime_min_per_year
        );
    }

    #[test]
    fn worse_coverage_hurts() {
        let good = router_availability(&RouterParams::default()).unwrap();
        let bad = router_availability(&RouterParams {
            rp_coverage: 0.5,
            ..Default::default()
        })
        .unwrap();
        assert!(bad.system_availability < good.system_availability);
    }

    #[test]
    fn removing_redundancy_hurts() {
        let base = router_availability(&RouterParams::default()).unwrap();
        let no_spare_power = router_availability(&RouterParams {
            power_n: 2,
            power_k: 2,
            ..Default::default()
        })
        .unwrap();
        assert!(no_spare_power.system_availability < base.system_availability);
    }

    #[test]
    fn validation() {
        assert!(router_availability(&RouterParams {
            power_k: 5,
            power_n: 3,
            ..Default::default()
        })
        .is_err());
        assert!(router_availability(&RouterParams {
            rp_coverage: 1.2,
            ..Default::default()
        })
        .is_err());
    }
}
