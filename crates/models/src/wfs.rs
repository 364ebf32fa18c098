//! Workstations-and-file-server (WFS): the tutorial's opening RBD.
//!
//! `n` workstations (of which `k` must be up) in series with a file
//! server. With independent repair per component, the non-state-space
//! RBD solution is exact; the module also exposes the equivalent
//! monolithic CTMC so E14 can demonstrate the state-space explosion on
//! the same system.

use reliab_core::{ensure_finite_positive, Error, Result};
use reliab_ftree::{Block, Rbd, RbdBuilder};
use reliab_markov::{Ctmc, CtmcBuilder};

/// Parameters of the WFS system (times in hours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WfsParams {
    /// Number of workstations.
    pub n_workstations: usize,
    /// Workstations required for service.
    pub k_required: usize,
    /// Workstation mean time to failure.
    pub ws_mttf: f64,
    /// Workstation mean time to repair.
    pub ws_mttr: f64,
    /// File-server mean time to failure.
    pub fs_mttf: f64,
    /// File-server mean time to repair.
    pub fs_mttr: f64,
}

impl Default for WfsParams {
    /// The classic numbers used in the tutorial: 2 workstations
    /// (1 needed), workstation MTTF 5000 h / MTTR 4 h, file server
    /// MTTF 2000 h / MTTR 2 h.
    fn default() -> Self {
        WfsParams {
            n_workstations: 2,
            k_required: 1,
            ws_mttf: 5000.0,
            ws_mttr: 4.0,
            fs_mttf: 2000.0,
            fs_mttr: 2.0,
        }
    }
}

impl WfsParams {
    fn validate(&self) -> Result<()> {
        if self.n_workstations == 0 || self.k_required == 0 {
            return Err(Error::invalid("need at least one workstation required"));
        }
        if self.k_required > self.n_workstations {
            return Err(Error::invalid(format!(
                "k_required {} exceeds n_workstations {}",
                self.k_required, self.n_workstations
            )));
        }
        for (v, what) in [
            (self.ws_mttf, "ws_mttf"),
            (self.ws_mttr, "ws_mttr"),
            (self.fs_mttf, "fs_mttf"),
            (self.fs_mttr, "fs_mttr"),
        ] {
            ensure_finite_positive(v, what)?;
        }
        Ok(())
    }

    /// Workstation steady-state availability.
    pub fn ws_availability(&self) -> f64 {
        self.ws_mttf / (self.ws_mttf + self.ws_mttr)
    }

    /// File-server steady-state availability.
    pub fn fs_availability(&self) -> f64 {
        self.fs_mttf / (self.fs_mttf + self.fs_mttr)
    }
}

/// Builds the WFS RBD: (`k_required`-of-`n_workstations`) in series
/// with the file server. Component order: workstations `0..n`, then
/// the file server.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] on malformed parameters.
pub fn wfs_rbd(params: &WfsParams) -> Result<Rbd> {
    params.validate()?;
    let mut b = RbdBuilder::new();
    let ws = b.components("workstation", params.n_workstations);
    let fs = b.component("file-server");
    let diagram = Block::series(vec![
        Block::k_of_n_components(params.k_required, &ws),
        fs.into(),
    ]);
    b.build(diagram)
}

/// Steady-state system availability by the (exact, independent-repair)
/// RBD route.
///
/// # Errors
///
/// Propagates construction/evaluation errors.
pub fn wfs_availability(params: &WfsParams) -> Result<f64> {
    let rbd = wfs_rbd(params)?;
    let mut probs = vec![params.ws_availability(); params.n_workstations];
    probs.push(params.fs_availability());
    rbd.availability(&probs)
}

/// The same WFS system as one flat CTMC (state = number of failed
/// workstations × file-server status), assuming independent repair
/// (each failed component has its own crew). Used by E14 to show the
/// state-space route agreeing with the RBD while scaling far worse.
///
/// Returns the chain and the list of "system up" states.
///
/// # Errors
///
/// Propagates construction errors.
pub fn wfs_ctmc(params: &WfsParams) -> Result<(Ctmc, Vec<reliab_markov::StateId>)> {
    params.validate()?;
    let n = params.n_workstations;
    let lam_w = 1.0 / params.ws_mttf;
    let mu_w = 1.0 / params.ws_mttr;
    let lam_f = 1.0 / params.fs_mttf;
    let mu_f = 1.0 / params.fs_mttr;
    let mut b = CtmcBuilder::new();
    // State (w failed workstations, fs up?).
    let mut ids = Vec::new();
    for w in 0..=n {
        for fs_up in [true, false] {
            ids.push(b.state(&format!("w{w}-fs{}", if fs_up { "up" } else { "down" })));
        }
    }
    let idx = |w: usize, fs_up: bool| -> usize { w * 2 + usize::from(!fs_up) };
    for w in 0..=n {
        for fs_up in [true, false] {
            let from = ids[idx(w, fs_up)];
            // Workstation failures: (n - w) in service, each rate lam_w.
            if w < n {
                b.transition(from, ids[idx(w + 1, fs_up)], (n - w) as f64 * lam_w)?;
            }
            // Workstation repairs: independent crews, rate w * mu_w.
            if w > 0 {
                b.transition(from, ids[idx(w - 1, fs_up)], w as f64 * mu_w)?;
            }
            // File-server failure / repair.
            if fs_up {
                b.transition(from, ids[idx(w, false)], lam_f)?;
            } else {
                b.transition(from, ids[idx(w, true)], mu_f)?;
            }
        }
    }
    let up_states: Vec<_> = (0..=n)
        .filter(|w| n - w >= params.k_required)
        .map(|w| ids[idx(w, true)])
        .collect();
    Ok((b.build()?, up_states))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_availability_is_high() {
        let a = wfs_availability(&WfsParams::default()).unwrap();
        // 1-of-2 workstations (each ~0.9992) and server ~0.999.
        assert!(a > 0.998 && a < 1.0);
    }

    #[test]
    fn rbd_matches_closed_form() {
        let p = WfsParams::default();
        let a_ws = p.ws_availability();
        let a_fs = p.fs_availability();
        let expected = (1.0 - (1.0 - a_ws) * (1.0 - a_ws)) * a_fs;
        let got = wfs_availability(&p).unwrap();
        assert!((got - expected).abs() < 1e-14);
    }

    #[test]
    fn ctmc_agrees_with_rbd() {
        let p = WfsParams::default();
        let (ctmc, up) = wfs_ctmc(&p).unwrap();
        let a_ctmc = ctmc.steady_state_probability_of(&up).unwrap();
        let a_rbd = wfs_availability(&p).unwrap();
        assert!(
            (a_ctmc - a_rbd).abs() < 1e-10,
            "CTMC {a_ctmc} vs RBD {a_rbd}"
        );
    }

    #[test]
    fn ctmc_agrees_for_k_of_n_variants() {
        let p = WfsParams {
            n_workstations: 4,
            k_required: 3,
            ..Default::default()
        };
        let (ctmc, up) = wfs_ctmc(&p).unwrap();
        let a_ctmc = ctmc.steady_state_probability_of(&up).unwrap();
        let a_rbd = wfs_availability(&p).unwrap();
        assert!((a_ctmc - a_rbd).abs() < 1e-10);
    }

    #[test]
    fn state_count_grows_linearly_here_but_demonstrates_structure() {
        // (n+1) * 2 states for this simple case — the explosion shows
        // up when components are heterogeneous (E14 uses that).
        let p = WfsParams {
            n_workstations: 10,
            k_required: 8,
            ..Default::default()
        };
        let (ctmc, _) = wfs_ctmc(&p).unwrap();
        assert_eq!(ctmc.num_states(), 22);
    }

    #[test]
    fn validation() {
        let bad = WfsParams {
            k_required: 3,
            n_workstations: 2,
            ..Default::default()
        };
        assert!(wfs_rbd(&bad).is_err());
        let bad = WfsParams {
            ws_mttf: 0.0,
            ..Default::default()
        };
        assert!(wfs_availability(&bad).is_err());
    }
}
