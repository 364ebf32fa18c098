//! Transient solution by uniformization (Jensen's method).

use crate::builder::Ctmc;
use crate::num_err;
use crate::source::{scan_rows, RowSource};
use reliab_core::{Error, Result};
use reliab_numeric::poisson_weights;
use reliab_obs as obs;

/// Options for the uniformization transient solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Bound on the truncated Poisson tail mass (solution error is of
    /// the same order).
    pub epsilon: f64,
    /// If set, stop the Poisson sum early once successive uniformized
    /// DTMC iterates differ by less than this threshold in `∞`-norm —
    /// the classic "steady-state detection" optimization that turns the
    /// `O(q·t)` cost of stiff problems into `O(mixing time)`.
    pub steady_state_detection: Option<f64>,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            epsilon: 1e-10,
            steady_state_detection: Some(1e-12),
        }
    }
}

impl TransientOptions {
    fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(Error::invalid(format!(
                "epsilon must lie in (0,1), got {}",
                self.epsilon
            )));
        }
        if let Some(d) = self.steady_state_detection {
            if d.is_nan() || d <= 0.0 {
                return Err(Error::invalid(format!(
                    "steady-state detection threshold must be positive, got {d}"
                )));
            }
        }
        Ok(())
    }
}

/// A transient distribution plus uniformization telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TransientReport {
    /// The state-probability vector at the requested time.
    pub distribution: Vec<f64>,
    /// Sparse matrix–vector products performed (the dominant cost).
    pub matvecs: usize,
    /// Number of significant Poisson terms in the truncated sum.
    pub poisson_terms: usize,
    /// First term of the truncated Poisson window (0 when no step ran).
    pub poisson_left: usize,
    /// Last term of the truncated Poisson window (0 when no step ran).
    pub poisson_right: usize,
    /// If steady-state detection fired, the term index at which the
    /// uniformized iterate stopped changing.
    pub converged_at: Option<usize>,
}

impl Ctmc {
    /// State-probability vector at time `t`, starting from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a bad distribution,
    /// negative `t`, or bad options; numerical errors propagate from the
    /// Poisson-weight computation.
    pub fn transient(&self, initial: &[f64], t: f64) -> Result<Vec<f64>> {
        self.transient_report(initial, t, &TransientOptions::default())
            .map(|r| r.distribution)
    }

    /// [`Ctmc::transient`] with explicit options, plus solver
    /// telemetry: matrix–vector product count, Poisson truncation
    /// width, and whether steady-state detection cut the sum short.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::transient`].
    pub fn transient_report(
        &self,
        initial: &[f64],
        t: f64,
        opts: &TransientOptions,
    ) -> Result<TransientReport> {
        self.check_distribution(initial)?;
        opts.validate()?;
        check_time(t)?;
        if t == 0.0 {
            return Ok(TransientReport {
                distribution: initial.to_vec(),
                matvecs: 0,
                poisson_terms: 0,
                poisson_left: 0,
                poisson_right: 0,
                converged_at: None,
            });
        }
        let report = uniformize(
            self,
            initial,
            t,
            opts.epsilon,
            Sum::Point(opts.steady_state_detection),
        )?;
        obs::event(
            "markov.transient.point",
            &[
                ("t", t.into()),
                ("matvecs", report.matvecs.into()),
                ("poisson_terms", report.poisson_terms.into()),
                ("poisson_left", report.poisson_left.into()),
                ("poisson_right", report.poisson_right.into()),
            ],
        );
        obs::counter_add("markov.transient.points", 1);
        obs::counter_add("markov.transient.matvecs", report.matvecs as u64);
        Ok(report)
    }

    /// Expected total time spent in each state over `[0, t]`
    /// (the integral `∫₀ᵗ π(u) du`), by the uniformization identity
    /// `∫₀ᵗ pois_k(qu) du = (1/q)(1 - Σ_{j≤k} pois_j(qt))`.
    ///
    /// Dividing by `t` gives interval availability when summed over up
    /// states.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`].
    pub fn accumulated(&self, initial: &[f64], t: f64, epsilon: f64) -> Result<Vec<f64>> {
        self.check_distribution(initial)?;
        check_time(t)?;
        if t == 0.0 {
            return Ok(vec![0.0; self.num_states()]);
        }
        let report = uniformize(self, initial, t, epsilon, Sum::Integral)?;
        obs::event(
            "markov.transient.interval",
            &[
                ("t", t.into()),
                ("matvecs", report.matvecs.into()),
                ("poisson_left", report.poisson_left.into()),
                ("poisson_right", report.poisson_right.into()),
            ],
        );
        obs::counter_add("markov.transient.matvecs", report.matvecs as u64);
        Ok(report.distribution)
    }
}

fn check_time(t: f64) -> Result<()> {
    if t.is_nan() || t < 0.0 || !t.is_finite() {
        return Err(Error::invalid(format!(
            "time must be finite and >= 0, got {t}"
        )));
    }
    Ok(())
}

/// What a uniformization pass sums over the Poisson terms `v_k =
/// initial · P^k`.
#[derive(Debug, Clone, Copy)]
enum Sum {
    /// The distribution at `t`: `Σ_k pois_k(qt) v_k`, with optional
    /// steady-state detection.
    Point(Option<f64>),
    /// The occupancy integral over `[0, t]`:
    /// `Σ_k (1 - Σ_{j≤k} pois_j(qt)) / q · v_k`.
    Integral,
}

/// The uniformized chain `P = I + Q/q`, its rows read from a source
/// once: per state the diagonal `1 − exit/q`, and the off-diagonal
/// arcs `r/q` in CSR layout.
struct Uniformized {
    q: f64,
    diag: Vec<f64>,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    probs: Vec<f64>,
}

impl Uniformized {
    fn read(src: &dyn RowSource) -> Result<Uniformized> {
        let (mut row_ptr, mut cols, mut probs) = (vec![0], Vec::new(), Vec::new());
        let scan = scan_rows(src, &mut |row| {
            for &(j, r) in row {
                cols.push(j);
                probs.push(r);
            }
            row_ptr.push(cols.len());
        })?;
        let q = scan.q;
        for p in &mut probs {
            *p /= q;
        }
        let diag = scan.exit.iter().map(|&e| 1.0 - e / q).collect();
        Ok(Uniformized {
            q,
            diag,
            row_ptr,
            cols,
            probs,
        })
    }

    /// One step `next = v · P`, scattered row by row. Each entry of
    /// `next` takes at most one product per row, in row order, so the
    /// order of arcs within a row does not touch the bits.
    fn step(&self, v: &[f64], next: &mut [f64]) {
        next.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            next[i] += vi * self.diag[i];
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for (&j, &p) in self.cols[lo..hi].iter().zip(&self.probs[lo..hi]) {
                next[j as usize] += vi * p;
            }
        }
    }
}

/// The one uniformization kernel (Jensen's method with Poisson tail
/// control): reads the source's rows once, then runs the two-vector
/// recurrence `v_{k+1} = v_k P` over the truncated Poisson terms,
/// summing what `sum` asks for.
fn uniformize(
    src: &dyn RowSource,
    initial: &[f64],
    t: f64,
    epsilon: f64,
    sum: Sum,
) -> Result<TransientReport> {
    let _span = obs::span("markov.transient");
    let chain = Uniformized::read(src)?;
    let q = chain.q;
    if q <= 1e-299 {
        // No transitions at all: the distribution never moves.
        let distribution = match sum {
            Sum::Point(_) => initial.to_vec(),
            Sum::Integral => initial.iter().map(|&p| p * t).collect(),
        };
        return Ok(TransientReport {
            distribution,
            matvecs: 0,
            poisson_terms: 0,
            poisson_left: 0,
            poisson_right: 0,
            converged_at: None,
        });
    }
    let w = poisson_weights(q * t, epsilon).map_err(num_err)?;
    let terms = w.left + w.weights.len();
    let n = initial.len();
    let mut v = initial.to_vec();
    let mut next = vec![0.0f64; n];
    let mut out = vec![0.0f64; n];
    let mut cum = 0.0;
    let mut matvecs = 0usize;
    let mut converged_at: Option<usize> = None;
    for k in 0..terms {
        // Terms left of the truncation point carry no point weight and
        // (to within epsilon) the full integral weight 1/q: the integral
        // sums those iterates and divides the sum by q once, on entering
        // the window.
        let coeff = match (sum, k.checked_sub(w.left)) {
            (Sum::Point(_), None) => None,
            (Sum::Point(_), Some(idx)) => Some(w.weights[idx]),
            (Sum::Integral, None) => {
                for (o, &x) in out.iter_mut().zip(&v) {
                    *o += x;
                }
                None
            }
            (Sum::Integral, Some(idx)) => {
                if idx == 0 {
                    for o in &mut out {
                        *o /= q;
                    }
                }
                cum += w.weights[idx];
                Some((1.0 - cum).max(0.0) / q)
            }
        };
        if let Some(c) = coeff {
            for (o, &x) in out.iter_mut().zip(&v) {
                *o += c * x;
            }
        }
        if k + 1 == terms {
            break;
        }
        chain.step(&v, &mut next);
        matvecs += 1;
        std::mem::swap(&mut v, &mut next);
        if let Sum::Point(Some(thresh)) = sum {
            if max_abs_diff(&v, &next) < thresh {
                // The iterate has converged: the remaining Poisson mass
                // all multiplies (approximately) the same vector.
                let start = (k + 1).saturating_sub(w.left);
                let remaining = 1.0 - w.weights[..start].iter().sum::<f64>();
                for (o, &x) in out.iter_mut().zip(&v) {
                    *o += remaining * x;
                }
                converged_at = Some(start);
                break;
            }
        }
    }
    if let Sum::Point(_) = sum {
        // Clean round-off: clamp and renormalize.
        let mut total = 0.0;
        for o in &mut out {
            *o = o.max(0.0);
            total += *o;
        }
        if total > 0.0 {
            for o in &mut out {
                *o /= total;
            }
        }
    }
    Ok(TransientReport {
        distribution: out,
        matvecs,
        poisson_terms: w.weights.len(),
        poisson_left: w.left,
        poisson_right: w.right,
        converged_at,
    })
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, lambda).unwrap();
        b.transition(down, up, mu).unwrap();
        b.build().unwrap()
    }

    /// Closed-form availability of the two-state chain starting up:
    /// A(t) = mu/(l+m) + l/(l+m) e^{-(l+m)t}.
    fn two_state_avail(l: f64, m: f64, t: f64) -> f64 {
        m / (l + m) + l / (l + m) * (-(l + m) * t).exp()
    }

    #[test]
    fn matches_two_state_closed_form() {
        let (l, m) = (0.4, 1.7);
        let c = two_state(l, m);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        for &t in &[0.0, 0.1, 0.5, 1.0, 5.0, 50.0] {
            let pi = c.transient(&p0, t).unwrap();
            assert!(
                (pi[0] - two_state_avail(l, m, t)).abs() < 1e-9,
                "t = {t}: {} vs {}",
                pi[0],
                two_state_avail(l, m, t)
            );
        }
    }

    #[test]
    fn long_horizon_reaches_steady_state() {
        let c = two_state(1.0, 2.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let pi_t = c.transient(&p0, 1e4).unwrap();
        let pi = c.steady_state().unwrap();
        assert!((pi_t[0] - pi[0]).abs() < 1e-9);
        assert!((pi_t[1] - pi[1]).abs() < 1e-9);
    }

    #[test]
    fn steady_state_detection_agrees_with_full_sum() {
        // Stiff chain: fast repair, slow failure, long horizon.
        let c = two_state(1e-4, 100.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let run = |detection| {
            let opts = TransientOptions {
                epsilon: 1e-12,
                steady_state_detection: detection,
            };
            c.transient_report(&p0, 1000.0, &opts).unwrap().distribution
        };
        let (with, without) = (run(Some(1e-14)), run(None));
        assert!((with[0] - without[0]).abs() < 1e-9);
    }

    #[test]
    fn options_and_inputs_validated() {
        let c = two_state(1.0, 1.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        assert!(c.transient(&p0, -1.0).is_err());
        assert!(c.transient(&[0.5, 0.6], 1.0).is_err());
        for (epsilon, steady_state_detection) in [(0.0, None), (1e-10, Some(-1.0))] {
            let opts = TransientOptions {
                epsilon,
                steady_state_detection,
            };
            assert!(c.transient_report(&p0, 1.0, &opts).is_err());
        }
    }

    #[test]
    fn t_zero_is_identity() {
        let c = two_state(1.0, 1.0);
        let p0 = vec![0.25, 0.75];
        assert_eq!(c.transient(&p0, 0.0).unwrap(), p0);
    }

    #[test]
    fn accumulated_matches_derivative_relation() {
        // For the two-state chain, ∫ A(u) du has closed form:
        // t*m/(l+m) + l/(l+m)^2 (1 - e^{-(l+m)t}).
        let (l, m) = (0.5, 2.0);
        let c = two_state(l, m);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        for &t in &[0.5, 2.0, 10.0] {
            let acc = c.accumulated(&p0, t, 1e-12).unwrap();
            let s = l + m;
            let expected_up = t * m / s + l / (s * s) * (1.0 - (-s * t).exp());
            assert!(
                (acc[0] - expected_up).abs() < 1e-8,
                "t = {t}: {} vs {expected_up}",
                acc[0]
            );
            // Total time accounted for must equal t.
            assert!((acc[0] + acc[1] - t).abs() < 1e-8);
        }
    }

    #[test]
    fn report_counts_work() {
        let c = two_state(0.4, 1.7);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let r = c
            .transient_report(&p0, 2.0, &TransientOptions::default())
            .unwrap();
        assert!(r.matvecs > 0);
        assert!(r.poisson_terms > 0);
        // Stiff long horizon: steady-state detection should fire and cap
        // the matvec count far below the Poisson width q*t.
        let stiff = two_state(1e-4, 100.0);
        let s0 = stiff.point_mass(stiff.find_state("up").unwrap());
        let r = stiff
            .transient_report(&s0, 1000.0, &TransientOptions::default())
            .unwrap();
        assert!(r.converged_at.is_some());
        assert!((r.matvecs as f64) < 0.5 * 100.0 * 1000.0);
        // t = 0 costs nothing.
        let r0 = c
            .transient_report(&p0, 0.0, &TransientOptions::default())
            .unwrap();
        assert_eq!(r0.matvecs, 0);
    }

    /// `maintained_cluster.json`'s chain: its `q·t` at t = 1e7 is
    /// 2.5194e7, whose Poisson window exploded past the 20M-term guard
    /// before the tail stop.
    fn maintained_cluster() -> Ctmc {
        let mut b = CtmcBuilder::new();
        let names = ["all-up", "degraded", "maintenance", "repair", "down"];
        let s: Vec<_> = names.iter().map(|n| b.state(n)).collect();
        for (from, to, rate) in [
            (0, 1, 0.3),
            (0, 2, 0.1),
            (1, 4, 0.07),
            (1, 0, 1.9),
            (1, 3, 0.3),
            (1, 2, 0.2),
            (2, 0, 2.3),
            (3, 0, 0.9),
            (3, 4, 0.05),
            (4, 3, 0.4),
        ] {
            b.transition(s[from], s[to], rate).unwrap();
        }
        b.build().unwrap()
    }

    /// Uniformization at t = 1e7 against `π(0)·e^{Qt}` by Padé. The
    /// oracle squares its approximant 24 times here, which amplifies its
    /// own rounding: it sits 7.3e-10 from the chain's GTH steady state,
    /// uniformization 5.5e-12. The checks allow 2e-9 against Padé and
    /// 1e-10 against GTH (the chain has long since mixed).
    #[test]
    fn long_horizon_point_matches_expm() {
        let c = maintained_cluster();
        let p0 = c.point_mass(c.find_state("all-up").unwrap());
        let t = 1e7;
        let r = c
            .transient_report(&p0, t, &TransientOptions::default())
            .unwrap();
        // q·t = 2.5194e7, whose square root is below 5,020.
        assert!(r.poisson_right - r.poisson_left <= 16 * 5_020 + 8);
        let mut qt = c.generator_dense();
        for i in 0..c.num_states() {
            for j in 0..c.num_states() {
                qt.set(i, j, qt.get(i, j) * t);
            }
        }
        let e = reliab_numeric::expm(&qt).unwrap();
        let steady = c
            .steady_state_report(&crate::SteadyOptions {
                method: crate::SteadyMethod::Gth,
                ..Default::default()
            })
            .unwrap()
            .pi;
        for (j, &p) in r.distribution.iter().enumerate() {
            let pade: f64 = (0..c.num_states()).map(|i| p0[i] * e.get(i, j)).sum();
            assert!((p - pade).abs() < 2e-9, "state {j}: {p} vs Padé {pade}");
            assert!(
                (p - steady[j]).abs() < 1e-10,
                "state {j}: {p} vs GTH {}",
                steady[j]
            );
        }
    }

    #[test]
    fn accumulated_zero_horizon() {
        let c = two_state(1.0, 1.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        assert_eq!(c.accumulated(&p0, 0.0, 1e-10).unwrap(), vec![0.0, 0.0]);
    }
}
