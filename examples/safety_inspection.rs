//! Periodic inspection of a standby safety system with latent
//! failures: how often should you test the emergency generator? —
//! then the inspected generators feed a site-blackout fault tree
//! solved under each BDD variable ordering its document can name.
//!
//! Run with `cargo run --example safety_inspection`.

use reliab::core::Error;
use reliab::dist::Weibull;
use reliab::semimarkov::renewal::{inspection_measures, optimal_inspection_interval};
use reliab::spec::{solve_str_with, SolveOptions, VarOrder};

fn main() -> Result<(), Error> {
    // Emergency generator: wear-out failures (Weibull shape 2, scale
    // 4000 h ≈ 5.5-month characteristic life), failures are LATENT —
    // nobody notices until the next test. A test takes the generator
    // offline for 2 h; a discovered failure takes 48 h to repair.
    let ttf = Weibull::new(2.0, 4000.0)?;
    let (inspection_time, repair_time) = (2.0, 48.0);

    println!("standby generator: Weibull(2, 4000h) TTF, 2h tests, 48h repairs\n");
    println!(
        "{:>12} {:>14} {:>20} {:>14}",
        "test every", "availability", "mean undetected (h)", "cycle (h)"
    );
    for &tau in &[24.0, 168.0, 720.0, 2190.0, 8760.0] {
        let m = inspection_measures(&ttf, tau, inspection_time, repair_time)?;
        let label = match tau as u64 {
            24 => "day",
            168 => "week",
            720 => "month",
            2190 => "quarter",
            _ => "year",
        };
        println!(
            "{label:>12} {:>14.6} {:>20.1} {:>14.0}",
            m.availability, m.mean_detection_delay, m.cycle_length
        );
    }

    let (tau_opt, m_opt) =
        optimal_inspection_interval(&ttf, inspection_time, repair_time, 4.0, 20_000.0)?;
    println!(
        "\noptimal test interval: {:.0} h (~{:.0} days) -> availability {:.6}",
        tau_opt,
        tau_opt / 24.0,
        m_opt.availability
    );
    println!(
        "mean undetected-failure exposure at the optimum: {:.1} h",
        m_opt.mean_detection_delay
    );

    // Sensitivity: a cheaper (faster) test moves the optimum earlier.
    let (tau_fast, _) = optimal_inspection_interval(&ttf, 0.25, repair_time, 4.0, 20_000.0)?;
    println!(
        "with a 15-minute test instead: optimal interval {:.0} h (test more often)",
        tau_fast
    );
    assert!(tau_fast < tau_opt);

    // The inspected generators now feed a system model: site blackout
    // requires a grid outage AND loss of the emergency supply (both
    // generators unavailable, or the transfer switchgear stuck). Each
    // generator's unavailability is what the optimal test policy above
    // leaves behind. The document's `var_order` key picks the BDD
    // variable ordering: `input` reproduces the historical
    // declaration-order compile, `auto` is the depth-first heuristic.
    let q_gen = 1.0 - m_opt.availability;
    let blackout_spec = |order: VarOrder| {
        format!(
            r#"{{
          "fault_tree": {{
            "var_order": "{}",
            "events": [
              {{"name": "grid-outage", "probability": 2.7e-4}},
              {{"name": "gen-a-unavailable", "probability": {q_gen:.9}}},
              {{"name": "gen-b-unavailable", "probability": {q_gen:.9}}},
              {{"name": "switchgear-stuck", "probability": 1.0e-5}}
            ],
            "top": {{"and": [
              "grid-outage",
              {{"or": [
                {{"and": ["gen-a-unavailable", "gen-b-unavailable"]}},
                "switchgear-stuck"
              ]}}
            ]}}
          }}
        }}"#,
            order.as_str()
        )
    };

    println!("\nsite-blackout fault tree (generator unavailability {q_gen:.6}):");
    println!(
        "{:>10} {:>16} {:>10}",
        "ordering", "P(blackout)", "bdd nodes"
    );
    let mut reference = None;
    for order in [VarOrder::Auto, VarOrder::Input, VarOrder::Sift] {
        let report = solve_str_with(&blackout_spec(order), &SolveOptions::default())?;
        let q = report.measures.unreliability().expect("fault-tree measure");
        println!(
            "{:>10} {q:>16.3e} {:>10}",
            order.as_str(),
            report.stats.bdd_nodes.unwrap_or(0)
        );
        // The ordering changes the BDD shape, never the function.
        let q0 = *reference.get_or_insert(q);
        assert!((q - q0).abs() <= 1e-15);
    }
    Ok(())
}
