//! Stochastic-reward-net modeling: a two-component repairable system
//! with one repair crew and failover routing, described as a Petri net
//! instead of a hand-enumerated CTMC — the tutorial's "let the tool
//! generate the state space" workflow.
//!
//! Run with `cargo run --example petri_net_availability`.

use reliab::core::{downtime_minutes_per_year, Error};
use reliab::models::two_comp::{two_component_availability, RepairPolicy};
use reliab::spn::SpnBuilder;

fn main() -> Result<(), Error> {
    let (lambda, mu) = (0.01, 1.0);

    // Places: tokens in "up" are working units, tokens in "broken" are
    // waiting for the single crew, a token in "in-repair" is on the
    // bench.
    let mut b = SpnBuilder::new();
    let up = b.place("up", 2);
    let broken = b.place("broken", 0);
    let in_repair = b.place("in-repair", 0);

    // Failures: each working unit fails at rate lambda => marking-
    // dependent rate #up * lambda.
    let fail = b.timed_fn("fail", move |m: &Vec<u32>| f64::from(m[0]) * lambda);
    b.input_arc(fail, up, 1);
    b.output_arc(fail, broken, 1);

    // The crew picks up a broken unit immediately when free.
    let start_repair = b.immediate("start-repair", 1.0, 0);
    b.input_arc(start_repair, broken, 1);
    b.output_arc(start_repair, in_repair, 1);
    b.inhibitor_arc(start_repair, in_repair, 1); // crew busy => wait

    // Repair completes at rate mu.
    let finish = b.timed("finish-repair", mu);
    b.input_arc(finish, in_repair, 1);
    b.output_arc(finish, up, 1);

    let spn = b.build()?;
    let solved = spn.solve()?;

    println!("two-unit system with one repair crew, as an SRN");
    println!("  tangible markings: {}", solved.num_markings());
    for i in 0..solved.num_markings() as u32 {
        let m = solved.marking(i);
        println!("    up={} broken={} in-repair={}", m[0], m[1], m[2]);
    }

    // Service needs at least one unit up.
    let availability = solved.steady_state_expected_reward(|m| if m[0] > 0 { 1.0 } else { 0.0 })?;
    println!("  availability (>=1 up): {availability:.9}");
    println!(
        "  downtime: {:.3} min/yr",
        downtime_minutes_per_year(availability)?
    );
    println!(
        "  repair-crew utilization: {:.4}",
        solved.steady_state_expected_reward(|m| f64::from(m[2]))?
    );
    println!("  failure throughput: {:.6} /h", solved.throughput(fail)?);
    println!(
        "  mean time until both units down: {:.1} h",
        solved.mean_time_to(|m| m[0] == 0)?
    );

    // Cross-check against the hand-built shared-crew CTMC from the
    // models crate.
    let reference = two_component_availability(lambda, mu, RepairPolicy::SharedCrew)?;
    assert!((availability - reference.parallel_availability).abs() < 1e-12);
    println!("\nmatches the hand-enumerated CTMC exactly ✓");
    Ok(())
}
