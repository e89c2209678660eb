//! Opportunistic channel access in a cognitive radio network.
//!
//! One of the applications listed in the paper's introduction: a secondary user
//! repeatedly picks a set of channels to sense/transmit on. Channels that
//! interfere at the same receiver are *related* — sensing one reveals the
//! occupancy of its neighbours — and the user may only transmit on a set of
//! mutually non-interfering channels (an independent set of the interference
//! graph). This is combinatorial play with side observation, handled by DFL-CSO
//! (Algorithm 2); the naive "treat every channel set as one arm" learner is
//! shown for contrast.
//!
//! Run with: `cargo run --release --example channel_access`

use netband::baselines::NaiveComArmMoss;
use netband::env::workloads;
use netband::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), netband::env::EnvError> {
    let horizon = 5_000;
    let mut rng = StdRng::seed_from_u64(77);

    // 16 channels, transmit on at most 2 non-interfering ones per slot.
    let workload = workloads::channel_access(16, 2, 0.35, &mut rng);
    let bandit = &workload.bandit;
    let family = workload
        .try_family()
        .expect("combinatorial workload")
        .clone();
    let strategies = family
        .enumerate(bandit.graph())
        .expect("16 channels with pairs stay enumerable");
    println!(
        "{}: interference density {:.2}, |F| = {} feasible channel sets, optimal throughput {:.3}/slot",
        workload.name,
        bandit.graph().density(),
        strategies.len(),
        bandit.best_strategy_direct_mean(&family, bandit.means())
    );

    let mut dfl_cso = DflCso::from_strategies(bandit.graph(), strategies.clone());
    let mut naive = NaiveComArmMoss::new(strategies);

    let dfl_run = run_combinatorial(
        bandit,
        &family,
        &mut dfl_cso,
        CombinatorialScenario::SideObservation,
        horizon,
        3,
    )?;
    let naive_run = run_combinatorial(
        bandit,
        &family,
        &mut naive,
        CombinatorialScenario::SideObservation,
        horizon,
        3,
    )?;

    println!(
        "\n{:<20} {:>12} {:>12} {:>18}",
        "policy", "R_n", "R_n / n", "total throughput"
    );
    for run in [&dfl_run, &naive_run] {
        println!(
            "{:<20} {:>12.1} {:>12.4} {:>18.1}",
            run.policy,
            run.total_regret(),
            run.average_regret(),
            run.total_reward
        );
    }
    println!(
        "\nDFL-CSO shares observations across overlapping channel sets through the strategy\n\
         relation graph, so it needs far fewer slots than the naive per-set learner."
    );
    Ok(())
}
