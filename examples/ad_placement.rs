//! Online advertising: combinatorial play with side reward.
//!
//! The paper's introduction motivates combinatorial play with an advertiser who
//! can place up to `M` advertisements per round and observes their
//! click-through. With side *reward* (Section VI), showing an ad to a user also
//! earns the clicks of her friends who see the share — so the advertiser wants
//! the ad set whose **neighbourhood coverage** of the social graph has the
//! highest total click probability.
//!
//! This example runs DFL-CSR (Algorithm 4) against CUCB (which optimises only
//! the direct clicks and ignores the word-of-mouth coverage) and LLR on the same
//! workload.
//!
//! Run with: `cargo run --release --example ad_placement`

use netband::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), netband::env::EnvError> {
    let num_users = 40;
    let slots_per_round = 3;
    let horizon = 4_000;
    let mut rng = StdRng::seed_from_u64(99);

    // A preferential-attachment social graph: a few influencers, many leaves.
    let graph = generators::barabasi_albert(num_users, 2, &mut rng);
    // Click probability of each user, unknown to the advertiser.
    let arms = ArmSet::random_beta(num_users, 8.0, &mut rng);
    let bandit = NetworkedBandit::new(graph.clone(), arms)?;
    let family = StrategyFamily::at_most_m(num_users, slots_per_round);

    println!(
        "social graph: {} users, density {:.3}, max degree {}",
        num_users,
        graph.density(),
        graph.max_degree()
    );
    println!(
        "optimal expected coverage reward per round: {:.3}",
        bandit.best_strategy_side_mean(&family, bandit.means())
    );

    let mut dfl_csr = DflCsr::new(graph.clone(), family.clone());
    let mut cucb = Cucb::new(graph.clone(), family.clone());
    let mut llr = Llr::new(graph.clone(), family.clone());

    let dfl_run = run_combinatorial(
        &bandit,
        &family,
        &mut dfl_csr,
        CombinatorialScenario::SideReward,
        horizon,
        1,
    )?;
    let cucb_run = run_combinatorial(
        &bandit,
        &family,
        &mut cucb,
        CombinatorialScenario::SideReward,
        horizon,
        1,
    )?;
    let llr_run = run_combinatorial(
        &bandit,
        &family,
        &mut llr,
        CombinatorialScenario::SideReward,
        horizon,
        1,
    )?;

    println!(
        "\n{:<12} {:>14} {:>14} {:>16}",
        "policy", "R_n", "R_n / n", "total clicks"
    );
    for run in [&dfl_run, &cucb_run, &llr_run] {
        println!(
            "{:<12} {:>14.1} {:>14.4} {:>16.1}",
            run.policy,
            run.total_regret(),
            run.average_regret(),
            run.total_reward
        );
    }
    println!(
        "\nDFL-CSR exploits the coverage structure; CUCB/LLR optimise direct clicks only,\n\
         so their regret under the word-of-mouth (side-reward) objective stays higher."
    );
    Ok(())
}
