//! Product promotion in a social network: single play with side reward.
//!
//! The paper's motivating story for side rewards: promoting a product to one
//! user also influences her friends' purchasing decisions, so the value of
//! targeting a user is the total purchase probability of her whole
//! neighbourhood. DFL-SSR (Algorithm 3) learns exactly that; MOSS, which chases
//! the single best individual buyer, targets the wrong user.
//!
//! The example also demonstrates that the SSR-optimal user (the best
//! *neighbourhood*) can differ from the SSO-optimal user (the best individual).
//!
//! Run with: `cargo run --release --example social_promotion`

use netband::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), netband::env::EnvError> {
    let num_users = 60;
    let horizon = 6_000;
    let mut rng = StdRng::seed_from_u64(5);

    // A community-structured social network: three tight communities with a few
    // bridges between them.
    let graph = generators::planted_partition(num_users, 3, 0.35, 0.02, &mut rng);
    let arms = ArmSet::random_bernoulli(num_users, &mut rng);
    let bandit = NetworkedBandit::new(graph.clone(), arms)?;

    let best_individual = bandit.arms().best_arm().expect("non-empty instance");
    let best_neighborhood = bandit.best_single_side_arm().expect("non-empty instance");
    println!(
        "best individual buyer: user {best_individual} (mean {:.3})",
        bandit.means()[best_individual]
    );
    println!(
        "best neighbourhood to target: user {best_neighborhood} (neighbourhood value {:.3}, degree {})",
        bandit.side_reward_mean(best_neighborhood, bandit.means()),
        graph.degree(best_neighborhood)
    );

    let mut dfl_ssr = DflSsr::new(graph.clone());
    let mut moss = Moss::new(num_users);
    let mut thompson = ThompsonBernoulli::new(num_users, 11);

    println!(
        "\n{:<12} {:>12} {:>12} {:>18}",
        "policy", "R_n", "R_n / n", "total purchases"
    );
    for run in [
        run_single(
            &bandit,
            &mut dfl_ssr,
            SingleScenario::SideReward,
            horizon,
            3,
        ),
        run_single(&bandit, &mut moss, SingleScenario::SideReward, horizon, 3),
        run_single(
            &bandit,
            &mut thompson,
            SingleScenario::SideReward,
            horizon,
            3,
        ),
    ] {
        println!(
            "{:<12} {:>12.1} {:>12.4} {:>18.1}",
            run.policy,
            run.total_regret(),
            run.average_regret(),
            run.total_reward
        );
    }
    if best_neighborhood == best_individual {
        println!(
            "\nIn this instance the best individual buyer also has the most valuable\n\
             neighbourhood (user {best_neighborhood}); DFL-SSR still wins because it\n\
             aggregates the whole neighbourhood's purchases when ranking users."
        );
    } else {
        println!(
            "\nDFL-SSR targets the most valuable neighbourhood (user {best_neighborhood}),\n\
             while direct-reward learners drift towards user {best_individual} and leave\n\
             the word-of-mouth value on the table."
        );
    }
    Ok(())
}
