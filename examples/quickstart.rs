//! Quickstart: single-play with side observation on a random social network.
//!
//! Builds the paper's basic setting — `K` arms connected by a relation graph,
//! rewards in `[0, 1]` — runs DFL-SSO (Algorithm 1) next to MOSS on the same
//! sample path, and prints how the time-averaged regret of both policies
//! evolves. This is Fig. 3 of the paper in miniature.
//!
//! Run with: `cargo run --release --example quickstart`

use netband::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), netband::env::EnvError> {
    let num_arms = 50;
    let horizon = 5_000;
    let mut rng = StdRng::seed_from_u64(2024);

    // The environment: an Erdős–Rényi relation graph (friends observe each
    // other's feedback) over Bernoulli arms with unknown means.
    let graph = generators::erdos_renyi(num_arms, 0.3, &mut rng);
    let arms = ArmSet::random_bernoulli(num_arms, &mut rng);
    let bandit = NetworkedBandit::new(graph.clone(), arms)?;
    println!(
        "environment: {} arms, graph density {:.2}, best arm mean {:.3}",
        num_arms,
        graph.density(),
        bandit.best_single_direct_mean(bandit.means())
    );

    // Two policies on the same sample path: the paper's DFL-SSO and plain MOSS.
    let mut dfl = DflSso::new(graph.clone());
    let mut moss = Moss::new(num_arms);
    let results = run_single_coupled(
        &bandit,
        &mut [&mut dfl, &mut moss],
        SingleScenario::SideObservation,
        horizon,
        7,
    );

    println!("\n{:>8} {:>16} {:>16}", "t", "DFL-SSO R_t/t", "MOSS R_t/t");
    for &t in &[100usize, 500, 1_000, 2_500, 5_000] {
        let idx = t - 1;
        println!(
            "{:>8} {:>16.4} {:>16.4}",
            t,
            results[0].trace.time_averaged()[idx],
            results[1].trace.time_averaged()[idx]
        );
    }
    println!(
        "\nfinal accumulated regret: DFL-SSO {:.1} vs MOSS {:.1}",
        results[0].total_regret(),
        results[1].total_regret()
    );
    println!(
        "Theorem 1 bound with the greedy clique cover: {:.0}",
        bounds::theorem1_dfl_sso(horizon, num_arms, greedy_clique_cover(&graph).len())
    );
    Ok(())
}
