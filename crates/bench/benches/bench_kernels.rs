//! Score-kernel micro-bench: ns/arm for the chunked kernels of
//! `netband_core::kernels` at 8 / 64 / 1024 arms, their scalar references,
//! and the two oracle-scan workloads the kernels feed
//! (`enumerated_oracle_scan`, `oracle_argmax_neighborhood`).
//!
//! Hand-rolled harness (`harness = false`): each measurement spins the kernel
//! in a wall-clock loop until the sample is long enough to trust, then writes
//! `BENCH_kernels.json` at the workspace root — the checked-in kernel perf
//! trajectory. Set `NETBAND_BENCH_FAST=1` for the CI smoke run: it skips the
//! JSON write and fails only on *pathological* regressions (generous absolute
//! ns/arm ceilings, not machine-tuned ratios).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use netband_core::kernels;
use netband_env::feasible::FeasibleSet;
use netband_env::StrategyFamily;
use netband_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 3] = [8, 64, 1024];
const T: usize = 9_999;

/// Smoke-mode ceiling on any chunked kernel, ns per arm at 1024 arms. A
/// healthy release build runs these at a few ns/arm; tripping this means the
/// sweep picked up an accidental per-arm allocation or `ln` recomputation.
const FLOOR_NS_PER_ARM: f64 = 100.0;
/// Smoke-mode ceilings for the oracle workloads (ns per call).
const FLOOR_ENUMERATED_SCAN_NS: f64 = 100_000.0;
const FLOOR_NEIGHBORHOOD_NS: f64 = 10_000_000.0;

/// Wall-clock ns per call of `f`, measured over a loop long enough to trust
/// (smoke mode trims the sample to keep CI fast).
fn measure(fast: bool, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let budget = Duration::from_millis(if fast { 2 } else { 25 });
    let mut iters = 8u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= budget || iters >= 1 << 24 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 4;
    }
}

/// Deterministic per-arm state: means in `[0, 1)`, counts with a sprinkling
/// of zeros (unplayed-arm sentinel paths), matching sums of squares.
fn arm_state(n: usize) -> (Vec<f64>, Vec<u64>, Vec<f64>) {
    let means: Vec<f64> = (0..n).map(|i| ((i * 31) % 100) as f64 / 100.0).collect();
    let counts: Vec<u64> = (0..n).map(|i| ((i * 7) % 37) as u64).collect();
    let sum_sq: Vec<f64> = (0..n)
        .map(|i| means[i] * means[i] * counts[i] as f64)
        .collect();
    (means, counts, sum_sq)
}

struct KernelRow {
    kernel: &'static str,
    arms: usize,
    ns_per_call: f64,
}

struct OracleRow {
    name: &'static str,
    ns_per_call: f64,
}

fn run_kernels(fast: bool) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for &n in &SIZES {
        let (means, counts, sum_sq) = arm_state(n);
        let mut out = Vec::with_capacity(n);
        let mut push = |kernel: &'static str, ns: f64| {
            rows.push(KernelRow {
                kernel,
                arms: n,
                ns_per_call: ns,
            });
        };
        push(
            "moss_scores_scalar",
            measure(fast, || {
                kernels::moss_scores_scalar(&means, &counts, T, n, &mut out);
                std::hint::black_box(out.last());
            }),
        );
        push(
            "moss_scores_chunked",
            measure(fast, || {
                kernels::moss_scores_into(&means, &counts, T, n, &mut out);
                std::hint::black_box(out.last());
            }),
        );
        push(
            "moss_argmax_fused",
            measure(fast, || {
                std::hint::black_box(kernels::moss_argmax(&means, &counts, T, n));
            }),
        );
        push(
            "csr_scores_scalar",
            measure(fast, || {
                kernels::csr_scores_scalar(&means, &counts, T, n, &mut out);
                std::hint::black_box(out.last());
            }),
        );
        push(
            "csr_scores_chunked",
            measure(fast, || {
                kernels::csr_scores_into(&means, &counts, T, n, &mut out);
                std::hint::black_box(out.last());
            }),
        );
        push(
            "ucb1_argmax_fused",
            measure(fast, || {
                std::hint::black_box(kernels::ucb1_argmax(&means, &counts, T));
            }),
        );
        push(
            "ucb_tuned_argmax_fused",
            measure(fast, || {
                std::hint::black_box(kernels::ucb_tuned_argmax(&means, &counts, &sum_sq, T));
            }),
        );
        push(
            "cucb_scores_chunked",
            measure(fast, || {
                kernels::cucb_scores_into(&means, &counts, T, &mut out);
                std::hint::black_box(out.last());
            }),
        );
        push(
            "llr_scores_chunked",
            measure(fast, || {
                kernels::llr_scores_into(&means, &counts, 3, T, &mut out);
                std::hint::black_box(out.last());
            }),
        );
    }
    rows
}

fn run_oracles(fast: bool) -> Vec<OracleRow> {
    let mut rows = Vec::new();

    // The enumerated-family argmax workload: a fixed independent-set bank
    // scanned with a precomputed per-arm score table.
    let mut rng = StdRng::seed_from_u64(8);
    let graph = generators::erdos_renyi(18, 0.35, &mut rng);
    let bank = StrategyFamily::independent_sets(3)
        .enumerate(&graph)
        .expect("bench family is enumerable");
    let explicit = StrategyFamily::explicit(bank);
    let weights: Vec<f64> = (0..18).map(|i| ((i * 7919) % 100) as f64 / 100.0).collect();
    rows.push(OracleRow {
        name: "enumerated_oracle_scan",
        ns_per_call: measure(fast, || {
            std::hint::black_box(
                explicit
                    .argmax_by_arm_weights(&weights, &graph)
                    .expect("non-empty family")
                    .len(),
            );
        }),
    });

    // The neighbourhood-objective oracle (mark-table union per row).
    let mut rng = StdRng::seed_from_u64(3);
    let graph = generators::erdos_renyi(20, 0.3, &mut rng);
    let family = StrategyFamily::at_most_m(20, 3);
    let weights: Vec<f64> = (0..20).map(|i| (i as f64) / 20.0).collect();
    rows.push(OracleRow {
        name: "oracle_argmax_neighborhood",
        ns_per_call: measure(fast, || {
            std::hint::black_box(
                family
                    .argmax_by_neighborhood_weights(&weights, &graph)
                    .expect("non-empty family")
                    .len(),
            );
        }),
    });
    rows
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn write_json(kernels: &[KernelRow], oracles: &[OracleRow]) {
    let kernel_rows: Vec<String> = kernels
        .iter()
        .map(|r| {
            format!(
                "    {{ \"kernel\": \"{}\", \"arms\": {}, \"ns_per_call\": {:.1}, \
                 \"ns_per_arm\": {:.3} }}",
                r.kernel,
                r.arms,
                r.ns_per_call,
                r.ns_per_call / r.arms as f64
            )
        })
        .collect();
    let oracle_rows: Vec<String> = oracles
        .iter()
        .map(|r| {
            format!(
                "    {{ \"name\": \"{}\", \"ns_per_call\": {:.1} }}",
                r.name, r.ns_per_call
            )
        })
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"score_kernels\",\n  \"t\": {T},\n  \
         \"available_parallelism\": {cores},\n  \"kernels\": [\n{}\n  ],\n  \
         \"oracles\": [\n{}\n  ]\n}}\n",
        kernel_rows.join(",\n"),
        oracle_rows.join(",\n")
    );
    let path = workspace_root().join("BENCH_kernels.json");
    std::fs::write(&path, json).expect("write BENCH_kernels.json");
    println!("wrote {}", path.display());
}

fn main() {
    let fast = std::env::var_os("NETBAND_BENCH_FAST").is_some();
    println!(
        "score kernels: sizes {SIZES:?}, t = {T}{}",
        if fast { " (fast smoke)" } else { "" }
    );

    let kernel_rows = run_kernels(fast);
    println!(
        "{:>24} {:>6} {:>12} {:>10}",
        "kernel", "arms", "ns/call", "ns/arm"
    );
    for r in &kernel_rows {
        println!(
            "{:>24} {:>6} {:>12.1} {:>10.3}",
            r.kernel,
            r.arms,
            r.ns_per_call,
            r.ns_per_call / r.arms as f64
        );
    }
    let oracle_rows = run_oracles(fast);
    for r in &oracle_rows {
        println!("{:>24} {:>12.1} ns/call", r.name, r.ns_per_call);
    }

    if fast {
        for r in kernel_rows.iter().filter(|r| r.arms == 1024) {
            let ns_per_arm = r.ns_per_call / r.arms as f64;
            assert!(
                ns_per_arm <= FLOOR_NS_PER_ARM,
                "kernel regression: {} ran at {ns_per_arm:.1} ns/arm at 1024 arms, \
                 above the {FLOOR_NS_PER_ARM} ns/arm ceiling",
                r.kernel
            );
        }
        let by_name = |name: &str| {
            oracle_rows
                .iter()
                .find(|r| r.name == name)
                .expect("oracle row")
                .ns_per_call
        };
        assert!(
            by_name("enumerated_oracle_scan") <= FLOOR_ENUMERATED_SCAN_NS,
            "enumerated oracle scan regressed past {FLOOR_ENUMERATED_SCAN_NS} ns"
        );
        assert!(
            by_name("oracle_argmax_neighborhood") <= FLOOR_NEIGHBORHOOD_NS,
            "neighborhood oracle regressed past {FLOOR_NEIGHBORHOOD_NS} ns"
        );
        println!("smoke ceilings ok");
    } else {
        write_json(&kernel_rows, &oracle_rows);
    }
}
