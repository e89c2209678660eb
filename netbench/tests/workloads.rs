//! Tiny-scale runs of every workload: each completes without errors, and
//! the workload seed reproduces and changes the learning outcome.

use std::path::PathBuf;

use netbench::{run, RunOptions, RunReport, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> RunOptions {
    let mut options = RunOptions::new(
        workload,
        seed,
        0.0,
        trace,
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "netbench-{}-{seed}-{tag}-{}",
            workload.name(),
            std::process::id()
        )),
    );
    // Two windows per tenant; the durable workload gets enough windows for
    // one scrape.
    options.decides_per_tenant = if workload.is_durable() { 256 } else { 64 };
    options.check_tail = false;
    options
}

fn run_ok(options: &RunOptions) -> RunReport {
    let report = run(options).unwrap_or_else(|e| panic!("{}: {e}", options.workload.name()));
    assert!(
        report.correct(),
        "{}: {:?}",
        options.workload.name(),
        report.failures
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    assert!(!options.work_dir.exists(), "work dir left behind");
    report
}

#[test]
fn every_workload_runs_untraced_with_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report = run_ok(&tiny(workload, 1, false, "e2e"));
        for name in [
            "decides_per_s",
            "decide_call_p50_us",
            "decide_call_p99_us",
            "feedback_call_p50_us",
            "ok_ratio",
            "setup_s",
            "recovery_s",
            "regret_per_round",
            "peak_rss_mib",
        ] {
            let value = report
                .metric(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
        assert_eq!(report.metric("ok_ratio"), Some(1.0));
    }
}

#[test]
fn every_workload_runs_traced_and_reports_its_layers() {
    for workload in Workload::ALL {
        let report = run_ok(&tiny(workload, 1, true, "trace"));
        let value = |name: &str| report.metric(name).unwrap_or_else(|| panic!("{name}"));
        assert!(value("serve.decide_call_us") > 0.0);
        assert!(value("serve.shard_decide_ns") > 0.0);
        assert!(value("trace.overhead_ratio") > 0.0);
        assert!(value("trace.unaccounted_ratio") >= 0.0);
        if workload != Workload::InprocPaper4 {
            assert!(value("net.frame_read_us") > 0.0);
            assert!(value("spec.request_decode_us_per_decide") > 0.0);
            assert!(value("net.bytes_per_decide") > 0.0);
        }
        if workload.is_durable() {
            assert!(value("store.appends_per_decide") > 0.0);
            assert!(value("store.append_us") > 0.0);
            assert!(value("store.open_ms") > 0.0);
            assert!(value("obs.scrape_ms") > 0.0);
        } else {
            assert_eq!(value("store.appends_per_decide"), 0.0);
        }
    }
}

#[test]
fn the_seed_reproduces_and_changes_regret() {
    for workload in [Workload::TcpSsoW32, Workload::InprocPaper4] {
        let first = run_ok(&tiny(workload, 7, false, "a")).regret_per_round;
        let again = run_ok(&tiny(workload, 7, false, "b")).regret_per_round;
        let other = run_ok(&tiny(workload, 8, false, "c")).regret_per_round;
        assert_eq!(first.to_bits(), again.to_bits(), "{}", workload.name());
        assert_ne!(first.to_bits(), other.to_bits(), "{}", workload.name());
    }
}
