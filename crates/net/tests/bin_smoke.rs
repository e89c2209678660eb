//! Smoke tests for the shipped binaries: `netband_server` must boot, announce
//! its (possibly ephemeral) address on stdout, and serve a real client;
//! `netband_server` must refuse bad flag values without panicking;
//! `netband_loadgen` must pass its front-door canary against its own server.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use netband_net::NetClient;
use netband_spec::{
    ArmsSpec, FeedbackSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus, WireFeedback,
    WorkloadSpec, SPEC_VERSION,
};

/// Kills the child on drop so a failing assertion doesn't leak a server.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn smoke_scenario() -> ScenarioSpec {
    ScenarioSpec {
        version: SPEC_VERSION,
        name: "bin-smoke".into(),
        workload: WorkloadSpec {
            graph: GraphSpec::ErdosRenyi {
                num_arms: 8,
                edge_prob: 0.3,
            },
            arms: ArmsSpec::UniformMeanBernoulli { num_arms: 8 },
            family: None,
            drift: None,
            seed: 1,
        },
        policy: PolicySpec::DflSso,
        side_bonus: SideBonus::Observation,
        horizon: 1_000,
        replications: 1,
        seed: 2,
        feedback: FeedbackSpec::Immediate,
    }
}

/// Boots the server binary on an ephemeral port, reads the announced address
/// off stdout, and serves a register → decide → feedback → metrics round trip
/// through a real client.
#[test]
fn server_binary_boots_announces_and_serves() {
    let child = Command::new(env!("CARGO_BIN_EXE_netband_server"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn netband_server");
    let mut child = Reaper(child);
    let stdout = child.0.stdout.take().expect("piped stdout");

    // The binary prints exactly one `listening on <addr>` line once bound.
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_owned();
        }
    };

    let mut client = NetClient::connect(addr.as_str()).expect("connect to announced address");
    client
        .register_tenant("smoke", smoke_scenario())
        .expect("register over the wire");
    for _ in 0..4 {
        let replies = client.decide_many("smoke", 8).expect("decide");
        assert_eq!(replies.len(), 8);
        let window: Vec<WireFeedback> = replies
            .into_iter()
            .filter_map(|r| {
                r.feedback.map(|event| WireFeedback {
                    round: r.round,
                    event,
                })
            })
            .collect();
        let accepted = client.feedback_many("smoke", window).expect("feedback");
        assert_eq!(accepted, 8);
    }
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.shards, 1);
    assert_eq!(metrics.tenants, 1);
    assert!(metrics.total_decides >= 32, "{}", metrics.total_decides);
}

/// Boots the server binary with `--obs-addr`, drives a little traffic, and
/// scrapes the announced observability endpoint over raw HTTP: every line of
/// the body must parse under the strict exposition grammar and the decide
/// counter must reflect the traffic just served.
#[test]
fn server_binary_serves_a_parseable_scrape() {
    let child = Command::new(env!("CARGO_BIN_EXE_netband_server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--obs-addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn netband_server");
    let mut child = Reaper(child);
    let stdout = child.0.stdout.take().expect("piped stdout");

    let mut lines = BufReader::new(stdout).lines();
    let mut addr = None;
    let mut obs_addr = None;
    while addr.is_none() || obs_addr.is_none() {
        let line = lines
            .next()
            .expect("server exited before announcing both addresses")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.to_owned());
        } else if let Some(rest) = line.strip_prefix("observability on ") {
            obs_addr = Some(rest.to_owned());
        }
    }
    let (addr, obs_addr) = (addr.unwrap(), obs_addr.unwrap());

    let mut client = NetClient::connect(addr.as_str()).expect("connect to announced address");
    client
        .register_tenant("smoke", smoke_scenario())
        .expect("register over the wire");
    let replies = client.decide_many("smoke", 16).expect("decide");
    assert_eq!(replies.len(), 16);

    let body = scrape(&obs_addr);
    let parsed = netband_obs::parse_exposition(&body).expect("every scrape line parses");
    let sample = |name: &str| {
        parsed
            .iter()
            .find_map(|line| match line {
                netband_obs::ExpositionLine::Sample { name: n, value, .. } if n == name => {
                    Some(*value)
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("scrape lacks sample {name:?}:\n{body}"))
    };
    assert_eq!(sample("netband_decides_total"), 16.0);
    assert!(sample("netband_net_frames_in_total") >= 2.0);
    assert_eq!(sample("netband_overload_rejections_total"), 0.0);
}

/// One blocking HTTP/1.1 GET against the scrape endpoint, returning the body.
fn scrape(addr: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape endpoint");
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("send scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "scrape status line: {head}"
    );
    body.to_owned()
}

/// `--resident-cap 0` is a usage error like every other bad flag value: the
/// server refuses it with a message and exit code 1 instead of panicking in
/// the store configuration (exit code 101).
#[test]
fn server_binary_refuses_a_zero_resident_cap() {
    let data_dir =
        std::env::temp_dir().join(format!("netband_bin_smoke_cap0_{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_netband_server"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1", "--data-dir"])
        .arg(&data_dir)
        .args(["--resident-cap", "0"])
        .output()
        .expect("spawn netband_server");
    let _ = std::fs::remove_dir_all(&data_dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--resident-cap must be at least 1"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

/// Runs the load generator's canary cell against its own in-process server
/// at window 1: every decide travels as a one-entry window, and the run must
/// finish with zero protocol errors, above the throughput floor, and with the
/// server's metrics covering every decide it sent.
#[test]
fn loadgen_binary_passes_its_canary_at_window_one() {
    let output = Command::new(env!("CARGO_BIN_EXE_netband_loadgen"))
        .args(["--batches", "1"])
        .output()
        .expect("spawn netband_loadgen");
    assert!(
        output.status.success(),
        "loadgen exited with {}\nstdout:\n{}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}
