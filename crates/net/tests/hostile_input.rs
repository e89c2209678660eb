//! Hostile frames against a live `NetServer`: a peer's bytes may cost that
//! peer its request, never the process. Every other connection keeps being
//! served.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netband_env::SinglePlayFeedback;
use netband_net::{
    read_frame, write_frame, NetClient, NetError, NetServer, ServerConfig, MAX_FRAME_BYTES,
};
use netband_serve::{EngineConfig, ServeEngine, StoreConfig};
use netband_spec::presets;
use netband_spec::wire::{Decision, FeedbackEvent, WireErrorCode, WireFeedback, WireResponse};

/// One 1 MiB frame of `[` used to recurse the connection thread's JSON
/// parser off its stack and abort the whole server. The nesting cap turns it
/// into an ordinary `protocol` error frame, and a fresh connection is then
/// served as usual.
#[test]
fn a_megabyte_of_open_brackets_draws_a_protocol_error_frame() {
    let engine = Arc::new(ServeEngine::with_shards(1));
    let server = NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &"[".repeat(1 << 20)).unwrap();
    let text = read_frame(&mut reader, MAX_FRAME_BYTES)
        .unwrap()
        .expect("the server answers instead of dropping the connection");
    match WireResponse::from_json_text(&text).unwrap() {
        WireResponse::Error { code, message } => {
            assert_eq!(code, WireErrorCode::Protocol, "{message}");
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected a protocol error frame, got {other:?}"),
    }

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let mut scenario = presets::paper_simulation(10, 0.4, 11);
    scenario.horizon = 50;
    client.register_tenant("after-attack", scenario).unwrap();
    let replies = client.decide_many("after-attack", 4).unwrap();
    assert_eq!(
        replies.iter().map(|r| r.round).collect::<Vec<_>>(),
        [1, 2, 3, 4]
    );
    server.shutdown();
}

/// Sends `frame` and returns the error frame it draws, with the time the
/// server took to answer.
fn error_frame_for(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    frame: &str,
) -> (WireErrorCode, String, Duration) {
    let start = Instant::now();
    write_frame(writer, frame).unwrap();
    let text = read_frame(reader, MAX_FRAME_BYTES)
        .unwrap()
        .expect("the server answers instead of dropping the connection");
    let elapsed = start.elapsed();
    match WireResponse::from_json_text(&text).unwrap() {
        WireResponse::Error { code, message } => (code, message, elapsed),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// One object with 100k distinct keys (~1.2 MB, well under the frame cap)
/// must draw its error frame about as fast as it parses: a duplicate-key
/// check that compares every key with every earlier one takes minutes of a
/// connection thread here. A duplicate hidden in the very last key is still
/// found.
#[test]
fn an_object_with_a_hundred_thousand_keys_is_answered_promptly() {
    const KEYS: usize = 100_000;
    let engine = Arc::new(ServeEngine::with_shards(1));
    let server = NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);

    let keys: Vec<String> = (0..KEYS).map(|i| format!("\"k{i:06}\":0")).collect();
    let distinct = format!("{{{}}}", keys.join(","));
    let (code, message, elapsed) = error_frame_for(&mut reader, &mut writer, &distinct);
    assert_eq!(code, WireErrorCode::Protocol, "{message}");
    assert!(
        elapsed < Duration::from_secs(10),
        "{KEYS} distinct keys took {elapsed:?} to answer"
    );

    let last_repeats_first = format!("{{{},\"k000000\":1}}", keys.join(","));
    let (code, message, _) = error_frame_for(&mut reader, &mut writer, &last_repeats_first);
    assert_eq!(code, WireErrorCode::Protocol, "{message}");
    assert!(message.contains("duplicate object key"), "{message}");
    server.shutdown();
}

/// Registers `attacked` and `neighbour`, serves `attacked` one decision, and
/// sends a feedback window whose observations of the pulled arm are
/// ±1.7e308: finite, so they pass the codec, but far outside the paper's
/// [0, 1] reward support. Folded into the arm's running mean they make it
/// NaN, which no document can carry. The window must draw an `invalid`
/// error frame, leave the attacked tenant's means finite, and leave both
/// tenants being served.
fn out_of_support_feedback_is_refused(engine: ServeEngine) {
    let server = NetServer::bind(Arc::new(engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for (tenant, seed) in [("attacked", 11), ("neighbour", 12)] {
        let mut scenario = presets::paper_simulation(10, 0.4, seed);
        scenario.horizon = 50;
        client.register_tenant(tenant, scenario).unwrap();
    }
    let reply = client.decide_many("attacked", 1).unwrap().remove(0);
    let arm = match reply.decision {
        Decision::Arm(arm) => arm,
        other => panic!("single-play tenant pulled {other:?}"),
    };
    let hostile = WireFeedback {
        round: reply.round,
        event: FeedbackEvent::Single(SinglePlayFeedback {
            arm,
            direct_reward: 1.0,
            side_reward: 0.0,
            observations: vec![(arm, 1.7e308), (arm, -1.7e308)],
        }),
    };
    match client.feedback_many("attacked", vec![hostile]) {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, WireErrorCode::Invalid, "{message}");
            assert!(message.contains("[0, 1]"), "{message}");
        }
        other => panic!("out-of-support feedback was not refused: {other:?}"),
    }

    // On a resident-capped engine this decide evicts the attacked tenant,
    // encoding its snapshot; the telemetry call pages it back in.
    assert_eq!(client.decide_many("neighbour", 3).unwrap().len(), 3);
    let telemetry = client.telemetry("attacked").unwrap();
    assert!(
        telemetry.arms.iter().all(|a| a.mean.is_finite()),
        "{telemetry:?}"
    );
    let echoed = reply.feedback.expect("echoed feedback");
    let accepted = client
        .feedback_many(
            "attacked",
            vec![WireFeedback {
                round: reply.round,
                event: echoed,
            }],
        )
        .unwrap();
    assert_eq!(accepted, 1);
    assert_eq!(client.decide_many("attacked", 2).unwrap().len(), 2);
    assert_eq!(client.decide_many("neighbour", 2).unwrap().len(), 2);
    server.shutdown();
}

#[test]
fn out_of_support_feedback_is_refused_in_memory() {
    out_of_support_feedback_is_refused(ServeEngine::with_shards(1));
}

#[test]
fn out_of_support_feedback_cannot_take_down_a_durable_shard() {
    let dir = std::env::temp_dir().join(format!("netband_hostile_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = ServeEngine::start(
        EngineConfig::new(1).with_store(StoreConfig::new(&dir).with_resident_cap(1)),
    );
    out_of_support_feedback_is_refused(engine);
    std::fs::remove_dir_all(&dir).ok();
}
