//! Hostile frames against a live `NetServer`: a peer's bytes may cost that
//! peer its request, never the process. Every other connection keeps being
//! served.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netband_net::{read_frame, write_frame, NetClient, NetServer, ServerConfig, MAX_FRAME_BYTES};
use netband_serve::ServeEngine;
use netband_spec::presets;
use netband_spec::wire::{WireErrorCode, WireResponse};

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
