//! Hostile frames against a live `NetServer`: a peer's bytes may cost that
//! peer its request, never the process. Every other connection keeps being
//! served.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;

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
