//! A closed connection must give its descriptors back: the server keeps a
//! stream clone per live connection (so shutdown can unblock its read) and
//! must drop it when the connection's handler exits, or every connection
//! leaks one descriptor until `accept` fails with EMFILE.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use netband_net::{NetClient, NetServer, ServerConfig};
use netband_serve::ServeEngine;

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    const CYCLES: usize = 200;
    const SLACK: usize = 8;
    let engine = Arc::new(ServeEngine::with_shards(1));
    let server = NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let before = open_descriptors();
    for _ in 0..CYCLES {
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.metrics().unwrap();
    }
    // Each handler exits on its own thread once it sees its peer close.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = open_descriptors();
        if now <= before + SLACK {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{CYCLES} closed connections left {} descriptors open ({before} before)",
            now - before
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
