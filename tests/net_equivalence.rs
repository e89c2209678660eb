//! Network-equivalence suite: the framed TCP wire path must be a
//! **transparent window** onto the serving engine.
//!
//! `tests/spec_golden.rs` pins the spec pipeline and the in-process engine to
//! the committed golden DFL traces; this suite pins the network front end to
//! the same fixtures. A real `NetClient` over a real loopback socket —
//! length-prefixed frames, strict JSON documents, the batched
//! `try_decide_many` server path — must reproduce the golden trajectories
//! **f64 bit for bit**, in lockstep with an in-process reference engine.
//!
//! Also covered: chunked wire batches against the in-process batched client,
//! the error-frame surface (unknown tenant, oversized batches, invalid
//! rounds, duplicate registration), and the admission-control contract — a
//! wedged shard answers with a retryable `overloaded` error frame instead of
//! parking the connection.

mod common;

use std::sync::Arc;

use common::{assert_golden, golden_specs, test_shards, RegretRecorder};
use netband::prelude::*;

/// An engine fronted by a loopback server, plus one connected client. The
/// served engines default to a single shard but honour `NETBAND_TEST_SHARDS`
/// (tenants are shard-pinned, so the golden comparisons — always against a
/// 1-shard reference — must hold at any shard count, above or below the
/// machine's core count).
fn loopback(engine: ServeEngine, config: ServerConfig) -> (NetServer, NetClient) {
    let server =
        NetServer::bind(Arc::new(engine), "127.0.0.1:0", config).expect("bind loopback server");
    let client = NetClient::connect(server.local_addr()).expect("connect loopback client");
    (server, client)
}

fn placeholder_event() -> FeedbackEvent {
    FeedbackEvent::Single(SinglePlayFeedback {
        arm: 0,
        direct_reward: 0.0,
        side_reward: 0.0,
        observations: vec![],
    })
}

// ----- golden traces over a real socket ------------------------------------

/// The flagship equivalence: each golden scenario is registered **over the
/// wire from its spec document** and served decision by decision through a
/// real TCP client, in lockstep with an in-process reference engine. Every
/// reply must match the reference bit for bit, and the evicted tenant must
/// reproduce the committed golden fixture.
#[test]
fn tcp_round_trip_reproduces_all_four_golden_traces() {
    let (server, mut client) = loopback(
        ServeEngine::with_shards(test_shards(1)),
        ServerConfig::default(),
    );
    for (fixture, spec) in golden_specs() {
        let mut served = RegretRecorder::from_scenario(&spec);
        let mut expected_run = RegretRecorder::from_scenario(&spec);
        let reference = ServeEngine::with_shards(1);
        reference
            .register_tenant_spec(&RegisterTenantSpec::new(fixture, spec.clone()))
            .expect("register reference tenant");
        client
            .register_tenant(fixture, spec.clone())
            .expect("register tenant over the wire");

        for round in 0..spec.horizon {
            let expected = reference.decide(fixture).expect("reference decide");
            let mut replies = client.decide_many(fixture, 1).expect("wire decide");
            assert_eq!(replies.len(), 1, "{fixture}: one decision per request");
            let reply = replies.pop().unwrap();

            assert_eq!(reply.round, expected.round, "{fixture} round {round}");
            assert_eq!(
                reply.decision, expected.decision,
                "{fixture} round {round}: decision diverged over the wire"
            );
            assert_eq!(
                reply.reward.to_bits(),
                expected.reward.to_bits(),
                "{fixture} round {round}: reward not bit-exact over the wire"
            );
            let event = reply.feedback.expect("wire reply echoes feedback");
            let expected_event = expected
                .feedback
                .as_ref()
                .expect("reference echoes feedback");
            assert_eq!(
                &event, expected_event,
                "{fixture} round {round}: echoed feedback diverged"
            );
            served.record(reply.round, reply.reward, &event);
            expected_run.record_reply(&expected);

            // Close the loop on both sides with the *wire* event, so the
            // feedback path is exercised end to end too.
            reference
                .feedback(fixture, expected.round, event.clone())
                .expect("reference feedback");
            let accepted = client
                .feedback_many(
                    fixture,
                    vec![WireFeedback {
                        round: reply.round,
                        event,
                    }],
                )
                .expect("wire feedback");
            assert_eq!(accepted, 1, "{fixture} round {round}");
        }

        served.assert_totals(&server.engine().telemetry(fixture).expect("wire telemetry"));
        expected_run.assert_totals(&reference.telemetry(fixture).expect("reference telemetry"));
        server
            .engine()
            .evict_tenant(fixture)
            .expect("evict wire tenant");
        reference.shutdown();

        // The TCP-served trajectory IS the committed golden fixture...
        let (served, expected) = (served.run_result(), expected_run.run_result());
        assert_golden(fixture, &served);
        // ...and agrees with the in-process engine on every field.
        assert_eq!(served.trace, expected.trace, "{fixture}: trace drifted");
        assert_eq!(
            served.total_reward.to_bits(),
            expected.total_reward.to_bits(),
            "{fixture}: total reward drifted"
        );
    }
    server.shutdown();
}

// ----- chunked wire batches ≡ the in-process batched client ----------------

/// Serving in chunks over the wire (one `decide_many` frame per chunk, one
/// `feedback_many` frame per window) equals the in-process [`ServeClient`]
/// running the identical chunk sequence — batching and transport change
/// nothing about the trajectory, even under a batched flush policy.
#[test]
fn chunked_wire_batches_match_the_in_process_batched_client() {
    let (_, mut spec) = golden_specs().remove(2); // dfl_cso
    spec.feedback = FeedbackSpec::Batched { max_pending: 8 };
    const CHUNK: usize = 16;

    let (server, mut client) = loopback(
        ServeEngine::with_shards(test_shards(1)),
        ServerConfig::default(),
    );
    client
        .register_tenant("wire", spec.clone())
        .expect("register wire tenant");

    let reference = ServeEngine::with_shards(1);
    reference
        .register_tenant_spec(&RegisterTenantSpec::new("ref", spec.clone()))
        .expect("register reference tenant");
    let mut ref_client = reference.client();
    let mut out: Vec<Result<DecideReply, ServeError>> = Vec::new();
    let mut wire_run = RegretRecorder::from_scenario(&spec);
    let mut ref_run = RegretRecorder::from_scenario(&spec);

    let mut served = 0;
    while served < spec.horizon {
        let n = CHUNK.min(spec.horizon - served);
        let replies = client.decide_many("wire", n as u32).expect("wire chunk");
        ref_client
            .decide_many("ref", n, &mut out)
            .expect("reference chunk");
        assert_eq!(replies.len(), n);
        assert_eq!(out.len(), n);

        let mut wire_window = Vec::with_capacity(n);
        let mut ref_window = Vec::with_capacity(n);
        for (reply, expected) in replies.into_iter().zip(&out) {
            let expected = expected.as_ref().expect("reference decision");
            assert_eq!(reply.round, expected.round);
            assert_eq!(reply.decision, expected.decision);
            assert_eq!(reply.reward.to_bits(), expected.reward.to_bits());
            let event = reply.feedback.expect("echoed feedback");
            wire_run.record(reply.round, reply.reward, &event);
            ref_run.record_reply(expected);
            ref_window.push((reply.round, event.clone()));
            wire_window.push(WireFeedback {
                round: reply.round,
                event,
            });
        }
        let accepted = client
            .feedback_many("wire", wire_window)
            .expect("wire feedback window");
        assert_eq!(accepted, n as u64);
        ref_client
            .feedback_many("ref", ref_window)
            .expect("reference feedback window");
        served += n;
    }

    wire_run.assert_totals(&server.engine().telemetry("wire").expect("wire telemetry"));
    ref_run.assert_totals(&reference.telemetry("ref").expect("reference telemetry"));
    reference.shutdown();
    server.shutdown();

    let (wire_result, ref_result) = (wire_run.run_result(), ref_run.run_result());

    assert_eq!(wire_result.trace, ref_result.trace, "trace drifted");
    assert_eq!(
        wire_result.total_reward.to_bits(),
        ref_result.total_reward.to_bits(),
        "total reward drifted"
    );
}

// ----- the error-frame surface ---------------------------------------------

/// Protocol misuse draws typed error frames and leaves the connection
/// serviceable (only oversized *frames* close it).
#[test]
fn misuse_draws_typed_error_frames_and_keeps_the_connection_open() {
    let config = ServerConfig {
        max_batch: 4,
        ..ServerConfig::default()
    };
    let (server, mut client) = loopback(ServeEngine::with_shards(1), config);
    let (fixture, spec) = golden_specs().remove(0);

    fn expect_code(err: &NetError, want: WireErrorCode) {
        match err {
            NetError::Server { code, .. } => assert_eq!(*code, want),
            other => panic!("expected {want} error frame, got {other}"),
        }
    }

    // Unknown tenant.
    let err = client.decide_many("nobody", 1).unwrap_err();
    expect_code(&err, WireErrorCode::UnknownTenant);

    // Zero-decision batches are meaningless.
    client.register_tenant(fixture, spec.clone()).unwrap();
    let err = client.decide_many(fixture, 0).unwrap_err();
    expect_code(&err, WireErrorCode::Invalid);

    // Batches above the server's cap.
    let err = client.decide_many(fixture, 5).unwrap_err();
    expect_code(&err, WireErrorCode::TooLarge);
    let window: Vec<WireFeedback> = (0..5)
        .map(|round| WireFeedback {
            round,
            event: placeholder_event(),
        })
        .collect();
    let err = client.feedback_many(fixture, window).unwrap_err();
    expect_code(&err, WireErrorCode::TooLarge);

    // Feedback ingestion is fire-and-forget: an event quoting a round the
    // tenant never served is *accepted* on the wire, dropped by the shard,
    // and surfaces in the metrics frame's rejected counter.
    let accepted = client
        .feedback_many(
            fixture,
            vec![WireFeedback {
                round: 999,
                event: placeholder_event(),
            }],
        )
        .expect("window is enqueued");
    assert_eq!(accepted, 1);
    server.engine().drain().expect("barrier");
    let metrics = client.metrics().expect("metrics frame");
    assert_eq!(metrics.rejected, 1, "dropped event not counted");

    // Double registration.
    let err = client.register_tenant(fixture, spec).unwrap_err();
    expect_code(&err, WireErrorCode::DuplicateTenant);

    // After all of that the connection still serves normally.
    let replies = client.decide_many(fixture, 2).expect("connection survives");
    assert_eq!(replies.len(), 2);
    server.shutdown();
}

/// The admission-control contract of the front end: a full shard queue
/// surfaces as a **retryable `overloaded` error frame** — the server answers
/// immediately instead of parking the connection, and the same request
/// succeeds once the shard drains.
#[test]
fn overloaded_shards_answer_with_a_retryable_error_frame() {
    let engine = ServeEngine::start(EngineConfig::new(1).with_queue_capacity(1));
    let (server, mut client) = loopback(engine, ServerConfig::default());
    let (fixture, spec) = golden_specs().remove(0);
    client.register_tenant(fixture, spec).expect("register");

    // Wedge the only shard: its worker is blocked and its queue is full, so
    // the server's try_* admission paths must reject deterministically.
    let wedge = server.engine().wedge_shard(0);

    let err = client.decide_many(fixture, 4).unwrap_err();
    assert!(
        err.is_overloaded(),
        "expected an overloaded error frame, got {err}"
    );
    let err = client
        .feedback_many(
            fixture,
            vec![WireFeedback {
                round: 0,
                event: placeholder_event(),
            }],
        )
        .unwrap_err();
    assert!(
        err.is_overloaded(),
        "expected an overloaded error frame, got {err}"
    );

    // Release the shard: the retried request goes straight through.
    drop(wedge);
    let replies = client.decide_many(fixture, 4).expect("retry after release");
    assert_eq!(replies.len(), 4);
    for reply in &replies {
        let event = reply.feedback.clone().expect("echoed feedback");
        // Feedback admission is asynchronous (the shard drains the 1-slot
        // queue behind the accepted reply), so back-to-back windows can
        // legitimately draw a retryable overloaded frame — retry like a
        // real client would.
        let accepted = loop {
            match client.feedback_many(
                fixture,
                vec![WireFeedback {
                    round: reply.round,
                    event: event.clone(),
                }],
            ) {
                Ok(accepted) => break accepted,
                Err(err) if err.is_overloaded() => std::thread::yield_now(),
                Err(err) => panic!("feedback after release: {err}"),
            }
        };
        assert_eq!(accepted, 1);
    }
    server.shutdown();
}
