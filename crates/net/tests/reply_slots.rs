//! `NetServer` moves a window's served replies out of its warm slots into
//! the response frame and back once the frame is encoded. A connection whose
//! windows change tenant, play mode and echo setting, with an error frame in
//! between, must still serve exactly what a fresh in-process engine serves.

use std::sync::Arc;

use netband_net::{NetClient, NetError, NetServer, ServerConfig};
use netband_serve::{DecideReply, FeedbackEvent, ServeEngine, ServeError, TenantSpec};
use netband_spec::{presets, ScenarioSpec, WireErrorCode};

const WINDOW: usize = 8;

/// The three tenants, registered identically on every engine: DFL-CSO and
/// DFL-SSO with echo on, and a DFL-SSO tenant with echo off (auto-feedback
/// on, since nothing travels back to it).
fn register(engine: &ServeEngine) {
    let mut cso = presets::online_advertising(12, 3, 5);
    cso.horizon = 100;
    let mut sso = presets::paper_simulation(10, 0.4, 11);
    sso.horizon = 100;
    let spec = |id: &str, scenario: &ScenarioSpec| {
        TenantSpec::from_scenario(id, scenario).expect("scenario builds")
    };
    engine.create_tenant(spec("cso", &cso)).unwrap();
    engine.create_tenant(spec("sso", &sso)).unwrap();
    engine
        .create_tenant(
            spec("quiet", &sso)
                .with_echo_feedback(false)
                .with_auto_feedback(true),
        )
        .unwrap();
}

fn same_event(a: &FeedbackEvent, b: &FeedbackEvent) -> bool {
    let bits = |o: &[(usize, f64)]| o.iter().map(|&(i, x)| (i, x.to_bits())).collect::<Vec<_>>();
    match (a, b) {
        (FeedbackEvent::Single(a), FeedbackEvent::Single(b)) => {
            a.arm == b.arm
                && a.direct_reward.to_bits() == b.direct_reward.to_bits()
                && a.side_reward.to_bits() == b.side_reward.to_bits()
                && bits(&a.observations) == bits(&b.observations)
        }
        (FeedbackEvent::Combinatorial(a), FeedbackEvent::Combinatorial(b)) => {
            a.strategy == b.strategy
                && a.observation_set == b.observation_set
                && a.direct_reward.to_bits() == b.direct_reward.to_bits()
                && a.side_reward.to_bits() == b.side_reward.to_bits()
                && bits(&a.observations) == bits(&b.observations)
        }
        _ => false,
    }
}

fn same_reply(a: &DecideReply, b: &DecideReply) -> bool {
    a.round == b.round
        && a.decision == b.decision
        && a.reward.to_bits() == b.reward.to_bits()
        && match (&a.feedback, &b.feedback) {
            (Some(a), Some(b)) => same_event(a, b),
            (None, None) => true,
            _ => false,
        }
}

#[test]
fn recycled_reply_slots_serve_what_a_fresh_engine_serves() {
    let served = ServeEngine::with_shards(2);
    register(&served);
    let server = NetServer::bind(Arc::new(served), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback server");
    let mut wire = NetClient::connect(server.local_addr()).expect("connect");

    let reference = ServeEngine::with_shards(1);
    register(&reference);
    let mut client = reference.client();
    let mut out: Vec<Result<DecideReply, ServeError>> = Vec::new();

    for tenant in ["cso", "ghost", "sso", "quiet", "cso"] {
        let answer = wire.decide_many(tenant, WINDOW as u32);
        client.decide_many(tenant, WINDOW, &mut out).unwrap();
        if tenant == "ghost" {
            match answer {
                Err(NetError::Server { code, .. }) => {
                    assert_eq!(code, WireErrorCode::UnknownTenant)
                }
                other => panic!("unknown tenant drew {other:?}"),
            }
            assert!(out.iter().all(Result::is_err));
            continue;
        }
        let replies = answer.unwrap_or_else(|e| panic!("{tenant}: {e}"));
        assert_eq!(replies.len(), WINDOW, "{tenant}");
        for (reply, expected) in replies.iter().zip(&out) {
            let expected = expected.as_ref().expect("reference decision");
            assert!(
                same_reply(reply, expected),
                "{tenant}: {reply:?} != {expected:?}"
            );
            assert_eq!(reply.feedback.is_none(), tenant == "quiet", "{tenant}");
        }
    }
    server.shutdown();
    reference.shutdown();
}
