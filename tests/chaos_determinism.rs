//! End-to-end guarantees of the chaos subsystem (`aibench-chaos`):
//!
//! * a fixed chaos seed replays the identical chaos-event log and
//!   admission schedule at 1, 4, and 8 threads, with bitwise-identical
//!   per-session results;
//! * under any seeded chaos schedule, every accepted session's final
//!   `RunResult` is bitwise identical to its chaos-free counterpart —
//!   also when a late elevated-priority arrival parks a running session
//!   mid-soak;
//! * the empty `ChaosSchedule` is a true no-op: a calm soak is
//!   indistinguishable from a plain `run_trace` replay (schedule, ticks,
//!   and result bits);
//! * over real TCP, a client whose connection is killed mid-stream
//!   reconnects, resumes its event stream past the last seq it saw, and
//!   receives the same final result bits as a client that was never
//!   interrupted.

use std::time::Duration;

use aibench::registry::Registry;
use aibench_chaos::{run_soak, ChaosKind, ChaosSchedule, ChaosSite, SoakConfig};
use aibench_parallel::Exec;
use aibench_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg};
use aibench_serve::{run_trace, RunRequest, ServeConfig};

const PROBE: &str = "DC-AI-C15";

fn soak_requests() -> Vec<RunRequest> {
    vec![
        RunRequest::new("acme", PROBE, 1, 3),
        RunRequest::new("acme", PROBE, 2, 2),
        RunRequest::new("zeta", PROBE, 3, 3),
        RunRequest::new("ops", PROBE, 4, 2).with_priority(3),
    ]
}

#[test]
fn fixed_chaos_seed_replays_identically_across_thread_counts() {
    let registry = Registry::aibench();
    let requests = soak_requests();
    let chaos = ChaosSchedule::seeded(33, 60, 14);
    let mut baseline = None;
    for threads in [1usize, 4, 8] {
        let exec = Exec::current().with_threads(threads);
        let report = exec.run(|| run_soak(&registry, &requests, &chaos, SoakConfig::default()));
        assert!(
            !report.chaos_log.is_empty(),
            "the seeded schedule must actually fire"
        );
        match &baseline {
            None => baseline = Some(report),
            Some(expect) => {
                assert_eq!(
                    expect.chaos_signature(),
                    report.chaos_signature(),
                    "{threads}-thread chaos-event log diverged"
                );
                assert_eq!(
                    expect.schedule_signature(),
                    report.schedule_signature(),
                    "{threads}-thread schedule diverged"
                );
                assert!(
                    expect.deterministic_eq(&report),
                    "{threads}-thread chaos soak diverged from serial"
                );
            }
        }
    }
}

#[test]
fn chaos_never_changes_result_bits() {
    let registry = Registry::aibench();
    let requests = soak_requests();
    let calm = run_soak(
        &registry,
        &requests,
        &ChaosSchedule::empty(),
        SoakConfig::default(),
    );
    let mut schedules: Vec<(u64, ChaosSchedule, bool)> = [7u64, 33, 101]
        .map(|seed| (seed, ChaosSchedule::seeded(seed, 60, 14), false))
        .into();
    // Delaying the priority-3 submit (client 3's, the fourth frame sent)
    // by a tick lets two sessions start first: it arrives to a full
    // budget and must park one mid-soak.
    schedules.push((
        1,
        ChaosSchedule::new(1).inject(ChaosSite::ClientToServer, 3, ChaosKind::Delay { ticks: 1 }),
        true,
    ));
    for (seed, chaos, must_park) in schedules {
        let report = run_soak(&registry, &requests, &chaos, SoakConfig::default());
        if must_park {
            let sig = report.schedule_signature();
            assert!(sig.contains(":park@"), "seed {seed}: nothing parked: {sig}");
        }
        let results = report.results();
        for (key, calm_done) in calm.results() {
            let done = results
                .get(&key)
                .unwrap_or_else(|| panic!("seed {seed}: submission {key:?} lost under chaos"));
            assert!(
                done.result.deterministic_eq(&calm_done.result),
                "seed {seed}: result bits changed under chaos for {key:?} \
                 (chaos log: {})",
                report.chaos_signature()
            );
            // Outcome signatures may legitimately differ (store chaos
            // surfaces CheckpointIo recoveries); the bits may not.
        }
    }
}

#[test]
fn empty_schedule_soak_is_identical_to_a_plain_trace_replay() {
    let registry = Registry::aibench();
    let requests = soak_requests();
    let soak = run_soak(
        &registry,
        &requests,
        &ChaosSchedule::empty(),
        SoakConfig::default(),
    );
    assert_eq!(soak.chaos_signature(), "calm");
    assert_eq!(
        soak.retries + soak.reconnects + soak.redeliveries + soak.duplicates_dropped,
        0,
        "a calm soak must generate no recovery traffic"
    );
    // The identical requests as a tick-0 trace through the plain core.
    let trace: Vec<(u64, RunRequest)> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (0u64, r.clone().with_submission(i as u64 + 1)))
        .collect();
    let plain = run_trace(&registry, ServeConfig::default(), &trace);
    assert_eq!(soak.schedule_signature(), plain.schedule_signature());
    assert_eq!(soak.ticks, plain.ticks);
    for (outcome, session) in soak.outcomes.iter().zip(&plain.sessions) {
        let done = outcome.done.as_ref().expect("calm soak completes");
        assert_eq!(done.session, session.done.session);
        assert_eq!(done.outcome_signature, session.done.outcome_signature);
        assert_eq!(done.queue_wait_ticks, session.done.queue_wait_ticks);
        assert!(done.result.deterministic_eq(&session.done.result));
    }
}

#[test]
fn killed_tcp_connection_reconnects_and_resumes_the_same_bits() {
    let registry = Registry::aibench();
    let request = RunRequest::new("acme", PROBE, 7, 4).with_submission(42);
    // What an uninterrupted client would receive.
    let expected = run_trace(&registry, ServeConfig::default(), &[(0, request.clone())]);

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let registry = Registry::aibench();
        aibench_serve::serve_sessions_with(
            &registry,
            ServeConfig::default(),
            "127.0.0.1:0",
            1,
            Duration::from_secs(10),
            move |addr| addr_tx.send(addr).unwrap(),
        )
    });
    let addr = addr_rx.recv().expect("server never bound");

    // Submit, read until the first progress event, then kill the
    // connection mid-stream.
    let last_seq;
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &ClientMsg::Submit(request.clone()).to_bytes()).unwrap();
        loop {
            let payload = read_frame(&mut stream)
                .expect("stream readable")
                .expect("server open");
            match ServerMsg::from_bytes(&payload).expect("valid frame") {
                ServerMsg::Progress(p) => {
                    last_seq = p.seq;
                    break;
                }
                ServerMsg::Accepted { .. } => {}
                other => panic!("unexpected message before progress: {other:?}"),
            }
        }
        // Dropping the stream here closes the socket mid-progress-stream.
    }
    assert!(last_seq > 0, "must have observed at least one event");

    // Redeem the lease: the replayed stream resumes past `last_seq` and
    // ends in the same final record an uninterrupted client gets.
    let (events, done) =
        aibench_serve::reconnect_and_wait(addr, "acme", 42, last_seq).expect("lease redeems");
    assert_eq!(server.join().unwrap().unwrap(), 1);
    assert!(
        events.iter().all(|e| e.seq > last_seq),
        "replay must not repeat events the client already saw"
    );
    assert!(
        !events.is_empty(),
        "the resumed stream must replay the missed progress"
    );
    assert!(
        done.result
            .deterministic_eq(&expected.sessions[0].done.result),
        "reconnected client's final bits differ from the uninterrupted run"
    );
    assert_eq!(
        done.outcome_signature,
        expected.sessions[0].done.outcome_signature
    );
}
