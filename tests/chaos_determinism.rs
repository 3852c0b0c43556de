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
//! * every soak configuration above and in the crates' tests reproduces
//!   a literal report: ticks, chaos log, schedule and all six recovery
//!   counters;
//! * over real TCP, a client whose connection is killed mid-stream
//!   reconnects, resumes its event stream past the last seq it saw, and
//!   receives the same final result bits as a client that was never
//!   interrupted.

use std::time::Duration;

use aibench::registry::Registry;
use aibench_chaos::{run_soak, ChaosKind, ChaosSchedule, ChaosSite, SoakConfig};
use aibench_parallel::Exec;
use aibench_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg};
use aibench_serve::{run_trace, Quirks, RunRequest, ServeConfig};

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
        aibench_serve::reconnect_and_wait(addr, &request, last_seq).expect("lease redeems");
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

/// The `drop_lease` quirk over real sockets. A client's connection dies
/// mid-stream; the server's next writes fail and it records the loss.
/// With the flag off the reconnecting client redeems its lease and gets
/// the uninterrupted run's bits; with it on the server forgot the lease
/// and refuses the reconnect with "no lease". The killed session trains
/// the CNN (DC-AI-C1), whose epochs are long enough that the server
/// still has progress to write after the client hangs up.
#[test]
fn dropped_lease_quirk_strands_a_reconnecting_tcp_client() {
    let registry = Registry::aibench();
    let request = RunRequest::new("acme", "DC-AI-C1", 7, 3).with_submission(42);
    let expected = run_trace(&registry, ServeConfig::default(), &[(0, request.clone())]);
    for drop_lease in [false, true] {
        let config = ServeConfig {
            quirks: Quirks {
                drop_lease,
                ..Quirks::default()
            },
            ..ServeConfig::default()
        };
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        // Two sessions: the killed one, then one more that lets the
        // server finish whatever became of the first.
        let server = std::thread::spawn(move || {
            let registry = Registry::aibench();
            aibench_serve::serve_sessions(&registry, config, "127.0.0.1:0", 2, move |addr| {
                addr_tx.send(addr).unwrap()
            })
        });
        let addr = addr_rx.recv().expect("server never bound");

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &ClientMsg::Submit(request.clone()).to_bytes()).unwrap();
        let last_seq = loop {
            let payload = read_frame(&mut stream).unwrap().expect("server open");
            if let ServerMsg::Progress(p) = ServerMsg::from_bytes(&payload).unwrap() {
                break p.seq;
            }
        };
        drop(stream);
        // Long enough for the session to finish and every write to the
        // dead connection to fail.
        std::thread::sleep(Duration::from_secs(1));

        let redeemed = aibench_serve::reconnect_and_wait(addr, &request, last_seq);
        aibench_serve::submit_and_wait(addr, RunRequest::new("zeta", PROBE, 8, 1))
            .expect("the closing session round-trips");
        assert_eq!(server.join().unwrap().unwrap(), 2);
        if drop_lease {
            let err = redeemed.expect_err("the quirk must strand the client");
            assert!(err.to_string().contains("no lease"), "{err}");
        } else {
            let (events, done) = redeemed.expect("lease redeems");
            assert!(events.iter().all(|e| e.seq > last_seq));
            assert!(done
                .result
                .deterministic_eq(&expected.sessions[0].done.result));
        }
    }
}

/// One pinned soak report: every field `ChaosReport::deterministic_eq`
/// compares except the result bits, as literals.
struct Pinned {
    ticks: u64,
    /// `retries`, `reconnects`, `redeliveries`, `duplicates_dropped`,
    /// `sheds`, `lease_misses`.
    counters: [u64; 6],
    chaos: &'static str,
    schedule: &'static str,
}

/// Every soak configuration the tests run, plus the one shedding soak
/// (`budget: 1, max_queue: 1`, the only configuration with `sheds > 0`),
/// pinned to literal reports. Comparing two runs with each other cannot
/// notice a change to the recovery protocol that both runs share; these
/// literals do.
#[test]
fn pinned_soak_reports_hold_their_literal_values() {
    let registry = Registry::aibench();
    let pairs = |n: usize| -> Vec<RunRequest> {
        (0..n)
            .map(|i| RunRequest::new(["a", "b"][i % 2], PROBE, i as u64 + 1, 2))
            .collect()
    };
    let pair_of_threes = vec![
        RunRequest::new("acme", PROBE, 1, 3),
        RunRequest::new("zeta", PROBE, 2, 3),
    ];
    let long = vec![RunRequest::new("t", PROBE, 1, 6)];
    let reset = ChaosSchedule::new(3).inject(ChaosSite::ServerToClient, 2, ChaosKind::Reset);
    let dropping = SoakConfig {
        serve: ServeConfig {
            quirks: Quirks {
                drop_lease: true,
                ..Default::default()
            },
            ..ServeConfig::default()
        },
        ..SoakConfig::default()
    };
    let shedding = SoakConfig {
        serve: ServeConfig {
            budget: 1,
            max_queue: 1,
            ..ServeConfig::default()
        },
        ..SoakConfig::default()
    };
    let cases: Vec<(&str, Vec<RunRequest>, ChaosSchedule, SoakConfig)> = vec![
        (
            "calm-3",
            pairs(3),
            ChaosSchedule::empty(),
            SoakConfig::default(),
        ),
        (
            "wire-5",
            pairs(3),
            ChaosSchedule::new(5)
                .inject(ChaosSite::ClientToServer, 1, ChaosKind::BitFlip { bit: 40 })
                .inject(ChaosSite::ServerToClient, 0, ChaosKind::BitFlip { bit: 99 })
                .inject(ChaosSite::ServerToClient, 4, ChaosKind::Reset)
                .inject(ChaosSite::ServerToClient, 6, ChaosKind::Duplicate)
                .inject(ChaosSite::ServerToClient, 8, ChaosKind::Delay { ticks: 2 }),
            SoakConfig::default(),
        ),
        (
            "calm-2",
            pairs(2),
            ChaosSchedule::empty(),
            SoakConfig::default(),
        ),
        (
            "store-server-9",
            pairs(2),
            ChaosSchedule::new(9)
                .inject(ChaosSite::Store, 0, ChaosKind::DiskFull)
                .inject(ChaosSite::Store, 1, ChaosKind::TornWrite { keep: 8 })
                .inject(ChaosSite::Store, 2, ChaosKind::BitRot { bit: 33 })
                .inject(ChaosSite::Server, 1, ChaosKind::TickStall { ticks: 2 })
                .inject(ChaosSite::Server, 5, ChaosKind::SlowWrite { ticks: 1 }),
            SoakConfig::default(),
        ),
        (
            "seeded-17",
            pairs(3),
            ChaosSchedule::seeded(17, 40, 12),
            SoakConfig::default(),
        ),
        (
            "lease-kept",
            long.clone(),
            reset.clone(),
            SoakConfig::default(),
        ),
        ("lease-dropped", long, reset, dropping),
        (
            "calm-4",
            soak_requests(),
            ChaosSchedule::empty(),
            SoakConfig::default(),
        ),
        (
            "seeded-7",
            soak_requests(),
            ChaosSchedule::seeded(7, 60, 14),
            SoakConfig::default(),
        ),
        (
            "seeded-33",
            soak_requests(),
            ChaosSchedule::seeded(33, 60, 14),
            SoakConfig::default(),
        ),
        (
            "seeded-101",
            soak_requests(),
            ChaosSchedule::seeded(101, 60, 14),
            SoakConfig::default(),
        ),
        (
            "park-1",
            soak_requests(),
            ChaosSchedule::new(1).inject(
                ChaosSite::ClientToServer,
                3,
                ChaosKind::Delay { ticks: 1 },
            ),
            SoakConfig::default(),
        ),
        (
            "recovery-21",
            pair_of_threes.clone(),
            ChaosSchedule::new(21)
                .inject(ChaosSite::ClientToServer, 1, ChaosKind::BitFlip { bit: 65 })
                .inject(ChaosSite::ServerToClient, 4, ChaosKind::Reset)
                .inject(ChaosSite::Store, 0, ChaosKind::TornWrite { keep: 8 }),
            SoakConfig::default(),
        ),
        (
            "calm-threes",
            pair_of_threes,
            ChaosSchedule::empty(),
            SoakConfig::default(),
        ),
        (
            "shed-44",
            soak_requests(),
            ChaosSchedule::seeded(44, 60, 10),
            shedding,
        ),
    ];
    let pins: Vec<(&str, Pinned)> = vec![
        (
            "calm-3",
            Pinned {
                ticks: 4,
                counters: [0, 0, 0, 0, 0, 0],
                chaos: "calm",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s2:arrive;t0:s0:admit;",
                "t0:s1:admit;t1:s0:finish:missed-target;",
                "t1:s1:finish:missed-target;t2:s2:admit;",
                "t3:s2:finish:converged",
            ),
            },
        ),
        (
            "wire-5",
            Pinned {
                ticks: 5,
                counters: [4, 0, 4, 1, 0, 0],
                chaos: "c2s@1:bit-flip:40:s0;s2c@0:bit-flip:99:s0;s2c@4:reset:s0;s2c@6:duplicate:s1;s2c@8:delay:2:s0",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s0:admit;t0:s1:admit;",
                "t1:s0:finish:missed-target;t1:s1:finish:converged;",
                "t3:s2:arrive;t3:s2:admit;t4:s2:finish:missed-target",
            ),
            },
        ),
        (
            "calm-2",
            Pinned {
                ticks: 2,
                counters: [0, 0, 0, 0, 0, 0],
                chaos: "calm",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s0:admit;t0:s1:admit;",
                "t1:s0:finish:missed-target;t1:s1:finish:missed-target",
            ),
            },
        ),
        (
            "store-server-9",
            Pinned {
                ticks: 4,
                counters: [0, 0, 0, 0, 0, 0],
                chaos: "store@0:disk-full:s0;store@1:torn-write:8:s1;srv@1:tick-stall:2:s0;store@2:bit-rot:33:s0",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s0:admit;t0:s1:admit;",
                "t3:s0:finish:missed-target;t3:s1:finish:missed-target",
            ),
            },
        ),
        (
            "seeded-17",
            Pinned {
                ticks: 7,
                counters: [2, 2, 11, 0, 0, 0],
                chaos: "s2c@0:truncate:18:s0;s2c@3:bit-flip:138:s0;s2c@10:bit-flip:224:s2;s2c@12:reset:s0;s2c@21:duplicate:s0;s2c@21:delay:3:s0",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s2:arrive;t0:s0:admit;",
                "t0:s1:admit;t1:s0:finish:missed-target;",
                "t1:s1:finish:missed-target;t2:s2:admit;",
                "t3:s2:finish:converged",
            ),
            },
        ),
        (
            "lease-kept",
            Pinned {
                ticks: 4,
                counters: [0, 1, 4, 0, 0, 0],
                chaos: "s2c@2:reset:s0",
                schedule: "t0:s0:arrive;t0:s0:admit;t2:s0:finish:converged",
            },
        ),
        (
            "lease-dropped",
            Pinned {
                ticks: 4,
                counters: [0, 1, 0, 0, 0, 1],
                chaos: "s2c@2:reset:s0",
                schedule: "t0:s0:arrive;t0:s0:admit;t2:s0:finish:converged",
            },
        ),
        (
            "calm-4",
            Pinned {
                ticks: 5,
                counters: [0, 0, 0, 0, 0, 0],
                chaos: "calm",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s2:arrive;t0:s3:arrive;",
                "t0:s3:admit;t0:s0:admit;t1:s3:finish:missed-target;",
                "t2:s2:admit;t2:s0:finish:converged;t3:s1:admit;",
                "t3:s2:finish:converged;t4:s1:finish:missed-target",
            ),
            },
        ),
        (
            "seeded-7",
            Pinned {
                ticks: 5,
                counters: [4, 0, 7, 1, 0, 0],
                chaos: "s2c@0:bit-flip:210:s0;s2c@2:bit-flip:212:s2;s2c@6:duplicate:s0;s2c@18:duplicate:s2;s2c@22:delay:1:s2",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s2:arrive;t0:s3:arrive;",
                "t0:s3:admit;t0:s0:admit;t1:s3:finish:missed-target;",
                "t2:s2:admit;t2:s0:finish:converged;t3:s1:admit;",
                "t3:s2:finish:converged;t4:s1:finish:missed-target",
            ),
            },
        ),
        (
            "seeded-33",
            Pinned {
                ticks: 5,
                counters: [2, 0, 4, 1, 0, 0],
                chaos: "s2c@3:truncate:11:s3;s2c@9:duplicate:s2",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s2:arrive;t0:s3:arrive;",
                "t0:s3:admit;t0:s0:admit;t1:s3:finish:missed-target;",
                "t2:s2:admit;t2:s0:finish:converged;t3:s1:admit;",
                "t3:s2:finish:converged;t4:s1:finish:missed-target",
            ),
            },
        ),
        (
            "seeded-101",
            Pinned {
                ticks: 7,
                counters: [0, 2, 6, 1, 0, 0],
                chaos: "store@0:disk-full:s0;s2c@7:truncate:7:s0;s2c@16:delay:1:s0;s2c@16:reset:s0;s2c@18:duplicate:s1;s2c@26:duplicate:s0",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s2:arrive;t0:s3:arrive;",
                "t0:s3:admit;t0:s0:admit;t1:s3:finish:missed-target;",
                "t2:s2:admit;t2:s0:finish:recovered:1;t3:s1:admit;",
                "t3:s2:finish:converged;t4:s1:finish:missed-target",
            ),
            },
        ),
        (
            "park-1",
            Pinned {
                ticks: 5,
                counters: [0, 0, 0, 0, 0, 0],
                chaos: "c2s@3:delay:1:s0",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s2:arrive;t0:s0:admit;",
                "t0:s1:admit;t1:s3:arrive;t1:s1:park@1;t1:s3:admit;",
                "t2:s0:finish:converged;t2:s3:finish:missed-target;",
                "t3:s2:admit;t3:s1:resume@1;t3:s1:finish:missed-target;",
                "t4:s2:finish:converged",
            ),
            },
        ),
        (
            "recovery-21",
            Pinned {
                ticks: 6,
                counters: [2, 1, 2, 0, 0, 0],
                chaos: "c2s@1:bit-flip:65:s0;store@0:torn-write:8:s0;s2c@4:reset:s0",
                schedule: concat!(
                "t0:s0:arrive;t0:s0:admit;t2:s0:finish:converged;",
                "t3:s1:arrive;t3:s1:admit;t5:s1:finish:missed-target",
            ),
            },
        ),
        (
            "calm-threes",
            Pinned {
                ticks: 3,
                counters: [0, 0, 0, 0, 0, 0],
                chaos: "calm",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:arrive;t0:s0:admit;t0:s1:admit;",
                "t2:s0:finish:converged;t2:s1:finish:missed-target",
            ),
            },
        ),
        (
            "shed-44",
            Pinned {
                ticks: 19,
                counters: [12, 1, 4, 0, 5, 0],
                chaos: "c2s@7:bit-flip:126:s0;s2c@17:reset:s7",
                schedule: concat!(
                "t0:s0:arrive;t0:s1:reject;t0:s2:reject;t0:s3:reject;",
                "t0:s0:admit;t2:s0:finish:converged;t3:s4:arrive;",
                "t3:s5:reject;t3:s6:reject;t3:s4:admit;",
                "t4:s4:finish:missed-target;t8:s7:arrive;t8:s7:admit;",
                "t9:s7:finish:missed-target;t17:s8:arrive;t17:s8:admit;",
                "t18:s8:finish:converged",
            ),
            },
        ),
    ];
    assert_eq!(cases.len(), pins.len());
    for ((name, requests, chaos, config), (pinned_name, pin)) in cases.into_iter().zip(pins) {
        assert_eq!(name, pinned_name, "case and pin tables are out of step");
        let r = run_soak(&registry, &requests, &chaos, config);
        assert_eq!(r.ticks, pin.ticks, "{name}: ticks");
        assert_eq!(
            [
                r.retries,
                r.reconnects,
                r.redeliveries,
                r.duplicates_dropped,
                r.sheds,
                r.lease_misses
            ],
            pin.counters,
            "{name}: retries, reconnects, redeliveries, duplicates_dropped, sheds, lease_misses"
        );
        assert_eq!(r.chaos_signature(), pin.chaos, "{name}: chaos log");
        assert_eq!(r.schedule_signature(), pin.schedule, "{name}: schedule");
    }
}
