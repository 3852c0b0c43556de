//! End-to-end guarantees of the benchmark-serving subsystem
//! (`aibench-serve`):
//!
//! * a fixed request trace replayed through the server produces the
//!   identical admission/preemption schedule and bitwise-identical
//!   per-session results at 1, 4, and 8 threads;
//! * a session preempted by a higher-priority arrival — parked through an
//!   `aibench-ckpt` snapshot and later resumed — finishes bitwise
//!   identical to the same session run without preemption, for both the
//!   CNN (DC-AI-C1) and attention (DC-AI-C14) trainers at 1 and 4
//!   threads;
//! * a tenant with a poisoned fault schedule is quarantined without
//!   perturbing a clean neighbor's bits;
//! * the full client path (TCP submit → progress stream → final record)
//!   delivers the same result bits the core computed, also when the
//!   handshake frame arrives split across two writes;
//! * a client that disconnects mid-progress-stream detaches only its own
//!   delivery: the serve loop survives, the session completes, and a
//!   concurrent client's stream and result bits are unaffected.

use aibench::registry::Registry;
use aibench_fault::{FaultKind, FaultSchedule};
use aibench_parallel::Exec;
use aibench_serve::{run_trace, Event, RunRequest, ServeConfig};

const PROBE: &str = "DC-AI-C15";

/// A mixed trace: two tenants, staggered arrivals, one priority preempt,
/// one poisoned session.
fn mixed_trace() -> Vec<(u64, RunRequest)> {
    vec![
        (0, RunRequest::new("acme", PROBE, 1, 3)),
        (0, RunRequest::new("acme", PROBE, 2, 3)),
        (0, RunRequest::new("zeta", PROBE, 3, 2)),
        (
            1,
            RunRequest::new("zeta", PROBE, 4, 2).with_faults(
                FaultSchedule::new(9).inject(1, FaultKind::LossValue { value: f32::NAN }),
            ),
        ),
        (3, RunRequest::new("ops", PROBE, 5, 2).with_priority(7)),
    ]
}

#[test]
fn fixed_trace_is_bitwise_identical_across_thread_counts() {
    let registry = Registry::aibench();
    let trace = mixed_trace();
    let mut baseline = None;
    for threads in [1usize, 4, 8] {
        let exec = Exec::current().with_threads(threads);
        let report = exec.run(|| run_trace(&registry, ServeConfig::default(), &trace));
        match &baseline {
            None => baseline = Some(report),
            Some(expect) => {
                assert_eq!(
                    expect.schedule_signature(),
                    report.schedule_signature(),
                    "{threads}-thread schedule diverged"
                );
                assert!(
                    expect.deterministic_eq(&report),
                    "{threads}-thread serve replay diverged from serial"
                );
            }
        }
    }
}

/// Runs `code` solo, then inside a trace where a high-priority arrival
/// preempts it mid-run, and asserts the preempted session's final result
/// is bitwise identical to the uninterrupted one.
fn assert_preemption_is_bitwise_neutral(code: &str, max_epochs: usize) {
    let registry = Registry::aibench();
    let solo = run_trace(
        &registry,
        ServeConfig {
            budget: 1,
            ..ServeConfig::default()
        },
        &[(0, RunRequest::new("low", code, 1, max_epochs))],
    );
    let preempted = run_trace(
        &registry,
        ServeConfig {
            budget: 1,
            ..ServeConfig::default()
        },
        &[
            (0, RunRequest::new("low", code, 1, max_epochs)),
            (1, RunRequest::new("high", PROBE, 2, 1).with_priority(9)),
        ],
    );
    let sig = preempted.schedule_signature();
    assert!(sig.contains("s0:park@"), "no preemption happened: {sig}");
    assert!(sig.contains("s0:resume@"), "victim never resumed: {sig}");
    assert!(
        preempted.sessions[0]
            .done
            .result
            .deterministic_eq(&solo.sessions[0].done.result),
        "{code}: preempted-then-resumed differs from uninterrupted \
         ({} epochs to {:.9} vs {} epochs to {:.9})",
        preempted.sessions[0].done.result.epochs_run,
        preempted.sessions[0].done.result.final_quality,
        solo.sessions[0].done.result.epochs_run,
        solo.sessions[0].done.result.final_quality,
    );
}

#[test]
fn preempted_cnn_session_is_bitwise_identical_to_uninterrupted() {
    for threads in [1usize, 4] {
        let exec = Exec::current().with_threads(threads);
        exec.run(|| assert_preemption_is_bitwise_neutral("DC-AI-C1", 3));
    }
}

#[test]
fn preempted_attention_session_is_bitwise_identical_to_uninterrupted() {
    for threads in [1usize, 4] {
        let exec = Exec::current().with_threads(threads);
        exec.run(|| assert_preemption_is_bitwise_neutral("DC-AI-C14", 4));
    }
}

#[test]
fn poisoned_tenant_is_quarantined_without_perturbing_neighbors() {
    let registry = Registry::aibench();
    let poisoned =
        FaultSchedule::new(5).inject_persistent(1, FaultKind::LossValue { value: f32::NAN });
    let both = run_trace(
        &registry,
        ServeConfig::default(),
        &[
            (
                0,
                RunRequest::new("chaos", PROBE, 1, 6).with_faults(poisoned),
            ),
            (0, RunRequest::new("calm", PROBE, 2, 3)),
        ],
    );
    let solo = run_trace(
        &registry,
        ServeConfig::default(),
        &[(0, RunRequest::new("calm", PROBE, 2, 3))],
    );
    assert!(
        both.sessions[0]
            .done
            .outcome_signature
            .starts_with("quarantined"),
        "poisoned session: {}",
        both.sessions[0].done.outcome_signature
    );
    assert_eq!(both.sessions[1].done.fault_signature, "clean");
    assert!(
        both.sessions[1]
            .done
            .result
            .deterministic_eq(&solo.sessions[0].done.result),
        "clean neighbor's bits changed when served next to a poisoned run"
    );
}

#[test]
fn tcp_round_trip_delivers_the_core_result() {
    let registry = Registry::aibench();
    // What the core would compute for this request alone.
    let expected = run_trace(
        &registry,
        ServeConfig::default(),
        &[(0, RunRequest::new("acme", PROBE, 7, 2))],
    );

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let registry = Registry::aibench();
        aibench_serve::tcp::serve_sessions(
            &registry,
            ServeConfig::default(),
            "127.0.0.1:0",
            1,
            move |addr| addr_tx.send(addr).unwrap(),
        )
    });
    let addr = addr_rx.recv().expect("server never bound");
    let (events, done) =
        aibench_serve::tcp::submit_and_wait(addr, RunRequest::new("acme", PROBE, 7, 2))
            .expect("client round trip");
    assert_eq!(server.join().unwrap().unwrap(), 1);

    assert!(
        done.result
            .deterministic_eq(&expected.sessions[0].done.result),
        "result crossed TCP with different bits"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.event, Event::Admitted { .. })));
    let epochs: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::Epoch { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    assert_eq!(epochs, vec![1, 2], "progress stream must cover every epoch");
}

/// Regression: a client disconnecting mid-progress-stream must detach
/// only its own delivery. The serve loop keeps running, the abandoned
/// session still completes, and a concurrent client's stream and final
/// bits are untouched.
#[test]
fn dead_client_mid_stream_does_not_abort_the_serve_loop() {
    use aibench_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg};

    let registry = Registry::aibench();
    let survivor_request = RunRequest::new("zeta", PROBE, 7, 3);
    let expected = run_trace(
        &registry,
        ServeConfig::default(),
        &[(0, survivor_request.clone())],
    );

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let registry = Registry::aibench();
        aibench_serve::tcp::serve_sessions(
            &registry,
            ServeConfig::default(),
            "127.0.0.1:0",
            2,
            move |addr| addr_tx.send(addr).unwrap(),
        )
    });
    let addr = addr_rx.recv().expect("server never bound");

    // The doomed client: submit a longer session, read until the stream
    // is demonstrably live, then drop the socket mid-stream.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let doomed = RunRequest::new("acme", PROBE, 5, 4);
        write_frame(&mut stream, &ClientMsg::Submit(doomed).to_bytes()).unwrap();
        loop {
            let payload = read_frame(&mut stream)
                .expect("stream readable")
                .expect("server open");
            if matches!(
                ServerMsg::from_bytes(&payload).expect("valid frame"),
                ServerMsg::Progress(_)
            ) {
                break;
            }
        }
    }

    // The survivor: a full round trip while the doomed session is still
    // running (or finishing) next to it.
    let (events, done) =
        aibench_serve::tcp::submit_and_wait(addr, survivor_request).expect("survivor round trip");
    // Both sessions count as served: the abandoned one completed too.
    assert_eq!(server.join().unwrap().unwrap(), 2);

    assert!(
        done.result
            .deterministic_eq(&expected.sessions[0].done.result),
        "the dead neighbor changed the survivor's bits"
    );
    let epochs: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::Epoch { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    assert_eq!(
        epochs,
        vec![1, 2, 3],
        "the survivor's stream must be complete and in order"
    );
}

/// A handshake frame that reaches the server in two halves, 350 ms apart,
/// is still one submission: the server waits for the rest of a frame
/// while bytes keep coming, and gives up only after 5 s of silence.
#[test]
fn split_handshake_frame_is_still_accepted() {
    use aibench_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg};
    use std::io::Write;

    let request = RunRequest::new("acme", PROBE, 7, 2);
    let expected = run_trace(
        &Registry::aibench(),
        ServeConfig::default(),
        &[(0, request.clone())],
    );
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let registry = Registry::aibench();
        aibench_serve::tcp::serve_sessions(
            &registry,
            ServeConfig::default(),
            "127.0.0.1:0",
            1,
            move |addr| addr_tx.send(addr).unwrap(),
        )
    });
    let addr = addr_rx.recv().expect("server never bound");

    let mut frame = Vec::new();
    write_frame(&mut frame, &ClientMsg::Submit(request).to_bytes()).unwrap();
    let (head, tail) = frame.split_at(frame.len() / 2);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(head).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(350));
    stream.write_all(tail).unwrap();

    let done = loop {
        let payload = read_frame(&mut stream)
            .expect("stream readable")
            .expect("server open");
        match ServerMsg::from_bytes(&payload).expect("valid frame") {
            ServerMsg::Done(done) => break done,
            ServerMsg::Rejected { reason, .. } => panic!("split frame rejected: {reason}"),
            _ => {}
        }
    };
    assert_eq!(server.join().unwrap().unwrap(), 1);
    assert!(done
        .result
        .deterministic_eq(&expected.sessions[0].done.result));
}
