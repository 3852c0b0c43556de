//! Adversarial-wire property tests (`aibench-serve`): no sequence of
//! hostile bytes may ever *misparse* — corrupt input is rejected (or, for
//! duplicated/replayed frames, deduplicated), never silently decoded into
//! a different message.
//!
//! * a single flipped bit anywhere in a frame payload is caught by the
//!   container CRC and rejected;
//! * any strict prefix of a payload fails to decode;
//! * a byte stream cut at any offset either yields the exact original
//!   frames, a clean end-of-stream, or an error — never a short payload;
//! * duplicated and reordered progress frames are deduplicated by seq in
//!   the client protocol machine ([`Client::receive`]), which still
//!   delivers the final record intact;
//! * a length prefix of exactly `MAX_FRAME` is accepted; `MAX_FRAME + 1`
//!   is rejected before any payload byte is read.

use aibench::runner::RunResult;
use aibench_serve::client::Client;
use aibench_serve::wire::{read_frame, write_frame, MAX_FRAME};
use aibench_serve::{ClientMsg, DoneMsg, Event, ProgressEvent, RunRequest, ServerMsg};
use proptest::prelude::*;

/// A deterministic palette of client messages for sampling.
fn client_msgs() -> Vec<ClientMsg> {
    vec![
        ClientMsg::Submit(RunRequest::new("acme", "DC-AI-C15", 7, 4).with_submission(42)),
        ClientMsg::Submit(
            RunRequest::new("zeta", "DC-AI-C16", 11, 2)
                .with_priority(3)
                .with_submission(9),
        ),
        ClientMsg::Reconnect {
            tenant: "acme".to_string(),
            submission: 42,
            after_seq: 17,
        },
    ]
}

/// A deterministic palette of server messages for sampling.
fn server_msgs() -> Vec<ServerMsg> {
    vec![
        ServerMsg::Accepted { session: 3 },
        ServerMsg::Rejected {
            reason: "overloaded: 4 session(s) queued (bound 4)".to_string(),
            retryable: true,
        },
        ServerMsg::Progress(progress(3, 5)),
        ServerMsg::Done(done_msg(3)),
    ]
}

fn progress(session: u64, seq: u64) -> ProgressEvent {
    ProgressEvent {
        session,
        seq,
        tick: seq + 10,
        event: Event::Epoch {
            epoch: seq as usize,
            loss: 0.5,
            quality: Some(0.25),
        },
    }
}

fn done_msg(session: u64) -> DoneMsg {
    DoneMsg {
        session,
        outcome_signature: "converged".to_string(),
        fault_signature: "clean".to_string(),
        result: RunResult {
            code: "DC-AI-C15".to_string(),
            seed: 7,
            epochs_run: 4,
            epochs_to_target: Some(3),
            quality_trace: vec![(1, 0.1), (2, 0.2), (3, 0.4)],
            loss_trace: vec![0.9, 0.7, 0.5, 0.4],
            final_quality: 0.4,
            wall_seconds: 0.01,
            resumed_from: None,
        },
        queue_wait_ticks: 2,
        epochs_executed: 4,
        recoveries: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // One flipped bit anywhere in a client payload: the CRC refuses it.
    #[test]
    fn bit_flipped_client_frames_are_rejected(
        msg in prop::sample::select(client_msgs()),
        raw_bit in 0u64..1_000_000,
    ) {
        let mut bytes = msg.to_bytes();
        let bit = (raw_bit % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            ClientMsg::from_bytes(&bytes).is_err(),
            "flipping bit {bit} was not detected"
        );
    }

    // One flipped bit anywhere in a server payload: the CRC refuses it.
    #[test]
    fn bit_flipped_server_frames_are_rejected(
        msg in prop::sample::select(server_msgs()),
        raw_bit in 0u64..1_000_000,
    ) {
        let mut bytes = msg.to_bytes();
        let bit = (raw_bit % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            ServerMsg::from_bytes(&bytes).is_err(),
            "flipping bit {bit} was not detected"
        );
    }

    // Any strict prefix of a payload fails to decode — truncation can
    // never produce a different valid message.
    #[test]
    fn truncated_payloads_are_rejected(
        msg in prop::sample::select(server_msgs()),
        raw_keep in 0u64..1_000_000,
    ) {
        let bytes = msg.to_bytes();
        let keep = (raw_keep % bytes.len() as u64) as usize;
        prop_assert!(
            ServerMsg::from_bytes(&bytes[..keep]).is_err(),
            "a {keep}-byte prefix of a {}-byte payload decoded",
            bytes.len()
        );
    }

    // A framed byte stream cut at any offset: every frame read out before
    // the cut is byte-identical to what was written, and the cut itself
    // surfaces as a clean end-of-stream or an error — never a short
    // payload handed to the decoder.
    #[test]
    fn a_stream_cut_anywhere_never_misparses(
        first in prop::sample::select(server_msgs()),
        second in prop::sample::select(server_msgs()),
        raw_cut in 0u64..1_000_000,
    ) {
        let payloads = [first.to_bytes(), second.to_bytes()];
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let cut = (raw_cut % (stream.len() as u64 + 1)) as usize;
        let mut r = &stream[..cut];
        let mut delivered = 0usize;
        while let Ok(Some(frame)) = read_frame(&mut r) {
            prop_assert!(delivered < payloads.len());
            prop_assert_eq!(
                &frame,
                &payloads[delivered],
                "frame {} was altered by the cut at {}",
                delivered,
                cut
            );
            delivered += 1;
        }
    }

    // Duplicated and reordered progress frames are deduplicated by seq:
    // the client machine yields a strictly increasing, repeat-free
    // event stream and the intact final record.
    #[test]
    fn duplicated_and_reordered_progress_is_deduplicated(
        dups in prop::collection::vec(0u64..6, 0..8),
        swaps in prop::collection::vec(0u64..1_000, 0..6),
    ) {
        const SEQS: u64 = 6;
        // Start from the in-order stream 1..=SEQS, then inject duplicates
        // and apply adversarial swaps.
        let mut order: Vec<u64> = (1..=SEQS).collect();
        for &d in &dups {
            let dup = order[d as usize % order.len()];
            order.push(dup);
        }
        for &s in &swaps {
            let a = (s % order.len() as u64) as usize;
            let b = ((s / 7) % order.len() as u64) as usize;
            order.swap(a, b);
        }
        let mut stream = Vec::new();
        write_frame(&mut stream, &ServerMsg::Accepted { session: 3 }.to_bytes()).unwrap();
        for &seq in &order {
            write_frame(
                &mut stream,
                &ServerMsg::Progress(progress(3, seq)).to_bytes(),
            )
            .unwrap();
        }
        write_frame(&mut stream, &ServerMsg::Done(done_msg(3)).to_bytes()).unwrap();

        let mut client = Client::new(RunRequest::new("acme", "DC-AI-C15", 7, 4));
        let mut r = &stream[..];
        while let Some(frame) = read_frame(&mut r).unwrap() {
            client.receive(ServerMsg::from_bytes(&frame).unwrap(), 0);
        }
        let done = client.done.expect("the final record arrives");
        let seqs: Vec<u64> = client.events.iter().map(|e| e.seq).collect();
        prop_assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "delivered seqs not strictly increasing: {:?} (order {:?})",
            seqs,
            order
        );
        // The first frame of the stream always survives dedupe.
        prop_assert_eq!(seqs.first().copied(), Some(order[0]));
        prop_assert_eq!(done.session, 3);
        prop_assert_eq!(done.outcome_signature.as_str(), "converged");
    }
}

/// The boundary: a length prefix of exactly `MAX_FRAME` is a legal frame;
/// one byte more is rejected before any payload is read.
#[test]
fn max_frame_is_accepted_and_one_more_byte_is_rejected() {
    let mut stream = Vec::with_capacity(MAX_FRAME as usize + 4);
    stream.extend_from_slice(&MAX_FRAME.to_le_bytes());
    stream.resize(MAX_FRAME as usize + 4, 0xA5);
    let frame = read_frame(&mut &stream[..])
        .expect("MAX_FRAME is legal")
        .expect("frame present");
    assert_eq!(frame.len(), MAX_FRAME as usize);
    assert!(frame.iter().all(|&b| b == 0xA5));

    // MAX_FRAME + 1: rejected from the prefix alone — the 4-byte header
    // is the whole stream, so reaching for the payload would be
    // UnexpectedEof, and InvalidData proves the length check fired first.
    let hostile = (MAX_FRAME + 1).to_le_bytes();
    let err = read_frame(&mut &hostile[..]).expect_err("oversized frame");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // An interrupted write that got only the MAX_FRAME prefix out: the
    // reader reports the truncation rather than inventing a frame.
    let prefix_only = MAX_FRAME.to_le_bytes();
    let err = read_frame(&mut &prefix_only[..]).expect_err("truncated frame");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}
