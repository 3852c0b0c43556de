//! The TCP transport: a single-threaded, nonblocking listener driving the
//! deterministic [`ServerCore`] — accept submissions, step the scheduler,
//! stream progress and final results back to each client.
//!
//! The transport is deliberately thin: every scheduling decision lives in
//! the core, and the in-process load harness drives the identical core, so
//! TCP adds delivery without adding nondeterminism to the schedule.
//!
//! # Leases and reconnect
//!
//! The server runs the shared [`LeaseTable`] and the client helpers the
//! shared [`Client`] machine, so a dead socket only detaches delivery.
//! This module adds what sockets need: the handshake read, refusing new
//! work once `expected_sessions` were accepted, and the linger window.

use std::collections::BTreeMap;
use std::io::{Error, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use aibench::registry::Registry;

use crate::client::{Action, Client};
use crate::lease::LeaseTable;
use crate::server::{ServeConfig, ServerCore};
use crate::wire::{
    read_frame, write_frame, ClientMsg, DoneMsg, ProgressEvent, RunRequest, ServerMsg,
};

/// Serves until `expected_sessions` submissions have been accepted and
/// every accepted session has finished, then returns the number served.
/// Binds to `addr` (use port 0 to let the OS pick; the bound address is
/// reported through `on_bound`).
pub fn serve_sessions(
    registry: &Registry,
    config: ServeConfig,
    addr: &str,
    expected_sessions: usize,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<usize> {
    serve_sessions_with(
        registry,
        config,
        addr,
        expected_sessions,
        Duration::ZERO,
        on_bound,
    )
}

/// [`serve_sessions`] with a lease-redemption window: after the last
/// session finishes, the listener stays up for `linger` so disconnected
/// clients can reconnect and collect their buffered results. Returns as
/// soon as every redeemable lease is delivered.
pub fn serve_sessions_with(
    registry: &Registry,
    config: ServeConfig,
    addr: &str,
    expected_sessions: usize,
    linger: Duration,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<usize> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    on_bound(listener.local_addr()?);

    let mut core = ServerCore::new(registry, config);
    let mut leases = LeaseTable::new(config.quirks.drop_lease);
    // Open connections by handle; a lease names its client by handle.
    let mut conns: BTreeMap<u64, TcpStream> = BTreeMap::new();
    let mut next_conn = 0u64;
    let mut accepted = 0usize;
    let mut served = 0usize;
    let mut linger_deadline: Option<Instant> = None;

    loop {
        // Accept any waiting connections: new submissions while capacity
        // remains, reconnects at any time.
        loop {
            let mut stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            };
            stream.set_nodelay(true).ok();
            // A stalled or dead handshake drops this connection only —
            // never the serve loop. The timeout applies per read, so a
            // slow client is cut off only after 5 s of true silence.
            let handshake = stream
                .set_nonblocking(false)
                .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(5))))
                .and_then(|()| read_frame(&mut stream));
            let Ok(Some(payload)) = handshake else {
                continue;
            };
            let msg = match ClientMsg::from_bytes(&payload) {
                Ok(ClientMsg::Submit(request))
                    if accepted >= expected_sessions
                        && core
                            .lookup_submission(&request.tenant, request.submission)
                            .is_none() =>
                {
                    // Past capacity and not a retransmit.
                    Err("server is draining".to_string())
                }
                other => other.map_err(|e| format!("malformed submission: {e}")),
            };
            let msg = match msg {
                Ok(msg) => msg,
                Err(reason) => {
                    let refusal = ServerMsg::Rejected {
                        reason,
                        retryable: false,
                    };
                    let _ = write_frame(&mut stream, &refusal.to_bytes());
                    continue;
                }
            };
            let conn = next_conn;
            next_conn += 1;
            conns.insert(conn, stream);
            match leases.handle(&mut core, conn, msg) {
                Ok(true) => accepted += 1,
                // A permanently rejected submission still counts toward
                // the expected total, or the server would wait forever
                // for a session that will never exist. Shed (retryable)
                // submissions come back.
                Err(rejection) if !rejection.retryable => {
                    accepted += 1;
                    served += 1;
                }
                _ => {}
            }
            deliver(&mut conns, &mut leases);
            // Close what no lease sends to: refused submissions and
            // connections a reconnect replaced.
            conns.retain(|&c, _| leases.is_bound(c));
        }

        if served >= expected_sessions {
            // Everything ran; stay up only while an undelivered result
            // can still be redeemed within the linger window.
            let deadline = *linger_deadline.get_or_insert_with(|| Instant::now() + linger);
            if !leases.outstanding() || Instant::now() >= deadline {
                return Ok(served);
            }
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        if core.is_idle() {
            // Nothing to run yet; don't spin the accept loop hot.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        core.step();
        for event in core.drain_events() {
            leases.publish(event.session, ServerMsg::Progress(event));
        }
        for done in core.drain_finished() {
            served += 1;
            leases.publish(done.session, ServerMsg::Done(done));
        }
        deliver(&mut conns, &mut leases);
    }
}

/// Writes every message the lease table queued. A failed write closes
/// the connection and tells the lease table; the session and its lease
/// carry on.
fn deliver(conns: &mut BTreeMap<u64, TcpStream>, leases: &mut LeaseTable<u64>) {
    for (conn, msg) in leases.take_sends() {
        let Some(stream) = conns.get_mut(&conn) else {
            continue;
        };
        if write_frame(stream, &msg.to_bytes()).is_err() {
            conns.remove(&conn);
            leases.disconnected(conn);
        } else if let ServerMsg::Done(done) = &msg {
            leases.delivered(done.session);
        }
    }
}

/// Client helper: submits `request` to `addr`, then blocks collecting
/// events until the final record arrives. Returns the streamed progress
/// events and the final [`DoneMsg`].
pub fn submit_and_wait(
    addr: std::net::SocketAddr,
    request: RunRequest,
) -> std::io::Result<(Vec<ProgressEvent>, DoneMsg)> {
    run_client(addr, Client::new(request))
}

/// Client helper: redeems the lease of the earlier, accepted `request`
/// after a dropped connection, resuming the event stream past
/// `after_seq`.
pub fn reconnect_and_wait(
    addr: std::net::SocketAddr,
    request: &RunRequest,
    after_seq: u64,
) -> std::io::Result<(Vec<ProgressEvent>, DoneMsg)> {
    run_client(addr, Client::resuming(request.clone(), after_seq))
}

/// Opens one connection for `client`'s first action and feeds it the
/// server's stream until the final record. A rejection is an
/// `InvalidInput` error carrying its reason.
fn run_client(
    addr: std::net::SocketAddr,
    mut client: Client,
) -> std::io::Result<(Vec<ProgressEvent>, DoneMsg)> {
    let Some(Action::Connect(hello)) = client.poll(0) else {
        unreachable!("a fresh or resuming client opens a connection first");
    };
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    write_frame(&mut stream, &hello.to_bytes())?;
    loop {
        let payload = read_frame(&mut stream)?.ok_or_else(|| {
            Error::new(
                ErrorKind::UnexpectedEof,
                "server closed before the final record",
            )
        })?;
        let msg = ServerMsg::from_bytes(&payload)
            .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        if let ServerMsg::Rejected { reason, .. } = msg {
            return Err(Error::new(ErrorKind::InvalidInput, reason));
        }
        client.receive(msg, 0);
        if let Some(done) = client.done.take() {
            return Ok((client.events, done));
        }
    }
}
