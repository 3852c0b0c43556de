//! Session leases: the server half of the recovery protocol, shared by
//! every transport.
//!
//! A session's client connection is a *lease*, not a lifeline. Every
//! message streamed to a session's client is also buffered in the
//! session's history, so when a connection dies only delivery stops: the
//! session keeps running and its final record is buffered. A client that
//! retransmits its idempotent submit, or reconnects with
//! [`ClientMsg::Reconnect`], redeems the lease: it is acknowledged with
//! `Accepted` and sent every buffered progress event past its last-seen
//! seq, then the final record if the session already finished.
//!
//! [`LeaseTable`] never touches a socket. A transport names each
//! connection with a handle `C`, feeds the table decoded client messages,
//! the core's progress and final records, and connection losses, and
//! writes out whatever [`LeaseTable::take_sends`] returns.

use std::collections::BTreeMap;

use crate::server::{Rejection, ServerCore};
use crate::wire::{ClientMsg, ServerMsg};

/// One accepted session's lease.
struct Lease<C> {
    /// The connection the session's messages go to. A disconnect leaves
    /// the binding in place; only a redeeming connection replaces it.
    conn: Option<C>,
    /// Every message sent (or that should have been sent), in order:
    /// progress events, then the final record.
    history: Vec<ServerMsg>,
    /// Whether the final record reached a client.
    delivered: bool,
    /// Whether a client can come back for it (a non-zero idempotency key).
    redeemable: bool,
    /// Destroyed by the `drop_lease` quirk: nothing is buffered any more
    /// and no client can redeem it.
    dropped: bool,
}

/// Every session's lease, keyed by session id, over connection handles `C`.
pub struct LeaseTable<C> {
    leases: BTreeMap<u64, Lease<C>>,
    drop_lease: bool,
    sends: Vec<(C, ServerMsg)>,
    /// Buffered messages replayed to retransmitting or reconnecting
    /// clients.
    pub redeliveries: u64,
    /// Submits and reconnects that found no lease to redeem.
    pub lease_misses: u64,
}

impl<C: Copy + PartialEq> LeaseTable<C> {
    /// An empty table; `drop_lease` is the [`Quirks`](crate::Quirks) flag
    /// that makes a disconnect destroy the lease.
    pub fn new(drop_lease: bool) -> Self {
        LeaseTable {
            leases: BTreeMap::new(),
            drop_lease,
            sends: Vec::new(),
            redeliveries: 0,
            lease_misses: 0,
        }
    }

    /// Handles one decoded client message arriving on `conn`, queueing the
    /// replies. Returns `Ok(true)` when a submit opened a new lease,
    /// `Ok(false)` when the message resolved to an existing session
    /// (redeemed or refused for want of a lease), and the core's rejection
    /// when it refused the submit.
    pub fn handle(
        &mut self,
        core: &mut ServerCore<'_>,
        conn: C,
        msg: ClientMsg,
    ) -> Result<bool, Rejection> {
        let mut new = false;
        let (session, after_seq, miss) = match msg {
            ClientMsg::Submit(request) => {
                let redeemable = request.submission != 0;
                let session = core.submit(request).inspect_err(|rejection| {
                    self.reject(conn, rejection.reason.clone(), rejection.retryable);
                })?;
                self.leases.entry(session).or_insert_with(|| {
                    new = true;
                    Lease {
                        conn: None,
                        history: Vec::new(),
                        delivered: false,
                        redeemable,
                        dropped: false,
                    }
                });
                (Some(session), 0, format!("no lease for session {session}"))
            }
            ClientMsg::Reconnect {
                tenant,
                submission,
                after_seq,
            } => (
                core.lookup_submission(&tenant, submission),
                after_seq,
                format!("no lease for tenant `{tenant}` submission {submission}"),
            ),
        };
        let live = session.and_then(|s| Some((s, self.leases.get_mut(&s)?)));
        match live.filter(|(_, lease)| !lease.dropped) {
            // Bind, acknowledge, and replay the history past `after_seq`
            // (the final record always replays).
            Some((session, lease)) => {
                lease.conn = Some(conn);
                self.sends.push((conn, ServerMsg::Accepted { session }));
                let before = self.sends.len();
                self.sends.extend(
                    lease
                        .history
                        .iter()
                        .filter(|m| match m {
                            ServerMsg::Progress(p) => p.seq > after_seq,
                            _ => true,
                        })
                        .map(|m| (conn, m.clone())),
                );
                self.redeliveries += (self.sends.len() - before) as u64;
            }
            None => {
                self.lease_misses += 1;
                self.reject(conn, miss, false);
            }
        }
        Ok(new)
    }

    /// Buffers one of the core's progress events or final records and
    /// queues it for the session's connection.
    pub fn publish(&mut self, session: u64, msg: ServerMsg) {
        if let Some(lease) = self.leases.get_mut(&session).filter(|l| !l.dropped) {
            if let Some(conn) = lease.conn {
                self.sends.push((conn, msg.clone()));
            }
            lease.history.push(msg);
        }
    }

    /// Records that `conn` died. Leases survive it, bound as they were,
    /// unless the `drop_lease` quirk destroys them.
    pub fn disconnected(&mut self, conn: C) {
        if !self.drop_lease {
            return;
        }
        for lease in self.leases.values_mut() {
            if lease.conn == Some(conn) {
                lease.history.clear();
                lease.dropped = true;
            }
        }
    }

    /// Records that `session`'s final record reached its client.
    pub fn delivered(&mut self, session: u64) {
        if let Some(lease) = self.leases.get_mut(&session) {
            lease.delivered = true;
        }
    }

    /// Whether some finished session's final record is still waiting for
    /// a client to come back for it.
    pub fn outstanding(&self) -> bool {
        self.leases.values().any(|l| {
            l.redeemable && !l.delivered && matches!(l.history.last(), Some(ServerMsg::Done(_)))
        })
    }

    /// Whether some lease sends to `conn`.
    pub fn is_bound(&self, conn: C) -> bool {
        self.leases.values().any(|l| l.conn == Some(conn))
    }

    /// The messages queued since the last call, in send order.
    pub fn take_sends(&mut self) -> Vec<(C, ServerMsg)> {
        std::mem::take(&mut self.sends)
    }

    fn reject(&mut self, conn: C, reason: String, retryable: bool) {
        self.sends
            .push((conn, ServerMsg::Rejected { reason, retryable }));
    }
}
