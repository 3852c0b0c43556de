//! Checkpoint-store chaos: a [`ChaosSink`] wrapper that perturbs save
//! operations (torn writes, ENOSPC, bit rot) at globally-indexed,
//! deterministic points.
//!
//! The save-op counter is *global* across all wrapped sinks (shared
//! through [`StoreChaos`]), because the serving core steps sessions
//! single-threaded in ascending session-id order — the Nth save of a soak
//! is the same save on every run, at any `AIBENCH_THREADS`.
//!
//! Safety argument: a torn or rotted snapshot fails the container's CRC
//! validation on load, so `unpark` falls back to an older snapshot or to
//! scratch; deterministic training makes either path bitwise-neutral for
//! the final result (provided the session carries no injected training
//! faults). ENOSPC surfaces as [`CkptError::Io`], which the supervisor
//! absorbs through its `RetrySave` backoff policy.

use std::cell::RefCell;
use std::rc::Rc;

use aibench_ckpt::{CheckpointSink, CkptError};

use crate::log::ChaosEvent;
use crate::schedule::{ChaosInjection, ChaosKind, ChaosSite};

/// Shared store-chaos state: the store-site injections, the global
/// save-op counter, and the log of injections that fired.
#[derive(Debug, Default)]
pub struct StoreChaos {
    injections: Vec<ChaosInjection>,
    op: u64,
    log: Vec<ChaosEvent>,
}

impl StoreChaos {
    /// Builds the shared state from a schedule's `Store`-site injections.
    pub fn from_schedule(schedule: &crate::schedule::ChaosSchedule) -> Rc<RefCell<StoreChaos>> {
        Rc::new(RefCell::new(StoreChaos {
            injections: schedule
                .injections
                .iter()
                .filter(|i| i.site == ChaosSite::Store)
                .copied()
                .collect(),
            op: 0,
            log: Vec::new(),
        }))
    }

    /// The injections fired so far, in save-op order.
    pub fn log(&self) -> &[ChaosEvent] {
        &self.log
    }

    /// Drains the fired-injection log.
    pub fn take_log(&mut self) -> Vec<ChaosEvent> {
        std::mem::take(&mut self.log)
    }

    /// Save operations observed so far.
    pub fn ops(&self) -> u64 {
        self.op
    }
}

/// A [`CheckpointSink`] wrapper injecting scheduled store chaos into
/// `save`; `epochs`/`load`/`remove` pass through untouched.
pub struct ChaosSink<S: CheckpointSink> {
    inner: S,
    session: u64,
    chaos: Rc<RefCell<StoreChaos>>,
}

impl<S: CheckpointSink> ChaosSink<S> {
    /// Wraps `inner`, attributing fired injections to `session` in the
    /// chaos log.
    pub fn new(inner: S, session: u64, chaos: Rc<RefCell<StoreChaos>>) -> Self {
        ChaosSink {
            inner,
            session,
            chaos,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: CheckpointSink> CheckpointSink for ChaosSink<S> {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        let due = {
            let mut chaos = self.chaos.borrow_mut();
            let op = chaos.op;
            chaos.op += 1;
            let due: Vec<ChaosInjection> = chaos
                .injections
                .iter()
                .filter(|i| i.at == op)
                .copied()
                .collect();
            for inj in &due {
                chaos.log.push(ChaosEvent {
                    site: ChaosSite::Store,
                    at: op,
                    kind: inj.kind,
                    session: self.session,
                });
            }
            due
        };
        // Apply the first due injection; stacked injections on one op
        // degenerate to the most severe single outcome anyway.
        match due.first().map(|i| i.kind) {
            Some(ChaosKind::DiskFull) => Err(CkptError::Io {
                op: "save".to_string(),
                what: "disk full (injected)".to_string(),
            }),
            Some(ChaosKind::TornWrite { keep }) => {
                // The torn prefix reaches the store; CRC validation will
                // reject it on load and unpark falls back further.
                let keep = keep.min(bytes.len());
                self.inner.save(epoch, &bytes[..keep])
            }
            Some(ChaosKind::BitRot { bit }) => {
                let mut rotted = bytes.to_vec();
                if !rotted.is_empty() {
                    let total_bits = rotted.len() * 8;
                    let bit = bit as usize % total_bits;
                    rotted[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.save(epoch, &rotted)
            }
            _ => self.inner.save(epoch, bytes),
        }
    }

    fn epochs(&self) -> Vec<usize> {
        self.inner.epochs()
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        self.inner.load(epoch)
    }

    fn remove(&mut self, epoch: usize) {
        self.inner.remove(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosSchedule;
    use aibench_ckpt::MemorySink;

    fn store_schedule() -> ChaosSchedule {
        ChaosSchedule::new(3)
            .inject(ChaosSite::Store, 1, ChaosKind::DiskFull)
            .inject(ChaosSite::Store, 2, ChaosKind::TornWrite { keep: 4 })
            .inject(ChaosSite::Store, 3, ChaosKind::BitRot { bit: 9 })
    }

    #[test]
    fn injections_fire_at_global_op_indices() {
        let chaos = StoreChaos::from_schedule(&store_schedule());
        let mut a = ChaosSink::new(MemorySink::new(), 1, Rc::clone(&chaos));
        let mut b = ChaosSink::new(MemorySink::new(), 2, Rc::clone(&chaos));

        let payload = vec![0xAB; 16];
        assert!(a.save(0, &payload).is_ok(), "op 0 is calm");
        let err = b.save(0, &payload).unwrap_err();
        assert!(format!("{err}").contains("disk full"), "op 1 hits ENOSPC");
        assert!(a.save(1, &payload).is_ok(), "op 2 tears but still saves");
        assert_eq!(
            a.inner().load(1).unwrap().unwrap().len(),
            4,
            "torn write stored only the kept prefix"
        );
        assert!(b.save(1, &payload).is_ok(), "op 3 rots a bit");
        let rotted = b.inner().load(1).unwrap().unwrap();
        assert_eq!(rotted.len(), payload.len());
        assert_ne!(rotted, payload, "one bit differs");

        let log = chaos.borrow();
        let sigs: Vec<String> = log.log().iter().map(|e| e.signature()).collect();
        assert_eq!(
            sigs,
            vec![
                "store@1:disk-full:s2",
                "store@2:torn-write:4:s1",
                "store@3:bit-rot:9:s2"
            ]
        );
        assert_eq!(log.ops(), 4);
    }

    #[test]
    fn calm_ops_pass_through_bit_for_bit() {
        let chaos = StoreChaos::from_schedule(&ChaosSchedule::empty());
        let mut sink = ChaosSink::new(MemorySink::new(), 7, chaos.clone());
        let payload: Vec<u8> = (0..64).collect();
        sink.save(3, &payload).unwrap();
        assert_eq!(sink.inner().load(3).unwrap().unwrap(), payload);
        assert!(chaos.borrow().log().is_empty());
    }
}
