//! The chaos-event log: the replayable witness of which injections
//! actually fired, in which order, against which sessions.
//!
//! Determinism contract: the log is appended only at deterministic
//! points (frame delivery order, save-op order, tick order), so the same
//! `ChaosSchedule` produces the byte-identical log signature at any
//! `AIBENCH_THREADS`.

use crate::schedule::{ChaosKind, ChaosSite};

/// One chaos injection that fired.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// The site the injection landed on.
    pub site: ChaosSite,
    /// The logical position it fired at (frame index, save-op index, or
    /// tick — see [`ChaosSite`]).
    pub at: u64,
    /// What fired.
    pub kind: ChaosKind,
    /// The session the injection hit, `0` when unattributable (e.g. a
    /// frame corrupted before it could be parsed).
    pub session: u64,
}

impl ChaosEvent {
    /// Stable one-line signature: `site@at:kind:s<session>`, the kind
    /// rendered with its parameters (`bit-flip:3`, `disk-full`, …).
    pub fn signature(&self) -> String {
        format!(
            "{}@{}:{}:s{}",
            self.site.code(),
            self.at,
            self.kind.name(),
            self.session
        )
    }
}

/// Joins a chaos log into one `;`-separated signature string — the value
/// `tests/chaos_determinism.rs` pins across thread counts.
pub fn chaos_signature(log: &[ChaosEvent]) -> String {
    if log.is_empty() {
        return "calm".to_string();
    }
    log.iter()
        .map(|e| e.signature())
        .collect::<Vec<_>>()
        .join(";")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(site: ChaosSite, at: u64, kind: ChaosKind, session: u64) -> ChaosEvent {
        ChaosEvent {
            site,
            at,
            kind,
            session,
        }
    }

    #[test]
    fn signatures_are_stable_and_ordered() {
        let log = vec![
            event(
                ChaosSite::ServerToClient,
                3,
                ChaosKind::BitFlip { bit: 7 },
                2,
            ),
            event(ChaosSite::Store, 1, ChaosKind::DiskFull, 4),
        ];
        assert_eq!(
            chaos_signature(&log),
            "s2c@3:bit-flip:7:s2;store@1:disk-full:s4"
        );
        assert_eq!(chaos_signature(&[]), "calm");
    }
}
