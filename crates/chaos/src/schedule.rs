//! Deterministic chaos schedules: *what* to perturb, *where* (wire,
//! store, scheduler), and *when* — keyed on logical counters only, never
//! wall-clock time, so the same schedule replays the identical chaos at
//! any thread count.
//!
//! The discipline mirrors `aibench-fault`'s `FaultSchedule`: a schedule is
//! pure data, never mutated by a run; the chaos engine tracks which
//! entries have fired in its own state.

use aibench_tensor::Rng;

/// Where a chaos injection lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosSite {
    /// The client→server wire; `at` counts frames sent in that direction
    /// (globally, 0-based, in delivery order).
    ClientToServer,
    /// The server→client wire; same counting discipline.
    ServerToClient,
    /// The checkpoint store; `at` counts save operations globally across
    /// all sessions (the core is stepped single-threaded, so the count is
    /// deterministic).
    Store,
    /// The server loop; `at` is a scheduler tick.
    Server,
}

impl ChaosSite {
    /// Stable short code for signatures (`c2s`, `s2c`, `store`, `srv`).
    pub fn code(&self) -> &'static str {
        match self {
            ChaosSite::ClientToServer => "c2s",
            ChaosSite::ServerToClient => "s2c",
            ChaosSite::Store => "store",
            ChaosSite::Server => "srv",
        }
    }
}

/// One kind of injectable chaos.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// Wire: flip one bit of the frame payload (`bit` is taken modulo the
    /// payload length in bits). The CRC-checked container must reject the
    /// frame rather than misparse it.
    BitFlip {
        /// Which payload bit to flip.
        bit: u32,
    },
    /// Wire: truncate the frame payload to `keep` bytes.
    Truncate {
        /// Bytes of the payload that survive.
        keep: usize,
    },
    /// Wire: deliver the frame twice. Receivers must deduplicate by seq.
    Duplicate,
    /// Wire: delay the frame's delivery by this many scheduler ticks.
    Delay {
        /// Ticks of added delivery latency.
        ticks: u64,
    },
    /// Wire: reset the connection mid-frame — the frame is lost and the
    /// client's connection dies. The session's lease must survive.
    Reset,
    /// Wire: a partial write — `keep` bytes arrive, then the connection
    /// dies. Equivalent to truncation plus reset on the same frame.
    ShortWrite {
        /// Bytes that arrive before the connection dies.
        keep: usize,
    },
    /// Store: the save writes only `keep` bytes (a torn write); the
    /// snapshot must fail validation on load, never restore partially.
    TornWrite {
        /// Bytes of the snapshot that reach the store.
        keep: usize,
    },
    /// Store: the save fails outright (ENOSPC).
    DiskFull,
    /// Store: the stored snapshot has one bit flipped (bit rot); the CRC
    /// must reject it on load.
    BitRot {
        /// Which stored bit rots.
        bit: u32,
    },
    /// Server: the scheduler stalls for this many ticks (no admission,
    /// no training) — queue waits lengthen, results must not change.
    TickStall {
        /// Stalled ticks.
        ticks: u64,
    },
    /// Server: writes to clients this tick are slow — their delivery is
    /// delayed by this many ticks. The scheduler must not block on them.
    SlowWrite {
        /// Ticks of added delivery latency for the tick's outbound frames.
        ticks: u64,
    },
}

impl ChaosKind {
    /// Stable kind name with parameters, for the chaos-event log
    /// signature (`bit-flip:3`, `delay:2`, `disk-full`, …).
    pub fn name(&self) -> String {
        match self {
            ChaosKind::BitFlip { bit } => format!("bit-flip:{bit}"),
            ChaosKind::Truncate { keep } => format!("truncate:{keep}"),
            ChaosKind::Duplicate => "duplicate".to_string(),
            ChaosKind::Delay { ticks } => format!("delay:{ticks}"),
            ChaosKind::Reset => "reset".to_string(),
            ChaosKind::ShortWrite { keep } => format!("short-write:{keep}"),
            ChaosKind::TornWrite { keep } => format!("torn-write:{keep}"),
            ChaosKind::DiskFull => "disk-full".to_string(),
            ChaosKind::BitRot { bit } => format!("bit-rot:{bit}"),
            ChaosKind::TickStall { ticks } => format!("tick-stall:{ticks}"),
            ChaosKind::SlowWrite { ticks } => format!("slow-write:{ticks}"),
        }
    }

    /// Whether the kind is valid for the site.
    pub fn valid_for(&self, site: ChaosSite) -> bool {
        match self {
            ChaosKind::BitFlip { .. }
            | ChaosKind::Truncate { .. }
            | ChaosKind::Duplicate
            | ChaosKind::Delay { .. }
            | ChaosKind::Reset
            | ChaosKind::ShortWrite { .. } => {
                matches!(site, ChaosSite::ClientToServer | ChaosSite::ServerToClient)
            }
            ChaosKind::TornWrite { .. } | ChaosKind::DiskFull | ChaosKind::BitRot { .. } => {
                site == ChaosSite::Store
            }
            ChaosKind::TickStall { .. } | ChaosKind::SlowWrite { .. } => site == ChaosSite::Server,
        }
    }
}

/// One scheduled chaos injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosInjection {
    /// Where it lands.
    pub site: ChaosSite,
    /// When: a frame index, save-op index, or tick (see [`ChaosSite`]).
    pub at: u64,
    /// What happens.
    pub kind: ChaosKind,
}

/// A deterministic chaos plan for one soak. The empty schedule injects
/// nothing — a soak under it is byte-identical to a chaos-free serve run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosSchedule {
    /// Seeds derived choices (victim positions in [`ChaosSchedule::seeded`]).
    pub seed: u64,
    /// The scheduled injections.
    pub injections: Vec<ChaosInjection>,
}

impl ChaosSchedule {
    /// The empty schedule.
    pub fn empty() -> Self {
        ChaosSchedule::default()
    }

    /// A schedule with no injections yet.
    pub fn new(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            injections: Vec::new(),
        }
    }

    /// Adds one injection.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not valid for `site` — a delay cannot land on
    /// the store, a torn write cannot land on the wire.
    pub fn inject(mut self, site: ChaosSite, at: u64, kind: ChaosKind) -> Self {
        assert!(
            kind.valid_for(site),
            "chaos kind {} is not valid for site {}",
            kind.name(),
            site.code()
        );
        self.injections.push(ChaosInjection { site, at, kind });
        self
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The injections landing at `(site, at)`, in schedule order.
    pub fn due(&self, site: ChaosSite, at: u64) -> impl Iterator<Item = &ChaosInjection> {
        self.injections
            .iter()
            .filter(move |i| i.site == site && i.at == at)
    }

    /// Generates `count` injections at seeded positions within `horizon`
    /// (frames/ops/ticks), cycling through every site and every
    /// recoverable kind — the soak and load-harness corpus generator.
    /// Same seed ⇒ the identical schedule.
    pub fn seeded(seed: u64, horizon: u64, count: usize) -> Self {
        let mut rng = Rng::seed_from(seed ^ 0xc4a0_5eed);
        let mut schedule = ChaosSchedule::new(seed);
        for i in 0..count {
            let at = rng.below(horizon.max(1) as usize) as u64;
            let (site, kind) = match i % 11 {
                0 => (
                    ChaosSite::ServerToClient,
                    ChaosKind::BitFlip {
                        bit: rng.below(256) as u32,
                    },
                ),
                1 => (
                    ChaosSite::ServerToClient,
                    ChaosKind::Truncate {
                        keep: rng.below(24),
                    },
                ),
                2 => (ChaosSite::ServerToClient, ChaosKind::Duplicate),
                3 => (
                    ChaosSite::ServerToClient,
                    ChaosKind::Delay {
                        ticks: 1 + rng.below(3) as u64,
                    },
                ),
                4 => (ChaosSite::ServerToClient, ChaosKind::Reset),
                5 => (
                    ChaosSite::ClientToServer,
                    ChaosKind::BitFlip {
                        bit: rng.below(256) as u32,
                    },
                ),
                6 => (
                    ChaosSite::ClientToServer,
                    ChaosKind::ShortWrite {
                        keep: rng.below(16),
                    },
                ),
                7 => (
                    ChaosSite::Store,
                    ChaosKind::TornWrite {
                        keep: rng.below(64),
                    },
                ),
                8 => (ChaosSite::Store, ChaosKind::DiskFull),
                9 => (
                    ChaosSite::Server,
                    ChaosKind::TickStall {
                        ticks: 1 + rng.below(2) as u64,
                    },
                ),
                _ => (
                    ChaosSite::Server,
                    ChaosKind::SlowWrite {
                        ticks: 1 + rng.below(2) as u64,
                    },
                ),
            };
            schedule = schedule.inject(site, at, kind);
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_and_validates_sites() {
        let s = ChaosSchedule::new(7)
            .inject(ChaosSite::ServerToClient, 3, ChaosKind::BitFlip { bit: 5 })
            .inject(ChaosSite::Store, 1, ChaosKind::DiskFull)
            .inject(ChaosSite::Server, 2, ChaosKind::TickStall { ticks: 2 });
        assert_eq!(s.injections.len(), 3);
        assert_eq!(s.due(ChaosSite::Store, 1).count(), 1);
        assert_eq!(s.due(ChaosSite::Store, 2).count(), 0);
        assert!(ChaosSchedule::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "not valid for site")]
    fn wire_kind_rejected_on_the_store() {
        let _ = ChaosSchedule::new(1).inject(ChaosSite::Store, 0, ChaosKind::Duplicate);
    }

    #[test]
    fn seeded_schedules_replay_identically() {
        let a = ChaosSchedule::seeded(11, 100, 20);
        let b = ChaosSchedule::seeded(11, 100, 20);
        assert_eq!(a, b);
        assert_eq!(a.injections.len(), 20);
        assert_ne!(a, ChaosSchedule::seeded(12, 100, 20));
        assert!(a.injections.iter().all(|i| i.kind.valid_for(i.site)));
    }
}
