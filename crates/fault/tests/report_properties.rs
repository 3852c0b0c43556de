//! Property test for the serde-free result serialization: arbitrary
//! `RunResult`s — non-finite floats included — round-trip bit-exactly
//! through the ckpt typed byte format that results cross the serving wire
//! in.

use aibench::runner::RunResult;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Any run result — arbitrary trace lengths and arbitrary f32/f64 bit
    // patterns — survives to_state/from_state with every float bit intact.
    #[test]
    fn run_result_round_trips_bit_exact(
        seed in 0u64..u64::MAX,
        epochs in 0usize..40,
        converged_at in 0usize..40,
        loss_bits in prop::collection::vec(0u32..u32::MAX, 0..12),
        quality_bits in prop::collection::vec(0u64..u64::MAX, 0..12),
        resumed in 0usize..5,
    ) {
        let result = RunResult {
            code: format!("DC-AI-C{}", seed % 17 + 1),
            seed,
            epochs_run: epochs,
            epochs_to_target: (converged_at < epochs).then_some(converged_at + 1),
            quality_trace: quality_bits
                .iter()
                .enumerate()
                .map(|(i, &b)| (i + 1, f64::from_bits(b)))
                .collect(),
            loss_trace: loss_bits.iter().map(|&b| f32::from_bits(b)).collect(),
            final_quality: f64::from_bits(quality_bits.first().copied().unwrap_or(0)),
            wall_seconds: epochs as f64 * 0.25,
            resumed_from: (resumed > 0).then_some(resumed),
        };
        let back = RunResult::from_state(&result.to_state()).unwrap();
        prop_assert!(back.deterministic_eq(&result));
        // The fields deterministic_eq deliberately ignores must still
        // round-trip exactly.
        prop_assert_eq!(back.wall_seconds.to_bits(), result.wall_seconds.to_bits());
        prop_assert_eq!(back.resumed_from, result.resumed_from);
    }
}
