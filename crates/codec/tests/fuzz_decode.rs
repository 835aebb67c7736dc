//! Fuzz-style property tests: decoding arbitrary bytes must never panic —
//! corrupt checkpoints and log records have to fail *gracefully* for
//! recovery to stay available.

use proptest::prelude::*;
use tart_codec::{Decode, Encode};
use tart_vtime::{Interval, IntervalSet, VirtualTime};

fn never_panics<T: Decode>(bytes: &[u8]) {
    // The result may be Ok (the bytes happened to parse) or Err; the only
    // failure mode is a panic or an allocation bomb, which proptest/CI
    // would catch as a crash or timeout.
    let _ = T::from_bytes(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_primitives(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        never_panics::<u64>(&bytes);
        never_panics::<i64>(&bytes);
        never_panics::<f64>(&bytes);
        never_panics::<bool>(&bytes);
        never_panics::<String>(&bytes);
        never_panics::<Vec<u64>>(&bytes);
        never_panics::<Vec<String>>(&bytes);
        never_panics::<Option<u64>>(&bytes);
        never_panics::<std::collections::HashMap<String, u64>>(&bytes);
        never_panics::<std::collections::BTreeMap<u32, String>>(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_vtime(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        never_panics::<VirtualTime>(&bytes);
        never_panics::<Interval>(&bytes);
        never_panics::<IntervalSet>(&bytes);
    }

    /// Bit-flip robustness: corrupting a valid encoding decodes to Err or
    /// to a *different valid value* — never a crash.
    #[test]
    fn bit_flips_in_valid_encodings_are_safe(
        v in proptest::collection::vec((any::<u32>(), ".{0,6}"), 0..8),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = v.to_bytes();
        if !bytes.is_empty() {
            let idx = byte_idx.index(bytes.len());
            bytes[idx] ^= 1 << bit;
        }
        never_panics::<Vec<(u32, String)>>(&bytes);
    }

    /// Truncation robustness.
    #[test]
    fn truncations_of_valid_encodings_are_safe(
        v in proptest::collection::vec(".{0,12}", 0..10),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = v.to_bytes();
        let cut = cut.index(bytes.len().max(1)).min(bytes.len());
        never_panics::<Vec<String>>(&bytes[..cut]);
    }
}
