//! Cross-checks of the table-driven codec fast path against the defining
//! `ROW_MASKS`/`COLUMNS` matrices.
//!
//! The encode LUT and the syndrome-classification table are *derived* forms
//! of the H matrix; these tests re-derive every entry the slow way — masked
//! popcounts for encoding, the popcount/column-scan decision procedure for
//! classification — over all 64 data bits, all 8 check bits, and all 256
//! syndromes, so any drift between the tables and the matrices fails here
//! rather than deep inside a campaign.

use proptest::prelude::*;
use safemem_ecc::codec::{COLUMNS, ENCODE_LUT, ROW_MASKS, SYNDROME_TABLE};
use safemem_ecc::{Codec, Decoded, SyndromeClass};

/// The original bit-serial encoder: one masked popcount per check bit.
fn encode_by_row_masks(data: u64) -> u8 {
    let mut code = 0u8;
    for (j, mask) in ROW_MASKS.iter().enumerate() {
        let parity = (data & mask).count_ones() & 1;
        code |= (parity as u8) << j;
    }
    code
}

/// The original per-syndrome decision procedure, straight from the Hsiao
/// construction: zero → clean, even weight → uncorrectable, weight 1 → check
/// bit, other odd weight → data bit iff some column matches.
fn classify_by_columns(syndrome: u8) -> SyndromeClass {
    if syndrome == 0 {
        return SyndromeClass::Clean;
    }
    if syndrome.count_ones().is_multiple_of(2) {
        return SyndromeClass::Uncorrectable;
    }
    if syndrome.count_ones() == 1 {
        return SyndromeClass::Check(syndrome.trailing_zeros() as u8);
    }
    match COLUMNS.iter().position(|&c| c == syndrome) {
        Some(bit) => SyndromeClass::Data(bit as u8),
        None => SyndromeClass::Uncorrectable,
    }
}

#[test]
fn encode_lut_matches_row_masks_for_every_data_bit() {
    let codec = Codec::new();
    for bit in 0..64u32 {
        let word = 1u64 << bit;
        assert_eq!(
            codec.encode(word),
            encode_by_row_masks(word),
            "LUT and ROW_MASKS disagree on data bit {bit}"
        );
        // A single data bit's code is its H-matrix column by definition.
        assert_eq!(codec.encode(word), COLUMNS[bit as usize], "bit {bit}");
    }
}

#[test]
fn encode_lut_entries_are_column_xors() {
    for (byte, table) in ENCODE_LUT.iter().enumerate() {
        for (v, &entry) in table.iter().enumerate() {
            let mut expect = 0u8;
            for b in 0..8 {
                if v & (1 << b) != 0 {
                    expect ^= COLUMNS[byte * 8 + b];
                }
            }
            assert_eq!(entry, expect, "ENCODE_LUT[{byte}][{v:#04x}]");
        }
    }
}

#[test]
fn syndrome_table_matches_column_scan_for_all_256_syndromes() {
    for s in 0..=255u8 {
        assert_eq!(
            SYNDROME_TABLE[s as usize],
            classify_by_columns(s),
            "syndrome {s:#04x}"
        );
    }
}

#[test]
fn syndrome_table_covers_every_check_bit() {
    for bit in 0..8u8 {
        assert_eq!(
            SYNDROME_TABLE[(1u8 << bit) as usize],
            SyndromeClass::Check(bit),
            "check bit {bit}"
        );
    }
}

#[test]
fn decode_agrees_with_syndrome_table_for_all_syndromes() {
    // Damaging a clean all-zero word's code by `s` produces syndrome `s`,
    // so decode must land exactly where the table points.
    let codec = Codec::new();
    for s in 0..=255u8 {
        let decoded = codec.decode(0, s);
        let expected = match SYNDROME_TABLE[s as usize] {
            SyndromeClass::Clean => Decoded::Clean,
            SyndromeClass::Data(bit) => Decoded::CorrectedData {
                data: 1u64 << bit,
                bit,
            },
            SyndromeClass::Check(bit) => Decoded::CorrectedCheck { bit },
            SyndromeClass::Uncorrectable => Decoded::Uncorrectable { syndrome: s },
        };
        assert_eq!(decoded, expected, "syndrome {s:#04x}");
    }
}

/// Every bit-plane line code equals the LUT line code, and under either the
/// decoder corrects all 72 single-bit flips and rejects all 2556 double-bit
/// flips per group — the full syndrome space of the (72,64) code, exercised
/// on a patterned line rather than a lucky constant.
#[test]
fn line_codes_agree_and_classify_every_one_and_two_bit_syndrome() {
    let codec = Codec::new();
    let mut line = [0u8; 64];
    for (i, b) in line.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(0x9d) ^ 0x5a;
    }
    let via_lut = codec.encode_line(&line);
    let mut via_planes = [0u8; 8];
    for (code, chunk) in via_planes.iter_mut().zip(line.chunks_exact(8)) {
        *code = encode_by_row_masks(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    assert_eq!(via_lut, via_planes, "bit-plane batch drifted from the LUT");

    for (g, chunk) in line.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let code = via_planes[g];
        assert_eq!(codec.decode(word, code), Decoded::Clean, "group {g}");

        // All 72 single-bit flips decode back to the original word.
        for pos in 0..72u32 {
            let (d, c) = flip72(word, code, pos);
            let decoded = codec.decode(d, c);
            match decoded {
                Decoded::CorrectedData { data, bit } => {
                    assert!(pos < 64, "group {g}: check flip {pos} read as data");
                    assert_eq!(data, word, "group {g} pos {pos}");
                    assert_eq!(u32::from(bit), pos, "group {g}");
                }
                Decoded::CorrectedCheck { bit } => {
                    assert!(pos >= 64, "group {g}: data flip {pos} read as check");
                    assert_eq!(u32::from(bit), pos - 64, "group {g}");
                }
                other => panic!("group {g} pos {pos}: {other:?}"),
            }
        }

        // All 2556 double-bit flips land on an uncorrectable syndrome.
        for a in 0..72u32 {
            for b in (a + 1)..72u32 {
                let (d, c) = flip72(word, code, a);
                let (d, c) = flip72(d, c, b);
                assert!(
                    matches!(codec.decode(d, c), Decoded::Uncorrectable { .. }),
                    "group {g}: double flip ({a}, {b}) not flagged"
                );
            }
        }
    }
}

/// A (72,64) code word with one bit flipped: data bit `pos` for `pos < 64`,
/// check bit `pos - 64` otherwise.
fn flip72(data: u64, code: u8, pos: u32) -> (u64, u8) {
    if pos < 64 {
        (data ^ (1u64 << pos), code)
    } else {
        (data, code ^ (1u8 << (pos - 64)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LUT encoder and the masked-popcount encoder agree on random words.
    #[test]
    fn encode_lut_matches_row_masks_on_random_words(data: u64) {
        let codec = Codec::new();
        prop_assert_eq!(codec.encode(data), encode_by_row_masks(data));
        prop_assert_eq!(codec.encode_bytes(&data.to_le_bytes()), encode_by_row_masks(data));
    }

    /// Byte-slice and word syndromes agree for arbitrary (data, code) pairs.
    #[test]
    fn syndrome_bytes_matches_syndrome(data: u64, code: u8) {
        let codec = Codec::new();
        prop_assert_eq!(
            codec.syndrome_bytes(&data.to_le_bytes(), code),
            codec.syndrome(data, code)
        );
    }
}
