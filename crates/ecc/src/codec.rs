//! SEC-DED (72,64) Hsiao code.
//!
//! Each 64-bit *ECC group* is protected by 8 check bits. The code is built
//! from a parity-check matrix whose data columns are distinct odd-weight 8-bit
//! vectors (all 56 weight-3 vectors plus 8 weight-5 vectors) and whose check
//! columns are the 8 weight-1 vectors. Odd-weight columns give the classic
//! Hsiao SEC-DED property:
//!
//! * a **zero syndrome** means no error;
//! * an **odd-weight syndrome** that matches a column identifies a single-bit
//!   error (correctable) in the corresponding data or check bit;
//! * an **even-weight non-zero syndrome** can only be produced by an even
//!   number of bit errors — reported as uncorrectable;
//! * an **odd-weight syndrome matching no column** indicates ≥3 bit errors —
//!   also uncorrectable. The SafeMem scramble trick deliberately lands here.

/// Number of data bits per ECC group.
pub const DATA_BITS: u32 = 64;
/// Number of check bits per ECC group.
pub const CHECK_BITS: u32 = 8;

/// Outcome of decoding a (data, code) pair.
///
/// Produced by [`Codec::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decoded {
    /// Data and code are consistent.
    Clean,
    /// A single flipped *data* bit was found and corrected; `data` is the
    /// corrected word and `bit` the flipped position (0..64).
    CorrectedData {
        /// The corrected 64-bit word.
        data: u64,
        /// Position of the flipped data bit.
        bit: u8,
    },
    /// A single flipped *check* bit was found; the data word is intact.
    CorrectedCheck {
        /// Position of the flipped check bit (0..8).
        bit: u8,
    },
    /// The syndrome is inconsistent with any single-bit error: two or more
    /// bits are wrong. The stored word cannot be trusted.
    Uncorrectable {
        /// The raw 8-bit syndrome, for diagnostics.
        syndrome: u8,
    },
}

impl Decoded {
    /// Returns `true` for the [`Decoded::Uncorrectable`] variant.
    #[must_use]
    pub fn is_uncorrectable(&self) -> bool {
        matches!(self, Decoded::Uncorrectable { .. })
    }
}

/// Builds the 64 data columns of the H matrix: every odd 8-bit vector of
/// weight 3 in ascending numeric order, then the first 8 of weight 5.
const fn build_columns() -> [u8; 64] {
    let mut cols = [0u8; 64];
    let mut n = 0usize;
    // Weight-3 columns (there are exactly C(8,3) = 56 of them).
    let mut v: u16 = 0;
    while v < 256 {
        if (v as u8).count_ones() == 3 {
            cols[n] = v as u8;
            n += 1;
        }
        v += 1;
    }
    // Weight-5 columns to reach 64.
    let mut v: u16 = 0;
    while v < 256 && n < 64 {
        if (v as u8).count_ones() == 5 {
            cols[n] = v as u8;
            n += 1;
        }
        v += 1;
    }
    cols
}

/// Per-data-bit column vectors of the parity-check matrix.
pub const COLUMNS: [u8; 64] = build_columns();

/// Builds, for each check bit `j`, the mask of data bits participating in it.
const fn build_row_masks() -> [u64; 8] {
    let mut masks = [0u64; 8];
    let mut i = 0usize;
    while i < 64 {
        let col = COLUMNS[i];
        let mut j = 0usize;
        while j < 8 {
            if col & (1 << j) != 0 {
                masks[j] |= 1u64 << i;
            }
            j += 1;
        }
        i += 1;
    }
    masks
}

/// For each check bit, the set of data bits it covers.
pub const ROW_MASKS: [u64; 8] = build_row_masks();

/// Builds the per-byte parity-contribution table: `ENCODE_LUT[i][v]` is the
/// XOR of the H-matrix columns of every set bit of byte `i` holding value
/// `v`. Encoding a word is then the XOR of 8 table lookups instead of 8
/// masked popcounts — the check code of a word is, by linearity, the XOR of
/// the columns of its set data bits.
const fn build_encode_lut() -> [[u8; 256]; 8] {
    let mut lut = [[0u8; 256]; 8];
    let mut byte = 0usize;
    while byte < 8 {
        let mut v = 0usize;
        while v < 256 {
            let mut contrib = 0u8;
            let mut b = 0usize;
            while b < 8 {
                if v & (1 << b) != 0 {
                    contrib ^= COLUMNS[byte * 8 + b];
                }
                b += 1;
            }
            lut[byte][v] = contrib;
            v += 1;
        }
        byte += 1;
    }
    lut
}

/// Per-byte parity contributions: the check code of a 64-bit word (little-
/// endian bytes `b0..b7`) is `ENCODE_LUT[0][b0] ^ ... ^ ENCODE_LUT[7][b7]`.
pub const ENCODE_LUT: [[u8; 256]; 8] = build_encode_lut();

/// Classification of one 8-bit syndrome, independent of the data word it was
/// observed against. Precomputed for all 256 syndromes in
/// [`SYNDROME_TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyndromeClass {
    /// The zero syndrome: data and code are consistent.
    Clean,
    /// The syndrome matches data column `bit`: a single flipped data bit.
    Data(u8),
    /// The syndrome is a single check-bit column: a flipped check bit.
    Check(u8),
    /// No single-bit pattern produces this syndrome: ≥2 bits are wrong.
    Uncorrectable,
}

/// Builds the 256-entry syndrome classifier from [`COLUMNS`], encoding the
/// same decision procedure `decode` used to perform per word: zero → clean,
/// even weight → uncorrectable, weight 1 → check bit, other odd weights →
/// data bit if some column matches, else uncorrectable.
const fn build_syndrome_table() -> [SyndromeClass; 256] {
    let mut table = [SyndromeClass::Uncorrectable; 256];
    table[0] = SyndromeClass::Clean;
    let mut s = 1usize;
    while s < 256 {
        let syndrome = s as u8;
        if syndrome.count_ones() % 2 == 1 {
            if syndrome.count_ones() == 1 {
                table[s] = SyndromeClass::Check(syndrome.trailing_zeros() as u8);
            } else {
                let mut bit = 0usize;
                while bit < 64 {
                    if COLUMNS[bit] == syndrome {
                        table[s] = SyndromeClass::Data(bit as u8);
                        break;
                    }
                    bit += 1;
                }
            }
        }
        s += 1;
    }
    table
}

/// Maps every syndrome directly to its [`SyndromeClass`], replacing the
/// popcount chain and linear [`COLUMNS`] scan on the decode path.
pub const SYNDROME_TABLE: [SyndromeClass; 256] = build_syndrome_table();

/// The SEC-DED (72,64) codec.
///
/// The codec is a zero-sized strategy type: all state lives in constants, and
/// encoding/decoding are pure functions of their inputs.
///
/// # Example
///
/// ```
/// use safemem_ecc::codec::{Codec, Decoded};
///
/// let codec = Codec::new();
/// let code = codec.encode(0xDEAD_BEEF_0123_4567);
/// assert_eq!(codec.decode(0xDEAD_BEEF_0123_4567, code), Decoded::Clean);
///
/// // Any single flipped data bit is corrected.
/// let damaged = 0xDEAD_BEEF_0123_4567 ^ (1 << 17);
/// assert_eq!(
///     codec.decode(damaged, code),
///     Decoded::CorrectedData { data: 0xDEAD_BEEF_0123_4567, bit: 17 }
/// );
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Codec(());

impl Codec {
    /// Creates the codec.
    #[must_use]
    pub fn new() -> Self {
        Codec(())
    }

    /// Computes the 8 check bits for a 64-bit data word.
    #[must_use]
    pub fn encode(&self, data: u64) -> u8 {
        self.encode_bytes(&data.to_le_bytes())
    }

    /// Computes the check bits of a group directly from its 8 little-endian
    /// stored bytes, without assembling a `u64` first — the form the bulk
    /// memory paths use when encoding straight out of a frame slice.
    #[must_use]
    pub fn encode_bytes(&self, bytes: &[u8; 8]) -> u8 {
        ENCODE_LUT[0][bytes[0] as usize]
            ^ ENCODE_LUT[1][bytes[1] as usize]
            ^ ENCODE_LUT[2][bytes[2] as usize]
            ^ ENCODE_LUT[3][bytes[3] as usize]
            ^ ENCODE_LUT[4][bytes[4] as usize]
            ^ ENCODE_LUT[5][bytes[5] as usize]
            ^ ENCODE_LUT[6][bytes[6] as usize]
            ^ ENCODE_LUT[7][bytes[7] as usize]
    }

    /// Computes the syndrome of a stored (data, code) pair.
    ///
    /// Zero means consistent; see [`COLUMNS`] for the single-bit patterns.
    #[must_use]
    pub fn syndrome(&self, data: u64, code: u8) -> u8 {
        self.encode(data) ^ code
    }

    /// Computes the syndrome of a group straight from its 8 stored bytes.
    #[must_use]
    pub fn syndrome_bytes(&self, bytes: &[u8; 8], code: u8) -> u8 {
        self.encode_bytes(bytes) ^ code
    }

    /// Verifies and, where possible, corrects a stored (data, code) pair.
    #[must_use]
    pub fn decode(&self, data: u64, code: u8) -> Decoded {
        let syndrome = self.syndrome(data, code);
        match SYNDROME_TABLE[syndrome as usize] {
            SyndromeClass::Clean => Decoded::Clean,
            SyndromeClass::Data(bit) => Decoded::CorrectedData {
                data: data ^ (1u64 << bit),
                bit,
            },
            SyndromeClass::Check(bit) => Decoded::CorrectedCheck { bit },
            SyndromeClass::Uncorrectable => Decoded::Uncorrectable { syndrome },
        }
    }

    /// Returns `true` if the given syndrome would be classified as a
    /// single-bit (correctable) error.
    #[must_use]
    pub fn syndrome_is_correctable(&self, syndrome: u8) -> bool {
        matches!(
            SYNDROME_TABLE[syndrome as usize],
            SyndromeClass::Data(_) | SyndromeClass::Check(_)
        )
    }

    /// Batch-encodes one cache line — [`LINE_GROUPS`] consecutive groups,
    /// [`LINE_BYTES`] little-endian bytes — into its 8 check codes.
    /// Semantically this runs the 8 masked bit-planes over each group word
    /// (check bit `j` is the parity of the data bits [`ROW_MASKS`]`[j]`
    /// selects); the hot-path implementation walks the byte tables instead
    /// because baseline `x86-64` emulates `popcnt` in software, making the
    /// L1-resident table walk the faster evaluation of the same
    /// XOR-of-planes sum. `tests/codec_tables.rs` checks the two against
    /// each other.
    #[must_use]
    pub fn encode_line(&self, line: &[u8; LINE_BYTES]) -> [u8; LINE_GROUPS] {
        let mut codes = [0u8; LINE_GROUPS];
        for (g, chunk) in line.chunks_exact(8).enumerate() {
            let bytes: &[u8; 8] = chunk.try_into().expect("8-byte chunk");
            codes[g] = self.encode_bytes(bytes);
        }
        codes
    }

    /// Scans one cache line against its stored codes and returns a bitmask
    /// of the groups whose syndrome is non-zero (bit `g` set = group `g`
    /// disagrees with its code). The common all-clean case reduces to one
    /// 64-bit compare of the recomputed code vector against the stored one.
    #[must_use]
    pub fn dirty_mask_line(&self, line: &[u8; LINE_BYTES], codes: &[u8; LINE_GROUPS]) -> u8 {
        let fresh = self.encode_line(line);
        if u64::from_le_bytes(fresh) == u64::from_le_bytes(*codes) {
            return 0;
        }
        let mut mask = 0u8;
        for g in 0..LINE_GROUPS {
            mask |= u8::from(fresh[g] != codes[g]) << g;
        }
        mask
    }
}

/// Groups batched per bit-plane scan line.
pub const LINE_GROUPS: usize = 8;
/// Bytes per bit-plane scan line (one 64-byte cache line).
pub const LINE_BYTES: usize = LINE_GROUPS * 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_distinct_odd_weight() {
        for (i, &c) in COLUMNS.iter().enumerate() {
            assert!(c.count_ones() % 2 == 1, "column {i} has even weight");
            assert!(c.count_ones() >= 3, "column {i} collides with check bits");
            for &d in &COLUMNS[i + 1..] {
                assert_ne!(c, d, "duplicate column");
            }
        }
    }

    #[test]
    fn encode_zero_is_zero() {
        assert_eq!(Codec::new().encode(0), 0);
    }

    #[test]
    fn clean_roundtrip() {
        let codec = Codec::new();
        for data in [0u64, 1, u64::MAX, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            let code = codec.encode(data);
            assert_eq!(codec.decode(data, code), Decoded::Clean);
        }
    }

    #[test]
    fn every_single_data_bit_error_is_corrected() {
        let codec = Codec::new();
        let data = 0xA5A5_5A5A_F00D_CAFE_u64;
        let code = codec.encode(data);
        for bit in 0..64 {
            let damaged = data ^ (1u64 << bit);
            assert_eq!(
                codec.decode(damaged, code),
                Decoded::CorrectedData { data, bit },
                "bit {bit}"
            );
        }
    }

    #[test]
    fn every_single_check_bit_error_is_flagged() {
        let codec = Codec::new();
        let data = 0x1122_3344_5566_7788_u64;
        let code = codec.encode(data);
        for bit in 0..8 {
            let damaged_code = code ^ (1u8 << bit);
            assert_eq!(
                codec.decode(data, damaged_code),
                Decoded::CorrectedCheck { bit }
            );
        }
    }

    #[test]
    fn every_double_bit_error_is_detected_not_miscorrected() {
        // Exhaustive over all C(72,2) = 2556 double flips for one word.
        let codec = Codec::new();
        let data = 0x0F0F_F0F0_1234_8765_u64;
        let code = codec.encode(data);
        for a in 0..72u32 {
            for b in (a + 1)..72 {
                let mut d = data;
                let mut c = code;
                for &bit in &[a, b] {
                    if bit < 64 {
                        d ^= 1u64 << bit;
                    } else {
                        c ^= 1u8 << (bit - 64);
                    }
                }
                let decoded = codec.decode(d, c);
                assert!(
                    decoded.is_uncorrectable(),
                    "double error ({a},{b}) not detected: {decoded:?}"
                );
            }
        }
    }

    #[test]
    fn syndrome_correctability_matches_decode() {
        let codec = Codec::new();
        for s in 0u16..256 {
            let s = s as u8;
            let correctable = codec.syndrome_is_correctable(s);
            // Cross-check: apply syndrome as code damage on a clean word.
            let data = 0u64;
            let decoded = codec.decode(data, s); // code should be 0; s is the syndrome
            let observed = !matches!(decoded, Decoded::Uncorrectable { .. }) && s != 0;
            assert_eq!(correctable, observed, "syndrome {s:#04x}");
        }
    }
}
