//! LZ77-style compression codec for intermediate data.
//!
//! The paper stores all cached and spilled partitions "in a serialized and
//! compressed form". This codec is implemented in-repo (no external
//! compression crates) with the classic fast-LZ recipe: greedy parsing with
//! a 4-byte-prefix hash table, emitting alternating literal-run / match
//! tokens. MapReduce intermediate data — sorted runs of repetitive keys —
//! compresses very well under this scheme because adjacent records share
//! long key prefixes.
//!
//! Not all intermediate data does: TeraSort's random keys and filler
//! shrink by under 2%. The [`Encoder`] therefore takes an output limit and
//! gives up as soon as the encoding is projected to miss it, so spill
//! frames (see [`crate::frame`]) pay for the compression only where they
//! get it, and store the rest raw. [`compress`] is the unlimited call.
//!
//! ## Format
//!
//! `varint(uncompressed_len)` followed by a token stream. Each token is
//! `varint(lit_len)` + `lit_len` literal bytes + `varint(match_len_code)` +
//! (`varint(offset)` when `match_len_code > 0`). `match_len_code` is
//! `match_len - MIN_MATCH + 1`; `0` means "no match" (only valid for the
//! final token). Offsets are distances back from the current position and
//! may be smaller than the match length (overlapping copy, RLE-style).

use gw_storage::varint;

/// Minimum useful match length.
const MIN_MATCH: usize = 4;
/// Hash-table size (power of two).
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Maximum back-reference distance.
const WINDOW: usize = 64 * 1024;
/// Input bytes between two checks of a limited encoding's projected size.
pub const LIMIT_CHECK_INTERVAL: usize = 8 << 10;
/// Largest share of its input, in eighths, an encoding may take and still
/// be worth keeping: an encoding must come in strictly under 7/8.
pub const KEEP_EIGHTHS: usize = 7;

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended unexpectedly or contained invalid tokens.
    Corrupt(&'static str),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Corrupt(msg) => write!(f, "corrupt compressed data: {msg}"),
        }
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn load_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Smallest encoded length that is *not* worth keeping for `raw_len`
/// input bytes: an encoding is kept iff it is shorter than this, i.e.
/// strictly under [`KEEP_EIGHTHS`]/8 of the input.
pub fn keep_limit(raw_len: usize) -> usize {
    (raw_len * KEEP_EIGHTHS).div_ceil(8)
}

/// The LZ encoder, with a hash table that is reused across calls.
///
/// Table entries are positions offset by a per-call `base`, so entries
/// left by earlier inputs fall below the current base and read as empty:
/// reuse costs no clearing until the 32-bit position space wraps.
pub struct Encoder {
    table: Vec<u32>,
    base: u32,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder {
            table: vec![0; HASH_SIZE],
            base: 1,
        }
    }
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `input` into `out`, replacing its contents, and return
    /// whether the encoding is shorter than `limit` bytes. Every
    /// [`LIMIT_CHECK_INTERVAL`] input bytes the output so far is projected
    /// over the whole input; the encoder gives up (returning `false`, with
    /// `out` holding an unusable prefix) as soon as that projection reaches
    /// `limit`. With `limit == usize::MAX` it never gives up. The tokens
    /// emitted do not depend on `limit`.
    ///
    /// # Panics
    /// If `input` is 4 GiB or longer (table positions are 32-bit).
    pub fn encode(&mut self, input: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
        let n = input.len();
        assert!(n < u32::MAX as usize, "encoder input exceeds 4 GiB");
        if self.base as u64 + n as u64 >= u32::MAX as u64 {
            self.table.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += n as u32 + 1;
        out.clear();
        varint::write_len(out, n);
        if n == 0 {
            return out.len() < limit;
        }
        let mut pos = 0usize;
        let mut lit_start = 0usize;
        let mut next_check = LIMIT_CHECK_INTERVAL;
        while pos + MIN_MATCH <= n {
            if pos >= next_check {
                // Bytes committed so far (pending literals included),
                // scaled from `pos` input bytes to all `n` of them.
                let committed = (out.len() + pos - lit_start) as u128;
                if committed * n as u128 >= limit as u128 * pos as u128 {
                    return false;
                }
                next_check = pos + LIMIT_CHECK_INTERVAL;
            }
            let cur = load_u32(input, pos);
            let h = hash4(cur);
            let entry = self.table[h];
            self.table[h] = base + pos as u32;
            // Entries below `base` were left by earlier inputs.
            let candidate = entry.wrapping_sub(base) as usize;
            let is_match =
                entry >= base && pos - candidate <= WINDOW && load_u32(input, candidate) == cur;
            if is_match {
                // Extend the match as far as possible.
                let mut len = MIN_MATCH;
                while pos + len < n && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                // Emit pending literals + this match.
                varint::write_len(out, pos - lit_start);
                out.extend_from_slice(&input[lit_start..pos]);
                varint::write_len(out, len - MIN_MATCH + 1);
                varint::write_len(out, pos - candidate);
                // Index a few positions inside the match to help later matches.
                let step = (len / 8).max(1);
                let mut p = pos + 1;
                while p + MIN_MATCH <= n && p < pos + len {
                    self.table[hash4(load_u32(input, p))] = base + p as u32;
                    p += step;
                }
                pos += len;
                lit_start = pos;
            } else {
                pos += 1;
            }
        }
        // Trailing literals with the no-match terminator.
        varint::write_len(out, n - lit_start);
        out.extend_from_slice(&input[lit_start..]);
        varint::write_len(out, 0);
        out.len() < limit
    }
}

/// Compress `input`; the result always round-trips through [`decompress`].
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    Encoder::new().encode(input, usize::MAX, &mut out);
    out
}

/// Decompress data produced by [`compress`]; a thin wrapper over
/// [`decompress_into`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::new();
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompress into `out`, replacing its contents and reusing its capacity.
///
/// Robust against arbitrary (adversarial) input: every length read from
/// the stream is validated against the declared output size and the
/// remaining input before any allocation or copy, so corrupt data yields
/// `Err`, never a panic or an attacker-chosen allocation. On `Err`, `out`
/// holds an unspecified prefix.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
    let (total, mut at) = varint::read_len(data).ok_or(CompressError::Corrupt("missing length"))?;
    // Cap the up-front reservation (corrupt headers cannot force a huge
    // allocation); growth beyond this is incremental. Work and memory are
    // bounded by the declared `total` — callers decoding *untrusted* data
    // should validate the declared length against their own limits first
    // (spill files are framework-internal, so none is imposed here).
    out.clear();
    out.reserve(total.min(1 << 20));
    while out.len() < total {
        let (lit_len, n) = varint::read_len(&data[at..])
            .ok_or(CompressError::Corrupt("missing literal length"))?;
        at += n;
        if lit_len > data.len() - at {
            return Err(CompressError::Corrupt("truncated literals"));
        }
        if lit_len > total - out.len() {
            return Err(CompressError::Corrupt("literals overflow declared length"));
        }
        out.extend_from_slice(&data[at..at + lit_len]);
        at += lit_len;
        let (mcode, n) =
            varint::read_len(&data[at..]).ok_or(CompressError::Corrupt("missing match code"))?;
        at += n;
        if mcode == 0 {
            break;
        }
        let match_len = (mcode - 1)
            .checked_add(MIN_MATCH)
            .ok_or(CompressError::Corrupt("match length overflow"))?;
        if match_len > total - out.len() {
            return Err(CompressError::Corrupt("match overflows declared length"));
        }
        let (offset, n) =
            varint::read_len(&data[at..]).ok_or(CompressError::Corrupt("missing offset"))?;
        at += n;
        if offset == 0 || offset > out.len() {
            return Err(CompressError::Corrupt("offset out of range"));
        }
        let start = out.len() - offset;
        if offset >= match_len {
            out.extend_from_within(start..start + match_len);
        } else {
            // Overlapping copy: replicate byte by byte.
            for i in 0..match_len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    if out.len() != total {
        return Err(CompressError::Corrupt("length mismatch"));
    }
    Ok(())
}

/// Compression ratio achieved on `input` (compressed/original; lower is
/// better). Returns 1.0 for empty input.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress(input).len() as f64 / input.len() as f64
}

/// `n` xorshift bytes seeded from `seed`: as incompressible as TeraGen's
/// random keys and filler.
#[cfg(test)]
pub(crate) fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
    // Scramble the seed so nearby seeds start unrelated streams.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(&[]);
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_incompressible_roundtrip() {
        let data = [1u8, 2, 3];
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(200).to_vec();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "expected >4x on repetitive text, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rle_overlapping_copy_roundtrip() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn sorted_kv_run_compresses() {
        // Simulate a sorted intermediate run: repeated word keys.
        let mut data = Vec::new();
        for word in ["alpha", "beta", "gamma"] {
            for i in 0..200 {
                data.extend_from_slice(word.as_bytes());
                data.extend_from_slice(&(i as u32).to_le_bytes());
            }
        }
        let c = compress(&data);
        // Greedy single-probe matching: expect a solid but not extreme
        // ratio on key-repetitive runs.
        assert!(
            c.len() < data.len() * 7 / 10,
            "expected <0.7 ratio, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let data: Vec<u8> = b"hello hello hello hello hello".to_vec();
        let mut c = compress(&data);
        // Flip bytes throughout and require Err or correct output, no panic.
        for i in 0..c.len() {
            c[i] ^= 0xA5;
            let _ = decompress(&c);
            c[i] ^= 0xA5;
        }
        // Truncations must be rejected.
        for cut in 1..c.len() {
            let _ = decompress(&c[..cut]);
        }
    }

    #[test]
    fn limited_encoder_gives_up_early_on_random_bytes() {
        let data = random_bytes(80 << 10, 7);
        let mut out = Vec::new();
        assert!(!Encoder::new().encode(&data, keep_limit(data.len()), &mut out));
        // It stopped at the first check, well before the end of the input.
        assert!(out.len() < 2 * LIMIT_CHECK_INTERVAL, "{}", out.len());
    }

    #[test]
    fn limit_does_not_change_the_tokens() {
        let data: Vec<u8> = b"alpha beta gamma delta ".repeat(2_000);
        let mut enc = Encoder::new();
        let mut limited = Vec::new();
        assert!(enc.encode(&data, keep_limit(data.len()), &mut limited));
        assert_eq!(limited, compress(&data));
        // Reusing the table across inputs does not change them either.
        let other = random_bytes(20_000, 3);
        enc.encode(&other, usize::MAX, &mut limited);
        assert_eq!(limited, compress(&other));
        assert!(enc.encode(&data, usize::MAX, &mut limited));
        assert_eq!(limited, compress(&data));
    }

    #[test]
    fn decompress_into_reuses_the_buffer() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(500);
        let c = compress(&data);
        let mut out = Vec::with_capacity(64 << 10);
        out.extend_from_slice(b"stale");
        let cap = out.capacity();
        decompress_into(&c, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), cap, "decoding must not reallocate");
    }

    proptest! {
        /// The limited encoder yields nothing or a valid encoding that is
        /// strictly under 7/8 of its input.
        #[test]
        fn limited_encoding_is_valid_and_under_seven_eighths(
            data in proptest::collection::vec(0u8..8, 0..(32 << 10)),
            random_tail in 0usize..(32 << 10),
        ) {
            let mut data = data;
            data.extend(random_bytes(random_tail, data.len() as u64));
            let mut out = Vec::new();
            if Encoder::new().encode(&data, keep_limit(data.len()), &mut out) {
                prop_assert!(out.len() * 8 < data.len() * KEEP_EIGHTHS, "{} -> {}", data.len(), out.len());
                prop_assert_eq!(decompress(&out).unwrap(), data);
            }
        }

        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..8192)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        /// Decompressing arbitrary garbage must never panic — it returns
        /// Err or (coincidentally) a valid buffer, bounded by the declared
        /// length.
        #[test]
        fn decompress_arbitrary_input_never_panics(
            data in proptest::collection::vec(any::<u8>(), 0..2048))
        {
            // Bound the declared output length (decompression work is
            // proportional to it by design); arbitrary *content* follows.
            if let Some((total, _)) = gw_storage::varint::read_len(&data) {
                prop_assume!(total <= 1 << 16);
            }
            if let Ok(out) = decompress(&data) {
                // If it parsed, the length header was honoured.
                let (total, _) = gw_storage::varint::read_len(&data).unwrap();
                prop_assert_eq!(out.len(), total);
            }
        }
    }
}
