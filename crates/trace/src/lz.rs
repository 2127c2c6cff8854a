//! A small, dependency-free LZ77 codec for segment payloads.
//!
//! The segment dictionary (see [`crate::segment`]) dedups *exact*
//! string repeats, but real workload bodies are templated HTML — every
//! page unique, yet overwhelmingly similar to earlier pages rendered
//! from the same template. LZ77 with a whole-payload window turns that
//! cross-body redundancy into short back-references, which is what gets
//! the store under its bytes-per-event budget.
//!
//! Encoded form: `varint uncompressed_len`, then a token stream; each
//! token is `length-prefixed literal bytes` + `varint match_len` +
//! (`varint match_dist` when `match_len > 0`). `match_len == 0`
//! terminates the stream. Matches may overlap their own output (the
//! classic RLE trick). [`decompress`] validates every length and
//! distance and the final size, so hostile inputs fail cleanly instead
//! of overrunning.

use orochi_common::codec::{Decoder, Encoder};

/// Matches shorter than this cost more to encode than to store literal.
const MIN_MATCH: usize = 4;
/// Hash-table size for the 4-byte match index.
const HASH_BITS: u32 = 15;
/// Chain-walk budget per position: compression effort vs speed.
const MAX_CHAIN: usize = 128;
/// Upper bound accepted for a declared uncompressed length (hostile
/// inputs could otherwise demand gigabytes before any data is read).
const MAX_OUTPUT: usize = 1 << 31;

fn hash4(w: &[u8]) -> usize {
    let v = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain index over every byte position seen so far.
struct Matcher<'a> {
    input: &'a [u8],
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl<'a> Matcher<'a> {
    fn new(input: &'a [u8]) -> Self {
        Matcher {
            input,
            head: vec![u32::MAX; 1 << HASH_BITS],
            prev: vec![u32::MAX; input.len()],
        }
    }

    /// Records position `i` so later positions can match against it.
    fn insert(&mut self, i: usize) {
        let h = hash4(&self.input[i..]);
        self.prev[i] = self.head[h];
        self.head[h] = i as u32;
    }

    /// Longest earlier occurrence of the bytes at `i`, as (len, dist).
    /// The nearest candidate wins ties. A candidate is compared in full
    /// only if it agrees with the input at offset `best_len`, which any
    /// candidate that beats the best match must; the walk stops once a
    /// match reaches the end of the input, since none can be longer.
    fn longest(&self, i: usize) -> (usize, usize) {
        let input = self.input;
        let max = input.len() - i;
        let (mut best_len, mut best_dist) = (0usize, 0usize);
        let mut cand = self.head[hash4(&input[i..])];
        let mut steps = 0;
        while cand != u32::MAX && steps < MAX_CHAIN {
            let c = cand as usize;
            if input[c + best_len] == input[i + best_len] {
                let l = common_prefix(input, c, i, max);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if best_len == max {
                        break;
                    }
                }
            }
            cand = self.prev[c];
            steps += 1;
        }
        (best_len, best_dist)
    }
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, at
/// most `max` bytes, compared a word at a time: the lowest set bit of
/// the XOR of two little-endian words marks the first differing byte.
fn common_prefix(input: &[u8], a: usize, b: usize, max: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(input[at..at + 8].try_into().unwrap());
    let mut l = 0;
    while l + 8 <= max {
        let diff = word(a + l) ^ word(b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && input[a + l] == input[b + l] {
        l += 1;
    }
    l
}

/// Compresses `input`; always succeeds (worst case a few bytes of
/// framing over incompressible data).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut enc = Encoder::new();
    enc.u64(n as u64);

    let mut m = Matcher::new(input);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= n {
        let (mut best_len, mut best_dist) = m.longest(i);
        if best_len < MIN_MATCH {
            m.insert(i);
            i += 1;
            continue;
        }
        // Lazy step: if the position one byte later starts a strictly
        // longer match, demote this byte to a literal and retry there.
        loop {
            m.insert(i);
            if i + 1 + MIN_MATCH > n {
                break;
            }
            let (len, dist) = m.longest(i + 1);
            if len > best_len {
                i += 1;
                best_len = len;
                best_dist = dist;
            } else {
                break;
            }
        }
        enc.bytes(&input[lit_start..i]);
        enc.u64(best_len as u64);
        enc.u64(best_dist as u64);
        // Index every position the match covers so later data can
        // reference into it (i itself was inserted above).
        let end = i + best_len;
        i += 1;
        while i < end && i + MIN_MATCH <= n {
            m.insert(i);
            i += 1;
        }
        i = end;
        lit_start = i;
    }
    enc.bytes(&input[lit_start..]);
    enc.u64(0); // terminator
    enc.into_bytes()
}

/// Decompresses `bytes`, validating lengths, distances, and the final
/// size. The error is a stable diagnostic fragment.
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, &'static str> {
    let mut dec = Decoder::new(bytes);
    let err = "payload decompression failed";
    let out_len = dec.u64().map_err(|_| err)? as usize;
    if out_len > MAX_OUTPUT {
        return Err(err);
    }
    let mut out: Vec<u8> = Vec::with_capacity(out_len.min(1 << 22));
    loop {
        let lit = dec.bytes().map_err(|_| err)?;
        if out.len() + lit.len() > out_len {
            return Err(err);
        }
        out.extend_from_slice(&lit);
        let match_len = dec.u64().map_err(|_| err)? as usize;
        if match_len == 0 {
            break;
        }
        let dist = dec.u64().map_err(|_| err)? as usize;
        if dist == 0 || dist > out.len() || out.len() + match_len > out_len {
            return Err(err);
        }
        let start = out.len() - dist;
        if dist >= match_len {
            out.extend_from_within(start..start + match_len);
        } else {
            for k in 0..match_len {
                // Overlapping copies are legal and must go byte-by-byte.
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if !dec.is_done() || out.len() != out_len {
        return Err(err);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orochi_common::hash::fnv1a;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"");
        roundtrip(b"abc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"the quick brown fox jumps over the lazy dog");
        // Pseudo-random bytes (incompressible path).
        let mut x = 0x9e3779b97f4a7c15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn templated_text_compresses_hard() {
        let mut doc = Vec::new();
        for i in 0..200 {
            doc.extend_from_slice(
                format!(
                    "<html><head><title>product {i}</title></head>\
                     <body><h1>product {i}</h1><p>in stock: yes</p>\
                     <p>price: {}</p></body></html>\n",
                    i * 3
                )
                .as_bytes(),
            );
        }
        let packed = compress(&doc);
        assert!(
            packed.len() * 6 < doc.len(),
            "expected >6x on templated text, got {} -> {}",
            doc.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), doc);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // Period-1 and period-3 repetitions force overlapping copies.
        let data = [b"x".repeat(100), b"abc".repeat(40)].concat();
        roundtrip(&data);
    }

    /// A deterministic ~1 MiB corpus that reaches every matcher path:
    /// templated HTML with point edits, period-1 and period-3 runs,
    /// repeats followed by 0–15-byte tails (matches ending at every
    /// offset within an 8-byte word), hash chains longer than
    /// `MAX_CHAIN`, incompressible noise, and a final match that runs to
    /// the end of the input.
    fn golden_corpus() -> Vec<u8> {
        let mut x = 0x243f6a8885a308d3u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out = Vec::new();
        // Templated pages, each with a few single-byte edits.
        for i in 0..3400u64 {
            let start = out.len();
            out.extend_from_slice(
                format!(
                    "<html><head><title>item {i}</title></head><body>\
                     <table><tr><td>name</td><td>widget-{}</td></tr>\
                     <tr><td>price</td><td>{}.{:02}</td></tr>\
                     <tr><td>stock</td><td>{}</td></tr></table>\
                     <p>lorem ipsum dolor sit amet, consectetur adipiscing elit</p>\
                     </body></html>\n",
                    i % 97,
                    next() % 1000,
                    next() % 100,
                    next() % 7,
                )
                .as_bytes(),
            );
            for _ in 0..(next() % 3) {
                let at = start + (next() as usize) % (out.len() - start);
                out[at] = b'a' + (next() % 26) as u8;
            }
        }
        // Period-1 and period-3 runs of many lengths.
        for len in (1..64).chain([255, 1000, 4097]) {
            out.extend(std::iter::repeat_n(b'z', len));
            out.push(b'|');
            out.extend(b"k9#".iter().cycle().take(len));
            out.push(b'|');
        }
        // A shared stem followed by 0-15 bytes of fresh tail.
        let stem: Vec<u8> = (0..61).map(|_| b'A' + (next() % 26) as u8).collect();
        for round in 0..4 {
            for tail in 0..16 {
                out.extend_from_slice(&stem[..40 + round * 7]);
                out.extend((0..tail).map(|_| next() as u8));
            }
        }
        // Hash chains longer than MAX_CHAIN: a unique string whose first
        // four bytes then recur far more often than the chain budget
        // before the string itself repeats.
        let needle: Vec<u8> = (0..48).map(|_| next() as u8).collect();
        out.extend_from_slice(&needle);
        for _ in 0..3 * MAX_CHAIN {
            out.extend_from_slice(&needle[..4]);
            out.extend((0..5).map(|_| next() as u8));
        }
        out.extend_from_slice(&needle);
        // Incompressible noise.
        out.extend((0..160 * 1024).map(|_| next() as u8));
        // End on a repeat of earlier text so the last match runs to the
        // end of the input.
        let tail = out[1000..1333].to_vec();
        out.extend_from_slice(&tail);
        out
    }

    /// Pins the compressed bytes: the match finder's choices (winner,
    /// tie-break, lazy step, chain budget) decide every output byte, so
    /// any change to them shows up here.
    #[test]
    fn compress_output_is_pinned() {
        let corpus = golden_corpus();
        let packed = compress(&corpus);
        assert_eq!(decompress(&packed).unwrap(), corpus);
        assert_eq!(
            (corpus.len(), packed.len(), fnv1a(&packed)),
            (1_041_252, 241_858, 0x6ddb_2c32_c04f_3cb9),
            "compressed corpus drifted"
        );
    }

    #[test]
    fn hostile_inputs_are_rejected() {
        // Declared length never arrives.
        let mut enc = Encoder::new();
        enc.u64(100);
        enc.bytes(b"ab");
        enc.u64(0);
        assert!(decompress(&enc.into_bytes()).is_err());
        // Match distance beyond the output produced so far.
        let mut enc = Encoder::new();
        enc.u64(50);
        enc.bytes(b"ab");
        enc.u64(8);
        enc.u64(99);
        enc.u64(0);
        assert!(decompress(&enc.into_bytes()).is_err());
        // Truncated stream.
        let good = compress(b"hello hello hello hello hello");
        assert!(decompress(&good[..good.len() - 2]).is_err());
        // Trailing garbage.
        let mut padded = compress(b"abc").to_vec();
        padded.push(7);
        assert!(decompress(&padded).is_err());
    }
}
