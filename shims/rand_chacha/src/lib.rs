//! Offline shim for `rand_chacha`: a real ChaCha8 block cipher in
//! counter mode, seeded via splitmix64 key expansion. Deterministic
//! and high-quality; the stream differs from upstream's (which nothing
//! in this workspace depends on). Counter mode makes the stream
//! seekable: [`ChaCha8Rng::set_word_pos`] jumps to any word, so
//! threads can each draw their own stretch of one stream.

use rand::{RngCore, SeedableRng};

#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    index: usize,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        // "expand 32-byte k" constants.
        let mut s: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = s;
        for _ in 0..4 {
            // 8 rounds = 4 double rounds.
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for i in 0..16 {
            self.block[i] = s[i].wrapping_add(input[i]);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    /// Seek to 32-bit keystream word `word_offset`: the next
    /// `next_u32` returns the word that many draws from a fresh
    /// generator would reach (upstream's name; offsets wrap at 2^68
    /// words, the 64-bit block counter's range).
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.counter = (word_offset >> 4) as u64;
        self.refill();
        self.index = (word_offset & 15) as usize;
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let v = splitmix64(&mut x);
            pair[0] = v as u32;
            if pair.len() > 1 {
                pair[1] = (v >> 32) as u32;
            }
        }
        let mut rng = ChaCha8Rng { key, counter: 0, block: [0; 16], index: 16 };
        rng.refill();
        rng
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let v = self.block[self.index];
        self.index += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        hi << 32 | lo
    }
}

/// Same construction with a different round count tag; provided for
/// API parity with upstream.
pub type ChaCha20Rng = ChaCha8Rng;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::seed_from_u64(123);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn set_word_pos_lands_where_stepping_does() {
        let mut stepped = ChaCha8Rng::seed_from_u64(99);
        let words: Vec<u32> = (0..128).map(|_| stepped.next_u32()).collect();
        for k in 0..64 {
            let mut r = ChaCha8Rng::seed_from_u64(99);
            r.set_word_pos(k as u128);
            let got: Vec<u32> = (0..64).map(|_| r.next_u32()).collect();
            assert_eq!(got, words[k..k + 64], "k = {k}");
        }
        // Past 2^32 blocks, where the counter's high word starts to
        // count: stepping across the carry from block 2^32 - 1 reads
        // what seeking to each word reads, and not the low blocks'.
        let start = ((1u128 << 32) - 1) * 16 + 3;
        let mut r = ChaCha8Rng::seed_from_u64(99);
        r.set_word_pos(start);
        for j in 0..64 {
            let mut seek = ChaCha8Rng::seed_from_u64(99);
            seek.set_word_pos(start + j);
            assert_eq!(r.next_u32(), seek.next_u32(), "word {}", start + j);
        }
        let mut high = ChaCha8Rng::seed_from_u64(99);
        high.set_word_pos(1 << 36);
        assert_ne!((0..16).map(|_| high.next_u32()).collect::<Vec<_>>(), words[..16]);
    }

    #[test]
    fn roughly_uniform_bits() {
        let mut r = ChaCha8Rng::seed_from_u64(42);
        let mut ones = 0u64;
        let samples = 4096;
        for _ in 0..samples {
            ones += r.next_u64().count_ones() as u64;
        }
        let expected = samples * 32;
        let dev = (ones as i64 - expected as i64).unsigned_abs();
        assert!(dev < expected / 50, "bit bias too large: {ones} vs {expected}");
    }
}
