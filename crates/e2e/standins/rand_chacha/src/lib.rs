//! Offline stand-in for `rand_chacha` 0.3: a scalar ChaCha generator with a
//! 64-bit block counter, a 64-bit stream id and the word-position accessors
//! `ovnes-sim` uses to checkpoint a stream. One block is generated at a time;
//! the published crate buffers four with SIMD, so this one is slower per draw.

use rand::{RngCore, SeedableRng};

const WORDS: usize = 16;

#[derive(Clone, Debug)]
struct ChaCha<const ROUNDS: usize> {
    key: [u32; 8],
    stream: u64,
    /// Block that holds the next word.
    block: u64,
    /// Index of the next word within `block`.
    index: usize,
    buf: [u32; WORDS],
    buf_valid: bool,
}

#[inline(always)]
fn quarter(s: &mut [u32; WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl<const ROUNDS: usize> ChaCha<ROUNDS> {
    fn new(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha {
            key,
            stream: 0,
            block: 0,
            index: 0,
            buf: [0; WORDS],
            buf_valid: false,
        }
    }

    fn seed(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (chunk, k) in out.chunks_exact_mut(4).zip(self.key.iter()) {
            chunk.copy_from_slice(&k.to_le_bytes());
        }
        out
    }

    fn refill(&mut self) {
        let mut init = [0u32; WORDS];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = self.block as u32;
        init[13] = (self.block >> 32) as u32;
        init[14] = self.stream as u32;
        init[15] = (self.stream >> 32) as u32;
        let mut s = init;
        for _ in 0..ROUNDS / 2 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, (a, b)) in self.buf.iter_mut().zip(s.iter().zip(init.iter())) {
            *out = a.wrapping_add(*b);
        }
        self.buf_valid = true;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if !self.buf_valid {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        if self.index == WORDS {
            self.index = 0;
            self.block = self.block.wrapping_add(1);
            self.buf_valid = false;
        }
        word
    }
}

macro_rules! chacha_rng {
    ($name:ident, $rounds:expr) => {
        #[derive(Clone, Debug)]
        pub struct $name(ChaCha<$rounds>);

        impl SeedableRng for $name {
            type Seed = [u8; 32];
            fn from_seed(seed: [u8; 32]) -> Self {
                $name(ChaCha::new(seed))
            }
        }

        impl RngCore for $name {
            #[inline]
            fn next_u32(&mut self) -> u32 {
                self.0.next_word()
            }
            #[inline]
            fn next_u64(&mut self) -> u64 {
                let lo = self.0.next_word() as u64;
                let hi = self.0.next_word() as u64;
                lo | (hi << 32)
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                for chunk in dest.chunks_mut(4) {
                    let bytes = self.0.next_word().to_le_bytes();
                    chunk.copy_from_slice(&bytes[..chunk.len()]);
                }
            }
        }

        impl $name {
            pub fn get_seed(&self) -> [u8; 32] {
                self.0.seed()
            }
            pub fn get_stream(&self) -> u64 {
                self.0.stream
            }
            pub fn set_stream(&mut self, stream: u64) {
                self.0.stream = stream;
                self.0.buf_valid = false;
            }
            /// Position in the stream, in 32-bit words.
            pub fn get_word_pos(&self) -> u128 {
                self.0.block as u128 * WORDS as u128 + self.0.index as u128
            }
            pub fn set_word_pos(&mut self, word_offset: u128) {
                self.0.block = (word_offset / WORDS as u128) as u64;
                self.0.index = (word_offset % WORDS as u128) as usize;
                self.0.buf_valid = false;
            }
        }
    };
}

chacha_rng!(ChaCha8Rng, 8);
chacha_rng!(ChaCha12Rng, 12);
chacha_rng!(ChaCha20Rng, 20);

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 block function vector, adapted: with a 64-bit counter
    /// of 1 and the RFC nonce folded into the stream words the first output
    /// word of ChaCha20 must match the RFC's keystream block.
    #[test]
    fn chacha20_block_matches_rfc7539() {
        let mut seed = [0u8; 32];
        for (i, b) in seed.iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut rng = ChaCha20Rng::from_seed(seed);
        // RFC state words 12..16 are counter=1, nonce = 09000000 4a000000 00000000.
        // Here words 12,13 are the counter and 14,15 the stream.
        rng.0.block = 1 | (0x0900_0000u64 << 32);
        rng.0.stream = 0x4a00_0000;
        assert_eq!(rng.next_u32(), 0xe4e7_f110);
        assert_eq!(rng.next_u32(), 0x1559_3bd1);
    }

    #[test]
    fn word_pos_round_trips() {
        let mut a = ChaCha12Rng::seed_from_u64(7);
        for _ in 0..37 {
            a.next_u32();
        }
        let mut b = ChaCha12Rng::from_seed(a.get_seed());
        b.set_word_pos(a.get_word_pos());
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
