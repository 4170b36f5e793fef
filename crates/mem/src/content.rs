//! Sparse frame content.
//!
//! A simulated node carries tens of millions of frames; most are written
//! only at a word or two (commit touches, slot writes). Materializing a
//! full 4 KiB buffer per frame would cost the host as much memory as the
//! simulated machine has, so content is stored sparsely and promoted to a
//! dense page only when a frame accumulates enough distinct bytes. The
//! commonest case, one word written into a fresh frame, is held inline
//! in the enum itself, so writing it (and cloning it on a COW break)
//! touches no heap.

use crate::addr::PAGE_SIZE;

/// How many sparse bytes a frame may hold before promotion to dense.
const SPARSE_LIMIT: usize = 128;

/// The longest first write a frame holds inline (one machine word).
const INLINE_MAX: usize = 8;

/// Byte content of one frame, lazily and sparsely materialized.
#[derive(Clone, Debug, Default)]
pub enum PageContent {
    /// Never written: reads as zeroes, costs nothing.
    #[default]
    Zero,
    /// Exactly one written fragment of at most 8 bytes:
    /// `word[..len]` at `offset`. Logically the same page as
    /// `Sparse(vec![(offset, word[..len].to_vec())])`, without the two
    /// heap allocations; it fits in the space `Sparse`'s `Vec` takes.
    Inline {
        /// Byte offset of the fragment.
        offset: u16,
        /// Fragment length, 1 to 8.
        len: u8,
        /// The fragment, zero-padded past `len`.
        word: [u8; INLINE_MAX],
    },
    /// A few written fragments: `(offset, bytes)`, non-overlapping,
    /// sorted by offset.
    Sparse(Vec<(u16, Vec<u8>)>),
    /// Fully materialized page.
    Dense(Box<[u8; PAGE_SIZE]>),
}

impl PageContent {
    /// Writes `bytes` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the page boundary.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        assert!(
            offset + bytes.len() <= PAGE_SIZE,
            "write crosses frame boundary"
        );
        if bytes.is_empty() {
            return;
        }
        match self {
            PageContent::Dense(page) => {
                page[offset..offset + bytes.len()].copy_from_slice(bytes);
            }
            PageContent::Zero if bytes.len() <= INLINE_MAX => {
                let mut word = [0u8; INLINE_MAX];
                word[..bytes.len()].copy_from_slice(bytes);
                *self = PageContent::Inline {
                    offset: offset as u16,
                    len: bytes.len() as u8,
                    word,
                };
            }
            PageContent::Zero => {
                if bytes.len() > SPARSE_LIMIT {
                    self.promote();
                    self.write(offset, bytes);
                } else {
                    *self = PageContent::Sparse(vec![(offset as u16, bytes.to_vec())]);
                }
            }
            PageContent::Inline {
                offset: fo,
                len,
                word,
            } => {
                // A second write takes exactly the path a one-fragment
                // `Sparse` page takes.
                *self = PageContent::Sparse(vec![(*fo, word[..*len as usize].to_vec())]);
                self.write(offset, bytes);
            }
            PageContent::Sparse(frags) => {
                let total: usize = frags.iter().map(|(_, b)| b.len()).sum();
                if total + bytes.len() > SPARSE_LIMIT {
                    self.promote();
                    self.write(offset, bytes);
                    return;
                }
                // Remove or trim overlapping fragments, then insert.
                let start = offset;
                let end = offset + bytes.len();
                let mut rebuilt: Vec<(u16, Vec<u8>)> = Vec::with_capacity(frags.len() + 1);
                for (fo, fb) in frags.drain(..) {
                    let fs = fo as usize;
                    let fe = fs + fb.len();
                    if fe <= start || fs >= end {
                        rebuilt.push((fo, fb));
                        continue;
                    }
                    // Keep the non-overlapping prefix/suffix.
                    if fs < start {
                        rebuilt.push((fo, fb[..start - fs].to_vec()));
                    }
                    if fe > end {
                        rebuilt.push((end as u16, fb[end - fs..].to_vec()));
                    }
                }
                rebuilt.push((start as u16, bytes.to_vec()));
                rebuilt.sort_by_key(|&(o, _)| o);
                *frags = rebuilt;
            }
        }
    }

    /// Reads into `out` from `offset`; unwritten bytes read as zero.
    ///
    /// # Panics
    ///
    /// Panics if the read crosses the page boundary.
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        assert!(
            offset + out.len() <= PAGE_SIZE,
            "read crosses frame boundary"
        );
        match self {
            PageContent::Zero => out.fill(0),
            PageContent::Dense(page) => {
                out.copy_from_slice(&page[offset..offset + out.len()]);
            }
            PageContent::Inline { .. } | PageContent::Sparse(_) => {
                out.fill(0);
                let start = offset;
                let end = offset + out.len();
                self.for_each_fragment(|fs, fb| {
                    let fe = fs + fb.len();
                    if fe <= start || fs >= end {
                        return;
                    }
                    let copy_start = fs.max(start);
                    let copy_end = fe.min(end);
                    out[copy_start - start..copy_end - start]
                        .copy_from_slice(&fb[copy_start - fs..copy_end - fs]);
                });
            }
        }
    }

    /// Calls `f(offset, bytes)` for each written fragment of an `Inline`
    /// or `Sparse` page, in offset order; nothing for the other variants.
    fn for_each_fragment(&self, mut f: impl FnMut(usize, &[u8])) {
        match self {
            PageContent::Inline { offset, len, word } => {
                f(*offset as usize, &word[..*len as usize])
            }
            PageContent::Sparse(frags) => {
                for (fo, fb) in frags {
                    f(*fo as usize, fb);
                }
            }
            PageContent::Zero | PageContent::Dense(_) => {}
        }
    }

    fn promote(&mut self) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        self.for_each_fragment(|fs, fb| page[fs..fs + fb.len()].copy_from_slice(fb));
        *self = PageContent::Dense(page);
    }

    /// Whether nothing has been written.
    pub fn is_zero(&self) -> bool {
        matches!(self, PageContent::Zero)
    }

    /// A 64-bit digest of the page's logical bytes (zero-filled holes
    /// included), equal iff the full 4 KiB contents are equal with high
    /// probability. Used by the KSM-style dedup scanner.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the logical page, skipping zero runs cheaply.
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        match self {
            PageContent::Zero => OFFSET,
            PageContent::Dense(page) => {
                let mut h = OFFSET;
                for &b in page.iter() {
                    h = (h ^ b as u64).wrapping_mul(PRIME);
                }
                h
            }
            PageContent::Inline { .. } | PageContent::Sparse(_) => {
                // Hash as if the page were dense: zero bytes between
                // fragments must contribute exactly like Dense's zeroes.
                let mut h = OFFSET;
                let mut pos = 0usize;
                let hash_zeroes = |h: &mut u64, n: usize| {
                    for _ in 0..n {
                        *h = h.wrapping_mul(PRIME);
                    }
                };
                self.for_each_fragment(|fs, fb| {
                    hash_zeroes(&mut h, fs - pos);
                    for &b in fb {
                        h = (h ^ b as u64).wrapping_mul(PRIME);
                    }
                    pos = fs + fb.len();
                });
                hash_zeroes(&mut h, PAGE_SIZE - pos);
                h
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_reads_zero() {
        let c = PageContent::Zero;
        let mut buf = [0xFFu8; 8];
        c.read(100, &mut buf);
        assert_eq!(buf, [0; 8]);
        assert!(c.is_zero());
    }

    #[test]
    fn sparse_write_read_round_trip() {
        let mut c = PageContent::Zero;
        c.write(10, b"hello");
        c.write(100, b"world");
        let mut buf = [0u8; 5];
        c.read(10, &mut buf);
        assert_eq!(&buf, b"hello");
        c.read(100, &mut buf);
        assert_eq!(&buf, b"world");
        // Gap reads as zero.
        let mut gap = [9u8; 4];
        c.read(20, &mut gap);
        assert_eq!(gap, [0; 4]);
        assert!(matches!(c, PageContent::Sparse(_)));
    }

    #[test]
    fn overlapping_sparse_writes_take_latest() {
        let mut c = PageContent::Zero;
        c.write(10, b"aaaaaaaa");
        c.write(12, b"bb");
        let mut buf = [0u8; 8];
        c.read(10, &mut buf);
        assert_eq!(&buf, b"aabbaaaa");
        // Partial overlap on the left edge.
        c.write(8, b"cccc");
        c.read(8, &mut buf);
        assert_eq!(&buf, b"ccccbbaa");
    }

    #[test]
    fn large_write_promotes_to_dense() {
        let mut c = PageContent::Zero;
        c.write(0, &[7u8; 300]);
        assert!(matches!(c, PageContent::Dense(_)));
        let mut buf = [0u8; 2];
        c.read(299, &mut buf);
        assert_eq!(buf, [7, 0]);
    }

    #[test]
    fn accumulation_promotes() {
        let mut c = PageContent::Zero;
        for i in 0..40u16 {
            c.write(i as usize * 16, &[i as u8; 8]);
        }
        assert!(matches!(c, PageContent::Dense(_)));
        let mut buf = [0u8; 8];
        c.read(16 * 39, &mut buf);
        assert_eq!(buf, [39; 8]);
    }

    #[test]
    fn read_spanning_fragments() {
        let mut c = PageContent::Zero;
        c.write(0, b"ab");
        c.write(4, b"cd");
        let mut buf = [0u8; 6];
        c.read(0, &mut buf);
        assert_eq!(&buf, b"ab\0\0cd");
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn boundary_checked() {
        PageContent::Zero.read(PAGE_SIZE - 1, &mut [0u8; 2]);
    }

    #[test]
    fn digest_sparse_equals_dense() {
        let mut sparse = PageContent::Zero;
        sparse.write(100, b"hello");
        sparse.write(4000, b"tail");
        let mut dense = PageContent::Zero;
        dense.write(0, &[0u8; 300]); // force dense
        dense.write(100, b"hello");
        dense.write(4000, b"tail");
        assert!(matches!(dense, PageContent::Dense(_)));
        assert_eq!(sparse.digest(), dense.digest());
    }

    #[test]
    fn one_word_stays_inline_until_a_second_write() {
        let mut c = PageContent::Zero;
        c.write(4088, &7u64.to_le_bytes());
        assert!(matches!(
            c,
            PageContent::Inline {
                offset: 4088,
                len: 8,
                ..
            }
        ));
        let mut buf = [0u8; 10];
        c.read(4086, &mut buf);
        assert_eq!(buf, [0, 0, 7, 0, 0, 0, 0, 0, 0, 0]);
        c.write(4090, b"ab");
        assert!(matches!(c, PageContent::Sparse(_)));
        c.read(4086, &mut buf);
        assert_eq!(buf, [0, 0, 7, 0, b'a', b'b', 0, 0, 0, 0]);
        // Nine bytes are past the inline limit.
        let mut wide = PageContent::Zero;
        wide.write(0, &[1; 9]);
        assert!(matches!(wide, PageContent::Sparse(_)));
    }

    #[test]
    fn inline_fits_in_the_sparse_payload() {
        assert_eq!(
            std::mem::size_of::<PageContent>(),
            std::mem::size_of::<Vec<(u16, Vec<u8>)>>()
        );
    }

    #[test]
    fn digest_inline_equals_sparse_and_dense() {
        let mut inline = PageContent::Zero;
        inline.write(100, b"word");
        assert!(matches!(inline, PageContent::Inline { .. }));
        let sparse = PageContent::Sparse(vec![(100, b"word".to_vec())]);
        let mut dense = PageContent::Zero;
        dense.write(0, &[0u8; 300]);
        dense.write(100, b"word");
        assert_eq!(inline.digest(), sparse.digest());
        assert_eq!(inline.digest(), dense.digest());
        // A clone promoted past the limit still reads the word.
        let mut grown = inline.clone();
        grown.write(1000, &[5u8; 200]);
        assert!(matches!(grown, PageContent::Dense(_)));
        let mut buf = [0u8; 4];
        grown.read(100, &mut buf);
        assert_eq!(&buf, b"word");
    }

    #[test]
    fn digest_distinguishes_content_and_position() {
        let mut a = PageContent::Zero;
        a.write(0, b"x");
        let mut b = PageContent::Zero;
        b.write(1, b"x");
        let mut c = PageContent::Zero;
        c.write(0, b"y");
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(PageContent::Zero.digest(), PageContent::Zero.digest());
    }
}
