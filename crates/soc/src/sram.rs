//! The shared internal SRAM window visible to both cores.

use std::fmt;

use crate::error::SramError;

/// Bytes per [`SharedSram`] page.
const PAGE_BYTES: usize = 4096;

/// Byte-addressable shared memory, modelled after the 250 KB of internal
/// SRAM that the OMAP5912's ARM and DSP cores exchange data through.
///
/// All accesses are bounds-checked and return [`SramError::OutOfBounds`] on
/// violation — the simulated equivalent of a bus fault, which the upper
/// layers surface as a crash of the offending core.
///
/// The window is stored as 4 KB pages, each allocated on its first write;
/// unwritten bytes read as zero. Building a window therefore costs no
/// more than its page table, and a trial holds only the pages it wrote.
/// `{:?}` prints the capacity and the indices of the written pages, not
/// the bytes.
///
/// ```
/// use ptest_soc::SharedSram;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sram = SharedSram::new(64);
/// sram.write_bytes(0, &[1, 2, 3])?;
/// assert_eq!(sram.read_u8(1)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SharedSram {
    capacity: usize,
    /// Page `i` holds bytes `i * PAGE_BYTES..(i + 1) * PAGE_BYTES`;
    /// `None` until first written.
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
}

/// Splits `offset..offset + len` at page boundaries into
/// `(page, start within the page, length)` pieces, in address order.
/// The caller has bounds-checked the range, so its end does not overflow.
fn pieces(offset: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let end = offset + len;
    let mut at = offset;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let (page, start) = (at / PAGE_BYTES, at % PAGE_BYTES);
            let n = (PAGE_BYTES - start).min(end - at);
            at += n;
            (page, start, n)
        })
    })
}

impl SharedSram {
    /// The shared internal SRAM size of the OMAP5912: 250 KB.
    pub const OMAP5912_BYTES: usize = 250 * 1024;

    /// Creates a window of `capacity` bytes that reads as zeros; it
    /// allocates no page until one is written.
    #[must_use]
    pub fn new(capacity: usize) -> SharedSram {
        SharedSram {
            capacity,
            pages: vec![None; capacity.div_ceil(PAGE_BYTES)],
        }
    }

    /// Creates the OMAP5912-sized 250 KB window.
    #[must_use]
    pub fn omap5912() -> SharedSram {
        SharedSram::new(Self::OMAP5912_BYTES)
    }

    /// Total size of the window in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), SramError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(SramError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Page `page`, allocated as zeros if this is its first write.
    fn page_mut(&mut self, page: usize) -> &mut [u8; PAGE_BYTES] {
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if `offset` is outside the window.
    pub fn read_u8(&self, offset: usize) -> Result<u8, SramError> {
        self.check(offset, 1)?;
        Ok(self.pages[offset / PAGE_BYTES]
            .as_ref()
            .map_or(0, |page| page[offset % PAGE_BYTES]))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if `offset` is outside the window.
    pub fn write_u8(&mut self, offset: usize, value: u8) -> Result<(), SramError> {
        self.check(offset, 1)?;
        self.page_mut(offset / PAGE_BYTES)[offset % PAGE_BYTES] = value;
        Ok(())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if any of the four bytes fall outside the
    /// window.
    pub fn read_u32_le(&self, offset: usize) -> Result<u32, SramError> {
        let mut b = [0; 4];
        self.read_bytes(offset, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if any of the four bytes fall outside the
    /// window.
    pub fn write_u32_le(&mut self, offset: usize, value: u32) -> Result<(), SramError> {
        self.write_bytes(offset, &value.to_le_bytes())
    }

    /// Copies `buf.len()` bytes out of the window starting at `offset`.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if the range exceeds the window.
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) -> Result<(), SramError> {
        self.check(offset, buf.len())?;
        let mut done = 0;
        for (page, start, n) in pieces(offset, buf.len()) {
            let out = &mut buf[done..done + n];
            match &self.pages[page] {
                Some(bytes) => out.copy_from_slice(&bytes[start..start + n]),
                None => out.fill(0),
            }
            done += n;
        }
        Ok(())
    }

    /// Copies `data` into the window starting at `offset`.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if the range exceeds the window.
    pub fn write_bytes(&mut self, offset: usize, data: &[u8]) -> Result<(), SramError> {
        self.check(offset, data.len())?;
        let mut done = 0;
        for (page, start, n) in pieces(offset, data.len()) {
            self.page_mut(page)[start..start + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Fills `len` bytes starting at `offset` with `value`.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if the range exceeds the window.
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) -> Result<(), SramError> {
        self.check(offset, len)?;
        for (page, start, n) in pieces(offset, len) {
            self.page_mut(page)[start..start + n].fill(value);
        }
        Ok(())
    }

    /// Carves `count` equally sized per-slave windows of `stride` bytes out
    /// of the SRAM, starting at `base`, returning each window's base
    /// offset. This is how the bridge middleware partitions the shared
    /// memory so every slave gets its own command/response region.
    ///
    /// # Errors
    ///
    /// [`SramError::OutOfBounds`] if the combined windows exceed the SRAM
    /// capacity (the error reports the full carved range).
    pub fn carve_windows(
        &self,
        base: usize,
        stride: usize,
        count: usize,
    ) -> Result<Vec<usize>, SramError> {
        let total = stride.checked_mul(count).ok_or(SramError::OutOfBounds {
            offset: base,
            len: usize::MAX,
            capacity: self.capacity,
        })?;
        self.check(base, total)?;
        Ok((0..count).map(|i| base + i * stride).collect())
    }
}

impl fmt::Debug for SharedSram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let written: Vec<usize> = (0..self.pages.len())
            .filter(|&i| self.pages[i].is_some())
            .collect();
        f.debug_struct("SharedSram")
            .field("capacity", &self.capacity)
            .field("written_pages", &written)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn omap_size_matches_datasheet() {
        assert_eq!(SharedSram::omap5912().capacity(), 250 * 1024);
    }

    #[test]
    fn u8_roundtrip() {
        let mut s = SharedSram::new(8);
        s.write_u8(3, 0xab).unwrap();
        assert_eq!(s.read_u8(3).unwrap(), 0xab);
    }

    #[test]
    fn u32_roundtrip_is_little_endian() {
        let mut s = SharedSram::new(8);
        s.write_u32_le(0, 0x0102_0304).unwrap();
        assert_eq!(s.read_u8(0).unwrap(), 0x04);
        assert_eq!(s.read_u8(3).unwrap(), 0x01);
        assert_eq!(s.read_u32_le(0).unwrap(), 0x0102_0304);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut s = SharedSram::new(16);
        s.write_bytes(4, &[9, 8, 7]).unwrap();
        let mut out = [0u8; 3];
        s.read_bytes(4, &mut out).unwrap();
        assert_eq!(out, [9, 8, 7]);
    }

    #[test]
    fn out_of_bounds_read_is_rejected() {
        let s = SharedSram::new(4);
        assert!(matches!(
            s.read_u32_le(1),
            Err(SramError::OutOfBounds {
                offset: 1,
                len: 4,
                capacity: 4
            })
        ));
        assert!(s.read_u8(4).is_err());
    }

    #[test]
    fn out_of_bounds_write_is_rejected() {
        let mut s = SharedSram::new(4);
        assert!(s.write_u32_le(2, 0).is_err());
        assert!(s.write_bytes(0, &[0; 5]).is_err());
    }

    #[test]
    fn overflowing_offset_is_rejected_not_panicking() {
        let s = SharedSram::new(4);
        assert!(s.read_u8(usize::MAX).is_err());
    }

    #[test]
    fn fill_works_and_checks_bounds() {
        let mut s = SharedSram::new(8);
        s.fill(2, 4, 0xff).unwrap();
        assert_eq!(s.read_u8(1).unwrap(), 0);
        assert_eq!(s.read_u8(2).unwrap(), 0xff);
        assert_eq!(s.read_u8(5).unwrap(), 0xff);
        assert_eq!(s.read_u8(6).unwrap(), 0);
        assert!(s.fill(6, 4, 0).is_err());
    }

    #[test]
    fn carve_windows_partitions_the_sram() {
        let s = SharedSram::new(1024);
        let windows = s.carve_windows(0x100, 0x80, 4).unwrap();
        assert_eq!(windows, vec![0x100, 0x180, 0x200, 0x280]);
        // Windows that overflow the capacity are rejected.
        assert!(s.carve_windows(0x100, 0x80, 8).is_err());
        assert!(s.carve_windows(0, usize::MAX, 2).is_err());
        // Zero windows carve nothing and always fit.
        assert_eq!(s.carve_windows(0, 0x80, 0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn fresh_sram_is_zeroed() {
        let s = SharedSram::new(32);
        for i in 0..32 {
            assert_eq!(s.read_u8(i).unwrap(), 0);
        }
    }

    /// An offset that lands near a page boundary (`kind` 0), anywhere in
    /// or just past the window (1), within 4 bytes of the window's end (2)
    /// or near `usize::MAX` (3).
    type OffsetDraw = (u8, usize, usize);

    /// A length: 0–4 bytes (0), about a page (1), up to two pages (2),
    /// the whole window (3) or near `usize::MAX` (4).
    type LenDraw = (u8, usize);

    fn offset(capacity: usize, (kind, page, r): OffsetDraw) -> usize {
        match kind {
            0 => (page * PAGE_BYTES + r % 9).wrapping_sub(4),
            1 => r % (capacity + 8),
            2 => (capacity + r % 9).wrapping_sub(4),
            _ => usize::MAX - r % 8,
        }
    }

    fn len(capacity: usize, (kind, r): LenDraw) -> usize {
        match kind {
            0 => r % 5,
            1 => PAGE_BYTES - 4 + r % 9,
            2 => r % (2 * PAGE_BYTES + 16),
            3 => capacity,
            _ => usize::MAX - r % 8,
        }
    }

    /// A generated operation, resolved against a capacity by
    /// [`Op::access`].
    #[derive(Debug, Clone)]
    enum Op {
        ReadU8(OffsetDraw),
        WriteU8(OffsetDraw, u8),
        ReadU32(OffsetDraw),
        WriteU32(OffsetDraw, u32),
        ReadBytes(OffsetDraw, LenDraw),
        WriteBytes(OffsetDraw, LenDraw, u8),
        Fill(OffsetDraw, LenDraw, u8),
        Carve(OffsetDraw, LenDraw, usize),
    }

    #[derive(Debug)]
    enum Access {
        ReadU8(usize),
        WriteU8(usize, u8),
        ReadU32(usize),
        WriteU32(usize, u32),
        ReadBytes(usize, usize),
        WriteBytes(usize, Vec<u8>),
        Fill(usize, usize, u8),
        Carve(usize, usize, usize),
    }

    impl Op {
        fn access(&self, capacity: usize) -> Access {
            let at = |o: &OffsetDraw| offset(capacity, *o);
            // A buffer one past the window is out of range on any offset
            // and still small enough to allocate.
            let buf_len = |l: &LenDraw| len(capacity, *l).min(capacity + 1);
            match self {
                Op::ReadU8(o) => Access::ReadU8(at(o)),
                Op::WriteU8(o, v) => Access::WriteU8(at(o), *v),
                Op::ReadU32(o) => Access::ReadU32(at(o)),
                Op::WriteU32(o, v) => Access::WriteU32(at(o), *v),
                Op::ReadBytes(o, l) => Access::ReadBytes(at(o), buf_len(l)),
                Op::WriteBytes(o, l, v) => {
                    let data = (0..buf_len(l)).map(|i| v.wrapping_add(i as u8)).collect();
                    Access::WriteBytes(at(o), data)
                }
                Op::Fill(o, l, v) => Access::Fill(at(o), len(capacity, *l), *v),
                Op::Carve(o, l, count) => Access::Carve(at(o), len(capacity, *l), *count),
            }
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let o = || (0u8..4, 0usize..64, 0usize..1 << 20);
        let l = || (0u8..5, 0usize..1 << 20);
        prop_oneof![
            o().prop_map(Op::ReadU8),
            (o(), any::<u8>()).prop_map(|(o, v)| Op::WriteU8(o, v)),
            o().prop_map(Op::ReadU32),
            (o(), any::<u32>()).prop_map(|(o, v)| Op::WriteU32(o, v)),
            (o(), l()).prop_map(|(o, l)| Op::ReadBytes(o, l)),
            (o(), l(), any::<u8>()).prop_map(|(o, l, v)| Op::WriteBytes(o, l, v)),
            (o(), l(), any::<u8>()).prop_map(|(o, l, v)| Op::Fill(o, l, v)),
            (o(), l(), 0usize..300).prop_map(|(o, l, n)| Op::Carve(o, l, n)),
        ]
    }

    #[derive(Debug, PartialEq)]
    enum Out {
        Unit,
        U8(u8),
        U32(u32),
        Bytes(Vec<u8>),
        Windows(Vec<usize>),
    }

    fn on_paged(sram: &mut SharedSram, access: &Access) -> Result<Out, SramError> {
        Ok(match *access {
            Access::ReadU8(o) => Out::U8(sram.read_u8(o)?),
            Access::WriteU8(o, v) => sram.write_u8(o, v).map(|()| Out::Unit)?,
            Access::ReadU32(o) => Out::U32(sram.read_u32_le(o)?),
            Access::WriteU32(o, v) => sram.write_u32_le(o, v).map(|()| Out::Unit)?,
            Access::ReadBytes(o, n) => {
                let mut buf = vec![0; n];
                sram.read_bytes(o, &mut buf)?;
                Out::Bytes(buf)
            }
            Access::WriteBytes(o, ref data) => sram.write_bytes(o, data).map(|()| Out::Unit)?,
            Access::Fill(o, n, v) => sram.fill(o, n, v).map(|()| Out::Unit)?,
            Access::Carve(base, stride, count) => {
                Out::Windows(sram.carve_windows(base, stride, count)?)
            }
        })
    }

    /// The reference: one flat `Vec<u8>`, the layout the pages replaced.
    fn on_flat(bytes: &mut [u8], access: &Access) -> Result<Out, SramError> {
        let capacity = bytes.len();
        let range = |offset: usize, len: usize| match offset.checked_add(len) {
            Some(end) if end <= capacity => Ok(offset..end),
            _ => Err(SramError::OutOfBounds {
                offset,
                len,
                capacity,
            }),
        };
        Ok(match *access {
            Access::ReadU8(o) => Out::U8(bytes[range(o, 1)?][0]),
            Access::WriteU8(o, v) => {
                bytes[range(o, 1)?][0] = v;
                Out::Unit
            }
            Access::ReadU32(o) => {
                Out::U32(u32::from_le_bytes(bytes[range(o, 4)?].try_into().unwrap()))
            }
            Access::WriteU32(o, v) => {
                bytes[range(o, 4)?].copy_from_slice(&v.to_le_bytes());
                Out::Unit
            }
            Access::ReadBytes(o, n) => Out::Bytes(bytes[range(o, n)?].to_vec()),
            Access::WriteBytes(o, ref data) => {
                bytes[range(o, data.len())?].copy_from_slice(data);
                Out::Unit
            }
            Access::Fill(o, n, v) => {
                bytes[range(o, n)?].fill(v);
                Out::Unit
            }
            Access::Carve(base, stride, count) => {
                let total = stride.checked_mul(count).ok_or(SramError::OutOfBounds {
                    offset: base,
                    len: usize::MAX,
                    capacity,
                })?;
                range(base, total)?;
                Out::Windows((0..count).map(|i| base + i * stride).collect())
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every access returns what a flat `Vec<u8>` returns, errors
        /// included, and the windows end holding the same bytes.
        #[test]
        fn paged_sram_matches_a_flat_vec(
            cap in 0usize..6,
            ops in proptest::collection::vec(arb_op(), 1..48),
        ) {
            let capacity = [1, 8, 4095, 4096, 4097, SharedSram::OMAP5912_BYTES][cap];
            let mut sram = SharedSram::new(capacity);
            let mut flat = vec![0; capacity];
            for op in &ops {
                let access = op.access(capacity);
                prop_assert_eq!(
                    on_paged(&mut sram, &access),
                    on_flat(&mut flat, &access),
                    "{:?}",
                    access
                );
            }
            let mut all = vec![0; capacity];
            sram.read_bytes(0, &mut all).unwrap();
            prop_assert_eq!(all, flat);
        }
    }

    #[test]
    fn debug_lists_written_pages_not_bytes() {
        let mut s = SharedSram::omap5912();
        assert_eq!(
            format!("{s:?}"),
            "SharedSram { capacity: 256000, written_pages: [] }"
        );
        // A write straddling a page boundary allocates both pages.
        s.write_u32_le(2 * PAGE_BYTES - 2, 1).unwrap();
        assert_eq!(
            format!("{s:?}"),
            "SharedSram { capacity: 256000, written_pages: [1, 2] }"
        );
    }
}
