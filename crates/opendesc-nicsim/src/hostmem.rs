//! Host memory model: the DMA-visible buffer pool TX descriptors point
//! into. Addresses are synthetic but stable, so descriptor `buf_addr`
//! fields round-trip through the contract like real IOVA addresses.
//!
//! Buffers are bump-allocated, so their base addresses are born sorted:
//! `bases` is a plain sorted vector searched with `partition_point`,
//! and `bufs` is the parallel slab of per-buffer storage. A freed
//! buffer leaves a tombstone (`None`) in the slab instead of shifting
//! its neighbours, so a [`BufId`] stays valid for the buffer's life and
//! never aliases another buffer afterwards: addresses are not reused.
//! Each buffer is its own allocation — registering a buffer never moves
//! or re-faults the memory of the ones before it.

/// A registry of DMA-visible buffers.
#[derive(Debug, Clone)]
pub struct HostMem {
    /// Base address of every buffer ever allocated, ascending.
    bases: Vec<u64>,
    /// Storage of the buffer at the same index; `None` once freed.
    bufs: Vec<Option<Box<[u8]>>>,
    live: usize,
    next_addr: u64,
}

/// O(1) handle to one registered buffer, resolved once with
/// [`HostMem::handle`]. Refuses every access once the buffer is freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(usize);

/// Buffers start above 0 so that a zero `buf_addr` (an unset descriptor
/// field) never resolves.
const BASE_ADDR: u64 = 0x1000;
/// Alignment of allocated buffers.
const ALIGN: u64 = 64;

impl Default for HostMem {
    fn default() -> Self {
        Self::new()
    }
}

impl HostMem {
    pub fn new() -> Self {
        HostMem {
            bases: Vec::new(),
            bufs: Vec::new(),
            live: 0,
            next_addr: BASE_ADDR,
        }
    }

    /// Register a buffer; returns its DMA address.
    pub fn alloc(&mut self, data: &[u8]) -> u64 {
        let addr = self.next_addr;
        self.next_addr += (data.len() as u64).max(1).div_ceil(ALIGN) * ALIGN + ALIGN;
        self.bases.push(addr);
        self.bufs.push(Some(data.into()));
        self.live += 1;
        addr
    }

    /// Slab index and offset of the buffer (live or freed) based at or
    /// below `addr`.
    fn locate(&self, addr: u64) -> Option<(usize, usize)> {
        let i = self.bases.partition_point(|&b| b <= addr).checked_sub(1)?;
        Some((i, (addr - self.bases[i]) as usize))
    }

    /// Read `len` bytes at `addr`. The access must lie within a single
    /// registered buffer (no cross-buffer reads, like an IOMMU).
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let (i, off) = self.locate(addr)?;
        self.bufs[i].as_deref()?.get(off..off.checked_add(len)?)
    }

    /// Overwrite bytes starting at `addr` (device DMA write). The whole
    /// write must lie inside one buffer; returns `false` when it does
    /// not fit.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> bool {
        match self.locate(addr) {
            Some((i, off)) => Self::write_at(&mut self.bufs[i], off, data),
            None => false,
        }
    }

    /// Handle of the live buffer based exactly at `addr`.
    pub fn handle(&self, addr: u64) -> Option<BufId> {
        let i = self.bases.binary_search(&addr).ok()?;
        self.bufs[i].as_ref().map(|_| BufId(i))
    }

    /// Overwrite the head of the buffer `id` names — [`write`] at the
    /// buffer's base without the address search. Returns `false` when
    /// the buffer was freed or `data` does not fit.
    ///
    /// [`write`]: HostMem::write
    #[inline]
    pub fn write_buf(&mut self, id: BufId, data: &[u8]) -> bool {
        match self.bufs.get_mut(id.0) {
            Some(slot) => Self::write_at(slot, 0, data),
            None => false,
        }
    }

    #[inline]
    fn write_at(slot: &mut Option<Box<[u8]>>, off: usize, data: &[u8]) -> bool {
        let Some(dst) = slot
            .as_deref_mut()
            .and_then(|buf| buf.get_mut(off..off.checked_add(data.len())?))
        else {
            return false;
        };
        dst.copy_from_slice(data);
        true
    }

    /// Capacity of the buffer based exactly at `addr`.
    pub fn buf_capacity(&self, addr: u64) -> Option<usize> {
        let i = self.bases.binary_search(&addr).ok()?;
        self.bufs[i].as_ref().map(|b| b.len())
    }

    /// Release a buffer. Returns `false` when `addr` is not a live
    /// buffer's base.
    pub fn free(&mut self, addr: u64) -> bool {
        let Ok(i) = self.bases.binary_search(&addr) else {
            return false;
        };
        if self.bufs[i].take().is_none() {
            return false;
        }
        self.live -= 1;
        true
    }

    /// Number of live buffers.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn alloc_read_roundtrip() {
        let mut m = HostMem::new();
        let a = m.alloc(b"hello");
        assert_eq!(m.read(a, 5), Some(&b"hello"[..]));
        assert_eq!(m.read(a + 1, 3), Some(&b"ell"[..]));
    }

    #[test]
    fn reads_do_not_cross_buffers() {
        let mut m = HostMem::new();
        let a = m.alloc(&[1u8; 8]);
        let _b = m.alloc(&[2u8; 8]);
        assert_eq!(m.read(a, 8), Some(&[1u8; 8][..]));
        assert_eq!(m.read(a, 9), None, "read past buffer end must fail");
    }

    #[test]
    fn zero_address_never_resolves() {
        let mut m = HostMem::new();
        m.alloc(b"x");
        assert_eq!(m.read(0, 1), None);
        assert_eq!(m.handle(0), None);
    }

    #[test]
    fn free_releases() {
        let mut m = HostMem::new();
        let a = m.alloc(b"x");
        let h = m.handle(a).unwrap();
        assert!(m.free(a));
        assert!(!m.free(a));
        assert_eq!(m.read(a, 1), None);
        assert_eq!(m.handle(a), None);
        assert!(!m.write_buf(h, b"y"), "a freed handle refuses");
        assert!(m.is_empty());
    }

    #[test]
    fn handle_writes_bounded_by_the_buffer() {
        let mut m = HostMem::new();
        let a = m.alloc(&[0u8; 4]);
        let b = m.alloc(&[9u8; 4]);
        let h = m.handle(a).unwrap();
        assert_eq!(m.handle(a + 1), None, "handles name buffer bases only");
        assert!(m.write_buf(h, b"abcd"));
        assert!(!m.write_buf(h, b"abcde"), "overlong write refused whole");
        assert_eq!(m.read(a, 4), Some(&b"abcd"[..]));
        assert_eq!(m.read(b, 4), Some(&[9u8; 4][..]));
    }

    #[test]
    fn addresses_unique_and_aligned() {
        let mut m = HostMem::new();
        let a = m.alloc(&[0u8; 100]);
        let b = m.alloc(&[0u8; 1]);
        assert_ne!(a, b);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b > a + 100);
    }

    /// The map-backed registry `HostMem` replaced, kept as the
    /// differential reference: an ordered map from base address to
    /// buffer, resolved by a range search on every access.
    #[derive(Default)]
    struct RefMem {
        bufs: BTreeMap<u64, Vec<u8>>,
    }

    impl RefMem {
        fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
            let (base, buf) = self.bufs.range(..=addr).next_back()?;
            let off = (addr - base) as usize;
            buf.get(off..off + len)
        }

        fn write(&mut self, addr: u64, data: &[u8]) -> bool {
            let Some((base, buf)) = self.bufs.range_mut(..=addr).next_back() else {
                return false;
            };
            let off = (addr - base) as usize;
            if off + data.len() > buf.len() {
                return false;
            }
            buf[off..off + data.len()].copy_from_slice(data);
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random alloc/free/read/write/write_buf/buf_capacity/len
        /// sequences agree with the map reference. Addresses probe
        /// buffer bases, interiors, ends, the gaps between buffers,
        /// freed buffers and zero; handles include freed ones.
        #[test]
        fn matches_map_reference(
            ops in proptest::collection::vec(
                (0u8..8, 0usize..64, 0u64..300, 0usize..160, any::<u8>()),
                1..160,
            )
        ) {
            let mut m = HostMem::new();
            let mut r = RefMem::default();
            // Every buffer ever allocated, with the handle resolved at
            // allocation (it must keep refusing after a free).
            let mut made: Vec<(u64, BufId)> = Vec::new();
            for (op, pick, delta, len, byte) in ops {
                let target = made.get(pick % made.len().max(1)).copied();
                let addr = match (pick % 5, target) {
                    (0, _) | (_, None) => delta,
                    (_, Some((base, _))) => base + delta,
                };
                let data = vec![byte; len];
                match op {
                    0 => {
                        let a = m.alloc(&data);
                        prop_assert!(!r.bufs.contains_key(&a), "address reused");
                        r.bufs.insert(a, data);
                        made.push((a, m.handle(a).unwrap()));
                    }
                    1 => prop_assert_eq!(m.free(addr), r.bufs.remove(&addr).is_some()),
                    2 | 3 => prop_assert_eq!(m.read(addr, len), r.read(addr, len)),
                    4 => prop_assert_eq!(m.write(addr, &data), r.write(addr, &data)),
                    5 => {
                        if let Some((base, h)) = target {
                            let want = r.bufs.contains_key(&base) && r.write(base, &data);
                            prop_assert_eq!(m.write_buf(h, &data), want);
                        }
                    }
                    6 => prop_assert_eq!(
                        m.buf_capacity(addr),
                        r.bufs.get(&addr).map(Vec::len)
                    ),
                    _ => {
                        prop_assert_eq!(m.len(), r.bufs.len());
                        prop_assert_eq!(m.is_empty(), r.bufs.is_empty());
                    }
                }
                prop_assert_eq!(m.read(0, 0), None, "zero address resolved");
                prop_assert_eq!(m.handle(0), None);
            }
            // Final sweep: every buffer reads back exactly its bytes,
            // one more byte crosses its end and is refused, and a freed
            // buffer refuses by address and by handle.
            for (base, h) in made {
                match r.bufs.get(&base) {
                    Some(buf) => {
                        prop_assert_eq!(m.read(base, buf.len()), Some(&buf[..]));
                        prop_assert_eq!(m.read(base, buf.len() + 1), None);
                        prop_assert_eq!(m.handle(base), Some(h));
                    }
                    None => {
                        prop_assert_eq!(m.read(base, 0), None);
                        prop_assert_eq!(m.handle(base), None);
                        prop_assert!(!m.write_buf(h, &[]));
                    }
                }
            }
        }
    }
}
