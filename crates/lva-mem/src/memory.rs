//! Sparse simulated memory.

use lva_core::{Addr, IntMap, Value, ValueType};

const PAGE_BYTES: u64 = 4096;

type PageMap = IntMap<u64, Box<[u8; PAGE_BYTES as usize]>>;

/// First address the bump allocator hands out; everything below (including
/// the null page) stays in the sparse tier.
const HEAP_BASE: u64 = 0x1_0000;

/// A flat, byte-addressable simulated memory with a bump allocator for
/// laying out workload data structures.
///
/// The allocated range `[HEAP_BASE, brk)` is backed by one dense `Vec<u8>`
/// — a bounds check and a direct index on the per-load hot path, no page
/// lookup. Addresses outside that range (kernels and tests are free to
/// touch arbitrary addresses) fall back to sparse 4 KiB pages.
///
/// Reads of never-written bytes return zero, like anonymous mappings.
///
/// # Example
///
/// ```
/// use lva_mem::SimMemory;
/// use lva_core::ValueType;
///
/// let mut mem = SimMemory::new();
/// let prices = mem.alloc(4 * 100, 64); // 100 f32 prices, block-aligned
/// mem.write_f32(prices.offset(8), 3.25);
/// assert_eq!(mem.read_f32(prices.offset(8)), 3.25);
/// assert_eq!(mem.read_f32(prices), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimMemory {
    /// Dense backing for `[HEAP_BASE, HEAP_BASE + heap.len())`.
    heap: Vec<u8>,
    /// Sparse fallback for everything outside the dense heap.
    pages: PageMap,
    /// Next free address for `alloc`. Starts above the null page so address
    /// 0 is never handed out.
    brk: u64,
}

impl SimMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        SimMemory {
            heap: Vec::new(),
            pages: PageMap::default(),
            brk: HEAP_BASE,
        }
    }

    /// Allocates `bytes` bytes aligned to `align` (power of two) and returns
    /// the base address. Allocation never fails (the memory is sparse) and
    /// never reuses addresses.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        self.brk = base + bytes.max(1);
        // Grow the dense tier to cover the new allocation. Fresh bytes are
        // zero, matching the sparse tier's anonymous-mapping semantics.
        let len = (self.brk - HEAP_BASE) as usize;
        if len > self.heap.len() {
            self.heap.resize(len, 0);
        }
        Addr(base)
    }

    /// Reads one byte.
    #[must_use]
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if let Some(&b) = self.heap.get(off) {
            return b;
        }
        match self.pages.get(&(addr.0 / PAGE_BYTES)) {
            Some(page) => page[(addr.0 % PAGE_BYTES) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub(crate) fn write_u8(&mut self, addr: Addr, v: u8) {
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if let Some(b) = self.heap.get_mut(off) {
            *b = v;
            return;
        }
        let page = self
            .pages
            .entry(addr.0 / PAGE_BYTES)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES as usize]));
        page[(addr.0 % PAGE_BYTES) as usize] = v;
    }

    #[inline]
    fn read_le(&self, addr: Addr, bytes: u64) -> u64 {
        // Dense-heap fast path: one bounds check, one fixed-width load.
        // The size dispatch is an explicit match so each arm compiles to a
        // single load instruction — a `copy_from_slice` with a runtime
        // length would become a `memcpy` call on this hot path.
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if addr.0 >= HEAP_BASE {
            match bytes {
                1 => {
                    if let Some(&b) = self.heap.get(off) {
                        return u64::from(b);
                    }
                }
                4 => {
                    if let Some(src) = self.heap.get(off..off.wrapping_add(4)) {
                        let buf: [u8; 4] = src.try_into().expect("4-byte slice");
                        return u64::from(u32::from_le_bytes(buf));
                    }
                }
                8 => {
                    if let Some(src) = self.heap.get(off..off.wrapping_add(8)) {
                        let buf: [u8; 8] = src.try_into().expect("8-byte slice");
                        return u64::from_le_bytes(buf);
                    }
                }
                _ => {}
            }
        }
        self.read_le_sparse(addr, bytes)
    }

    #[cold]
    fn read_le_sparse(&self, addr: Addr, bytes: u64) -> u64 {
        let off = (addr.0 % PAGE_BYTES) as usize;
        let n = bytes as usize;
        let straddles_heap_end =
            addr.0 >= HEAP_BASE && (addr.0.wrapping_sub(HEAP_BASE) as usize) < self.heap.len();
        if !straddles_heap_end && off + n <= PAGE_BYTES as usize {
            // One page lookup for the whole value — kernels align their
            // data, so values essentially never straddle pages.
            return match self.pages.get(&(addr.0 / PAGE_BYTES)) {
                Some(page) => {
                    let mut buf = [0u8; 8];
                    buf[..n].copy_from_slice(&page[off..off + n]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            };
        }
        let mut out = 0u64;
        for i in 0..bytes {
            out |= u64::from(self.read_u8(addr.offset(i))) << (8 * i);
        }
        out
    }

    #[inline]
    fn write_le(&mut self, addr: Addr, bytes: u64, v: u64) {
        // Same fixed-width size dispatch as `read_le`, for the same reason.
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if addr.0 >= HEAP_BASE {
            match bytes {
                1 => {
                    if let Some(b) = self.heap.get_mut(off) {
                        *b = v as u8;
                        return;
                    }
                }
                4 => {
                    if let Some(dst) = self.heap.get_mut(off..off.wrapping_add(4)) {
                        dst.copy_from_slice(&(v as u32).to_le_bytes());
                        return;
                    }
                }
                8 => {
                    if let Some(dst) = self.heap.get_mut(off..off.wrapping_add(8)) {
                        dst.copy_from_slice(&v.to_le_bytes());
                        return;
                    }
                }
                _ => {}
            }
        }
        self.write_le_sparse(addr, bytes, v);
    }

    #[cold]
    fn write_le_sparse(&mut self, addr: Addr, bytes: u64, v: u64) {
        let off = (addr.0 % PAGE_BYTES) as usize;
        let n = bytes as usize;
        let straddles_heap_end =
            addr.0 >= HEAP_BASE && (addr.0.wrapping_sub(HEAP_BASE) as usize) < self.heap.len();
        if !straddles_heap_end && off + n <= PAGE_BYTES as usize {
            let page = self
                .pages
                .entry(addr.0 / PAGE_BYTES)
                .or_insert_with(|| Box::new([0u8; PAGE_BYTES as usize]));
            page[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
            return;
        }
        for i in 0..bytes {
            self.write_u8(addr.offset(i), (v >> (8 * i)) as u8);
        }
    }

    /// Reads a typed value.
    #[must_use]
    #[inline]
    pub fn read_value(&self, addr: Addr, ty: ValueType) -> Value {
        Value::from_bits(self.read_le(addr, ty.size_bytes()), ty)
    }

    /// Writes a typed value at the address.
    #[inline]
    pub fn write_value(&mut self, addr: Addr, v: Value) {
        self.write_le(addr, v.value_type().size_bytes(), v.bits());
    }

    /// Reads an `f32`.
    #[must_use]
    pub fn read_f32(&self, addr: Addr) -> f32 {
        self.read_value(addr, ValueType::F32).as_f32()
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, addr: Addr, v: f32) {
        self.write_value(addr, Value::from_f32(v));
    }

    /// Reads an `f64`.
    #[must_use]
    pub fn read_f64(&self, addr: Addr) -> f64 {
        self.read_value(addr, ValueType::F64).as_f64()
    }

    /// Writes an `f64`.
    pub(crate) fn write_f64(&mut self, addr: Addr, v: f64) {
        self.write_value(addr, Value::from_f64(v));
    }

    /// Reads an `i32`.
    #[must_use]
    pub fn read_i32(&self, addr: Addr) -> i32 {
        self.read_value(addr, ValueType::I32).as_i32()
    }

    /// Writes an `i32`.
    pub fn write_i32(&mut self, addr: Addr, v: i32) {
        self.write_value(addr, Value::from_i32(v));
    }

    /// Writes a contiguous array of bytes starting at `addr` — the bulk
    /// analogue of repeated `write_u8` calls, used by
    /// kernels to upload input arrays without the per-call dispatch.
    pub fn write_u8_slice(&mut self, addr: Addr, values: &[u8]) {
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if addr.0 >= HEAP_BASE {
            if let Some(dst) = self.heap.get_mut(off..off.wrapping_add(values.len())) {
                dst.copy_from_slice(values);
                return;
            }
        }
        for (i, &v) in values.iter().enumerate() {
            self.write_u8(addr.offset(i as u64), v);
        }
    }

    /// Writes a contiguous array of `f32` values (4 bytes apart,
    /// little-endian) starting at `addr`; equivalent to repeated
    /// [`write_f32`](Self::write_f32) calls.
    pub fn write_f32_slice(&mut self, addr: Addr, values: &[f32]) {
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if addr.0 >= HEAP_BASE {
            if let Some(dst) = self.heap.get_mut(off..off.wrapping_add(4 * values.len())) {
                for (chunk, v) in dst.chunks_exact_mut(4).zip(values) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                return;
            }
        }
        for (i, &v) in values.iter().enumerate() {
            self.write_f32(addr.offset(4 * i as u64), v);
        }
    }

    /// Writes a contiguous array of `f64` values (8 bytes apart,
    /// little-endian) starting at `addr`; equivalent to repeated
    /// `write_f64` calls.
    pub fn write_f64_slice(&mut self, addr: Addr, values: &[f64]) {
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if addr.0 >= HEAP_BASE {
            if let Some(dst) = self.heap.get_mut(off..off.wrapping_add(8 * values.len())) {
                for (chunk, v) in dst.chunks_exact_mut(8).zip(values) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                return;
            }
        }
        for (i, &v) in values.iter().enumerate() {
            self.write_f64(addr.offset(8 * i as u64), v);
        }
    }

    /// Writes a contiguous array of `i32` values (4 bytes apart,
    /// little-endian) starting at `addr`; equivalent to repeated
    /// [`write_i32`](Self::write_i32) calls.
    pub fn write_i32_slice(&mut self, addr: Addr, values: &[i32]) {
        let off = addr.0.wrapping_sub(HEAP_BASE) as usize;
        if addr.0 >= HEAP_BASE {
            if let Some(dst) = self.heap.get_mut(off..off.wrapping_add(4 * values.len())) {
                for (chunk, v) in dst.chunks_exact_mut(4).zip(values) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                return;
            }
        }
        for (i, &v) in values.iter().enumerate() {
            self.write_i32(addr.offset(4 * i as u64), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = SimMemory::new();
        assert_eq!(mem.read_u8(Addr(12345)), 0);
        assert_eq!(mem.read_f64(Addr(0xdead_0000)), 0.0);
    }

    #[test]
    fn typed_round_trips() {
        let mut mem = SimMemory::new();
        mem.write_f32(Addr(0x100), -1.5);
        mem.write_f64(Addr(0x108), 2.25);
        mem.write_i32(Addr(0x110), -42);
        mem.write_u8(Addr(0x120), 200);
        assert_eq!(mem.read_f32(Addr(0x100)), -1.5);
        assert_eq!(mem.read_f64(Addr(0x108)), 2.25);
        assert_eq!(mem.read_i32(Addr(0x110)), -42);
        assert_eq!(mem.read_u8(Addr(0x120)), 200);
    }

    #[test]
    fn values_span_page_boundaries() {
        let mut mem = SimMemory::new();
        let addr = Addr(PAGE_BYTES - 2);
        mem.write_f64(addr, 7.125);
        assert_eq!(mem.read_f64(addr), 7.125);
    }

    #[test]
    fn alloc_respects_alignment_and_never_overlaps() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(10, 64);
        let b = mem.alloc(100, 64);
        let c = mem.alloc(1, 8);
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 10);
        assert!(c.0 >= b.0 + 100);
        assert!(a.0 > 0, "null page is never allocated");
    }

    #[test]
    fn dense_heap_and_sparse_tiers_agree() {
        let mut mem = SimMemory::new();
        let base = mem.alloc(64, 64);
        mem.write_f64(base, 1.5); // dense tier
        mem.write_f64(Addr(0xdead_0000), 2.5); // sparse, far above the heap
        mem.write_f32(Addr(0x100), 3.5); // sparse, below HEAP_BASE
        assert_eq!(mem.read_f64(base), 1.5);
        assert_eq!(mem.read_f64(Addr(0xdead_0000)), 2.5);
        assert_eq!(mem.read_f32(Addr(0x100)), 3.5);
        // A value straddling the end of the dense heap round-trips.
        let end = Addr(mem.brk - 2);
        mem.write_f64(end, 9.25);
        assert_eq!(mem.read_f64(end), 9.25);
    }

    #[test]
    fn slice_writes_match_elementwise_writes() {
        let f32s = [1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        let f64s = [9.75f64, -0.125, 1e300];
        let i32s = [-7i32, 0, i32::MAX];
        let u8s = [0u8, 255, 42];

        let mut bulk = SimMemory::new();
        let mut one = SimMemory::new();
        // Dense-tier targets plus a sparse target below HEAP_BASE and one
        // far above the heap: every tier must agree with the element-wise
        // writes it replaces.
        let dense = bulk.alloc(256, 64);
        assert_eq!(one.alloc(256, 64), dense);
        let sparse_low = Addr(0x80);
        let sparse_high = Addr(0xdead_0000);

        for target in [dense, sparse_low, sparse_high] {
            bulk.write_f32_slice(target, &f32s);
            bulk.write_f64_slice(target.offset(32), &f64s);
            bulk.write_i32_slice(target.offset(64), &i32s);
            bulk.write_u8_slice(target.offset(96), &u8s);

            for (i, &v) in f32s.iter().enumerate() {
                one.write_f32(target.offset(4 * i as u64), v);
            }
            for (i, &v) in f64s.iter().enumerate() {
                one.write_f64(target.offset(32 + 8 * i as u64), v);
            }
            for (i, &v) in i32s.iter().enumerate() {
                one.write_i32(target.offset(64 + 4 * i as u64), v);
            }
            for (i, &v) in u8s.iter().enumerate() {
                one.write_u8(target.offset(96 + i as u64), v);
            }
        }
        for target in [dense, sparse_low, sparse_high] {
            for i in 0..128u64 {
                assert_eq!(
                    bulk.read_u8(target.offset(i)),
                    one.read_u8(target.offset(i)),
                    "byte {i} of {target:?} diverged"
                );
            }
        }
        // Empty slices are no-ops everywhere.
        bulk.write_f32_slice(Addr(0), &[]);
        bulk.write_u8_slice(sparse_high, &[]);
    }
}
