//! Tagged physical memory: 4-KiB frames with one tag bit per 16-byte granule.

use cheri_cap::{Capability, TAG_GRANULE};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Size of a physical frame (and of a virtual page) in bytes.
pub const FRAME_SIZE: u64 = 4096;

const GRANULES_PER_FRAME: usize = (FRAME_SIZE / TAG_GRANULE) as usize;

/// Identifier of an allocated physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FrameId(pub u32);

/// A physical address: frame number and offset combined.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PAddr(pub u64);

impl PAddr {
    /// Builds a physical address from a frame and an in-frame offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= FRAME_SIZE`.
    #[must_use]
    pub fn new(frame: FrameId, offset: u64) -> PAddr {
        assert!(offset < FRAME_SIZE, "offset {offset} out of frame");
        PAddr(u64::from(frame.0) * FRAME_SIZE + offset)
    }

    /// The frame this address falls in.
    #[must_use]
    pub fn frame(self) -> FrameId {
        FrameId((self.0 / FRAME_SIZE) as u32)
    }

    /// Offset within the frame.
    #[must_use]
    pub fn offset(self) -> u64 {
        self.0 % FRAME_SIZE
    }
}

impl fmt::Debug for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PAddr({:#x})", self.0)
    }
}

#[derive(Clone)]
struct Frame {
    data: Box<[u8]>,
    /// One bit per 16-byte granule.
    tags: [u64; GRANULES_PER_FRAME / 64],
    /// Full capability values for tagged granules. The `data` bytes hold the
    /// address so integer reads of pointer memory behave like real CHERI;
    /// the rest of the encoding lives here.
    caps: HashMap<u16, Capability>,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            data: vec![0u8; FRAME_SIZE as usize].into_boxed_slice(),
            tags: [0; GRANULES_PER_FRAME / 64],
            caps: HashMap::new(),
        }
    }

    fn tag_bit(&self, granule: usize) -> bool {
        self.tags[granule / 64] >> (granule % 64) & 1 == 1
    }

    fn set_tag(&mut self, granule: usize, v: bool) {
        if v {
            self.tags[granule / 64] |= 1 << (granule % 64);
        } else {
            self.tags[granule / 64] &= !(1 << (granule % 64));
        }
    }
}

/// A scheduled physical-memory bit-flip: after `after_mutations` mutating
/// accesses (data writes and capability stores), one bit of one granule is
/// flipped. Deterministic: the same spec against the same access stream
/// always corrupts the same bit of the same granule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhysFaultSpec {
    /// Fire once this many mutating accesses have been observed.
    pub after_mutations: u64,
    /// Bit index within the 128-bit granule to flip (taken mod 128).
    pub bit: u32,
    /// When true, corrupt a stored capability: once due, the flip fires at
    /// the next capability-width *load* of a tagged granule, so the
    /// corrupted value is by construction the one about to be observed
    /// (corruption of memory that is never read again is invisible and
    /// proves nothing). When false, corrupt the granule touched by the
    /// triggering mutating access (plain data).
    pub target_cap: bool,
    /// Test-only weakening: leave the tag set on a corrupted capability
    /// granule instead of clearing it. Used by the fault campaign to prove
    /// its silent-success oracle actually detects escapes.
    pub preserve_tag: bool,
}

/// Injector state and counters for the physical-memory fault plane.
#[derive(Clone, Debug, Default)]
pub struct PhysFaults {
    spec: Option<PhysFaultSpec>,
    fired: bool,
    /// Granules whose bytes were corrupted by the injector and not yet
    /// rewritten, as `(frame, granule)` pairs.
    corrupt: HashSet<(u32, u16)>,
    /// Mutating accesses observed (write paths only; loads are free).
    pub mutations: u64,
    /// Bit-flips actually performed.
    pub flips: u64,
    /// Tags cleared because corruption hit a tagged granule (the CHERI
    /// capability-integrity semantics).
    pub tags_cleared: u64,
    /// Tags left set on a corrupted granule (test-only weakening).
    pub tags_preserved: u64,
    /// Capability loads that returned a still-tagged corrupted granule —
    /// every one of these is an escape of capability integrity.
    pub corrupt_cap_loads: u64,
}

impl PhysFaults {
    /// True once the armed flip has been performed.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired
    }
}

/// Error returned when addressing an unallocated frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadFrame(pub FrameId);

impl fmt::Display for BadFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "access to unallocated physical frame {:?}", self.0)
    }
}

impl std::error::Error for BadFrame {}

/// The machine's tagged physical memory.
///
/// ```
/// use cheri_mem::{PhysMem, PAddr};
/// use cheri_cap::{Capability, CapFormat, CapSource, PrincipalId};
///
/// let mut pm = PhysMem::new(16);
/// let f = pm.alloc_frame().unwrap();
/// let a = PAddr::new(f, 0);
/// let cap = Capability::root(CapFormat::C128, PrincipalId::KERNEL, CapSource::Boot);
/// pm.store_cap(a, cap);
/// assert_eq!(pm.load_cap(a).unwrap(), Some(cap));
/// // Overwriting any byte of the granule with data clears the tag.
/// pm.write_u8(PAddr::new(f, 3), 0xff).unwrap();
/// assert_eq!(pm.load_cap(a).unwrap(), None);
/// ```
pub struct PhysMem {
    /// Frame slots up to the allocation high-water mark; a freed frame's
    /// slot stays `None` until it is recycled. Frames past the mark have
    /// never been touched and cost nothing.
    frames: Vec<Option<Frame>>,
    /// Recycled frames, reused LIFO before any never-used frame.
    free: Vec<FrameId>,
    /// Total frames this memory may hand out (the configured size).
    capacity: usize,
    faults: PhysFaults,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PhysMem{{capacity={}, high_water={}, allocated={}}}",
            self.capacity,
            self.frames.len(),
            self.allocated_frames()
        )
    }
}

impl PhysMem {
    /// Largest supported capacity: every frame needs a distinct `u32`
    /// [`FrameId`].
    pub const MAX_FRAMES: u64 = 1 << 32;

    /// Creates physical memory with capacity for `num_frames` frames.
    ///
    /// Frames are demand-allocated: construction costs the same for any
    /// capacity, and only frames the guest actually touches are built.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` exceeds [`PhysMem::MAX_FRAMES`].
    #[must_use]
    pub fn new(num_frames: usize) -> PhysMem {
        assert!(
            num_frames as u64 <= PhysMem::MAX_FRAMES,
            "{num_frames} frames exceed the u32 frame-id space"
        );
        PhysMem {
            frames: Vec::new(),
            free: Vec::new(),
            capacity: num_frames,
            faults: PhysFaults::default(),
        }
    }

    /// Arms the fault injector; the flip fires on the scheduled mutating
    /// access (see [`PhysFaultSpec`]).
    pub fn arm_faults(&mut self, spec: PhysFaultSpec) {
        self.faults.spec = Some(spec);
        self.faults.fired = false;
    }

    /// Injector state and counters.
    #[must_use]
    pub fn faults(&self) -> &PhysFaults {
        &self.faults
    }

    /// Counts one mutating access and fires an armed *data* flip when due
    /// (capability flips fire on load instead, see [`PhysMem::note_cap_load`]).
    /// `addr` is the address of the access that advanced the counter.
    fn note_mutation(&mut self, addr: PAddr) {
        self.faults.mutations += 1;
        let Some(spec) = self.faults.spec else { return };
        if spec.target_cap || self.faults.fired || self.faults.mutations < spec.after_mutations {
            return;
        }
        let fid = addr.frame();
        let g = (addr.offset() / TAG_GRANULE) as usize % GRANULES_PER_FRAME;
        let Ok(f) = self.frame_mut(fid) else { return };
        let byte = g * TAG_GRANULE as usize + (spec.bit as usize / 8) % TAG_GRANULE as usize;
        f.data[byte] ^= 1 << (spec.bit % 8);
        if f.tag_bit(g) && !spec.preserve_tag {
            // CHERI semantics: any in-place change to a capability granule
            // that did not come from a capability store clears the tag; the
            // value degrades to untagged data and a later dereference traps.
            f.set_tag(g, false);
            f.caps.remove(&(g as u16));
            self.faults.tags_cleared += 1;
        }
        self.faults.fired = true;
        self.faults.flips += 1;
        self.faults.corrupt.insert((fid.0, g as u16));
    }

    /// Records a capability-width load at `addr`, firing a due capability
    /// flip on the granule being loaded: the corruption lands exactly on a
    /// value the machine is about to observe, so the normal semantics
    /// (clear the tag) must surface as an untagged load, and the weakened
    /// semantics (tag preserved) must surface as a counted escape. A load
    /// that observes a still-tagged corrupted granule is a
    /// capability-integrity escape; callers (the VM layer) invoke this on
    /// every capability load so the fault campaign's silent-success oracle
    /// can count them.
    pub fn note_cap_load(&mut self, addr: PAddr) {
        let fid = addr.frame();
        let g = (addr.offset() / TAG_GRANULE) as usize;
        if let Some(spec) = self.faults.spec {
            if spec.target_cap
                && !self.faults.fired
                && self.faults.mutations >= spec.after_mutations
            {
                if let Ok(f) = self.frame_mut(fid) {
                    if f.tag_bit(g) {
                        let byte = g * TAG_GRANULE as usize
                            + (spec.bit as usize / 8) % TAG_GRANULE as usize;
                        f.data[byte] ^= 1 << (spec.bit % 8);
                        if spec.preserve_tag {
                            // Weakened (test-only): the architectural tag
                            // survives even though the granule's bytes
                            // changed — capability integrity is now violated
                            // and the campaign oracle must notice.
                            self.faults.tags_preserved += 1;
                        } else {
                            f.set_tag(g, false);
                            f.caps.remove(&(g as u16));
                            self.faults.tags_cleared += 1;
                        }
                        self.faults.fired = true;
                        self.faults.flips += 1;
                        self.faults.corrupt.insert((fid.0, g as u16));
                    }
                }
            }
        }
        if self.faults.corrupt.is_empty() {
            return;
        }
        if self.faults.corrupt.contains(&(fid.0, g as u16))
            && self.frame(fid).is_ok_and(|f| f.tag_bit(g))
        {
            self.faults.corrupt_cap_loads += 1;
        }
    }

    /// Forgets corruption markings for granules `g0..=g1` of `frame` —
    /// called when those granules are legitimately rewritten.
    fn clear_corrupt_range(&mut self, frame: FrameId, g0: usize, g1: usize) {
        if self.faults.corrupt.is_empty() {
            return;
        }
        for g in g0..=g1 {
            self.faults.corrupt.remove(&(frame.0, g as u16));
        }
    }

    /// Number of frames currently allocated.
    #[must_use]
    pub fn allocated_frames(&self) -> usize {
        self.frames.len() - self.free.len()
    }

    /// Number of frames still free: recycled ones plus those never used.
    #[must_use]
    pub fn free_frames(&self) -> usize {
        self.free.len() + (self.capacity - self.frames.len())
    }

    /// Allocates a zeroed frame, or `None` if physical memory is exhausted
    /// (the kernel's pageout path then kicks in).
    ///
    /// Recycled frames are reused most-recently-freed first; only when there
    /// are none does the next never-used frame id come into use. This is
    /// exactly the order of a stack preloaded with `[n-1, …, 0]`, so frame
    /// ids (and the physical addresses the cache model sees) do not depend
    /// on the capacity.
    pub fn alloc_frame(&mut self) -> Option<FrameId> {
        if let Some(id) = self.free.pop() {
            self.frames[id.0 as usize] = Some(Frame::new());
            return Some(id);
        }
        if self.frames.len() == self.capacity {
            return None;
        }
        let id = u32::try_from(self.frames.len()).expect("`new` bounds capacity to u32 ids");
        self.frames.push(Some(Frame::new()));
        Some(FrameId(id))
    }

    /// Frees a frame, dropping its contents and tags.
    ///
    /// # Panics
    ///
    /// Panics if the frame was not allocated (double free).
    pub fn free_frame(&mut self, id: FrameId) {
        match self.frames.get_mut(id.0 as usize) {
            Some(slot @ Some(_)) => *slot = None,
            _ => panic!("double free of {id:?}"),
        }
        self.free.push(id);
        self.clear_corrupt_range(id, 0, GRANULES_PER_FRAME - 1);
    }

    fn frame(&self, id: FrameId) -> Result<&Frame, BadFrame> {
        self.frames
            .get(id.0 as usize)
            .and_then(|f| f.as_ref())
            .ok_or(BadFrame(id))
    }

    fn frame_mut(&mut self, id: FrameId) -> Result<&mut Frame, BadFrame> {
        self.frames
            .get_mut(id.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(BadFrame(id))
    }

    /// Reads `buf.len()` bytes starting at `addr`; the range must not cross
    /// a frame boundary (the VM layer splits accesses at page granularity).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the frame.
    pub fn read_bytes(&self, addr: PAddr, buf: &mut [u8]) -> Result<(), BadFrame> {
        let f = self.frame(addr.frame())?;
        let off = addr.offset() as usize;
        buf.copy_from_slice(&f.data[off..off + buf.len()]);
        Ok(())
    }

    /// Writes `buf` at `addr`, clearing the tags of every granule touched.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the end of the frame.
    pub fn write_bytes(&mut self, addr: PAddr, buf: &[u8]) -> Result<(), BadFrame> {
        let f = self.frame_mut(addr.frame())?;
        let off = addr.offset() as usize;
        f.data[off..off + buf.len()].copy_from_slice(buf);
        let g0 = off / TAG_GRANULE as usize;
        let g1 = (off + buf.len().max(1) - 1) / TAG_GRANULE as usize;
        for g in g0..=g1 {
            if f.tag_bit(g) {
                f.set_tag(g, false);
                f.caps.remove(&(g as u16));
            }
        }
        self.clear_corrupt_range(addr.frame(), g0, g1);
        self.note_mutation(addr);
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn read_u8(&self, addr: PAddr) -> Result<u8, BadFrame> {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte (clears the granule's tag).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn write_u8(&mut self, addr: PAddr, v: u8) -> Result<(), BadFrame> {
        self.write_bytes(addr, &[v])
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn read_u64(&self, addr: PAddr) -> Result<u64, BadFrame> {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian u64 (clears tags).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn write_u64(&mut self, addr: PAddr, v: u64) -> Result<(), BadFrame> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Stores a capability at `addr` (which must be granule-aligned),
    /// setting the tag iff `cap.tag()`. The address bytes are mirrored into
    /// the data array so subsequent *integer* reads observe the pointer's
    /// address, as on real CHERI.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to the capability size.
    pub fn store_cap(&mut self, addr: PAddr, cap: Capability) -> Result<(), BadFrame> {
        let size = cap.format().in_memory_size();
        assert_eq!(addr.0 % size, 0, "unaligned capability store");
        // Mirror the address (cursor) into the first 8 data bytes, then a
        // digest of the metadata; this also clears stale tags in the range.
        let mut bytes = vec![0u8; size as usize];
        bytes[..8].copy_from_slice(&cap.addr().to_le_bytes());
        bytes[8..16].copy_from_slice(&cap.base().to_le_bytes());
        self.write_bytes(addr, &bytes)?;
        if cap.tag() {
            let f = self.frame_mut(addr.frame())?;
            let off = addr.offset() as usize;
            for k in 0..(size / TAG_GRANULE) {
                let g = off / TAG_GRANULE as usize + k as usize;
                f.set_tag(g, k == 0);
            }
            f.caps.insert((off / TAG_GRANULE as usize) as u16, cap);
            // The store supersedes any injected corruption of these
            // granules: the caps-map entry is now authoritative.
            let g0 = off / TAG_GRANULE as usize;
            self.clear_corrupt_range(addr.frame(), g0, g0 + (size / TAG_GRANULE) as usize - 1);
        }
        Ok(())
    }

    /// Loads the capability stored at granule-aligned `addr`. Returns
    /// `Ok(None)` if the granule's tag is clear — the caller receives the
    /// raw bytes as an *untagged* value instead.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not granule-aligned.
    pub fn load_cap(&self, addr: PAddr) -> Result<Option<Capability>, BadFrame> {
        assert_eq!(addr.0 % TAG_GRANULE, 0, "unaligned capability load");
        let f = self.frame(addr.frame())?;
        let g = (addr.offset() / TAG_GRANULE) as usize;
        if f.tag_bit(g) {
            Ok(f.caps.get(&(g as u16)).copied())
        } else {
            Ok(None)
        }
    }

    /// Scans a frame for tagged capabilities: the swap-out path of §3
    /// ("The swap subsystem scans evicted pages, recording tags in the swap
    /// metadata"). Returns `(granule offset in bytes, capability)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn scan_caps(&self, id: FrameId) -> Result<Vec<(u64, Capability)>, BadFrame> {
        let f = self.frame(id)?;
        let mut out: Vec<(u64, Capability)> = f
            .caps
            .iter()
            .map(|(g, c)| (u64::from(*g) * TAG_GRANULE, *c))
            .collect();
        out.sort_by_key(|(off, _)| *off);
        Ok(out)
    }

    /// Copies a whole frame's data *without* tags (e.g. DMA or a legacy
    /// copy); capability restoration must go through [`PhysMem::store_cap`].
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    pub fn frame_data(&self, id: FrameId) -> Result<Vec<u8>, BadFrame> {
        Ok(self.frame(id)?.data.to_vec())
    }

    /// Replaces a frame's data, clearing all tags (swap-in starts untagged;
    /// rederivation follows).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if the frame is unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one frame long.
    pub fn set_frame_data(&mut self, id: FrameId, data: &[u8]) -> Result<(), BadFrame> {
        assert_eq!(data.len() as u64, FRAME_SIZE);
        let f = self.frame_mut(id)?;
        f.data.copy_from_slice(data);
        f.tags = [0; GRANULES_PER_FRAME / 64];
        f.caps.clear();
        self.clear_corrupt_range(id, 0, GRANULES_PER_FRAME - 1);
        Ok(())
    }

    /// Copies frame `src` to frame `dst` including tags and capabilities —
    /// the kernel's capability-preserving page copy (fork / COW resolution).
    ///
    /// # Errors
    ///
    /// Returns [`BadFrame`] if either frame is unallocated.
    pub fn copy_frame_with_tags(&mut self, src: FrameId, dst: FrameId) -> Result<(), BadFrame> {
        let s = self.frame(src)?.clone();
        let d = self.frame_mut(dst)?;
        d.data.copy_from_slice(&s.data);
        d.tags = s.tags;
        d.caps = s.caps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::{CapFormat, CapSource, PrincipalId};

    fn cap() -> Capability {
        Capability::root(CapFormat::C128, PrincipalId::KERNEL, CapSource::Boot)
            .with_addr(0x1234_5678)
    }

    fn mem() -> (PhysMem, FrameId) {
        let mut pm = PhysMem::new(8);
        let f = pm.alloc_frame().unwrap();
        (pm, f)
    }

    #[test]
    fn frames_start_zeroed() {
        let (pm, f) = mem();
        assert_eq!(pm.read_u64(PAddr::new(f, 0)).unwrap(), 0);
        assert_eq!(pm.read_u64(PAddr::new(f, FRAME_SIZE - 8)).unwrap(), 0);
    }

    #[test]
    fn data_roundtrip() {
        let (mut pm, f) = mem();
        pm.write_u64(PAddr::new(f, 16), 0xdead_beef_cafe_f00d)
            .unwrap();
        assert_eq!(
            pm.read_u64(PAddr::new(f, 16)).unwrap(),
            0xdead_beef_cafe_f00d
        );
        pm.write_u8(PAddr::new(f, 16), 0xaa).unwrap();
        assert_eq!(pm.read_u8(PAddr::new(f, 16)).unwrap(), 0xaa);
    }

    #[test]
    fn cap_roundtrip_preserves_everything() {
        let (mut pm, f) = mem();
        let c = cap();
        pm.store_cap(PAddr::new(f, 32), c).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(f, 32)).unwrap(), Some(c));
        // Integer view of the pointer sees the address.
        assert_eq!(pm.read_u64(PAddr::new(f, 32)).unwrap(), c.addr());
    }

    #[test]
    fn data_write_clears_tag_anywhere_in_granule() {
        for off in [0u64, 1, 7, 15] {
            let (mut pm, f) = mem();
            pm.store_cap(PAddr::new(f, 48), cap()).unwrap();
            pm.write_u8(PAddr::new(f, 48 + off), 0).unwrap();
            assert_eq!(pm.load_cap(PAddr::new(f, 48)).unwrap(), None, "off={off}");
        }
    }

    #[test]
    fn untagged_cap_store_leaves_tag_clear() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 0), cap().clear_tag()).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(f, 0)).unwrap(), None);
        assert_eq!(pm.read_u64(PAddr::new(f, 0)).unwrap(), cap().addr());
    }

    #[test]
    fn scan_caps_finds_all() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 0), cap()).unwrap();
        pm.store_cap(PAddr::new(f, 256), cap().inc_addr(8)).unwrap();
        let found = pm.scan_caps(f).unwrap();
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, 0);
        assert_eq!(found[1].0, 256);
    }

    #[test]
    fn set_frame_data_strips_tags() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 0), cap()).unwrap();
        let data = pm.frame_data(f).unwrap();
        pm.set_frame_data(f, &data).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(f, 0)).unwrap(), None);
        assert_eq!(pm.read_u64(PAddr::new(f, 0)).unwrap(), cap().addr());
    }

    #[test]
    fn copy_frame_with_tags_preserves_caps() {
        let mut pm = PhysMem::new(8);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        pm.store_cap(PAddr::new(a, 64), cap()).unwrap();
        pm.write_u64(PAddr::new(a, 8), 7).unwrap();
        pm.copy_frame_with_tags(a, b).unwrap();
        assert_eq!(pm.load_cap(PAddr::new(b, 64)).unwrap(), Some(cap()));
        assert_eq!(pm.read_u64(PAddr::new(b, 8)).unwrap(), 7);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        assert!(pm.alloc_frame().is_none());
        pm.free_frame(a);
        assert_eq!(pm.free_frames(), 1);
        let c = pm.alloc_frame().unwrap();
        assert_eq!(
            pm.read_u64(PAddr::new(c, 0)).unwrap(),
            0,
            "recycled frame zeroed"
        );
        let _ = b;
    }

    #[test]
    fn allocation_order_matches_the_eager_stack() {
        const CAP: u32 = 6;
        let mut pm = PhysMem::new(CAP as usize);
        // The allocator before demand allocation: a stack preloaded with
        // every frame id, `[n-1, …, 0]`, popped to allocate, pushed to free.
        let mut model: Vec<FrameId> = (0..CAP).rev().map(FrameId).collect();
        let mut live: Vec<FrameId> = Vec::new();
        let check = |pm: &PhysMem, model: &[FrameId]| {
            assert_eq!(pm.free_frames(), model.len());
            assert_eq!(pm.free_frames() + pm.allocated_frames(), CAP as usize);
        };
        // Each step allocates (`A`) or frees the live frame at that index,
        // covering reuse after free, exhaustion, and reuse at exhaustion.
        const A: usize = usize::MAX;
        let steps = [
            A, A, A, 1, A, 0, 0, A, A, A, A, A, A, A, 2, A, A, 4, 0, 1, A, A, A,
        ];
        let mut exhausted = 0;
        for step in steps {
            match step {
                A => {
                    let got = pm.alloc_frame();
                    assert_eq!(got, model.pop());
                    match got {
                        Some(id) => {
                            assert_eq!(pm.read_u64(PAddr::new(id, 0)).unwrap(), 0);
                            pm.write_u64(PAddr::new(id, 0), u64::from(id.0) + 1)
                                .unwrap();
                            live.push(id);
                        }
                        None => {
                            assert_eq!(pm.allocated_frames(), CAP as usize);
                            exhausted += 1;
                        }
                    }
                }
                i => {
                    let id = live.remove(i);
                    pm.free_frame(id);
                    model.push(id);
                }
            }
            check(&pm, &model);
        }
        assert!(exhausted >= 2, "the sequence must hit exhaustion");
        // Then a long pseudo-random walk biased towards allocation.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 5 < 3 || live.is_empty() {
                let got = pm.alloc_frame();
                assert_eq!(got, model.pop());
                if let Some(id) = got {
                    pm.write_u64(PAddr::new(id, 0), u64::from(id.0) + 1)
                        .unwrap();
                    live.push(id);
                }
            } else {
                let id = live.swap_remove((x >> 8) as usize % live.len());
                pm.free_frame(id);
                model.push(id);
            }
            check(&pm, &model);
        }
        for id in live {
            assert_eq!(
                pm.read_u64(PAddr::new(id, 0)).unwrap(),
                u64::from(id.0) + 1,
                "live frames keep their contents"
            );
        }
    }

    #[test]
    fn construction_does_not_allocate_per_frame() {
        let mut pm = PhysMem::new(1 << 32);
        assert_eq!(pm.free_frames(), 1 << 32);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        assert_eq!((a, b), (FrameId(0), FrameId(1)));
        pm.free_frame(a);
        assert_eq!(pm.alloc_frame(), Some(a));
        assert_eq!(pm.allocated_frames(), 2);
        assert_eq!(pm.free_frames(), (1 << 32) - 2);
        assert!(format!("{pm:?}").contains("high_water=2"));
    }

    #[test]
    #[should_panic(expected = "u32 frame-id space")]
    fn capacity_beyond_frame_ids_panics() {
        let _ = PhysMem::new((1 << 32) + 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        pm.free_frame(a);
        pm.free_frame(a);
    }

    #[test]
    fn unallocated_frame_errors() {
        let pm = PhysMem::new(2);
        assert!(pm.read_u8(PAddr::new(FrameId(1), 0)).is_err());
    }

    #[test]
    fn injected_flip_on_data_corrupts_only_bytes() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 2,
            bit: 0,
            target_cap: false,
            preserve_tag: false,
        });
        pm.write_u64(PAddr::new(f, 0), 0).unwrap();
        pm.write_u64(PAddr::new(f, 64), 0).unwrap(); // trigger
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_cleared, 0);
        assert_eq!(pm.read_u8(PAddr::new(f, 64)).unwrap(), 1, "bit 0 flipped");
    }

    #[test]
    fn injected_flip_on_cap_granule_clears_tag() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 32), cap()).unwrap();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 9,
            target_cap: true,
            preserve_tag: false,
        });
        pm.write_u8(PAddr::new(f, 512), 0).unwrap(); // now due
        assert_eq!(pm.faults().flips, 0, "cap flips wait for a load");
        pm.note_cap_load(PAddr::new(f, 32)); // trigger: the loaded granule
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_cleared, 1);
        assert_eq!(
            pm.load_cap(PAddr::new(f, 32)).unwrap(),
            None,
            "corrupted capability must load untagged"
        );
        pm.note_cap_load(PAddr::new(f, 32));
        assert_eq!(pm.faults().corrupt_cap_loads, 0, "no escape: tag cleared");
    }

    #[test]
    fn weakened_tag_clear_is_a_detectable_escape() {
        let (mut pm, f) = mem();
        pm.store_cap(PAddr::new(f, 32), cap()).unwrap();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 3,
            target_cap: true,
            preserve_tag: true,
        });
        pm.write_u8(PAddr::new(f, 512), 0).unwrap(); // now due
        pm.note_cap_load(PAddr::new(f, 32)); // trigger: flips *and* escapes
        assert_eq!(pm.faults().tags_preserved, 1);
        assert_eq!(
            pm.load_cap(PAddr::new(f, 32)).unwrap(),
            Some(cap()),
            "weakened clear leaves the tagged value live"
        );
        assert_eq!(pm.faults().corrupt_cap_loads, 1, "escape counted");
        pm.note_cap_load(PAddr::new(f, 32));
        assert_eq!(pm.faults().corrupt_cap_loads, 2, "every load counts");
    }

    #[test]
    fn cap_flip_waits_for_a_tagged_load() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 0,
            target_cap: true,
            preserve_tag: false,
        });
        pm.write_u8(PAddr::new(f, 0), 7).unwrap(); // due, but no caps yet
        pm.note_cap_load(PAddr::new(f, 64)); // untagged load: no victim
        assert_eq!(pm.faults().flips, 0);
        pm.store_cap(PAddr::new(f, 64), cap()).unwrap();
        pm.note_cap_load(PAddr::new(f, 64));
        assert_eq!(pm.faults().flips, 1);
        assert_eq!(pm.faults().tags_cleared, 1);
    }

    #[test]
    fn rewriting_a_corrupted_granule_clears_the_marking() {
        let (mut pm, f) = mem();
        pm.arm_faults(PhysFaultSpec {
            after_mutations: 1,
            bit: 0,
            target_cap: false,
            preserve_tag: false,
        });
        pm.write_u8(PAddr::new(f, 0), 7).unwrap(); // trigger: granule 0
        assert_eq!(pm.faults().flips, 1);
        pm.store_cap(PAddr::new(f, 0), cap()).unwrap();
        pm.note_cap_load(PAddr::new(f, 0));
        assert_eq!(
            pm.faults().corrupt_cap_loads,
            0,
            "legitimate store supersedes the corruption"
        );
    }
}
