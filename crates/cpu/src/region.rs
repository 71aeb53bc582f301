//! Decode-once code regions.
//!
//! A [`DecodedRegion`] is built exactly once per registration and then
//! shared immutably (`Arc`) between the per-space region map and the
//! core's resident region — registration, fork and fetch all stop copying
//! instruction vectors. The step loop and the template compiler both
//! index the same instruction vector by pc.

use cheri_isa::Instr;
use std::sync::Arc;

/// An immutable, decode-once code region.
#[derive(Debug)]
pub struct DecodedRegion {
    start: u64,
    end: u64,
    code: Vec<Instr>,
}

impl DecodedRegion {
    /// Decodes `code` (to be mapped at virtual address `start`) into a
    /// shareable region.
    #[must_use]
    pub fn decode(start: u64, code: &[Instr]) -> Arc<DecodedRegion> {
        Arc::new(DecodedRegion {
            start,
            end: start + code.len() as u64 * 4,
            code: code.to_vec(),
        })
    }

    /// First virtual address of the region.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last virtual address of the region.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the region holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Whether `pc` falls inside the region.
    #[inline]
    pub(crate) fn contains(&self, pc: u64) -> bool {
        pc >= self.start && pc < self.end
    }

    /// Instruction index for an in-region `pc`.
    #[inline]
    pub(crate) fn index_of(&self, pc: u64) -> usize {
        ((pc - self.start) / 4) as usize
    }

    /// The instruction at `idx`.
    #[inline]
    pub(crate) fn instr_at(&self, idx: usize) -> Instr {
        self.code[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::ireg;

    #[test]
    fn decode_maps_addresses_to_instruction_indices() {
        // 0: li ; 1: addi ; 2: bgtz ->1 ; 3: syscall
        let code = vec![
            Instr::Li {
                rd: ireg::T0,
                imm: 1,
            },
            Instr::AddI {
                rd: ireg::T0,
                rs: ireg::T0,
                imm: -1,
            },
            Instr::Bgtz {
                rs: ireg::T0,
                target: 1,
            },
            Instr::Syscall,
        ];
        let r = DecodedRegion::decode(0x10000, &code);
        assert_eq!(r.start(), 0x10000);
        assert_eq!(r.end(), 0x10000 + 4 * 4);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(0x10000) && r.contains(0x1000c));
        assert!(!r.contains(0xfffc) && !r.contains(0x10010));
        assert_eq!(r.index_of(0x10008), 2);
        assert_eq!(r.instr_at(r.index_of(0x1000c)), Instr::Syscall);
        assert!(DecodedRegion::decode(0, &[]).is_empty());
    }
}
