//! A decoder for exactly the x86-64 subset [`crate::encode`] emits.
//!
//! The verifier and the byte-level interpreter both run on decoded
//! instructions, so the encoder's output is *proven* self-describing: the
//! round-trip test re-encodes every decoded instruction and demands the
//! original bytes back ([`Dec::encode`]). [`sweep`] is the one linear
//! walk over a function's bytes that the verifier, the interpreter's
//! per-run pre-decode and the round-trip test share.

use std::fmt;

/// Scratch general-purpose registers the encoder uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scratch {
    /// `rax` (ModRM reg 0).
    Rax,
    /// `rcx` (ModRM reg 1).
    Rcx,
    /// `rdx` (ModRM reg 2).
    Rdx,
}

impl Scratch {
    fn from_modrm(reg: u8) -> Option<Scratch> {
        Some(match reg {
            0 => Scratch::Rax,
            1 => Scratch::Rcx,
            2 => Scratch::Rdx,
            _ => return None,
        })
    }

    fn modrm(self) -> u8 {
        self as u8
    }
}

/// The 32-bit immediate destinations the encoder uses for service calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Imm32Reg {
    /// `eax` — the service id.
    Eax,
    /// `edi` — first service operand.
    Edi,
    /// `esi` — second service operand.
    Esi,
}

/// One decoded instruction from the emitted subset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dec {
    /// `mov r64, [rbp + 8*slot]` — a frame slot load.
    LoadSlot {
        /// Destination scratch register.
        reg: Scratch,
        /// Frame slot index.
        slot: u32,
    },
    /// `mov [rbp + 8*slot], r64` — a frame slot store.
    StoreSlot {
        /// Frame slot index.
        slot: u32,
        /// Source scratch register.
        reg: Scratch,
    },
    /// `mov rdx, [rax (+ rcx*8) + disp32]` — a heap load; **the trapping
    /// instruction** implicit null checks resolve to.
    LoadMem {
        /// Byte displacement.
        disp: u32,
        /// Whether the address adds `rcx*8`.
        indexed: bool,
    },
    /// `mov [rax (+ rcx*8) + disp32], rdx` — a heap store.
    StoreMem {
        /// Byte displacement.
        disp: u32,
        /// Whether the address adds `rcx*8`.
        indexed: bool,
    },
    /// `movabs r64, imm64`.
    MovAbs {
        /// Destination.
        reg: Scratch,
        /// The immediate bits.
        imm: u64,
    },
    /// `mov e{ax,di,si}, imm32`.
    MovImm32 {
        /// Destination.
        reg: Imm32Reg,
        /// The immediate.
        imm: u32,
    },
    /// `add rax, rcx`.
    AddRcx,
    /// `add rax, rdx` (large-displacement address folding).
    AddRdx,
    /// `sub rax, rcx`.
    SubRcx,
    /// `imul rax, rcx`.
    MulRcx,
    /// `and rax, rcx`.
    AndRcx,
    /// `or rax, rcx`.
    OrRcx,
    /// `xor rax, rcx`.
    XorRcx,
    /// `xor rax, rax` (zeroing idiom).
    XorSelf,
    /// `xor rax, rdx` (float sign flip).
    XorRdx,
    /// `shl rax, cl`.
    ShlCl,
    /// `sar rax, cl`.
    SarCl,
    /// `shr rax, cl`.
    ShrCl,
    /// `neg rax`.
    NegRax,
    /// `cqo`.
    Cqo,
    /// `idiv rcx`.
    IdivRcx,
    /// `mov rax, rdx`.
    MovRaxRdx,
    /// `test rax, rax` — the explicit null check fingerprint.
    TestRax,
    /// `test rcx, rcx` — the division zero-divisor guard.
    TestRcx,
    /// `cmp rax, rcx`.
    CmpRaxRcx,
    /// `cmp rax, rdx`.
    CmpRaxRdx,
    /// `cmp rcx, -1`.
    CmpRcxM1,
    /// `and rax, 1`.
    AndRax1,
    /// `lea rbp, [rbp + disp32]` — frame push/pop around calls.
    LeaRbp {
        /// Signed frame displacement in bytes.
        disp: i32,
    },
    /// `movsd xmm0/xmm1, [rbp + 8*slot]`.
    MovsdLoad {
        /// 0 or 1.
        xmm: u8,
        /// Frame slot index.
        slot: u32,
    },
    /// `movsd [rbp + 8*slot], xmm0`.
    MovsdStore {
        /// Frame slot index.
        slot: u32,
    },
    /// `addsd xmm0, xmm1`.
    Addsd,
    /// `subsd xmm0, xmm1`.
    Subsd,
    /// `mulsd xmm0, xmm1`.
    Mulsd,
    /// `divsd xmm0, xmm1`.
    Divsd,
    /// `cmpsd xmm0, xmm1, pred`.
    Cmpsd {
        /// SSE compare predicate (0 eq, 1 lt, 2 le, 4 neq).
        pred: u8,
    },
    /// `cvtsi2sd xmm0, rax`.
    Cvtsi2sd,
    /// `movq rax, xmm0`.
    MovqRaxXmm0,
    /// `jcc rel32` (0F 84..8F).
    Jcc {
        /// Second opcode byte (0x84..=0x8F).
        cc: u8,
        /// Relative displacement from the next instruction.
        rel: i32,
    },
    /// `jnz/jb/jmp rel8` (intra-sequence skips).
    Jmp8 {
        /// Opcode byte (0x75 jnz, 0x72 jb, 0xEB jmp).
        opcode: u8,
        /// Relative displacement from the next instruction.
        rel: i8,
    },
    /// `jmp rel32`.
    Jmp {
        /// Relative displacement from the next instruction.
        rel: i32,
    },
    /// `call rel32`.
    Call {
        /// Relative displacement from the next instruction.
        rel: i32,
    },
    /// `ret`.
    Ret,
    /// `syscall` — a runtime service request.
    Syscall,
    /// `int3` — inter-function padding.
    Pad,
}

/// A byte sequence the decoder does not recognise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// Offset of the undecodable instruction.
    pub pos: usize,
    /// Its first byte.
    pub byte: u8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "undecodable byte {:#04x} at offset {:#x}",
            self.byte, self.pos
        )
    }
}

impl std::error::Error for DecodeError {}

fn rd_u32(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

fn rd_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

fn slot_of(disp: u32) -> Option<u32> {
    disp.is_multiple_of(8).then_some(disp / 8)
}

/// Decodes one instruction at `pos`, returning it with its byte length.
///
/// # Errors
/// [`DecodeError`] when the bytes are not in the emitted subset.
#[allow(clippy::too_many_lines)]
pub fn decode_one(bytes: &[u8], pos: usize) -> Result<(Dec, usize), DecodeError> {
    let err = DecodeError {
        pos,
        byte: bytes.get(pos).copied().unwrap_or(0),
    };
    let b = bytes.get(pos..).ok_or(err)?;
    let (dec, len) = match *b.first().ok_or(err)? {
        0xCC => (Dec::Pad, 1),
        0xC3 => (Dec::Ret, 1),
        0xE9 => (
            Dec::Jmp {
                rel: rd_u32(b, 1).ok_or(err)? as i32,
            },
            5,
        ),
        0xE8 => (
            Dec::Call {
                rel: rd_u32(b, 1).ok_or(err)? as i32,
            },
            5,
        ),
        op @ (0x75 | 0x72 | 0xEB) => (
            Dec::Jmp8 {
                opcode: op,
                rel: *b.get(1).ok_or(err)? as i8,
            },
            2,
        ),
        0xB8 => (
            Dec::MovImm32 {
                reg: Imm32Reg::Eax,
                imm: rd_u32(b, 1).ok_or(err)?,
            },
            5,
        ),
        0xBF => (
            Dec::MovImm32 {
                reg: Imm32Reg::Edi,
                imm: rd_u32(b, 1).ok_or(err)?,
            },
            5,
        ),
        0xBE => (
            Dec::MovImm32 {
                reg: Imm32Reg::Esi,
                imm: rd_u32(b, 1).ok_or(err)?,
            },
            5,
        ),
        0x0F => match *b.get(1).ok_or(err)? {
            0x05 => (Dec::Syscall, 2),
            cc @ 0x84..=0x8F => (
                Dec::Jcc {
                    cc,
                    rel: rd_u32(b, 2).ok_or(err)? as i32,
                },
                6,
            ),
            _ => return Err(err),
        },
        0x66 => match b.get(1..5).ok_or(err)? {
            [0x48, 0x0F, 0x7E, 0xC0] => (Dec::MovqRaxXmm0, 5),
            _ => return Err(err),
        },
        0xF2 => match *b.get(1).ok_or(err)? {
            0x48 => match b.get(2..5).ok_or(err)? {
                [0x0F, 0x2A, 0xC0] => (Dec::Cvtsi2sd, 5),
                _ => return Err(err),
            },
            0x0F => match *b.get(2).ok_or(err)? {
                0x10 => {
                    let modrm = *b.get(3).ok_or(err)?;
                    let xmm = (modrm >> 3) & 0x7;
                    if modrm & 0xC7 != 0x85 || xmm > 1 {
                        return Err(err);
                    }
                    let slot = slot_of(rd_u32(b, 4).ok_or(err)?).ok_or(err)?;
                    (Dec::MovsdLoad { xmm, slot }, 8)
                }
                0x11 => {
                    if *b.get(3).ok_or(err)? != 0x85 {
                        return Err(err);
                    }
                    let slot = slot_of(rd_u32(b, 4).ok_or(err)?).ok_or(err)?;
                    (Dec::MovsdStore { slot }, 8)
                }
                0x58 if *b.get(3).ok_or(err)? == 0xC1 => (Dec::Addsd, 4),
                0x5C if *b.get(3).ok_or(err)? == 0xC1 => (Dec::Subsd, 4),
                0x59 if *b.get(3).ok_or(err)? == 0xC1 => (Dec::Mulsd, 4),
                0x5E if *b.get(3).ok_or(err)? == 0xC1 => (Dec::Divsd, 4),
                0xC2 if *b.get(3).ok_or(err)? == 0xC1 => (
                    Dec::Cmpsd {
                        pred: *b.get(4).ok_or(err)?,
                    },
                    5,
                ),
                _ => return Err(err),
            },
            _ => return Err(err),
        },
        0x48 => match *b.get(1).ok_or(err)? {
            0x8B => {
                let modrm = *b.get(2).ok_or(err)?;
                match modrm {
                    // mov r64, [rbp + disp32]
                    0x85 | 0x8D | 0x95 => {
                        let reg = Scratch::from_modrm((modrm >> 3) & 0x7).ok_or(err)?;
                        let slot = slot_of(rd_u32(b, 3).ok_or(err)?).ok_or(err)?;
                        (Dec::LoadSlot { reg, slot }, 7)
                    }
                    // mov rdx, [rax + disp32]
                    0x90 => (
                        Dec::LoadMem {
                            disp: rd_u32(b, 3).ok_or(err)?,
                            indexed: false,
                        },
                        7,
                    ),
                    // mov rdx, [rax + rcx*8 + disp32]
                    0x94 if *b.get(3).ok_or(err)? == 0xC8 => (
                        Dec::LoadMem {
                            disp: rd_u32(b, 4).ok_or(err)?,
                            indexed: true,
                        },
                        8,
                    ),
                    _ => return Err(err),
                }
            }
            0x89 => {
                let modrm = *b.get(2).ok_or(err)?;
                match modrm {
                    0x85 | 0x8D | 0x95 => {
                        let reg = Scratch::from_modrm((modrm >> 3) & 0x7).ok_or(err)?;
                        let slot = slot_of(rd_u32(b, 3).ok_or(err)?).ok_or(err)?;
                        (Dec::StoreSlot { slot, reg }, 7)
                    }
                    0x90 => (
                        Dec::StoreMem {
                            disp: rd_u32(b, 3).ok_or(err)?,
                            indexed: false,
                        },
                        7,
                    ),
                    0x94 if *b.get(3).ok_or(err)? == 0xC8 => (
                        Dec::StoreMem {
                            disp: rd_u32(b, 4).ok_or(err)?,
                            indexed: true,
                        },
                        8,
                    ),
                    0xD0 => (Dec::MovRaxRdx, 3),
                    _ => return Err(err),
                }
            }
            op @ 0xB8..=0xBA => (
                Dec::MovAbs {
                    reg: Scratch::from_modrm(op - 0xB8).ok_or(err)?,
                    imm: rd_u64(b, 2).ok_or(err)?,
                },
                10,
            ),
            0x01 => match *b.get(2).ok_or(err)? {
                0xC8 => (Dec::AddRcx, 3),
                0xD0 => (Dec::AddRdx, 3),
                _ => return Err(err),
            },
            0x29 if *b.get(2).ok_or(err)? == 0xC8 => (Dec::SubRcx, 3),
            0x21 if *b.get(2).ok_or(err)? == 0xC8 => (Dec::AndRcx, 3),
            0x09 if *b.get(2).ok_or(err)? == 0xC8 => (Dec::OrRcx, 3),
            0x31 => match *b.get(2).ok_or(err)? {
                0xC8 => (Dec::XorRcx, 3),
                0xC0 => (Dec::XorSelf, 3),
                0xD0 => (Dec::XorRdx, 3),
                _ => return Err(err),
            },
            0x0F => match b.get(2..4).ok_or(err)? {
                [0xAF, 0xC1] => (Dec::MulRcx, 4),
                _ => return Err(err),
            },
            0xD3 => match *b.get(2).ok_or(err)? {
                0xE0 => (Dec::ShlCl, 3),
                0xF8 => (Dec::SarCl, 3),
                0xE8 => (Dec::ShrCl, 3),
                _ => return Err(err),
            },
            0xF7 => match *b.get(2).ok_or(err)? {
                0xD8 => (Dec::NegRax, 3),
                0xF9 => (Dec::IdivRcx, 3),
                _ => return Err(err),
            },
            0x99 => (Dec::Cqo, 2),
            0x85 => match *b.get(2).ok_or(err)? {
                0xC0 => (Dec::TestRax, 3),
                0xC9 => (Dec::TestRcx, 3),
                _ => return Err(err),
            },
            0x39 => match *b.get(2).ok_or(err)? {
                0xC8 => (Dec::CmpRaxRcx, 3),
                0xD0 => (Dec::CmpRaxRdx, 3),
                _ => return Err(err),
            },
            0x83 => match b.get(2..4).ok_or(err)? {
                [0xF9, 0xFF] => (Dec::CmpRcxM1, 4),
                [0xE0, 0x01] => (Dec::AndRax1, 4),
                _ => return Err(err),
            },
            0x8D if *b.get(2).ok_or(err)? == 0xAD => (
                Dec::LeaRbp {
                    disp: rd_u32(b, 3).ok_or(err)? as i32,
                },
                7,
            ),
            _ => return Err(err),
        },
        _ => return Err(err),
    };
    Ok((dec, len))
}

/// A linear sweep over `code` from offset 0: yields every instruction as
/// `(offset, decoded, length)`, and stops after the first undecodable
/// byte (yielded as its [`DecodeError`]).
pub fn sweep(code: &[u8]) -> Sweep<'_> {
    Sweep { code, pos: 0 }
}

/// The iterator [`sweep`] returns.
pub struct Sweep<'a> {
    code: &'a [u8],
    pos: usize,
}

impl Iterator for Sweep<'_> {
    type Item = Result<(usize, Dec, usize), DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.code.len() {
            return None;
        }
        let at = self.pos;
        Some(match decode_one(self.code, at) {
            Ok((dec, len)) => {
                self.pos += len;
                Ok((at, dec, len))
            }
            Err(e) => {
                self.pos = self.code.len();
                Err(e)
            }
        })
    }
}

impl Dec {
    /// Re-encodes the instruction, appending to `out`. The round-trip
    /// property `encode(decode(bytes)) == bytes` is what makes the decoder
    /// trustworthy as a verification oracle.
    #[allow(clippy::too_many_lines)]
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Dec::Pad => out.push(0xCC),
            Dec::Ret => out.push(0xC3),
            Dec::Syscall => out.extend_from_slice(&[0x0F, 0x05]),
            Dec::Jmp { rel } => {
                out.push(0xE9);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Dec::Call { rel } => {
                out.push(0xE8);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Dec::Jcc { cc, rel } => {
                out.extend_from_slice(&[0x0F, cc]);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Dec::Jmp8 { opcode, rel } => out.extend_from_slice(&[opcode, rel as u8]),
            Dec::MovImm32 { reg, imm } => {
                out.push(match reg {
                    Imm32Reg::Eax => 0xB8,
                    Imm32Reg::Edi => 0xBF,
                    Imm32Reg::Esi => 0xBE,
                });
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Dec::MovAbs { reg, imm } => {
                out.extend_from_slice(&[0x48, 0xB8 + reg.modrm()]);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Dec::LoadSlot { reg, slot } => {
                out.extend_from_slice(&[0x48, 0x8B, 0x80 | (reg.modrm() << 3) | 0x05]);
                out.extend_from_slice(&(slot * 8).to_le_bytes());
            }
            Dec::StoreSlot { slot, reg } => {
                out.extend_from_slice(&[0x48, 0x89, 0x80 | (reg.modrm() << 3) | 0x05]);
                out.extend_from_slice(&(slot * 8).to_le_bytes());
            }
            Dec::LoadMem { disp, indexed } => {
                if indexed {
                    out.extend_from_slice(&[0x48, 0x8B, 0x94, 0xC8]);
                } else {
                    out.extend_from_slice(&[0x48, 0x8B, 0x90]);
                }
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Dec::StoreMem { disp, indexed } => {
                if indexed {
                    out.extend_from_slice(&[0x48, 0x89, 0x94, 0xC8]);
                } else {
                    out.extend_from_slice(&[0x48, 0x89, 0x90]);
                }
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Dec::AddRcx => out.extend_from_slice(&[0x48, 0x01, 0xC8]),
            Dec::AddRdx => out.extend_from_slice(&[0x48, 0x01, 0xD0]),
            Dec::SubRcx => out.extend_from_slice(&[0x48, 0x29, 0xC8]),
            Dec::MulRcx => out.extend_from_slice(&[0x48, 0x0F, 0xAF, 0xC1]),
            Dec::AndRcx => out.extend_from_slice(&[0x48, 0x21, 0xC8]),
            Dec::OrRcx => out.extend_from_slice(&[0x48, 0x09, 0xC8]),
            Dec::XorRcx => out.extend_from_slice(&[0x48, 0x31, 0xC8]),
            Dec::XorSelf => out.extend_from_slice(&[0x48, 0x31, 0xC0]),
            Dec::XorRdx => out.extend_from_slice(&[0x48, 0x31, 0xD0]),
            Dec::ShlCl => out.extend_from_slice(&[0x48, 0xD3, 0xE0]),
            Dec::SarCl => out.extend_from_slice(&[0x48, 0xD3, 0xF8]),
            Dec::ShrCl => out.extend_from_slice(&[0x48, 0xD3, 0xE8]),
            Dec::NegRax => out.extend_from_slice(&[0x48, 0xF7, 0xD8]),
            Dec::Cqo => out.extend_from_slice(&[0x48, 0x99]),
            Dec::IdivRcx => out.extend_from_slice(&[0x48, 0xF7, 0xF9]),
            Dec::MovRaxRdx => out.extend_from_slice(&[0x48, 0x89, 0xD0]),
            Dec::TestRax => out.extend_from_slice(&[0x48, 0x85, 0xC0]),
            Dec::TestRcx => out.extend_from_slice(&[0x48, 0x85, 0xC9]),
            Dec::CmpRaxRcx => out.extend_from_slice(&[0x48, 0x39, 0xC8]),
            Dec::CmpRaxRdx => out.extend_from_slice(&[0x48, 0x39, 0xD0]),
            Dec::CmpRcxM1 => out.extend_from_slice(&[0x48, 0x83, 0xF9, 0xFF]),
            Dec::AndRax1 => out.extend_from_slice(&[0x48, 0x83, 0xE0, 0x01]),
            Dec::LeaRbp { disp } => {
                out.extend_from_slice(&[0x48, 0x8D, 0xAD]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Dec::MovsdLoad { xmm, slot } => {
                out.extend_from_slice(&[0xF2, 0x0F, 0x10, 0x80 | (xmm << 3) | 0x05]);
                out.extend_from_slice(&(slot * 8).to_le_bytes());
            }
            Dec::MovsdStore { slot } => {
                out.extend_from_slice(&[0xF2, 0x0F, 0x11, 0x85]);
                out.extend_from_slice(&(slot * 8).to_le_bytes());
            }
            Dec::Addsd => out.extend_from_slice(&[0xF2, 0x0F, 0x58, 0xC1]),
            Dec::Subsd => out.extend_from_slice(&[0xF2, 0x0F, 0x5C, 0xC1]),
            Dec::Mulsd => out.extend_from_slice(&[0xF2, 0x0F, 0x59, 0xC1]),
            Dec::Divsd => out.extend_from_slice(&[0xF2, 0x0F, 0x5E, 0xC1]),
            Dec::Cmpsd { pred } => out.extend_from_slice(&[0xF2, 0x0F, 0xC2, 0xC1, pred]),
            Dec::Cvtsi2sd => out.extend_from_slice(&[0xF2, 0x48, 0x0F, 0x2A, 0xC0]),
            Dec::MovqRaxXmm0 => out.extend_from_slice(&[0x66, 0x48, 0x0F, 0x7E, 0xC0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_rejects_unknown_bytes() {
        assert!(decode_one(&[0x90], 0).is_err()); // plain nop: not emitted
        assert!(decode_one(&[0x48, 0xFF, 0xC0], 0).is_err()); // inc rax
        assert!(decode_one(&[], 0).is_err());
        let err = decode_one(&[0xCC, 0x90], 1).unwrap_err();
        assert_eq!(err.pos, 1);
        assert_eq!(err.byte, 0x90);
    }

    #[test]
    fn slot_displacements_must_be_slot_aligned() {
        // mov rax, [rbp + 12] — not a multiple of 8, outside the subset.
        let bytes = [0x48, 0x8B, 0x85, 12, 0, 0, 0];
        assert!(decode_one(&bytes, 0).is_err());
    }

    #[test]
    fn sweep_yields_offsets_and_stops_after_the_first_error() {
        // ret; syscall; nop (not emitted); ret — the trailing ret is never
        // reached.
        let code = [0xC3, 0x0F, 0x05, 0x90, 0xC3];
        let got: Vec<_> = sweep(&code).collect();
        assert_eq!(
            got,
            vec![
                Ok((0, Dec::Ret, 1)),
                Ok((1, Dec::Syscall, 2)),
                Err(DecodeError { pos: 3, byte: 0x90 }),
            ]
        );
        assert_eq!(sweep(&[]).count(), 0);
        // An instruction cut off at the end of the slice is an error too.
        assert!(matches!(
            sweep(&[0xE9, 0, 0]).collect::<Vec<_>>()[..],
            [Err(DecodeError { pos: 0, .. })]
        ));
    }
}
