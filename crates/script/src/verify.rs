//! Bytecode verifier: an abstract interpreter over [`CompiledProgram`]
//! that proves, *independently of the compiler*, every well-formedness
//! invariant the VM's hot loop relies on — so a hostile or corrupted
//! compiled form can never reach [`crate::vm::Vm`].
//!
//! ## What is proved
//!
//! * **Control flow is closed.** Every jump operand (including a
//!   `for` loop's exhaustion target) lands in bounds *and* on a
//!   block-leader `Charge` pc — the
//!   invariant that makes block pre-charging and the peephole fuser
//!   sound. No reachable path can fall off the end of the instruction
//!   array.
//! * **Stack discipline.** A forward data-flow pass computes the operand
//!   -stack and iterator-stack depth at every reachable pc and checks
//!   that (a) no instruction pops more than is present, and (b) every
//!   join point is reached with one consistent depth — exactly the
//!   "compiler invariant" the VM's unchecked `pop!` assumes.
//! * **Pool and register bounds.** Constant, name, local-slot, map-key
//!   and host-site operands index inside their tables.
//! * **Fuel tables are canonical.** Each block's `Charge` total equals
//!   the sum of its instructions' attached costs, and the refund table
//!   holds the exact per-pc unexecuted-suffix sums — so pre-charge,
//!   early-exit refund, and lockstep replay account for precisely the
//!   same fuel along every path.
//!
//! A program that passes [`verify`] cannot make the VM panic on stack
//! underflow, index out of bounds, or a missing iterator, and cannot be
//! over- or under-charged relative to its own cost table.
//!
//! ## Byte form
//!
//! [`CompiledProgram::to_bytes`] / [`CompiledProgram::from_bytes`]
//! provide a **site-local** byte encoding (the AST remains the only
//! mobile representation). Decoding is defensive: a checksum rejects
//! byte-level corruption outright, and any stream that survives decoding
//! is still passed through [`verify`] before it is handed back — the VM
//! only ever executes verified programs.

use std::fmt;

use mrom_value::wire;
use mrom_value::Value;

use crate::ast::{BinaryOp, UnaryOp};
use crate::compile::{CompiledProgram, Instr};
use crate::eval::BuiltinId;

/// A structured verification failure. Each variant pins the defect to a
/// pc (or table index) so a host can log exactly what was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The program has no instructions (the compiler always emits at
    /// least a return).
    Empty,
    /// `costs` / `refunds` are not the same length as `instrs`.
    TableSizeMismatch {
        /// Instruction count.
        instrs: usize,
        /// Cost-table length.
        costs: usize,
        /// Refund-table length.
        refunds: usize,
    },
    /// pc 0 is not a `Charge` — execution would start mid-block.
    MissingEntryCharge,
    /// A non-terminal instruction sits at the last pc: execution would
    /// run off the end of the instruction array.
    FallOffEnd {
        /// The offending pc.
        pc: usize,
    },
    /// A jump operand points outside the instruction array.
    JumpOutOfBounds {
        /// The jumping pc.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// A jump operand lands on a pc that is not a block-leader `Charge`.
    JumpNotBlockLeader {
        /// The jumping pc.
        pc: usize,
        /// The mid-block target.
        target: usize,
    },
    /// A constant-pool operand is out of bounds.
    ConstOutOfBounds {
        /// The offending pc.
        pc: usize,
        /// The out-of-range pool index.
        index: usize,
    },
    /// A name-pool operand (or map-key run) is out of bounds.
    NameOutOfBounds {
        /// The offending pc.
        pc: usize,
        /// The out-of-range pool index.
        index: usize,
    },
    /// A local-slot operand is ≥ the declared local count.
    SlotOutOfBounds {
        /// The offending pc.
        pc: usize,
        /// The out-of-range slot.
        slot: usize,
    },
    /// A host-call site index is ≥ the declared site count.
    SiteOutOfBounds {
        /// The offending pc.
        pc: usize,
        /// The out-of-range site index.
        site: usize,
    },
    /// A parameter slot is ≥ the declared local count.
    ParamSlotOutOfBounds {
        /// Position in `param_slots`.
        index: usize,
        /// The out-of-range slot.
        slot: usize,
    },
    /// An instruction would pop more values than the operand stack
    /// holds on some path.
    StackUnderflow {
        /// The offending pc.
        pc: usize,
        /// Stack depth on the failing path.
        depth: usize,
        /// Values the instruction needs.
        need: usize,
    },
    /// Two paths reach the same pc with different operand-stack depths.
    DepthMismatch {
        /// The join pc.
        pc: usize,
        /// Depth recorded first.
        expected: usize,
        /// Conflicting depth.
        found: usize,
    },
    /// An iterator instruction runs with an empty iterator stack.
    IterUnderflow {
        /// The offending pc.
        pc: usize,
    },
    /// Two paths reach the same pc with different iterator-stack depths.
    IterMismatch {
        /// The join pc.
        pc: usize,
        /// Depth recorded first.
        expected: usize,
        /// Conflicting depth.
        found: usize,
    },
    /// A `Charge` pc carries an attached cost (block headers never do).
    ChargeCost {
        /// The offending `Charge` pc.
        pc: usize,
    },
    /// A block's `Charge` total does not equal the sum of its
    /// instructions' attached costs.
    ChargeTotal {
        /// The block's `Charge` pc.
        pc: usize,
        /// Total the `Charge` declares.
        declared: u32,
        /// Sum of the block's attached costs.
        actual: u32,
    },
    /// A refund entry is not the unexecuted-suffix sum for its pc.
    RefundMismatch {
        /// The offending pc.
        pc: usize,
        /// Value in the refund table.
        declared: u32,
        /// The canonical suffix sum.
        actual: u32,
    },
    /// The byte stream failed to decode (truncation, bad tag, bad
    /// UTF-8, malformed constant, ...).
    Decode(String),
    /// The byte stream's checksum does not match its contents.
    ChecksumMismatch,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty instruction array"),
            VerifyError::TableSizeMismatch {
                instrs,
                costs,
                refunds,
            } => write!(
                f,
                "fuel tables out of step: {instrs} instrs, {costs} costs, {refunds} refunds"
            ),
            VerifyError::MissingEntryCharge => {
                write!(f, "pc 0 is not a Charge block header")
            }
            VerifyError::FallOffEnd { pc } => {
                write!(f, "pc {pc}: non-terminal instruction at end of program")
            }
            VerifyError::JumpOutOfBounds { pc, target } => {
                write!(f, "pc {pc}: jump target {target} out of bounds")
            }
            VerifyError::JumpNotBlockLeader { pc, target } => {
                write!(
                    f,
                    "pc {pc}: jump target {target} is not a block-leader Charge"
                )
            }
            VerifyError::ConstOutOfBounds { pc, index } => {
                write!(f, "pc {pc}: constant index {index} out of bounds")
            }
            VerifyError::NameOutOfBounds { pc, index } => {
                write!(f, "pc {pc}: name index {index} out of bounds")
            }
            VerifyError::SlotOutOfBounds { pc, slot } => {
                write!(f, "pc {pc}: local slot {slot} out of bounds")
            }
            VerifyError::SiteOutOfBounds { pc, site } => {
                write!(f, "pc {pc}: host-call site {site} out of bounds")
            }
            VerifyError::ParamSlotOutOfBounds { index, slot } => {
                write!(f, "param {index}: slot {slot} out of bounds")
            }
            VerifyError::StackUnderflow { pc, depth, need } => {
                write!(f, "pc {pc}: stack underflow (depth {depth}, need {need})")
            }
            VerifyError::DepthMismatch {
                pc,
                expected,
                found,
            } => write!(
                f,
                "pc {pc}: inconsistent stack depth at join ({expected} vs {found})"
            ),
            VerifyError::IterUnderflow { pc } => {
                write!(f, "pc {pc}: iterator stack underflow")
            }
            VerifyError::IterMismatch {
                pc,
                expected,
                found,
            } => write!(
                f,
                "pc {pc}: inconsistent iterator depth at join ({expected} vs {found})"
            ),
            VerifyError::ChargeCost { pc } => {
                write!(f, "pc {pc}: Charge carries an attached cost")
            }
            VerifyError::ChargeTotal {
                pc,
                declared,
                actual,
            } => write!(
                f,
                "pc {pc}: Charge declares {declared} but block costs sum to {actual}"
            ),
            VerifyError::RefundMismatch {
                pc,
                declared,
                actual,
            } => write!(
                f,
                "pc {pc}: refund table holds {declared}, suffix sum is {actual}"
            ),
            VerifyError::Decode(detail) => write!(f, "bytecode decode failed: {detail}"),
            VerifyError::ChecksumMismatch => write!(f, "bytecode checksum mismatch"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Instructions that end execution at their pc (return or a raised
/// runtime error): they have no successor in the control-flow graph.
fn is_terminal(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Return
            | Instr::ReturnNull
            | Instr::LoadUndef(_)
            | Instr::StoreUndef(_)
            | Instr::CallUnknown { .. }
            | Instr::AssignPathUndef { .. }
            | Instr::AssignErrBadTarget
            | Instr::AssignErrBadRoot
            | Instr::LoopControlErr
    )
}

/// Verifies a compiled program against every invariant the VM assumes.
///
/// Runs in time linear in the program size: one structural scan over all
/// pcs (bounds, targets, terminality, fuel tables) plus one data-flow
/// pass over the reachable control-flow graph (stack and iterator
/// depths). Unreachable instructions — the compiler emits some, e.g. a
/// trailing `ReturnNull` after an explicit `return` — still get the
/// structural checks, but impose no depth constraints.
///
/// # Errors
///
/// The first [`VerifyError`] found, pinned to its pc.
pub fn verify(cp: &CompiledProgram) -> Result<(), VerifyError> {
    let n = cp.instrs.len();
    if n == 0 {
        return Err(VerifyError::Empty);
    }
    if cp.costs.len() != n || cp.refunds.len() != n {
        return Err(VerifyError::TableSizeMismatch {
            instrs: n,
            costs: cp.costs.len(),
            refunds: cp.refunds.len(),
        });
    }
    if !matches!(cp.instrs[0], Instr::Charge(_)) {
        return Err(VerifyError::MissingEntryCharge);
    }
    for (index, &slot) in cp.param_slots.iter().enumerate() {
        if slot >= cp.n_locals {
            return Err(VerifyError::ParamSlotOutOfBounds {
                index,
                slot: slot as usize,
            });
        }
    }

    structural_pass(cp)?;
    fuel_pass(cp)?;
    flow_pass(cp)
}

/// Bounds, jump-target, and terminality checks over **all** pcs.
fn structural_pass(cp: &CompiledProgram) -> Result<(), VerifyError> {
    let n = cp.instrs.len();
    let n_consts = cp.consts.len();
    let n_names = cp.names.len();
    let n_locals = cp.n_locals as usize;
    let n_sites = cp.site_count() as usize;

    let check_const = |pc: usize, i: u32| {
        if (i as usize) < n_consts {
            Ok(())
        } else {
            Err(VerifyError::ConstOutOfBounds {
                pc,
                index: i as usize,
            })
        }
    };
    let check_name = |pc: usize, i: u32| {
        if (i as usize) < n_names {
            Ok(())
        } else {
            Err(VerifyError::NameOutOfBounds {
                pc,
                index: i as usize,
            })
        }
    };
    let check_slot = |pc: usize, s: u32| {
        if (s as usize) < n_locals {
            Ok(())
        } else {
            Err(VerifyError::SlotOutOfBounds {
                pc,
                slot: s as usize,
            })
        }
    };
    let check_target = |pc: usize, t: u32| {
        let target = t as usize;
        if target >= n {
            return Err(VerifyError::JumpOutOfBounds { pc, target });
        }
        if !matches!(cp.instrs[target], Instr::Charge(_)) {
            return Err(VerifyError::JumpNotBlockLeader { pc, target });
        }
        Ok(())
    };

    for (pc, &instr) in cp.instrs.iter().enumerate() {
        match instr {
            Instr::Charge(_)
            | Instr::Nop
            | Instr::Pop
            | Instr::Unary(_)
            | Instr::Binary(_)
            | Instr::Truthy
            | Instr::Index
            | Instr::MakeList(_)
            | Instr::AssignErrBadTarget
            | Instr::AssignErrBadRoot
            | Instr::IterNew
            | Instr::IterPop
            | Instr::LoopControlErr
            | Instr::Return
            | Instr::ReturnNull => {}
            Instr::LoadConst(i) => check_const(pc, i)?,
            Instr::LoadLocal(s) | Instr::StoreLocal(s) => check_slot(pc, s)?,
            Instr::LoadUndef(i) | Instr::StoreUndef(i) => check_name(pc, i)?,
            Instr::BinaryLL { a, b, .. } => {
                check_slot(pc, a)?;
                check_slot(pc, b)?;
            }
            Instr::BinaryLC { a, c, .. } => {
                check_slot(pc, a)?;
                check_const(pc, c)?;
            }
            Instr::BinaryTL { b, .. } => check_slot(pc, b)?,
            Instr::BinaryTC { c, .. } => check_const(pc, c)?,
            Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::AndCheck(t) | Instr::OrCheck(t) => {
                check_target(pc, t)?;
            }
            Instr::Call { .. } => {}
            Instr::CallUnknown { name, .. } => check_name(pc, name)?,
            Instr::HostCall { name, site, .. } => {
                check_name(pc, name)?;
                if site as usize >= n_sites {
                    return Err(VerifyError::SiteOutOfBounds {
                        pc,
                        site: site as usize,
                    });
                }
            }
            Instr::MakeMap { keys, n: count } => {
                let end = keys as usize + count as usize;
                if end > n_names {
                    return Err(VerifyError::NameOutOfBounds { pc, index: end });
                }
            }
            Instr::AssignPath { root, .. } => check_slot(pc, root)?,
            Instr::AssignPathUndef { name, .. } => check_name(pc, name)?,
            Instr::IterNext { slot, end } => {
                check_slot(pc, slot)?;
                check_target(pc, end)?;
            }
        }
        if pc + 1 == n && !is_terminal(instr) {
            return Err(VerifyError::FallOffEnd { pc });
        }
    }
    Ok(())
}

/// Recomputes the canonical fuel tables and compares: each block's
/// `Charge` total must equal the sum of its attached costs, and each
/// refund entry must be the exact unexecuted-suffix sum (saturated to
/// `u32::MAX` exactly as the compiler saturates).
fn fuel_pass(cp: &CompiledProgram) -> Result<(), VerifyError> {
    let n = cp.instrs.len();
    let charges: Vec<usize> = (0..n)
        .filter(|&pc| matches!(cp.instrs[pc], Instr::Charge(_)))
        .collect();
    // `verify` has already established `instrs[0]` is a Charge, so the
    // blocks partition the whole program.
    for (bi, &start) in charges.iter().enumerate() {
        let end = charges.get(bi + 1).copied().unwrap_or(n);
        if cp.costs[start] != 0 {
            return Err(VerifyError::ChargeCost { pc: start });
        }
        if cp.refunds[start] != 0 {
            return Err(VerifyError::RefundMismatch {
                pc: start,
                declared: cp.refunds[start],
                actual: 0,
            });
        }
        let mut suffix: u64 = 0;
        for pc in (start + 1..end).rev() {
            let expected = u32::try_from(suffix).unwrap_or(u32::MAX);
            if cp.refunds[pc] != expected {
                return Err(VerifyError::RefundMismatch {
                    pc,
                    declared: cp.refunds[pc],
                    actual: expected,
                });
            }
            suffix += u64::from(cp.costs[pc]);
        }
        let actual = u32::try_from(suffix).unwrap_or(u32::MAX);
        let Instr::Charge(declared) = cp.instrs[start] else {
            unreachable!("charges holds only Charge pcs");
        };
        if declared != actual {
            return Err(VerifyError::ChargeTotal {
                pc: start,
                declared,
                actual,
            });
        }
    }
    Ok(())
}

/// Forward data-flow over the reachable CFG: operand-stack and
/// iterator-stack depth per pc, with exact-equality joins.
fn flow_pass(cp: &CompiledProgram) -> Result<(), VerifyError> {
    let n = cp.instrs.len();
    // (operand depth, iterator depth) on entry to each reachable pc.
    let mut state: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut work: Vec<usize> = Vec::with_capacity(16);
    state[0] = Some((0, 0));
    work.push(0);

    let merge = |state: &mut Vec<Option<(usize, usize)>>,
                 work: &mut Vec<usize>,
                 pc: usize,
                 depth: usize,
                 iter: usize|
     -> Result<(), VerifyError> {
        match state[pc] {
            None => {
                state[pc] = Some((depth, iter));
                work.push(pc);
                Ok(())
            }
            Some((d, it)) => {
                if d != depth {
                    return Err(VerifyError::DepthMismatch {
                        pc,
                        expected: d,
                        found: depth,
                    });
                }
                if it != iter {
                    return Err(VerifyError::IterMismatch {
                        pc,
                        expected: it,
                        found: iter,
                    });
                }
                Ok(())
            }
        }
    };

    while let Some(pc) = work.pop() {
        let (depth, iter) = state[pc].expect("work items have recorded state");
        let instr = cp.instrs[pc];
        let need = |want: usize| -> Result<(), VerifyError> {
            if depth < want {
                Err(VerifyError::StackUnderflow {
                    pc,
                    depth,
                    need: want,
                })
            } else {
                Ok(())
            }
        };
        match instr {
            Instr::Charge(_) | Instr::Nop => {
                merge(&mut state, &mut work, pc + 1, depth, iter)?;
            }
            Instr::LoadConst(_)
            | Instr::LoadLocal(_)
            | Instr::BinaryLL { .. }
            | Instr::BinaryLC { .. } => {
                merge(&mut state, &mut work, pc + 1, depth + 1, iter)?;
            }
            Instr::StoreLocal(_) | Instr::Pop => {
                need(1)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            Instr::Unary(_) | Instr::Truthy | Instr::BinaryTL { .. } | Instr::BinaryTC { .. } => {
                need(1)?;
                merge(&mut state, &mut work, pc + 1, depth, iter)?;
            }
            Instr::Binary(_) | Instr::Index => {
                need(2)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            Instr::Jump(t) => {
                merge(&mut state, &mut work, t as usize, depth, iter)?;
            }
            Instr::JumpIfFalse(t) => {
                need(1)?;
                merge(&mut state, &mut work, t as usize, depth - 1, iter)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            // Short-circuit checks pop the lhs; on the taken branch they
            // push the short-circuit result back, so the target sees the
            // *same* depth while the fallthrough sees one less.
            Instr::AndCheck(t) | Instr::OrCheck(t) => {
                need(1)?;
                merge(&mut state, &mut work, t as usize, depth, iter)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter)?;
            }
            Instr::Call { argc, .. } | Instr::HostCall { argc, .. } => {
                let argc = argc as usize;
                need(argc)?;
                merge(&mut state, &mut work, pc + 1, depth - argc + 1, iter)?;
            }
            Instr::MakeList(count) | Instr::MakeMap { n: count, .. } => {
                let count = count as usize;
                need(count)?;
                merge(&mut state, &mut work, pc + 1, depth - count + 1, iter)?;
            }
            Instr::AssignPath { n_idx, .. } => {
                let pops = n_idx as usize + 1;
                need(pops)?;
                merge(&mut state, &mut work, pc + 1, depth - pops, iter)?;
            }
            Instr::IterNew => {
                need(1)?;
                merge(&mut state, &mut work, pc + 1, depth - 1, iter + 1)?;
            }
            Instr::IterNext { end, .. } => {
                if iter == 0 {
                    return Err(VerifyError::IterUnderflow { pc });
                }
                merge(&mut state, &mut work, end as usize, depth, iter)?;
                merge(&mut state, &mut work, pc + 1, depth, iter)?;
            }
            Instr::IterPop => {
                if iter == 0 {
                    return Err(VerifyError::IterUnderflow { pc });
                }
                merge(&mut state, &mut work, pc + 1, depth, iter - 1)?;
            }
            // Terminals: no successors, but their pops must still be
            // covered on every path that reaches them.
            Instr::Return | Instr::StoreUndef(_) => {
                need(1)?;
            }
            Instr::CallUnknown { argc, .. } => {
                need(argc as usize)?;
            }
            Instr::AssignPathUndef { n_idx, .. } => {
                need(n_idx as usize + 1)?;
            }
            Instr::ReturnNull
            | Instr::LoadUndef(_)
            | Instr::AssignErrBadTarget
            | Instr::AssignErrBadRoot
            | Instr::LoopControlErr => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Site-local byte encoding
// ---------------------------------------------------------------------

const MAGIC: &[u8; 4] = b"MRBC";
const VERSION: u8 = 1;

/// Binary operators in stable encoding order.
const BIN_OPS: [BinaryOp; 13] = [
    BinaryOp::Or,
    BinaryOp::And,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Rem,
];

fn bin_code(op: BinaryOp) -> u8 {
    let idx = BIN_OPS
        .iter()
        .position(|&o| o == op)
        .expect("BIN_OPS covers every BinaryOp");
    u8::try_from(idx).expect("13 operators fit a byte")
}

/// FNV-1a over the stream — not cryptographic, just enough to turn any
/// accidental or byte-level corruption into a structured rejection.
fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    w_u32(out, u32::try_from(s.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(s.as_bytes());
}

fn w_value(out: &mut Vec<u8>, v: &Value) {
    let bytes = wire::encode(v);
    w_u32(out, u32::try_from(bytes.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(&bytes);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], VerifyError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| VerifyError::Decode("truncated stream".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn r_u8(&mut self) -> Result<u8, VerifyError> {
        Ok(self.take(1)?[0])
    }

    fn r_u32(&mut self) -> Result<u32, VerifyError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn r_str(&mut self) -> Result<String, VerifyError> {
        let len = self.r_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| VerifyError::Decode("name is not UTF-8".into()))
    }

    fn r_value(&mut self) -> Result<Value, VerifyError> {
        let len = self.r_u32()? as usize;
        let bytes = self.take(len)?;
        wire::decode(bytes).map_err(|e| VerifyError::Decode(format!("malformed constant: {e}")))
    }

    fn r_bin(&mut self) -> Result<BinaryOp, VerifyError> {
        let code = self.r_u8()? as usize;
        BIN_OPS
            .get(code)
            .copied()
            .ok_or_else(|| VerifyError::Decode(format!("bad binary-op code {code}")))
    }
}

impl CompiledProgram {
    /// Encodes the compiled form as bytes. **Site-local only**: the AST
    /// remains the sole mobile representation of a method body; this
    /// encoding exists so a host can stage compiled code (and so tests
    /// can corrupt it and prove [`CompiledProgram::from_bytes`] rejects
    /// the damage).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.instrs.len() * 6);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        w_u32(
            &mut out,
            u32::try_from(self.instrs.len()).unwrap_or(u32::MAX),
        );
        for (pc, instr) in self.instrs.iter().enumerate() {
            encode_instr(&mut out, *instr);
            w_u32(&mut out, self.costs[pc]);
            w_u32(&mut out, self.refunds[pc]);
        }
        w_u32(
            &mut out,
            u32::try_from(self.consts.len()).unwrap_or(u32::MAX),
        );
        for c in &self.consts {
            w_value(&mut out, c);
        }
        w_u32(
            &mut out,
            u32::try_from(self.names.len()).unwrap_or(u32::MAX),
        );
        for name in &self.names {
            w_str(&mut out, name);
        }
        w_u32(&mut out, self.n_locals);
        w_u32(
            &mut out,
            u32::try_from(self.param_slots.len()).unwrap_or(u32::MAX),
        );
        for &slot in &self.param_slots {
            w_u32(&mut out, slot);
        }
        w_u32(&mut out, self.site_count());
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes and **verifies** a byte stream produced by
    /// [`CompiledProgram::to_bytes`]. The returned program has passed
    /// [`verify`] — handing a `Vm` anything else is impossible through
    /// this path, which is what makes foreign compiled forms safe to
    /// stage.
    ///
    /// # Errors
    ///
    /// [`VerifyError::ChecksumMismatch`] on any byte-level corruption,
    /// [`VerifyError::Decode`] on structural decode failures, or any
    /// other [`VerifyError`] when the decoded program fails
    /// verification.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompiledProgram, VerifyError> {
        if bytes.len() < MAGIC.len() + 1 + 8 {
            return Err(VerifyError::Decode("stream too short".into()));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_le_bytes(tail.try_into().expect("split_at leaves 8 bytes"));
        if checksum(body) != declared {
            return Err(VerifyError::ChecksumMismatch);
        }
        let mut r = Reader { buf: body, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(VerifyError::Decode("bad magic".into()));
        }
        if r.r_u8()? != VERSION {
            return Err(VerifyError::Decode("unsupported version".into()));
        }
        let n_instrs = r.r_u32()? as usize;
        // A length prefix larger than the stream itself is corruption;
        // cap preallocation at what the remaining bytes could encode.
        if n_instrs > body.len() {
            return Err(VerifyError::Decode(
                "instruction count exceeds stream".into(),
            ));
        }
        let mut instrs = Vec::with_capacity(n_instrs);
        let mut costs = Vec::with_capacity(n_instrs);
        let mut refunds = Vec::with_capacity(n_instrs);
        for _ in 0..n_instrs {
            instrs.push(decode_instr(&mut r)?);
            costs.push(r.r_u32()?);
            refunds.push(r.r_u32()?);
        }
        let n_consts = r.r_u32()? as usize;
        if n_consts > body.len() {
            return Err(VerifyError::Decode("constant count exceeds stream".into()));
        }
        let mut consts = Vec::with_capacity(n_consts);
        for _ in 0..n_consts {
            consts.push(r.r_value()?);
        }
        let n_names = r.r_u32()? as usize;
        if n_names > body.len() {
            return Err(VerifyError::Decode("name count exceeds stream".into()));
        }
        let mut names = Vec::with_capacity(n_names);
        for _ in 0..n_names {
            names.push(r.r_str()?);
        }
        let n_locals = r.r_u32()?;
        let n_params = r.r_u32()? as usize;
        if n_params > body.len() {
            return Err(VerifyError::Decode("param count exceeds stream".into()));
        }
        let mut param_slots = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            param_slots.push(r.r_u32()?);
        }
        let n_sites = r.r_u32()?;
        if r.pos != body.len() {
            return Err(VerifyError::Decode("trailing bytes after stream".into()));
        }
        let cp = CompiledProgram::from_raw_parts(
            instrs,
            costs,
            refunds,
            consts,
            names,
            n_locals,
            param_slots,
            n_sites,
        );
        verify(&cp)?;
        Ok(cp)
    }
}

fn encode_instr(out: &mut Vec<u8>, instr: Instr) {
    match instr {
        Instr::Charge(v) => {
            out.push(0);
            w_u32(out, v);
        }
        Instr::Nop => out.push(1),
        Instr::LoadConst(i) => {
            out.push(2);
            w_u32(out, i);
        }
        Instr::LoadLocal(s) => {
            out.push(3);
            w_u32(out, s);
        }
        Instr::StoreLocal(s) => {
            out.push(4);
            w_u32(out, s);
        }
        Instr::LoadUndef(i) => {
            out.push(5);
            w_u32(out, i);
        }
        Instr::StoreUndef(i) => {
            out.push(6);
            w_u32(out, i);
        }
        Instr::Pop => out.push(7),
        Instr::Unary(op) => {
            out.push(8);
            out.push(match op {
                UnaryOp::Neg => 0,
                UnaryOp::Not => 1,
            });
        }
        Instr::Binary(op) => {
            out.push(9);
            out.push(bin_code(op));
        }
        Instr::BinaryLL { op, a, b } => {
            out.push(10);
            out.push(bin_code(op));
            w_u32(out, a);
            w_u32(out, b);
        }
        Instr::BinaryLC { op, a, c } => {
            out.push(11);
            out.push(bin_code(op));
            w_u32(out, a);
            w_u32(out, c);
        }
        Instr::BinaryTL { op, b } => {
            out.push(12);
            out.push(bin_code(op));
            w_u32(out, b);
        }
        Instr::BinaryTC { op, c } => {
            out.push(13);
            out.push(bin_code(op));
            w_u32(out, c);
        }
        Instr::Truthy => out.push(14),
        Instr::Jump(t) => {
            out.push(15);
            w_u32(out, t);
        }
        Instr::JumpIfFalse(t) => {
            out.push(16);
            w_u32(out, t);
        }
        Instr::AndCheck(t) => {
            out.push(17);
            w_u32(out, t);
        }
        Instr::OrCheck(t) => {
            out.push(18);
            w_u32(out, t);
        }
        Instr::Index => out.push(19),
        Instr::Call { builtin, argc } => {
            out.push(20);
            w_str(out, builtin.name());
            w_u32(out, argc);
        }
        Instr::CallUnknown { name, argc } => {
            out.push(21);
            w_u32(out, name);
            w_u32(out, argc);
        }
        Instr::HostCall { name, argc, site } => {
            out.push(22);
            w_u32(out, name);
            w_u32(out, argc);
            w_u32(out, site);
        }
        Instr::MakeList(n) => {
            out.push(23);
            w_u32(out, n);
        }
        Instr::MakeMap { keys, n } => {
            out.push(24);
            w_u32(out, keys);
            w_u32(out, n);
        }
        Instr::AssignPath { root, n_idx } => {
            out.push(25);
            w_u32(out, root);
            w_u32(out, n_idx);
        }
        Instr::AssignPathUndef { name, n_idx } => {
            out.push(26);
            w_u32(out, name);
            w_u32(out, n_idx);
        }
        Instr::AssignErrBadTarget => out.push(27),
        Instr::AssignErrBadRoot => out.push(28),
        Instr::IterNew => out.push(29),
        Instr::IterNext { slot, end } => {
            out.push(30);
            w_u32(out, slot);
            w_u32(out, end);
        }
        Instr::IterPop => out.push(31),
        Instr::LoopControlErr => out.push(32),
        Instr::Return => out.push(33),
        Instr::ReturnNull => out.push(34),
    }
}

fn decode_instr(r: &mut Reader<'_>) -> Result<Instr, VerifyError> {
    let tag = r.r_u8()?;
    Ok(match tag {
        0 => Instr::Charge(r.r_u32()?),
        1 => Instr::Nop,
        2 => Instr::LoadConst(r.r_u32()?),
        3 => Instr::LoadLocal(r.r_u32()?),
        4 => Instr::StoreLocal(r.r_u32()?),
        5 => Instr::LoadUndef(r.r_u32()?),
        6 => Instr::StoreUndef(r.r_u32()?),
        7 => Instr::Pop,
        8 => Instr::Unary(match r.r_u8()? {
            0 => UnaryOp::Neg,
            1 => UnaryOp::Not,
            code => return Err(VerifyError::Decode(format!("bad unary-op code {code}"))),
        }),
        9 => Instr::Binary(r.r_bin()?),
        10 => Instr::BinaryLL {
            op: r.r_bin()?,
            a: r.r_u32()?,
            b: r.r_u32()?,
        },
        11 => Instr::BinaryLC {
            op: r.r_bin()?,
            a: r.r_u32()?,
            c: r.r_u32()?,
        },
        12 => Instr::BinaryTL {
            op: r.r_bin()?,
            b: r.r_u32()?,
        },
        13 => Instr::BinaryTC {
            op: r.r_bin()?,
            c: r.r_u32()?,
        },
        14 => Instr::Truthy,
        15 => Instr::Jump(r.r_u32()?),
        16 => Instr::JumpIfFalse(r.r_u32()?),
        17 => Instr::AndCheck(r.r_u32()?),
        18 => Instr::OrCheck(r.r_u32()?),
        19 => Instr::Index,
        20 => {
            let name = r.r_str()?;
            let builtin = BuiltinId::from_name(&name)
                .ok_or_else(|| VerifyError::Decode(format!("unknown builtin {name:?}")))?;
            Instr::Call {
                builtin,
                argc: r.r_u32()?,
            }
        }
        21 => Instr::CallUnknown {
            name: r.r_u32()?,
            argc: r.r_u32()?,
        },
        22 => Instr::HostCall {
            name: r.r_u32()?,
            argc: r.r_u32()?,
            site: r.r_u32()?,
        },
        23 => Instr::MakeList(r.r_u32()?),
        24 => Instr::MakeMap {
            keys: r.r_u32()?,
            n: r.r_u32()?,
        },
        25 => Instr::AssignPath {
            root: r.r_u32()?,
            n_idx: r.r_u32()?,
        },
        26 => Instr::AssignPathUndef {
            name: r.r_u32()?,
            n_idx: r.r_u32()?,
        },
        27 => Instr::AssignErrBadTarget,
        28 => Instr::AssignErrBadRoot,
        29 => Instr::IterNew,
        30 => Instr::IterNext {
            slot: r.r_u32()?,
            end: r.r_u32()?,
        },
        31 => Instr::IterPop,
        32 => Instr::LoopControlErr,
        33 => Instr::Return,
        34 => Instr::ReturnNull,
        _ => return Err(VerifyError::Decode(format!("bad opcode tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    fn compiled(src: &str) -> CompiledProgram {
        Program::parse(src)
            .unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
            .compiled()
            .as_ref()
            .clone()
    }

    const CORPUS: &[&str] = &[
        "return 1;",
        "param a; param b; return a + b * 2;",
        "let x = 1; let y = 2; if (x < y) { return x; } else { return y; }",
        "let s = 0; let i = 0; while (i < 10) { s = s + i; i = i + 1; } return s;",
        "let s = 0; for (i in range(5)) { if (i == 3) { break; } s = s + i; } return s;",
        "let m = {\"a\": [1, 2], \"b\": 0}; m[\"a\"][1] = 9; return m[\"a\"][1];",
        "return true && false || 1 < 2;",
        "let r = self.get(\"x\"); self.set(\"x\", r); return self.invoke(\"m\", [r]);",
        "let l = [1, 2, 3]; let out = []; for (v in l) { push(out, v * v); } return out;",
        "return -len(\"abc\") + int(\"4\");",
        "for (a in [1]) { for (b in [2]) { continue; } } return null;",
        "return ghost;",
        "break;",
    ];

    #[test]
    fn every_compiler_output_verifies() {
        for src in CORPUS {
            let cp = compiled(src);
            verify(&cp).unwrap_or_else(|e| panic!("{src:?} failed verification: {e}"));
        }
    }

    #[test]
    fn bytes_round_trip_and_verify() {
        for src in CORPUS {
            let cp = compiled(src);
            let bytes = cp.to_bytes();
            let back = CompiledProgram::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{src:?} failed round trip: {e}"));
            assert_eq!(cp, back, "round-trip drift on {src:?}");
        }
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        let cp = compiled("let x = 2; while (x > 0) { x = x - 1; } return self.get(\"x\");");
        let bytes = cp.to_bytes();
        for idx in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[idx] ^= 0x01;
            assert!(
                CompiledProgram::from_bytes(&damaged).is_err(),
                "flip at byte {idx} was accepted"
            );
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = compiled("return 1 + 2;").to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                CompiledProgram::from_bytes(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes was accepted"
            );
        }
    }

    // -- targeted structural tampering (bypasses the checksum) -----------

    #[test]
    fn jump_into_block_interior_is_rejected() {
        let mut cp = compiled("let x = 1; if (x) { x = 2; } return x;");
        let jump_pc = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::JumpIfFalse(_)))
            .expect("if compiles to JumpIfFalse");
        // Retarget to pc 1 — the entry block's first real instruction,
        // never a block-leader Charge.
        assert!(!matches!(cp.instrs[1], Instr::Charge(_)));
        cp.instrs[jump_pc] = Instr::JumpIfFalse(1);
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::JumpNotBlockLeader { .. }) | Err(VerifyError::JumpOutOfBounds { .. })
        ));
    }

    #[test]
    fn out_of_bounds_operands_are_rejected() {
        let mut cp = compiled("let x = 1; return x;");
        let load = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::LoadConst(_)))
            .expect("literal compiles to LoadConst");
        cp.instrs[load] = Instr::LoadConst(99);
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::ConstOutOfBounds { index: 99, .. })
        ));

        let mut cp = compiled("let x = 1; return x;");
        let store = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::StoreLocal(_)))
            .expect("let compiles to StoreLocal");
        cp.instrs[store] = Instr::StoreLocal(77);
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::SlotOutOfBounds { slot: 77, .. })
        ));
    }

    #[test]
    fn stack_underflow_is_rejected() {
        let mut cp = compiled("return 1;");
        // Overwrite the LoadConst with a Nop: Return now pops nothing.
        let load = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::LoadConst(_)))
            .expect("literal compiles to LoadConst");
        cp.instrs[load] = Instr::Nop;
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn fall_off_end_is_rejected() {
        let mut cp = compiled("return 1;");
        let last = cp.instrs.len() - 1;
        cp.instrs[last] = Instr::Nop;
        assert!(matches!(verify(&cp), Err(VerifyError::FallOffEnd { .. })));
    }

    #[test]
    fn tampered_fuel_tables_are_rejected() {
        let mut cp = compiled("return 1 + 2;");
        let Instr::Charge(total) = cp.instrs[0] else {
            panic!("pc 0 must be Charge")
        };
        cp.instrs[0] = Instr::Charge(total + 1);
        assert!(matches!(verify(&cp), Err(VerifyError::ChargeTotal { .. })));

        let mut cp = compiled("return 1 + 2;");
        cp.refunds[1] = cp.refunds[1].wrapping_add(5);
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::RefundMismatch { .. })
        ));
    }

    #[test]
    fn missing_entry_charge_is_rejected() {
        let mut cp = compiled("return 1;");
        cp.instrs[0] = Instr::Nop;
        assert!(matches!(verify(&cp), Err(VerifyError::MissingEntryCharge)));
    }

    #[test]
    fn iterator_tampering_is_rejected() {
        let mut cp = compiled("for (i in [1, 2]) { let x = i; } return null;");
        let iter_new = cp
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::IterNew))
            .expect("for compiles to IterNew");
        // Drop the IterNew (replace with Pop to keep stack depths): the
        // loop's IterNext now runs with an empty iterator stack.
        cp.instrs[iter_new] = Instr::Pop;
        assert!(matches!(
            verify(&cp),
            Err(VerifyError::IterUnderflow { .. })
        ));
    }

    #[test]
    fn errors_display_their_pc() {
        let e = VerifyError::StackUnderflow {
            pc: 7,
            depth: 0,
            need: 2,
        };
        assert!(e.to_string().contains("pc 7"));
        assert!(VerifyError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
    }
}
