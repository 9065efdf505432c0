//! Pre-decoded trace compilation: the compiled execution backend's input.
//!
//! A [`LaidProgram`] is immutable once the compiler passes have run, yet
//! the interpreting pipeline re-inspects `Instruction` structs — branch
//! spec enums, operand options, region lookups — on every fetch of every
//! cycle. This module compiles a laid-out program **once** into a
//! [`CompiledTrace`]: two flat per-slot arrays — a packed decode record
//! (class, operand registers, in-page and boundary bits, at most 8 bytes)
//! for the fetch/decode metadata and a [`TraceOp`] for the architectural
//! semantics — with every branch target pre-resolved to a slot index and
//! every data region pre-folded to its concrete page/array. The rest of a
//! slot's [`DecodedInstr`] is derived on read by
//! [`CompiledTrace::decoded`]: the latency from the class, the virtual
//! page from the slot address, and the exact [`BranchKind`] (taken bias
//! included) from the slot's `TraceOp`, whose branch variants map
//! one-to-one onto the branch kinds.
//!
//! [`TraceWalker`] replays a trace with **bit-identical** behaviour to
//! [`Walker`](crate::walk::Walker): the same RNG draws in the same order,
//! the same call-stack push/overwrite rules, the same end-of-text wrap.
//! The golden-output suite holds both backends to the same recorded
//! reports, so the trace is an optimization, never a second model.
//!
//! Traces live only in memory. Under the compiled backend the engine
//! memoizes one trace per compilation class and drops the laid-out
//! program it was compiled from.

use cfr_types::{PageGeometry, VirtAddr, INSTRUCTION_BYTES};
use serde::{Deserialize, Serialize};

use crate::isa::{BranchKind, BranchTarget, DataRegion, OpClass, RegId};
use crate::layout::LaidProgram;
use crate::rng::SplitMix64;
use crate::walk::{
    BranchExec, StepInfo, FRAME_BYTES, GLOBAL_BASE, HEAP_BASE, MAX_CALL_DEPTH, STACK_BASE,
};

/// Everything the pipeline's fetch/decode stages need about one slot,
/// pre-extracted so the hot loop never touches an [`Instruction`]
/// (`Vec`-carrying branch specs included).
///
/// [`Instruction`]: crate::isa::Instruction
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecodedInstr {
    /// Functional class.
    pub class: OpClass,
    /// Source registers.
    pub srcs: [Option<RegId>; 2],
    /// Destination register.
    pub dst: Option<RegId>,
    /// Execution latency in cycles once issued.
    pub latency: u32,
    /// Branch kind (present iff `class == Branch`).
    pub branch: Option<BranchKind>,
    /// The SoLA in-page bit.
    pub in_page_hint: bool,
    /// True for compiler-inserted page-boundary branches.
    pub boundary: bool,
    /// Virtual page number of this slot's address.
    pub page: u64,
}

/// Register field value meaning "no register" in a [`PackedDecode`]
/// (architectural registers are `0..RegId::COUNT`).
const NO_REG: u8 = u8::MAX;
/// [`PackedDecode::flags`] bit: the SoLA in-page bit.
const IN_PAGE_HINT: u8 = 1 << 0;
/// [`PackedDecode::flags`] bit: a compiler-inserted page-boundary branch.
const BOUNDARY: u8 = 1 << 1;

/// What a [`CompiledTrace`] stores per slot of a [`DecodedInstr`]: only
/// the fields neither the slot's address nor its [`TraceOp`] determines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct PackedDecode {
    class: OpClass,
    /// Source register numbers, [`NO_REG`] for an absent operand.
    srcs: [u8; 2],
    /// Destination register number, [`NO_REG`] for none.
    dst: u8,
    /// [`IN_PAGE_HINT`] | [`BOUNDARY`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<PackedDecode>() <= 8);

fn pack_reg(reg: Option<RegId>) -> u8 {
    reg.map_or(NO_REG, |r| {
        assert!(r.0 != NO_REG, "register {} collides with NO_REG", r.0);
        r.0
    })
}

fn unpack_reg(raw: u8) -> Option<RegId> {
    (raw != NO_REG).then_some(RegId(raw))
}

/// The architectural semantics of one slot, with targets pre-resolved to
/// slot indices and data regions pre-folded to their concrete page/array.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Falls through to `slot + 1`; no RNG, no memory.
    Plain,
    /// Stack access: address depends on the live call depth.
    MemStack,
    /// Global access to the (pre-folded) global page index.
    MemGlobal {
        /// Global page index, already reduced modulo the page count.
        page: u64,
    },
    /// Heap access walking the (pre-folded) array's cursor.
    MemHeap {
        /// Heap array index, already reduced modulo the array count.
        array: u32,
    },
    /// Conditional branch: taken with probability `bias`.
    Cond {
        /// Per-site taken probability.
        bias: f64,
        /// Taken-target slot.
        target: u32,
    },
    /// Unconditional direct jump (boundary branches' `NextSlot` targets
    /// are resolved to `slot + 1` at compile time).
    Jump {
        /// Target slot.
        target: u32,
    },
    /// Direct call; pushes `slot + 1` as the return slot.
    Call {
        /// Callee entry slot.
        target: u32,
    },
    /// Return; pops the call stack (entry slot when empty).
    Return,
    /// Indirect jump over `count` candidates starting at `start` in the
    /// trace's flat target pool.
    IndirectJump {
        /// First candidate index in [`CompiledTrace::indirect_targets`].
        start: u32,
        /// Number of candidates.
        count: u32,
    },
    /// Indirect call: pushes a return slot like [`TraceOp::Call`], then
    /// picks a candidate like [`TraceOp::IndirectJump`].
    IndirectCall {
        /// First candidate index in [`CompiledTrace::indirect_targets`].
        start: u32,
        /// Number of candidates.
        count: u32,
    },
}

impl TraceOp {
    /// The branch kind this op executes (`None` for non-branches). The
    /// branch variants map one-to-one onto [`BranchKind`], so this is the
    /// source instruction's exact kind, taken bias included.
    #[inline]
    fn branch_kind(self) -> Option<BranchKind> {
        match self {
            TraceOp::Plain
            | TraceOp::MemStack
            | TraceOp::MemGlobal { .. }
            | TraceOp::MemHeap { .. } => None,
            TraceOp::Cond { bias, .. } => Some(BranchKind::Conditional { taken_bias: bias }),
            TraceOp::Jump { .. } => Some(BranchKind::Jump),
            TraceOp::Call { .. } => Some(BranchKind::Call),
            TraceOp::Return => Some(BranchKind::Return),
            TraceOp::IndirectJump { .. } => Some(BranchKind::IndirectJump),
            TraceOp::IndirectCall { .. } => Some(BranchKind::IndirectCall),
        }
    }
}

/// A [`LaidProgram`] compiled to flat pre-decoded arrays — the compiled
/// execution backend's program representation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompiledTrace {
    /// Page geometry used for layout.
    pub geom: PageGeometry,
    /// Address of slot 0.
    pub base: VirtAddr,
    /// Per-slot packed decode records (read through
    /// [`CompiledTrace::decoded`]).
    packed: Vec<PackedDecode>,
    /// Per-slot architectural semantics (parallel to `packed`).
    pub ops: Vec<TraceOp>,
    /// Flat pool of pre-resolved indirect-branch target slots.
    pub indirect_targets: Vec<u32>,
    /// Whether the source layout was instrumented (boundary branches).
    pub instrumented: bool,
    /// Number of global data pages.
    pub global_pages: u16,
    /// Number of heap arrays.
    pub heap_arrays: u16,
    /// Pages per heap array.
    pub heap_array_pages: u16,
}

/// Compiles `laid` into its flat pre-decoded trace.
///
/// # Panics
///
/// Panics on an inconsistent branch spec (a kind paired with a target
/// shape the walker could not execute) — impossible for any program that
/// passes [`Program::validate`](crate::program::Program::validate).
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn compile_trace(laid: &LaidProgram) -> CompiledTrace {
    let n = laid.slots.len();
    let mut packed = Vec::with_capacity(n);
    let mut ops = Vec::with_capacity(n);
    let mut indirect_targets = Vec::new();
    for (slot, s) in laid.slots.iter().enumerate() {
        let instr = &s.instr;
        let op = match instr.class {
            OpClass::Branch => {
                let spec = instr.branch.as_ref().expect("branch has spec");
                match (&spec.kind, &spec.target) {
                    (BranchKind::Conditional { taken_bias }, BranchTarget::Block(b)) => {
                        TraceOp::Cond {
                            bias: *taken_bias,
                            target: laid.block_slot(*b) as u32,
                        }
                    }
                    (BranchKind::Jump, BranchTarget::Block(b)) => TraceOp::Jump {
                        target: laid.block_slot(*b) as u32,
                    },
                    (BranchKind::Jump, BranchTarget::NextSlot) => TraceOp::Jump {
                        target: (slot + 1) as u32,
                    },
                    (BranchKind::Call, BranchTarget::Block(b)) => TraceOp::Call {
                        target: laid.block_slot(*b) as u32,
                    },
                    (BranchKind::Return, BranchTarget::CallerReturn) => TraceOp::Return,
                    (BranchKind::IndirectJump, BranchTarget::Indirect(ts)) => {
                        let start = indirect_targets.len() as u32;
                        indirect_targets.extend(ts.iter().map(|b| laid.block_slot(*b) as u32));
                        TraceOp::IndirectJump {
                            start,
                            count: ts.len() as u32,
                        }
                    }
                    (BranchKind::IndirectCall, BranchTarget::Indirect(ts)) => {
                        let start = indirect_targets.len() as u32;
                        indirect_targets.extend(ts.iter().map(|b| laid.block_slot(*b) as u32));
                        TraceOp::IndirectCall {
                            start,
                            count: ts.len() as u32,
                        }
                    }
                    (kind, target) => {
                        unreachable!("inconsistent branch: {kind:?} with {target:?}")
                    }
                }
            }
            OpClass::Load | OpClass::Store => match instr.region.expect("memory op has a region") {
                DataRegion::Stack => TraceOp::MemStack,
                DataRegion::Global(g) => TraceOp::MemGlobal {
                    page: u64::from(g) % u64::from(laid.global_pages.max(1)),
                },
                DataRegion::Heap(h) => TraceOp::MemHeap {
                    array: u32::from(h) % u32::from(laid.heap_arrays.max(1)),
                },
            },
            OpClass::IntAlu | OpClass::IntMul | OpClass::FpAlu | OpClass::FpMul => TraceOp::Plain,
        };
        let spec = instr.branch.as_ref();
        let mut flags = 0;
        if spec.is_some_and(|s| s.in_page_hint) {
            flags |= IN_PAGE_HINT;
        }
        if spec.is_some_and(|s| s.boundary) {
            flags |= BOUNDARY;
        }
        packed.push(PackedDecode {
            class: instr.class,
            srcs: instr.srcs.map(pack_reg),
            dst: pack_reg(instr.dst),
            flags,
        });
        ops.push(op);
    }
    CompiledTrace {
        geom: laid.geom,
        base: laid.base,
        packed,
        ops,
        indirect_targets,
        instrumented: laid.instrumented,
        global_pages: laid.global_pages,
        heap_arrays: laid.heap_arrays,
        heap_array_pages: laid.heap_array_pages,
    }
}

impl CompiledTrace {
    /// Number of instruction slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the trace has no slots (never true for a valid trace).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Virtual page number of slot `slot`'s address.
    #[inline]
    #[must_use]
    pub fn page_of(&self, slot: usize) -> u64 {
        self.geom.vpn(self.addr_of(slot)).raw()
    }

    /// The fetch/decode metadata of slot `slot`, reassembled from its
    /// packed record, its [`TraceOp`], and its address — field-for-field
    /// what decoding the source instruction yields.
    #[inline]
    #[must_use]
    pub fn decoded(&self, slot: usize) -> DecodedInstr {
        let p = self.packed[slot];
        DecodedInstr {
            class: p.class,
            srcs: p.srcs.map(unpack_reg),
            dst: unpack_reg(p.dst),
            latency: p.class.latency(),
            branch: self.ops[slot].branch_kind(),
            in_page_hint: p.flags & IN_PAGE_HINT != 0,
            boundary: p.flags & BOUNDARY != 0,
            page: self.page_of(slot),
        }
    }

    /// Address of slot `i`.
    #[inline]
    #[must_use]
    pub fn addr_of(&self, slot: usize) -> VirtAddr {
        self.base.add(slot as u64 * INSTRUCTION_BYTES)
    }

    /// Slot index at `addr`, if it names an instruction of this trace.
    #[must_use]
    pub fn slot_of(&self, addr: VirtAddr) -> Option<usize> {
        let a = addr.raw();
        let b = self.base.raw();
        if a < b || !(a - b).is_multiple_of(INSTRUCTION_BYTES) {
            return None;
        }
        let idx = ((a - b) / INSTRUCTION_BYTES) as usize;
        (idx < self.packed.len()).then_some(idx)
    }

    /// The program's entry slot.
    #[must_use]
    pub fn entry_slot(&self) -> usize {
        0
    }
}

/// Deterministic architectural executor over a [`CompiledTrace`] —
/// bit-identical to [`Walker`](crate::walk::Walker) over the trace's
/// source program for any seed.
#[derive(Clone, Debug)]
pub struct TraceWalker<'t> {
    trace: &'t CompiledTrace,
    cur: usize,
    stack: Vec<usize>,
    rng: SplitMix64,
    heap_cursor: Vec<u64>,
    steps: u64,
}

impl<'t> TraceWalker<'t> {
    /// Creates a walker at the trace's entry slot.
    #[must_use]
    pub fn new(trace: &'t CompiledTrace, seed: u64) -> Self {
        Self {
            trace,
            cur: trace.entry_slot(),
            stack: Vec::with_capacity(MAX_CALL_DEPTH),
            rng: SplitMix64::new(seed),
            heap_cursor: vec![0; trace.heap_arrays as usize],
            steps: 0,
        }
    }

    /// Slot the walker will execute next.
    #[must_use]
    pub fn current_slot(&self) -> usize {
        self.cur
    }

    /// Current call depth.
    #[must_use]
    pub fn call_depth(&self) -> usize {
        self.stack.len()
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    #[inline]
    fn push_return(&mut self, ret: usize) {
        if self.stack.len() < MAX_CALL_DEPTH {
            self.stack.push(ret);
        } else {
            *self.stack.last_mut().expect("depth > 0") = ret;
        }
    }

    /// Executes the current instruction and advances.
    #[inline]
    pub fn step(&mut self) -> StepInfo {
        let slot = self.cur;
        let t = self.trace;
        let addr = t.addr_of(slot);
        self.steps += 1;

        let mut branch = None;
        let mut mem_addr = None;

        let next_slot = match t.ops[slot] {
            TraceOp::Plain => slot + 1,
            TraceOp::MemStack => {
                let depth = self.stack.len() as u64;
                let frame_base = STACK_BASE - (depth + 1) * FRAME_BYTES;
                let off = self.rng.below(FRAME_BYTES / 8) * 8;
                mem_addr = Some(VirtAddr::new(frame_base + off));
                slot + 1
            }
            TraceOp::MemGlobal { page } => {
                let bytes = t.geom.page_bytes();
                let off = self.rng.below(bytes / 8) * 8;
                mem_addr = Some(VirtAddr::new(GLOBAL_BASE + page * bytes + off));
                slot + 1
            }
            TraceOp::MemHeap { array } => {
                let array = array as usize;
                let array_bytes = u64::from(t.heap_array_pages) * t.geom.page_bytes();
                let cur = &mut self.heap_cursor[array];
                // Wrap-by-subtract: the cursor stays below the array size
                // and strides by 64, so this equals the old `% size`
                // without a hardware divide on every heap access.
                let wrap = array_bytes.max(64);
                *cur += 64;
                if *cur >= wrap {
                    *cur -= wrap;
                }
                mem_addr = Some(VirtAddr::new(HEAP_BASE + array as u64 * array_bytes + *cur));
                slot + 1
            }
            TraceOp::Cond { bias, target } => {
                let (taken, next) = if self.rng.chance(bias) {
                    (true, target as usize)
                } else {
                    (false, slot + 1)
                };
                branch = Some(BranchExec {
                    taken,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::Jump { target } => {
                let next = target as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::Call { target } => {
                self.push_return(slot + 1);
                let next = target as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::Return => {
                let next = self.stack.pop().unwrap_or_else(|| t.entry_slot());
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::IndirectJump { start, count } => {
                let pick = self.rng.below(u64::from(count)) as usize;
                let next = t.indirect_targets[start as usize + pick] as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::IndirectCall { start, count } => {
                self.push_return(slot + 1);
                let pick = self.rng.below(u64::from(count)) as usize;
                let next = t.indirect_targets[start as usize + pick] as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
        };

        // Falling off the very end of the text restarts at the entry
        // (same wrap as `Walker::step`; the `next_addr` above is the
        // unwrapped successor, also matching the interpreter).
        let next_slot = if next_slot >= t.len() {
            t.entry_slot()
        } else {
            next_slot
        };

        self.cur = next_slot;
        let d = t.packed[slot];
        StepInfo {
            slot,
            addr,
            class: d.class,
            next_slot,
            branch,
            mem_addr,
            is_boundary: d.flags & BOUNDARY != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorParams};
    use crate::walk::Walker;

    fn small_laid(instrumented: bool) -> LaidProgram {
        let prog = generate(&GeneratorParams::small_test());
        LaidProgram::lay_out(&prog, PageGeometry::default_4k(), instrumented)
    }

    #[test]
    fn trace_walker_matches_walker_step_for_step() {
        for instrumented in [false, true] {
            let laid = small_laid(instrumented);
            let trace = compile_trace(&laid);
            for seed in [1u64, 0x5EED, 24301] {
                let mut interp = Walker::new(&laid, seed);
                let mut compiled = TraceWalker::new(&trace, seed);
                for i in 0..20_000 {
                    assert_eq!(
                        interp.step(),
                        compiled.step(),
                        "step {i} (instrumented={instrumented}, seed={seed})"
                    );
                }
                assert_eq!(interp.current_slot(), compiled.current_slot());
                assert_eq!(interp.call_depth(), compiled.call_depth());
                assert_eq!(interp.steps(), compiled.steps());
            }
        }
    }

    #[test]
    fn trace_walker_matches_walker_on_large_pages() {
        // The golden set overrides page size to 16 KB; the pre-folded
        // global/heap addresses must track the geometry.
        let prog = generate(&GeneratorParams::small_test());
        let geom = PageGeometry::new(16384).unwrap();
        let laid = LaidProgram::lay_out(&prog, geom, true);
        let trace = compile_trace(&laid);
        let mut interp = Walker::new(&laid, 7);
        let mut compiled = TraceWalker::new(&trace, 7);
        for _ in 0..20_000 {
            assert_eq!(interp.step(), compiled.step());
        }
    }

    #[test]
    fn trace_mirrors_layout_metadata() {
        let laid = small_laid(true);
        let trace = compile_trace(&laid);
        assert_eq!(trace.len(), laid.slots.len());
        for i in [0usize, 1, trace.len() - 1] {
            assert_eq!(trace.addr_of(i), laid.addr_of(i));
            assert_eq!(trace.slot_of(trace.addr_of(i)), Some(i));
            let d = trace.decoded(i);
            let instr = &laid.slots[i].instr;
            assert_eq!(d.class, instr.class);
            assert_eq!(d.latency, instr.latency());
            assert_eq!(d.page, laid.geom.vpn(laid.addr_of(i)).raw());
        }
        // The branch kind is rebuilt from the slot's op: it must be the
        // source kind bit for bit, taken bias included.
        let mut conditionals = 0;
        for (i, s) in laid.slots.iter().enumerate() {
            let got = trace.decoded(i).branch;
            match (got, s.instr.branch.as_ref().map(|spec| spec.kind)) {
                (
                    Some(BranchKind::Conditional { taken_bias: a }),
                    Some(BranchKind::Conditional { taken_bias: b }),
                ) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "slot {i}");
                    conditionals += 1;
                }
                (got, want) => assert_eq!(got, want, "slot {i}"),
            }
        }
        assert!(conditionals > 0, "the program has conditional branches");
        assert_eq!(trace.slot_of(VirtAddr::new(trace.base.raw() - 4)), None);
        assert_eq!(trace.slot_of(trace.addr_of(trace.len())), None);
    }
}
