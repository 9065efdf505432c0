//! The synthetic ISA: fixed 4-byte instructions with explicit operand
//! registers and branch metadata.
//!
//! The ISA carries exactly the information the paper's mechanisms key on:
//! whether an instruction is a branch, whether its target is *statically
//! analyzable* (a direct/PC-relative target the SoLA compiler pass can
//! resolve), and — after compilation — the extra "in-page" bit SoLA encodes
//! into branch instructions and the boundary branches SoCA/SoLA/IA insert
//! at page ends.

use serde::{Deserialize, Serialize};

use crate::program::BlockId;

/// An architectural register. 0–31 are integer, 32–63 floating point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegId(pub u8);

impl RegId {
    /// Number of architectural registers.
    pub const COUNT: usize = 64;

    /// Whether this is a floating-point register.
    #[must_use]
    pub fn is_fp(self) -> bool {
        self.0 >= 32
    }
}

/// Functional class of an instruction, mapping 1:1 onto the paper's
/// functional-unit mix (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Integer ALU op (1-cycle, 4 units).
    IntAlu,
    /// Integer multiply/divide (3-cycle, 1 unit).
    IntMul,
    /// FP add/compare (2-cycle, 4 units).
    FpAlu,
    /// FP multiply/divide (4-cycle, 1 unit).
    FpMul,
    /// Load (dL1/dTLB access at execute).
    Load,
    /// Store (address generation at execute, data written at commit).
    Store,
    /// Control transfer; carries a [`BranchSpec`].
    Branch,
}

impl OpClass {
    /// Execution latency in cycles once issued: a function of the class
    /// alone.
    #[inline]
    #[must_use]
    pub fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Branch => 1,
            OpClass::IntMul => 3,
            OpClass::FpAlu => 2,
            OpClass::FpMul => 4,
            OpClass::Load => 1, // plus memory latency, charged by the LSQ
            OpClass::Store => 1,
        }
    }
}

/// What kind of control transfer a branch performs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum BranchKind {
    /// Conditional, direct target; falls through when not taken.
    /// `taken_bias` is the per-site probability of being taken.
    Conditional {
        /// Probability this branch is taken on any dynamic instance.
        taken_bias: f64,
    },
    /// Unconditional direct jump.
    Jump,
    /// Direct call; pushes the fall-through address as return address.
    Call,
    /// Return; pops the return-address stack.
    Return,
    /// Indirect jump through a register (computed goto / switch dispatch).
    IndirectJump,
    /// Indirect call (virtual dispatch / function pointer): pushes a return
    /// address like [`BranchKind::Call`], but the target is unknown at
    /// compile time.
    IndirectCall,
}

impl BranchKind {
    /// Whether the *target* of this branch is statically analyzable — the
    /// property the SoLA compiler pass keys on ("branch targets given as
    /// immediate operands or as PC-relative operands").
    #[must_use]
    pub fn analyzable(self) -> bool {
        matches!(
            self,
            BranchKind::Conditional { .. } | BranchKind::Jump | BranchKind::Call
        )
    }

    /// Whether the branch can fall through (only conditionals can).
    #[must_use]
    pub fn conditional(self) -> bool {
        matches!(self, BranchKind::Conditional { .. })
    }
}

/// Where a branch goes when taken.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum BranchTarget {
    /// A direct target: the first instruction of a block.
    Block(BlockId),
    /// The next sequential instruction — used by compiler-inserted boundary
    /// branches, whose target is "the very next instruction (the first one
    /// on the next page)".
    NextSlot,
    /// An indirect target set: the walker picks one block per execution,
    /// weighted uniformly. Unknown at compile time.
    Indirect(Vec<BlockId>),
    /// Return to the caller (target comes from the call stack).
    CallerReturn,
}

/// Branch metadata attached to [`OpClass::Branch`] instructions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BranchSpec {
    /// Control-transfer kind.
    pub kind: BranchKind,
    /// Taken-path target.
    pub target: BranchTarget,
    /// Set by the SoLA compiler pass when the (analyzable) target is on the
    /// same page as the branch itself — the paper's extra instruction bit.
    pub in_page_hint: bool,
    /// True for compiler-inserted page-boundary branches.
    pub boundary: bool,
}

impl BranchSpec {
    /// A direct conditional branch.
    #[must_use]
    pub fn conditional(target: BlockId, taken_bias: f64) -> Self {
        Self {
            kind: BranchKind::Conditional { taken_bias },
            target: BranchTarget::Block(target),
            in_page_hint: false,
            boundary: false,
        }
    }

    /// An unconditional direct jump.
    #[must_use]
    pub fn jump(target: BlockId) -> Self {
        Self {
            kind: BranchKind::Jump,
            target: BranchTarget::Block(target),
            in_page_hint: false,
            boundary: false,
        }
    }

    /// A direct call.
    #[must_use]
    pub fn call(entry: BlockId) -> Self {
        Self {
            kind: BranchKind::Call,
            target: BranchTarget::Block(entry),
            in_page_hint: false,
            boundary: false,
        }
    }

    /// A return.
    #[must_use]
    pub fn ret() -> Self {
        Self {
            kind: BranchKind::Return,
            target: BranchTarget::CallerReturn,
            in_page_hint: false,
            boundary: false,
        }
    }

    /// An indirect jump over a candidate set.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    #[must_use]
    pub fn indirect(targets: Vec<BlockId>) -> Self {
        assert!(!targets.is_empty(), "indirect jump needs targets");
        Self {
            kind: BranchKind::IndirectJump,
            target: BranchTarget::Indirect(targets),
            in_page_hint: false,
            boundary: false,
        }
    }

    /// An indirect call (virtual dispatch) over candidate function entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    #[must_use]
    pub fn indirect_call(entries: Vec<BlockId>) -> Self {
        assert!(!entries.is_empty(), "indirect call needs targets");
        Self {
            kind: BranchKind::IndirectCall,
            target: BranchTarget::Indirect(entries),
            in_page_hint: false,
            boundary: false,
        }
    }

    /// The compiler-inserted page-boundary branch: an unconditional jump to
    /// the next sequential instruction.
    #[must_use]
    pub fn boundary() -> Self {
        Self {
            kind: BranchKind::Jump,
            target: BranchTarget::NextSlot,
            in_page_hint: false,
            boundary: true,
        }
    }
}

/// Data region a memory instruction touches (assigned at generation time;
/// drives the synthetic data-address stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataRegion {
    /// Stack frame of the executing function.
    Stack,
    /// One of the program's global pages (index).
    Global(u16),
    /// One of the program's heap arrays (index), walked with a stride.
    Heap(u16),
}

/// One instruction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    /// Functional class.
    pub class: OpClass,
    /// Source registers.
    pub srcs: [Option<RegId>; 2],
    /// Destination register.
    pub dst: Option<RegId>,
    /// Branch metadata (present iff `class == Branch`).
    pub branch: Option<BranchSpec>,
    /// Data region (present iff `class` is `Load` or `Store`).
    pub region: Option<DataRegion>,
}

impl Instruction {
    /// A non-memory, non-branch op.
    ///
    /// # Panics
    ///
    /// Panics if `class` is a branch or memory class.
    #[must_use]
    pub fn alu(class: OpClass, srcs: [Option<RegId>; 2], dst: Option<RegId>) -> Self {
        assert!(
            matches!(
                class,
                OpClass::IntAlu | OpClass::IntMul | OpClass::FpAlu | OpClass::FpMul
            ),
            "alu() is for computational classes"
        );
        Self {
            class,
            srcs,
            dst,
            branch: None,
            region: None,
        }
    }

    /// A load from `region`.
    #[must_use]
    pub fn load(region: DataRegion, addr_src: RegId, dst: RegId) -> Self {
        Self {
            class: OpClass::Load,
            srcs: [Some(addr_src), None],
            dst: Some(dst),
            branch: None,
            region: Some(region),
        }
    }

    /// A store to `region`.
    #[must_use]
    pub fn store(region: DataRegion, addr_src: RegId, data_src: RegId) -> Self {
        Self {
            class: OpClass::Store,
            srcs: [Some(addr_src), Some(data_src)],
            dst: None,
            branch: None,
            region: Some(region),
        }
    }

    /// A branch with the given spec. Conditional branches read a register.
    #[must_use]
    pub fn branch(spec: BranchSpec, cond_src: Option<RegId>) -> Self {
        Self {
            class: OpClass::Branch,
            srcs: [cond_src, None],
            dst: None,
            branch: Some(spec),
            region: None,
        }
    }

    /// Whether this is any kind of branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }

    /// Execution latency in cycles once issued.
    #[must_use]
    pub fn latency(&self) -> u32 {
        self.class.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzability_matches_paper_definition() {
        assert!(BranchKind::Conditional { taken_bias: 0.5 }.analyzable());
        assert!(BranchKind::Jump.analyzable());
        assert!(BranchKind::Call.analyzable());
        assert!(!BranchKind::Return.analyzable());
        assert!(!BranchKind::IndirectJump.analyzable());
    }

    #[test]
    fn only_conditionals_fall_through() {
        assert!(BranchKind::Conditional { taken_bias: 0.1 }.conditional());
        assert!(!BranchKind::Jump.conditional());
        assert!(!BranchKind::Return.conditional());
    }

    #[test]
    fn boundary_spec_shape() {
        let b = BranchSpec::boundary();
        assert!(b.boundary);
        assert_eq!(b.kind, BranchKind::Jump);
        assert_eq!(b.target, BranchTarget::NextSlot);
    }

    #[test]
    fn constructors_set_classes() {
        let l = Instruction::load(DataRegion::Stack, RegId(1), RegId(2));
        assert_eq!(l.class, OpClass::Load);
        assert!(l.region.is_some());
        let s = Instruction::store(DataRegion::Global(0), RegId(1), RegId(2));
        assert_eq!(s.class, OpClass::Store);
        let b = Instruction::branch(BranchSpec::ret(), None);
        assert!(b.is_branch());
        let a = Instruction::alu(OpClass::IntAlu, [None, None], Some(RegId(3)));
        assert!(!a.is_branch());
    }

    #[test]
    #[should_panic(expected = "computational")]
    fn alu_rejects_branch_class() {
        let _ = Instruction::alu(OpClass::Branch, [None, None], None);
    }

    #[test]
    fn latencies_match_table1_units() {
        assert_eq!(
            Instruction::alu(OpClass::IntAlu, [None, None], None).latency(),
            1
        );
        assert_eq!(
            Instruction::alu(OpClass::IntMul, [None, None], None).latency(),
            3
        );
        assert_eq!(
            Instruction::alu(OpClass::FpMul, [None, None], None).latency(),
            4
        );
    }

    #[test]
    fn fp_registers() {
        assert!(!RegId(31).is_fp());
        assert!(RegId(32).is_fp());
    }

    #[test]
    #[should_panic(expected = "needs targets")]
    fn indirect_needs_targets() {
        let _ = BranchSpec::indirect(vec![]);
    }
}
