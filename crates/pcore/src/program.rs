//! The work-model ISA interpreted by the simulated kernel.
//!
//! Real pCore tasks run C55x DSP machine code. Reproducing that is neither
//! feasible nor necessary: what the paper's evaluation needs from task code
//! is its *observable behaviour* — compute load, heap/stack pressure,
//! synchronization operations and shared-variable traffic. The work-model
//! ISA captures exactly those effects as a small deterministic instruction
//! set, so scenarios like Figure 1's spin loops or the quick-sort stress
//! workload can be expressed precisely and replayed bit-for-bit.

use std::fmt;

use crate::ids::{MutexId, SemId, VarId};

/// Number of general-purpose registers per task.
pub const NUM_REGS: usize = 8;

/// A register index (`0..NUM_REGS`).
pub type Reg = u8;

/// One work-model instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy-compute for the given number of cycles.
    Compute(u32),
    /// Allocate `bytes` from the kernel heap; the block handle is written
    /// to register `reg`. Allocation failure triggers a garbage collection;
    /// if that also fails the kernel panics (out of memory).
    Alloc {
        /// Number of bytes requested.
        bytes: u32,
        /// Destination register for the block handle.
        reg: Reg,
    },
    /// Free the heap block whose handle is in register `reg`. Freeing an
    /// invalid handle is a task fault.
    Free {
        /// Register holding the block handle.
        reg: Reg,
    },
    /// Model a peak stack usage of `bytes`; exceeding the task's stack
    /// size is a task fault (stack overflow).
    StackProbe(u32),
    /// Load shared variable `var` into register `reg`.
    ReadVar {
        /// Source shared variable.
        var: VarId,
        /// Destination register.
        reg: Reg,
    },
    /// Store the immediate `value` to shared variable `var`.
    WriteVar {
        /// Destination shared variable.
        var: VarId,
        /// Immediate value to store.
        value: i64,
    },
    /// Store register `reg` to shared variable `var`.
    WriteVarReg {
        /// Destination shared variable.
        var: VarId,
        /// Source register.
        reg: Reg,
    },
    /// Add the immediate `delta` to register `reg`.
    AddReg {
        /// Register to modify.
        reg: Reg,
        /// Amount to add (may be negative).
        delta: i64,
    },
    /// Jump to instruction `target` if shared variable `var == value`.
    BranchIfVarEq {
        /// Shared variable to test.
        var: VarId,
        /// Value to compare against.
        value: i64,
        /// Jump target (instruction index).
        target: u16,
    },
    /// Jump to instruction `target` if register `reg == value`.
    BranchIfRegEq {
        /// Register to test.
        reg: Reg,
        /// Value to compare against.
        value: i64,
        /// Jump target (instruction index).
        target: u16,
    },
    /// Unconditional jump to instruction `target`.
    Jump(u16),
    /// Yield the processor to other ready tasks (the `yield()` of Fig. 1).
    Yield,
    /// Wait on (decrement) a counting semaphore; blocks while its count is
    /// zero.
    SemWait(SemId),
    /// Post to (increment) a counting semaphore, waking the highest-
    /// priority waiter.
    SemPost(SemId),
    /// Acquire a mutex; blocks while another task holds it. Recursive
    /// locking is a task fault.
    MutexLock(MutexId),
    /// Release a mutex; releasing a mutex the task does not own is a task
    /// fault.
    MutexUnlock(MutexId),
    /// Block for the given number of cycles.
    SleepFor(u32),
    /// Memory fence: drains this core's store buffer, making every
    /// buffered shared-variable write globally visible before the next
    /// instruction. Cumulative — foreign stores this core has already
    /// observed are forced out with it. A no-op under sequentially
    /// consistent propagation, where every store is already visible.
    Fence,
    /// Disable interrupt delivery on this core: pending interrupts stay
    /// queued and no ISR preempts until [`Op::IrqUnmask`]. Models the
    /// critical-section `HWI_disable()` of the embedded kernels the
    /// paper targets.
    IrqMask,
    /// Re-enable interrupt delivery on this core; a queued interrupt is
    /// serviced at the next kernel tick.
    IrqUnmask,
    /// Terminate this task normally.
    Exit,
}

impl Op {
    /// The base cycle cost of executing this instruction once.
    ///
    /// `Compute(n)` and `SleepFor(n)` consume `n` additional cycles beyond
    /// the base cost.
    #[must_use]
    pub fn base_cost(&self) -> u64 {
        match self {
            Op::Compute(_) | Op::Jump(_) | Op::AddReg { .. } | Op::Fence => 1,
            Op::IrqMask | Op::IrqUnmask => 1,
            Op::ReadVar { .. }
            | Op::WriteVar { .. }
            | Op::WriteVarReg { .. }
            | Op::BranchIfVarEq { .. }
            | Op::BranchIfRegEq { .. }
            | Op::StackProbe(_) => 1,
            Op::Yield | Op::SleepFor(_) | Op::Exit => 2,
            Op::SemWait(_) | Op::SemPost(_) | Op::MutexLock(_) | Op::MutexUnlock(_) => 3,
            Op::Alloc { .. } | Op::Free { .. } => 8,
        }
    }

    /// Whether the op only moves the executing task's own frame: it
    /// reads registers and shared variables, branches, or computes, but
    /// writes no variable, touches no kernel object, and never blocks or
    /// exits. A loop built from these ops alone is a steady loop the
    /// kernel can advance in closed form
    /// ([`Kernel::fast_forward`](crate::Kernel::fast_forward)).
    #[must_use]
    pub fn is_side_effect_free(&self) -> bool {
        matches!(
            self,
            Op::Compute(_)
                | Op::AddReg { .. }
                | Op::ReadVar { .. }
                | Op::BranchIfVarEq { .. }
                | Op::BranchIfRegEq { .. }
                | Op::Jump(_)
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute(n) => write!(f, "compute {n}"),
            Op::Alloc { bytes, reg } => write!(f, "alloc {bytes}B -> r{reg}"),
            Op::Free { reg } => write!(f, "free r{reg}"),
            Op::StackProbe(b) => write!(f, "stackprobe {b}B"),
            Op::ReadVar { var, reg } => write!(f, "read {var} -> r{reg}"),
            Op::WriteVar { var, value } => write!(f, "write {var} = {value}"),
            Op::WriteVarReg { var, reg } => write!(f, "write {var} = r{reg}"),
            Op::AddReg { reg, delta } => write!(f, "add r{reg} += {delta}"),
            Op::BranchIfVarEq { var, value, target } => {
                write!(f, "if {var} == {value} goto {target}")
            }
            Op::BranchIfRegEq { reg, value, target } => {
                write!(f, "if r{reg} == {value} goto {target}")
            }
            Op::Jump(t) => write!(f, "goto {t}"),
            Op::Yield => write!(f, "yield"),
            Op::SemWait(s) => write!(f, "sem_wait {s}"),
            Op::SemPost(s) => write!(f, "sem_post {s}"),
            Op::MutexLock(m) => write!(f, "lock {m}"),
            Op::MutexUnlock(m) => write!(f, "unlock {m}"),
            Op::SleepFor(n) => write!(f, "sleep {n}"),
            Op::Fence => write!(f, "fence"),
            Op::IrqMask => write!(f, "irq_mask"),
            Op::IrqUnmask => write!(f, "irq_unmask"),
            Op::Exit => write!(f, "exit"),
        }
    }
}

/// Error validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch or jump targets an instruction index outside the program.
    BranchOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The invalid target.
        target: u16,
        /// Program length.
        len: usize,
    },
    /// An instruction names a register `>= NUM_REGS`.
    BadRegister {
        /// Index of the offending instruction.
        at: usize,
        /// The invalid register.
        reg: Reg,
    },
    /// The program is empty.
    Empty,
    /// The program exceeds the maximum encodable length (`u16::MAX` ops).
    TooLong {
        /// Actual length.
        len: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BranchOutOfRange { at, target, len } => write!(
                f,
                "instruction {at} branches to {target} but program length is {len}"
            ),
            ProgramError::BadRegister { at, reg } => {
                write!(
                    f,
                    "instruction {at} uses register r{reg} (max r{})",
                    NUM_REGS - 1
                )
            }
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::TooLong { len } => {
                write!(f, "program has {len} instructions (max {})", u16::MAX)
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated, immutable sequence of work-model instructions.
///
/// ```
/// use ptest_pcore::{Op, Program, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Program::new(vec![
///     Op::WriteVar { var: VarId(0), value: 1 },
///     Op::Compute(10),
///     Op::Exit,
/// ])?;
/// assert_eq!(program.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program is empty, too long, names
    /// an out-of-range register, or branches out of range.
    pub fn new(ops: Vec<Op>) -> Result<Program, ProgramError> {
        if ops.is_empty() {
            return Err(ProgramError::Empty);
        }
        if ops.len() > usize::from(u16::MAX) {
            return Err(ProgramError::TooLong { len: ops.len() });
        }
        for (at, op) in ops.iter().enumerate() {
            let target = match op {
                Op::BranchIfVarEq { target, .. }
                | Op::BranchIfRegEq { target, .. }
                | Op::Jump(target) => Some(*target),
                _ => None,
            };
            if let Some(t) = target {
                if usize::from(t) >= ops.len() {
                    return Err(ProgramError::BranchOutOfRange {
                        at,
                        target: t,
                        len: ops.len(),
                    });
                }
            }
            let reg = match op {
                Op::Alloc { reg, .. }
                | Op::Free { reg }
                | Op::ReadVar { reg, .. }
                | Op::WriteVarReg { reg, .. }
                | Op::AddReg { reg, .. }
                | Op::BranchIfRegEq { reg, .. } => Some(*reg),
                _ => None,
            };
            if let Some(r) = reg {
                if usize::from(r) >= NUM_REGS {
                    return Err(ProgramError::BadRegister { at, reg: r });
                }
            }
        }
        Ok(Program { ops })
    }

    /// The instruction at index `pc`, if in range.
    #[must_use]
    pub fn op(&self, pc: u16) -> Option<Op> {
        self.ops.get(usize::from(pc)).copied()
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions (never true: construction
    /// rejects empty programs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the instructions in order.
    pub fn iter(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter()
    }

    /// A trivial program that exits immediately.
    #[must_use]
    pub fn exit_immediately() -> Program {
        Program {
            ops: vec![Op::Exit],
        }
    }
}

/// A builder with symbolic labels for writing branchy programs by hand.
///
/// ```
/// use ptest_pcore::{Op, ProgramBuilder, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fig. 1's S1: a: x=1; b: while (y==1) c: yield(); d: x=0; e: end
/// let mut b = ProgramBuilder::new();
/// b.push(Op::WriteVar { var: VarId(0), value: 1 });          // a
/// let test = b.label();                                       // b
/// b.branch_if_var_eq(VarId(1), 1, "spin");                    //   y==1 ?
/// b.jump_to("done");                                          //   else d
/// b.bind("spin");
/// b.push(Op::Yield);                                          // c
/// b.jump(test);                                               //   back to b
/// b.bind("done");
/// b.push(Op::WriteVar { var: VarId(0), value: 0 });           // d
/// b.push(Op::Exit);                                           // e
/// let program = b.build()?;
/// assert_eq!(program.len(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
    /// (op index, label name) pairs whose targets are patched in `build`.
    fixups: Vec<(usize, String)>,
    bound: std::collections::HashMap<String, u16>,
}

impl ProgramBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The index of the *next* instruction; usable as a raw jump target.
    #[must_use]
    pub fn label(&self) -> u16 {
        self.ops.len() as u16
    }

    /// Binds `name` to the index of the next instruction.
    pub fn bind(&mut self, name: &str) -> &mut Self {
        self.bound.insert(name.to_owned(), self.label());
        self
    }

    /// Appends an unconditional jump to a raw target.
    pub fn jump(&mut self, target: u16) -> &mut Self {
        self.ops.push(Op::Jump(target));
        self
    }

    /// Appends an unconditional jump to a named label (bound before or
    /// after this call).
    pub fn jump_to(&mut self, name: &str) -> &mut Self {
        self.fixups.push((self.ops.len(), name.to_owned()));
        self.ops.push(Op::Jump(u16::MAX));
        self
    }

    /// Appends a conditional branch on a shared variable to a named label.
    pub fn branch_if_var_eq(&mut self, var: VarId, value: i64, name: &str) -> &mut Self {
        self.fixups.push((self.ops.len(), name.to_owned()));
        self.ops.push(Op::BranchIfVarEq {
            var,
            value,
            target: u16::MAX,
        });
        self
    }

    /// Appends a conditional branch on a register to a named label.
    pub fn branch_if_reg_eq(&mut self, reg: Reg, value: i64, name: &str) -> &mut Self {
        self.fixups.push((self.ops.len(), name.to_owned()));
        self.ops.push(Op::BranchIfRegEq {
            reg,
            value,
            target: u16::MAX,
        });
        self
    }

    /// Resolves labels and validates the finished program.
    ///
    /// # Errors
    ///
    /// [`ProgramError`] as for [`Program::new`]; an unresolved label
    /// surfaces as [`ProgramError::BranchOutOfRange`] with target
    /// `u16::MAX`.
    pub fn build(mut self) -> Result<Program, ProgramError> {
        for (at, name) in &self.fixups {
            if let Some(&target) = self.bound.get(name) {
                match &mut self.ops[*at] {
                    Op::Jump(t)
                    | Op::BranchIfVarEq { target: t, .. }
                    | Op::BranchIfRegEq { target: t, .. } => *t = target,
                    _ => unreachable!("fixup recorded for non-branch op"),
                }
            }
        }
        Program::new(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_program() {
        assert_eq!(Program::new(vec![]), Err(ProgramError::Empty));
    }

    #[test]
    fn rejects_out_of_range_branch() {
        let err = Program::new(vec![Op::Jump(5), Op::Exit]).unwrap_err();
        assert!(matches!(
            err,
            ProgramError::BranchOutOfRange {
                at: 0,
                target: 5,
                len: 2
            }
        ));
    }

    #[test]
    fn rejects_bad_register() {
        let err = Program::new(vec![Op::Alloc { bytes: 4, reg: 8 }, Op::Exit]).unwrap_err();
        assert!(matches!(err, ProgramError::BadRegister { at: 0, reg: 8 }));
    }

    #[test]
    fn accepts_self_loop() {
        let p = Program::new(vec![Op::Jump(0)]).unwrap();
        assert_eq!(p.op(0), Some(Op::Jump(0)));
        assert_eq!(p.op(1), None);
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        b.bind("top");
        b.push(Op::Compute(1));
        b.branch_if_var_eq(VarId(0), 1, "end");
        b.jump_to("top");
        b.bind("end");
        b.push(Op::Exit);
        let p = b.build().unwrap();
        assert_eq!(
            p.op(1),
            Some(Op::BranchIfVarEq {
                var: VarId(0),
                value: 1,
                target: 3
            })
        );
        assert_eq!(p.op(2), Some(Op::Jump(0)));
    }

    #[test]
    fn builder_unbound_label_fails_validation() {
        let mut b = ProgramBuilder::new();
        b.jump_to("nowhere");
        b.push(Op::Exit);
        assert!(matches!(
            b.build(),
            Err(ProgramError::BranchOutOfRange {
                target: u16::MAX,
                ..
            })
        ));
    }

    #[test]
    fn op_costs_are_positive() {
        let ops = [
            Op::Compute(5),
            Op::Alloc { bytes: 1, reg: 0 },
            Op::Free { reg: 0 },
            Op::StackProbe(16),
            Op::ReadVar {
                var: VarId(0),
                reg: 0,
            },
            Op::WriteVar {
                var: VarId(0),
                value: 0,
            },
            Op::Yield,
            Op::SemWait(SemId(0)),
            Op::MutexLock(MutexId(0)),
            Op::SleepFor(3),
            Op::Fence,
            Op::Exit,
        ];
        for op in ops {
            assert!(op.base_cost() > 0, "{op} has zero cost");
        }
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Op::Compute(7).to_string(), "compute 7");
        assert_eq!(Op::MutexLock(MutexId(2)).to_string(), "lock mtx2");
        assert_eq!(Op::Fence.to_string(), "fence");
        assert_eq!(
            Op::BranchIfVarEq {
                var: VarId(1),
                value: 0,
                target: 9
            }
            .to_string(),
            "if v1 == 0 goto 9"
        );
    }

    #[test]
    fn exit_immediately_is_valid() {
        let p = Program::exit_immediately();
        assert_eq!(p.len(), 1);
        assert_eq!(p.op(0), Some(Op::Exit));
    }
}
