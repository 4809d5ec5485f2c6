/**
 * @file
 * RTL instructions, basic blocks, and functions.
 *
 * An Inst is one machine instruction expressed as a register transfer.
 * Loads and stores are explicit kinds carrying an address expression:
 * on WM a load only computes the address (the datum lands in the unit's
 * input FIFO, i.e. register 0), while on scalar targets the destination
 * is an ordinary register. Representing both with one Inst shape is what
 * keeps the recurrence/streaming passes machine-independent.
 *
 * Invariant maintained by the expander and all phases: Mem expression
 * nodes never appear inside Assign instructions; all memory traffic is
 * a Load or Store instruction.
 */

#ifndef WMSTREAM_RTL_INST_H
#define WMSTREAM_RTL_INST_H

#include <memory>
#include <string>
#include <vector>

#include "rtl/expr.h"
#include "support/diag.h"

namespace wmstream::rtl {

/** Instruction kinds (see file comment). */
enum class InstKind : uint8_t {
    Assign,     ///< dst(reg) := src(expr); relational src enqueues CC
    Load,       ///< dst(reg/FIFO) receives Mem[addr] of type dt
    Store,      ///< Mem[addr] of type dt := src(reg/FIFO)
    Jump,       ///< unconditional jump to target
    CondJump,   ///< dequeue CC cell ccIndex; jump to target if == when
    JumpStream, ///< jump to target while stream on (side,fifo) not done
    StreamIn,   ///< start SCU read stream into FIFO (side,fifo)
    StreamOut,  ///< start SCU write stream draining FIFO (side,fifo)
    StreamStop, ///< cancel the stream on FIFO (side,fifo) at loop exit
    VecOp,      ///< VEU: dst FIFO := (src1 FIFO op src2) over count elems
    Call,       ///< call function `target` (args pre-placed in arg regs)
    Return,     ///< return (value pre-placed in r2/f2)
};

/** Which execution unit's FIFO/CC a stream or branch refers to. */
enum class UnitSide : uint8_t { Int = 0, Flt = 1 };

/**
 * One RTL instruction.
 *
 * A plain aggregate: phases freely rewrite fields and rebuild
 * expression trees. An instruction has no id: it is named by its block
 * and its index there, and the paper's "lno" in a partition dump is
 * its ordinal in the function's layout, worked out when the dump is
 * printed. The `comment` is carried into assembly listings (the
 * paper's figures annotate every line).
 */
struct Inst
{
    InstKind kind = InstKind::Assign;

    ExprPtr dst;            ///< Assign/Load destination (Reg)
    ExprPtr src;            ///< Assign/Store source
    ExprPtr addr;           ///< Load/Store/Stream base address
    ExprPtr count;          ///< StreamIn/StreamOut element count (Reg)
    DataType memType = DataType::I32; ///< Load/Store/Stream element type
    int64_t stride = 0;     ///< Stream byte stride

    UnitSide side = UnitSide::Int; ///< CondJump/JumpStream/Stream* unit
    int fifo = 0;           ///< Stream/JumpStream FIFO index (0 or 1)
    bool when = true;       ///< CondJump: jump if CC equals this

    /**
     * VecOp fields: the element-wise operation applied by the vector
     * execution unit. `dst` is the destination output-FIFO register,
     * `src` the first input-FIFO register; `count` gives the element
     * count (a register). vecOp is the operator; vecSrc2 is the second
     * operand: an input-FIFO register, an ordinary (loop-invariant)
     * register, or null for a plain copy.
     */
    Op vecOp = Op::Add;
    ExprPtr vecSrc2;

    std::string target;     ///< Jump/CondJump/JumpStream label, Call name

    std::string comment;    ///< carried into listings

    /**
     * Source provenance: the mini-C position this instruction was
     * expanded from (invalid for synthesized code). The expander stamps
     * it; phases that rewrite an instruction in place keep it, and
     * phases that synthesize replacements copy it from the instruction
     * they replace. Optimization remarks and the per-loop cycle
     * attribution both key off it.
     */
    SourcePos pos;
    /**
     * Innermost source loop this instruction belongs to in the final
     * code, or -1 when outside every loop. Assigned by the driver's
     * loop-tagging step (after all optimization and lowering) using the
     * same loop-id registry the optimization remarks use, so simulator
     * cycles and compiler decisions join on one key.
     */
    int loopId = -1;

    /**
     * Implicit register uses not visible in the other operand fields:
     * argument registers of a Call, the value register of a Return.
     * forEachUseReg() visits these so dataflow analyses see them.
     */
    std::vector<ExprPtr> extraUses;

    /** True for instructions that end a basic block. */
    bool isTerminator() const;
    /** True for Jump/CondJump/JumpStream. */
    bool isBranch() const;

    /** Render in RTL notation (one line, no trailing newline). */
    std::string str() const;
};

/** @name Instruction factories */
/// @{
Inst makeAssign(ExprPtr dst, ExprPtr src, std::string comment = "");
Inst makeLoad(ExprPtr dst, ExprPtr addr, DataType t,
              std::string comment = "");
Inst makeStore(ExprPtr addr, ExprPtr src, DataType t,
               std::string comment = "");
Inst makeJump(std::string target, std::string comment = "");
Inst makeCondJump(UnitSide side, bool when, std::string target,
                  std::string comment = "");
Inst makeJumpStream(UnitSide side, int fifo, std::string target,
                    std::string comment = "");
Inst makeStreamIn(UnitSide side, int fifo, ExprPtr base, ExprPtr count,
                  int64_t stride, DataType t, std::string comment = "");
Inst makeStreamOut(UnitSide side, int fifo, ExprPtr base, ExprPtr count,
                   int64_t stride, DataType t, std::string comment = "");
Inst makeStreamStop(UnitSide side, int fifo, std::string comment = "");
/**
 * Vector operation: for count elements, dst(out FIFO) := src1(in FIFO)
 * `op` src2 (in FIFO, invariant register, or null for a copy).
 */
Inst makeVecOp(Op op, ExprPtr dstFifo, ExprPtr src1Fifo, ExprPtr src2,
               ExprPtr count, std::string comment = "");
Inst makeCall(std::string callee, std::string comment = "");
Inst makeReturn(std::string comment = "");
/// @}

/**
 * Apply @p fn to every register node read by @p inst, with duplicates,
 * in operand order and the implicit extraUses last. Allocates nothing.
 */
template <class F>
void
forEachUseReg(const Inst &inst, F &&fn)
{
    switch (inst.kind) {
      case InstKind::Assign:
        forEachReg(inst.src, fn);
        break;
      case InstKind::Load:
        forEachReg(inst.addr, fn);
        break;
      case InstKind::Store:
        forEachReg(inst.addr, fn);
        forEachReg(inst.src, fn);
        break;
      case InstKind::StreamIn:
      case InstKind::StreamOut:
        forEachReg(inst.addr, fn);
        forEachReg(inst.count, fn);
        break;
      case InstKind::VecOp:
        forEachReg(inst.src, fn);
        forEachReg(inst.vecSrc2, fn);
        forEachReg(inst.count, fn);
        break;
      default:
        break;
    }
    for (const ExprPtr &e : inst.extraUses)
        forEachReg(e, fn);
}

/** Register written by @p inst, or nullptr. */
ExprPtr instDef(const Inst &inst);

class Function;

/**
 * A basic block: a label, straight-line instructions, and CFG edges.
 *
 * Edges are recomputed by Function::recomputeCfg(); phases that add or
 * remove branches must call it, or update succs/preds themselves in
 * recomputeCfg's order, before relying on the edges again.
 *
 * The `id` is dense and stable: its Function assigns it at creation
 * and never reuses it, so analyses index vectors by it instead of
 * hashing block addresses.
 */
class Block
{
  public:
    Block(int id, std::string label) : id_(id), label_(std::move(label)) {}

    int id() const { return id_; }
    const std::string &label() const { return label_; }

    std::vector<Inst> insts;
    std::vector<Block *> succs;
    std::vector<Block *> preds;

    /** The terminator, or nullptr if the block falls through. */
    const Inst *terminator() const;
    Inst *terminator();

  private:
    int id_;
    std::string label_;
};

/**
 * Deterministic counts of analysis work done on one function: what the
 * driver reports as pass counters (`--profile-passes`).
 */
struct WorkCounts
{
    int64_t cfgRecomputes = 0;      ///< Function::recomputeCfg calls
    int64_t defUseBuilds = 0;       ///< whole-function def/use scans
    int64_t defUseBlockRescans = 0; ///< blocks re-scanned after edits
};

/**
 * A function: blocks in layout order plus virtual register state.
 *
 * Layout order is meaningful: block i falls through to block i+1 when
 * its last instruction is not an unconditional control transfer.
 */
class Function
{
  public:
    explicit Function(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Append a new block with a fresh or given label. */
    Block *addBlock(const std::string &label = "");
    /** Insert a new block immediately before @p before. */
    Block *insertBlockBefore(Block *before, const std::string &label = "");

    Block *entry() { return blocks_.empty() ? nullptr : blocks_[0].get(); }
    const Block *entry() const
    {
        return blocks_.empty() ? nullptr : blocks_[0].get();
    }

    std::vector<std::unique_ptr<Block>> &blocks() { return blocks_; }
    const std::vector<std::unique_ptr<Block>> &blocks() const
    {
        return blocks_;
    }

    Block *findBlock(const std::string &label);

    /** One more than the largest block id handed out so far. */
    int blockIdBound() const { return nextBlockId_; }

    /** Allocate a fresh virtual register of the given class. */
    ExprPtr newVReg(DataType t);

    int numVirtualInt() const { return nextVInt_; }
    int numVirtualFlt() const { return nextVFlt_; }

    /** Fresh unique label with prefix "L". */
    std::string newLabel();

    /** Recompute succ/pred edges from terminators and layout order. */
    void recomputeCfg();

    /**
     * True if every block's succ/pred lists are exactly what
     * recomputeCfg() would build, order included. Changes nothing and
     * counts nothing: the check that local CFG edits are right.
     */
    bool cfgIsCurrent() const;

    /** Remove blocks unreachable from the entry. */
    void removeUnreachable();

    /** Total instruction count across all blocks. */
    int instCount() const;

    /** Byte size of the stack frame for locals and spills. */
    int64_t frameSize = 0;

    /** Grow the frame by @p bytes (aligned) and return the slot offset. */
    int64_t allocFrameSlot(int64_t bytes, int64_t align);

    /** Render the whole function in RTL notation. */
    std::string str() const;

    /** Analysis work done on this function so far. */
    WorkCounts work;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Block>> blocks_;
    int nextBlockId_ = 0;
    int nextVInt_ = 0;
    int nextVFlt_ = 0;
    int nextLabel_ = 0;
};

} // namespace wmstream::rtl

#endif // WMSTREAM_RTL_INST_H
