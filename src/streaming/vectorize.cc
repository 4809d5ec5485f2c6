#include "streaming/vectorize.h"

#include "support/diag.h"

namespace wmstream::streaming {

using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;

namespace {

/** Identity of a FIFO register: (side, index). */
std::pair<int, int>
fifoId(const ExprPtr &e)
{
    return {e->regFile() == RegFile::Flt ? 1 : 0, e->regIndex()};
}

bool
isVecOperator(Op op)
{
    switch (op) {
      case Op::Add: case Op::Sub: case Op::Mul: case Op::Div:
      case Op::And: case Op::Or: case Op::Xor:
      case Op::Shl: case Op::Shr: case Op::Sar:
        return true;
      default:
        return false;
    }
}

/**
 * Find the count register shared by the streams feeding @p block: the
 * preceding block's StreamIn/StreamOut instructions whose FIFO ids
 * appear in the loop body. Returns null when any is unbounded or when
 * the counts disagree.
 */
ExprPtr
sharedStreamCount(rtl::Function &fn, rtl::Block *loopBlock,
                  const std::vector<std::pair<int, int>> &usedFifos)
{
    // The preheader is the layout predecessor (streaming built it).
    rtl::Block *pre = nullptr;
    auto &blocks = fn.blocks();
    for (size_t i = 0; i + 1 < blocks.size(); ++i)
        if (blocks[i + 1].get() == loopBlock)
            pre = blocks[i].get();
    if (!pre)
        return nullptr;

    ExprPtr count;
    int found = 0;
    for (const Inst &inst : pre->insts) {
        if (inst.kind != InstKind::StreamIn &&
                inst.kind != InstKind::StreamOut) {
            continue;
        }
        int side = inst.side == rtl::UnitSide::Flt ? 1 : 0;
        bool used = false;
        for (auto [s, f] : usedFifos)
            if (s == side && f == inst.fifo)
                used = true;
        if (!used)
            continue;
        if (!inst.count)
            return nullptr; // unbounded stream: cannot vectorize
        if (!count) {
            count = inst.count;
        } else if (!rtl::exprEqual(count, inst.count)) {
            return nullptr;
        }
        ++found;
    }
    return found == static_cast<int>(usedFifos.size()) ? count : nullptr;
}

} // anonymous namespace

VectorizeReport
runVectorize(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    VectorizeReport report;
    if (!traits.hasStreams)
        return report;

    for (auto &bp : fn.blocks()) {
        rtl::Block *b = bp.get();
        // Pattern: [Assign outFifo := elementwise] + [JumpStream self].
        if (b->insts.size() != 2)
            continue;
        Inst &body = b->insts[0];
        Inst &jump = b->insts[1];
        if (jump.kind != InstKind::JumpStream ||
                jump.target != b->label()) {
            continue;
        }
        if (body.kind != InstKind::Assign ||
                !rtl::isDataFifoReg(*body.dst))
            continue;

        ExprPtr src1, src2;
        Op op = Op::Or;
        const ExprPtr &s = body.src;
        if (rtl::isDataFifoReg(*s)) {
            src1 = s; // plain copy
            op = Op::Add;
            src2 = nullptr;
        } else if (s->kind() == Expr::Kind::Bin && isVecOperator(s->op())) {
            if (!rtl::isDataFifoReg(*s->lhs()))
                continue; // first operand must be the element stream
            src1 = s->lhs();
            src2 = s->rhs();
            op = s->op();
            // Second operand: another input FIFO, an invariant plain
            // register, or a constant. A register written in this loop
            // would be a recurrence — but the loop body IS this single
            // instruction, whose only destination is the FIFO, so any
            // plain register here is invariant by construction.
            if (!src2->isReg() && !src2->isConst())
                continue;
            // Each queue may be consumed once per element.
            if (rtl::isDataFifoReg(*src2) && fifoId(src2) == fifoId(src1))
                continue;
        } else {
            continue;
        }

        std::vector<std::pair<int, int>> used;
        used.push_back(fifoId(body.dst));
        used.push_back(fifoId(src1));
        if (src2 && rtl::isDataFifoReg(*src2))
            used.push_back(fifoId(src2));

        ExprPtr count = sharedStreamCount(fn, b, used);
        if (!count)
            continue;

        Inst vec = rtl::makeVecOp(op, body.dst, src1, src2, count,
                                  "vector operation (VEU)");
        b->insts.clear();
        b->insts.push_back(std::move(vec));
        ++report.loopsVectorized;
    }

    fn.recomputeCfg();
    fn.removeUnreachable();
    return report;
}

} // namespace wmstream::streaming
