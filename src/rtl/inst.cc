#include "rtl/inst.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "support/diag.h"
#include "support/str.h"

namespace wmstream::rtl {

bool
Inst::isTerminator() const
{
    switch (kind) {
      case InstKind::Jump:
      case InstKind::CondJump:
      case InstKind::JumpStream:
      case InstKind::Return:
        return true;
      default:
        return false;
    }
}

bool
Inst::isBranch() const
{
    switch (kind) {
      case InstKind::Jump:
      case InstKind::CondJump:
      case InstKind::JumpStream:
        return true;
      default:
        return false;
    }
}

std::string
Inst::str() const
{
    std::ostringstream os;
    switch (kind) {
      case InstKind::Assign:
        os << dst->str() << " := " << src->str();
        break;
      case InstKind::Load:
        os << dst->str() << " := " << (isFloatType(memType) ? "F" : "M")
           << dataTypeSize(memType) * 8 << "[" << addr->str() << "]";
        break;
      case InstKind::Store:
        os << (isFloatType(memType) ? "F" : "M") << dataTypeSize(memType) * 8
           << "[" << addr->str() << "] := " << src->str();
        break;
      case InstKind::Jump:
        os << "jump " << target;
        break;
      case InstKind::CondJump:
        os << "jump" << (when ? "T" : "F")
           << (side == UnitSide::Int ? "i" : "f") << " " << target;
        break;
      case InstKind::JumpStream:
        os << "jNotDone " << (side == UnitSide::Int ? "r" : "f") << fifo
           << " " << target;
        break;
      case InstKind::StreamIn:
      case InstKind::StreamOut:
        os << (kind == InstKind::StreamIn ? "streamIn " : "streamOut ")
           << (side == UnitSide::Int ? "r" : "f") << fifo << ", "
           << addr->str() << ", " << (count ? count->str() : "inf") << ", "
           << stride << " (" << dataTypeName(memType) << ")";
        break;
      case InstKind::StreamStop:
        os << "streamStop " << (side == UnitSide::Int ? "r" : "f") << fifo;
        break;
      case InstKind::VecOp:
        os << "vec " << dst->str() << " := (" << src->str() << " "
           << opName(vecOp) << " "
           << (vecSrc2 ? vecSrc2->str() : std::string("-")) << ") x "
           << count->str();
        break;
      case InstKind::Call:
        os << "call " << target;
        break;
      case InstKind::Return:
        os << "return";
        break;
    }
    return os.str();
}

Inst
makeAssign(ExprPtr dst, ExprPtr src, std::string comment)
{
    WS_ASSERT(dst && dst->isReg(), "Assign dst must be a register");
    Inst i;
    i.kind = InstKind::Assign;
    i.dst = std::move(dst);
    i.src = std::move(src);
    i.comment = std::move(comment);
    return i;
}

Inst
makeLoad(ExprPtr dst, ExprPtr addr, DataType t, std::string comment)
{
    WS_ASSERT(dst && dst->isReg(), "Load dst must be a register");
    Inst i;
    i.kind = InstKind::Load;
    i.dst = std::move(dst);
    i.addr = std::move(addr);
    i.memType = t;
    i.comment = std::move(comment);
    return i;
}

Inst
makeStore(ExprPtr addr, ExprPtr src, DataType t, std::string comment)
{
    Inst i;
    i.kind = InstKind::Store;
    i.addr = std::move(addr);
    i.src = std::move(src);
    i.memType = t;
    i.comment = std::move(comment);
    return i;
}

Inst
makeJump(std::string target, std::string comment)
{
    Inst i;
    i.kind = InstKind::Jump;
    i.target = std::move(target);
    i.comment = std::move(comment);
    return i;
}

Inst
makeCondJump(UnitSide side, bool when, std::string target,
             std::string comment)
{
    Inst i;
    i.kind = InstKind::CondJump;
    i.side = side;
    i.when = when;
    i.target = std::move(target);
    i.comment = std::move(comment);
    return i;
}

Inst
makeJumpStream(UnitSide side, int fifo, std::string target,
               std::string comment)
{
    Inst i;
    i.kind = InstKind::JumpStream;
    i.side = side;
    i.fifo = fifo;
    i.target = std::move(target);
    i.comment = std::move(comment);
    return i;
}

Inst
makeStreamIn(UnitSide side, int fifo, ExprPtr base, ExprPtr count,
             int64_t stride, DataType t, std::string comment)
{
    Inst i;
    i.kind = InstKind::StreamIn;
    i.side = side;
    i.fifo = fifo;
    i.addr = std::move(base);
    i.count = std::move(count);
    i.stride = stride;
    i.memType = t;
    i.comment = std::move(comment);
    return i;
}

Inst
makeStreamOut(UnitSide side, int fifo, ExprPtr base, ExprPtr count,
              int64_t stride, DataType t, std::string comment)
{
    Inst i = makeStreamIn(side, fifo, std::move(base), std::move(count),
                          stride, t, std::move(comment));
    i.kind = InstKind::StreamOut;
    return i;
}

Inst
makeStreamStop(UnitSide side, int fifo, std::string comment)
{
    Inst i;
    i.kind = InstKind::StreamStop;
    i.side = side;
    i.fifo = fifo;
    i.comment = std::move(comment);
    return i;
}

Inst
makeVecOp(Op op, ExprPtr dstFifo, ExprPtr src1Fifo, ExprPtr src2,
          ExprPtr count, std::string comment)
{
    Inst i;
    i.kind = InstKind::VecOp;
    i.vecOp = op;
    i.dst = std::move(dstFifo);
    i.src = std::move(src1Fifo);
    i.vecSrc2 = std::move(src2);
    i.count = std::move(count);
    i.comment = std::move(comment);
    return i;
}

Inst
makeCall(std::string callee, std::string comment)
{
    Inst i;
    i.kind = InstKind::Call;
    i.target = std::move(callee);
    i.comment = std::move(comment);
    return i;
}

Inst
makeReturn(std::string comment)
{
    Inst i;
    i.kind = InstKind::Return;
    i.comment = std::move(comment);
    return i;
}

ExprPtr
instDef(const Inst &inst)
{
    switch (inst.kind) {
      case InstKind::Assign:
      case InstKind::Load:
        return inst.dst;
      default:
        return nullptr;
    }
}

const Inst *
Block::terminator() const
{
    if (insts.empty() || !insts.back().isTerminator())
        return nullptr;
    return &insts.back();
}

Inst *
Block::terminator()
{
    if (insts.empty() || !insts.back().isTerminator())
        return nullptr;
    return &insts.back();
}

Block *
Function::addBlock(const std::string &label)
{
    std::string l = label.empty() ? newLabel() : label;
    blocks_.push_back(std::make_unique<Block>(nextBlockId_++, l));
    return blocks_.back().get();
}

Block *
Function::insertBlockBefore(Block *before, const std::string &label)
{
    std::string l = label.empty() ? newLabel() : label;
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->get() == before) {
            it = blocks_.insert(it,
                                std::make_unique<Block>(nextBlockId_++, l));
            return it->get();
        }
    }
    WS_PANIC("insertBlockBefore: block not in function");
}

Block *
Function::findBlock(const std::string &label)
{
    for (auto &b : blocks_)
        if (b->label() == label)
            return b.get();
    return nullptr;
}

ExprPtr
Function::newVReg(DataType t)
{
    if (isFloatType(t))
        return makeReg(RegFile::VFlt, nextVFlt_++, t);
    return makeReg(RegFile::VInt, nextVInt_++, t);
}

std::string
Function::newLabel()
{
    return strFormat("L%d", nextLabel_++);
}

void
Function::recomputeCfg()
{
    ++work.cfgRecomputes;
    // Label lookup through a sorted vector: one allocation per call,
    // where a hash map cost one per block. Among equal labels the last
    // block in layout order wins.
    std::vector<std::pair<std::string_view, Block *>> byLabel;
    byLabel.reserve(blocks_.size());
    for (auto &b : blocks_) {
        byLabel.emplace_back(b->label(), b.get());
        b->succs.clear();
        b->preds.clear();
    }
    std::stable_sort(byLabel.begin(), byLabel.end(),
                     [](const auto &x, const auto &y) {
                         return x.first < y.first;
                     });
    auto find = [&](const std::string &label) -> Block * {
        auto it = std::upper_bound(
            byLabel.begin(), byLabel.end(), label,
            [](const std::string &l, const auto &e) { return l < e.first; });
        if (it == byLabel.begin() || (it - 1)->first != label)
            return nullptr;
        return (it - 1)->second;
    };

    auto link = [](Block *from, Block *to) {
        from->succs.push_back(to);
        to->preds.push_back(from);
    };

    for (size_t i = 0; i < blocks_.size(); ++i) {
        Block *b = blocks_[i].get();
        const Inst *term = b->terminator();
        bool falls = true;
        if (term) {
            switch (term->kind) {
              case InstKind::Jump:
                falls = false;
                [[fallthrough]];
              case InstKind::CondJump:
              case InstKind::JumpStream: {
                Block *target = find(term->target);
                WS_ASSERT(target, "branch to unknown label " + term->target);
                link(b, target);
                break;
              }
              case InstKind::Return:
                falls = false;
                break;
              default:
                break;
            }
        }
        if (falls && i + 1 < blocks_.size())
            link(b, blocks_[i + 1].get());
    }
}

bool
Function::cfgIsCurrent() const
{
    // Successors block by block as recomputeCfg links them (branch
    // edge, then fallthrough edge); each predecessor list must then
    // list its sources in the same order.
    std::vector<size_t> matched(static_cast<size_t>(nextBlockId_), 0);
    for (size_t i = 0; i < blocks_.size(); ++i) {
        const Block *b = blocks_[i].get();
        const Inst *term = b->terminator();
        bool branches = term && term->isBranch();
        bool falls = !term || (term->kind != InstKind::Jump &&
                               term->kind != InstKind::Return);
        const Block *next =
            falls && i + 1 < blocks_.size() ? blocks_[i + 1].get() : nullptr;
        if (b->succs.size() != size_t{branches} + size_t{next != nullptr})
            return false;
        if (branches && b->succs.front()->label() != term->target)
            return false;
        if (next && b->succs.back() != next)
            return false;
        for (const Block *s : b->succs) {
            size_t &at = matched[static_cast<size_t>(s->id())];
            if (at >= s->preds.size() || s->preds[at] != b)
                return false;
            ++at;
        }
    }
    for (const auto &b : blocks_)
        if (matched[static_cast<size_t>(b->id())] != b->preds.size())
            return false;
    return true;
}

void
Function::removeUnreachable()
{
    recomputeCfg();
    std::vector<uint8_t> reached(static_cast<size_t>(nextBlockId_), 0);
    std::vector<Block *> stack;
    if (entry()) {
        stack.push_back(entry());
        reached[static_cast<size_t>(entry()->id())] = 1;
    }
    while (!stack.empty()) {
        Block *b = stack.back();
        stack.pop_back();
        for (Block *s : b->succs) {
            if (!reached[static_cast<size_t>(s->id())]) {
                reached[static_cast<size_t>(s->id())] = 1;
                stack.push_back(s);
            }
        }
    }
    // A reachable block's successors are reachable, so the kept blocks
    // keep their successor lists; their predecessor lists only lose
    // the removed blocks, in order. That is what recomputeCfg would
    // give for the kept layout.
    std::vector<std::unique_ptr<Block>> kept;
    for (auto &b : blocks_) {
        if (!reached[static_cast<size_t>(b->id())])
            continue;
        std::erase_if(b->preds, [&](const Block *p) {
            return !reached[static_cast<size_t>(p->id())];
        });
        kept.push_back(std::move(b));
    }
    blocks_ = std::move(kept);
}

int
Function::instCount() const
{
    int n = 0;
    for (const auto &b : blocks_)
        n += static_cast<int>(b->insts.size());
    return n;
}

int64_t
Function::allocFrameSlot(int64_t bytes, int64_t align)
{
    frameSize = (frameSize + align - 1) & ~(align - 1);
    int64_t off = frameSize;
    frameSize += bytes;
    return off;
}

std::string
Function::str() const
{
    std::ostringstream os;
    os << "function " << name_ << " (frame " << frameSize << "):\n";
    for (const auto &b : blocks_) {
        os << b->label() << ":\n";
        for (const auto &inst : b->insts) {
            os << "    " << inst.str();
            if (!inst.comment.empty())
                os << "    -- " << inst.comment;
            os << "\n";
        }
    }
    return os.str();
}

} // namespace wmstream::rtl
