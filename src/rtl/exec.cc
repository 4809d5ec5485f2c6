#include "rtl/exec.h"

#include <algorithm>
#include <unordered_map>

#include "support/diag.h"
#include "support/str.h"

namespace wmstream::rtl {

namespace {

using GlobalAddresses = std::unordered_map<std::string, int64_t>;

/** Append @p e to @p code in postorder; return its stack depth. */
size_t
lower(const Expr &e, const GlobalAddresses &globals,
      std::vector<OperandCell> &code)
{
    using K = OperandCell::Kind;
    OperandCell c;
    size_t depth = 1;
    switch (e.kind()) {
      case Expr::Kind::Const:
        if (isFloatType(e.type())) {
            c.kind = K::Flt;
            c.f = e.fval();
        } else {
            c.i = e.ival();
        }
        break;
      case Expr::Kind::Sym:
        if (auto it = globals.find(e.symbol()); it != globals.end()) {
            c.i = it->second + e.symOffset();
        } else {
            c.kind = K::BadSym;
            c.sym = &e;
        }
        break;
      case Expr::Kind::Reg:
        c.kind = K::Reg;
        c.file = e.regFile();
        c.i = e.regIndex();
        break;
      case Expr::Kind::Mem:
        depth = lower(*e.addr(), globals, code);
        c.kind = K::Mem;
        c.type = e.type();
        break;
      case Expr::Kind::Un:
        depth = lower(*e.lhs(), globals, code);
        c.kind = K::Un;
        c.op = e.op();
        break;
      case Expr::Kind::Bin:
        depth = lower(*e.lhs(), globals, code);
        depth = std::max(depth, lower(*e.rhs(), globals, code) + 1);
        c.kind = K::Bin;
        c.op = e.op();
        break;
    }
    code.push_back(c);
    return depth;
}

} // anonymous namespace

Executable::Executable(const Program &prog)
{
    WS_ASSERT(prog.dataEnd() >= 0, "program not laid out");
    GlobalAddresses globals;
    for (const auto &g : prog.globals())
        globals.emplace(g.name, g.address);
    size_t depth = 1;
    auto lowered = [&](const ExprPtr &e) {
        Operand o;
        o.begin = o.end = static_cast<uint32_t>(operands.size());
        if (e) {
            depth = std::max(depth, lower(*e, globals, operands));
            o.end = static_cast<uint32_t>(operands.size());
        }
        return o;
    };
    size_t insts = 0;
    for (const auto &fp : prog.functions())
        insts += static_cast<size_t>(fp->instCount());
    code.reserve(insts);
    operands.reserve(2 * insts);
    // Flatten in layout order. A label or function defined twice
    // resolves to its last definition.
    std::unordered_map<std::string, int64_t> funcEntry;
    for (const auto &fp : prog.functions()) {
        size_t begin = code.size();
        funcEntry[fp->name()] = static_cast<int64_t>(begin);
        std::unordered_map<std::string, int64_t> labels;
        for (const auto &bp : fp->blocks()) {
            labels[bp->label()] = static_cast<int64_t>(code.size());
            for (const Inst &inst : bp->insts)
                code.push_back({&inst, -1, lowered(inst.src),
                                lowered(inst.addr), lowered(inst.count),
                                lowered(inst.vecSrc2)});
        }
        for (size_t pc = begin; pc < code.size(); ++pc)
            if (code[pc].inst->isBranch()) {
                auto it = labels.find(code[pc].inst->target);
                if (it != labels.end())
                    code[pc].target = it->second;
            }
    }
    WS_ASSERT(operands.size() <= UINT32_MAX, "operand code too large");
    stack_.resize(depth);
    for (DecodedInst &d : code)
        if (d.inst->kind == InstKind::Call) {
            auto it = funcEntry.find(d.inst->target);
            if (it != funcEntry.end())
                d.target = it->second;
        }

    // Globals that do not fit are a property of the user's program
    // (e.g. a huge array), not an internal invariant.
    for (const auto &g : prog.globals())
        if (g.address + g.size > kMaxImageBytes) {
            startError = globalTooLargeMessage(g.name, g.size, g.address);
            return;
        }
    mem.assign(static_cast<size_t>(imageBytesFor(prog.dataEnd())), 0);
    for (const auto &g : prog.globals())
        if (!g.init.empty())
            std::memcpy(&mem[g.address], g.init.data(), g.init.size());
    auto it = funcEntry.find("main");
    if (it == funcEntry.end())
        startError = "no main function";
    else
        mainEntry = it->second;
}

void
Executable::outOfBounds(int64_t addr) const
{
    if (addr < 0)
        throw ExecError(kStackOverflowMessage);
    throw ExecError(strFormat("memory access out of bounds: %lld",
                              static_cast<long long>(addr)));
}

void
Executable::unknownTarget(const Inst &inst)
{
    if (inst.kind == InstKind::Call)
        throw ExecError("call to unknown function " + inst.target);
    throw ExecError("jump to unknown label " + inst.target);
}

void
Executable::unknownGlobal(const Expr &sym)
{
    throw ExecError("unknown global " + sym.symbol());
}

} // namespace wmstream::rtl
