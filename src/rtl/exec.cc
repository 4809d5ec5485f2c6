#include "rtl/exec.h"

#include <unordered_map>

#include "support/diag.h"
#include "support/str.h"

namespace wmstream::rtl {

Executable::Executable(const Program &prog) : prog_(prog)
{
    WS_ASSERT(prog.dataEnd() >= 0, "program not laid out");
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
                code.push_back({&inst});
        }
        for (size_t pc = begin; pc < code.size(); ++pc)
            if (code[pc].inst->isBranch()) {
                auto it = labels.find(code[pc].inst->target);
                if (it != labels.end())
                    code[pc].target = it->second;
            }
    }
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

} // namespace wmstream::rtl
