#include <string>
#include <unordered_map>
#include <vector>

#include "cfg/liveness.h"
#include "opt/passes.h"

namespace wmstream::opt {

using cfg::RegKey;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;

namespace {

bool
exprReadsFifo(const ExprPtr &e)
{
    bool found = false;
    rtl::forEachNode(e, [&](const Expr &n) {
        if (n.kind() == Expr::Kind::Reg &&
                (n.regFile() == RegFile::Int ||
                 n.regFile() == RegFile::Flt) &&
                (n.regIndex() == 0 || n.regIndex() == 1)) {
            found = true;
        }
    });
    return found;
}

/** An available expression or load: key expr, holding register. */
struct AvailEntry
{
    ExprPtr expr;
    ExprPtr reg;
};

void
invalidate(std::vector<AvailEntry> &table, const RegKey &k)
{
    for (auto it = table.begin(); it != table.end();) {
        bool kill = rtl::usesReg(it->expr, k.file, k.index) ||
                    it->reg->isReg(k.file, k.index);
        it = kill ? table.erase(it) : ++it;
    }
}

const AvailEntry *
find(const std::vector<AvailEntry> &table, const ExprPtr &e)
{
    for (const auto &entry : table)
        if (rtl::exprEqual(entry.expr, e))
            return &entry;
    return nullptr;
}

} // anonymous namespace

int
runLocalCSE(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    int changes = 0;
    for (auto &bp : fn.blocks()) {
        std::vector<AvailEntry> exprs;
        std::vector<AvailEntry> loads; // expr = Mem(addr) of the load

        for (Inst &inst : bp->insts) {
            switch (inst.kind) {
              case InstKind::Assign: {
                if (inst.dst->regFile() != RegFile::CC &&
                        inst.src->kind() == Expr::Kind::Bin &&
                        !exprReadsFifo(inst.src)) {
                    if (const AvailEntry *hit = find(exprs, inst.src)) {
                        inst.src = hit->reg;
                        ++changes;
                    }
                }
                break;
              }
              case InstKind::Load: {
                if (!exprReadsFifo(inst.addr)) {
                    ExprPtr cell = rtl::makeMem(inst.addr, inst.memType);
                    if (const AvailEntry *hit = find(loads, cell)) {
                        // Same cell already in a register: turn the
                        // load into a copy.
                        Inst copy = rtl::makeAssign(inst.dst, hit->reg,
                                                    inst.comment);
                        copy.id = inst.id;
                        inst = std::move(copy);
                        ++changes;
                    }
                }
                break;
              }
              default:
                break;
            }

            // Kill table entries invalidated by this instruction.
            cfg::forEachDef(inst, traits, [&](const RegKey &k) {
                invalidate(exprs, k);
                invalidate(loads, k);
            });
            switch (inst.kind) {
              case InstKind::Store:
              case InstKind::StreamIn:
              case InstKind::StreamOut:
              case InstKind::Call:
                loads.clear(); // conservative: any memory may change
                break;
              default:
                break;
            }

            // Record new availability.
            if (inst.kind == InstKind::Assign &&
                    inst.dst->regFile() != RegFile::CC &&
                    rtl::isVirtualFile(inst.dst->regFile()) &&
                    inst.src->kind() == Expr::Kind::Bin &&
                    !exprReadsFifo(inst.src) &&
                    !rtl::usesReg(inst.src, inst.dst->regFile(),
                                  inst.dst->regIndex())) {
                exprs.push_back({inst.src, inst.dst});
            }
            if (inst.kind == InstKind::Load &&
                    rtl::isVirtualFile(inst.dst->regFile()) &&
                    !exprReadsFifo(inst.addr) &&
                    !rtl::usesReg(inst.addr, inst.dst->regFile(),
                                  inst.dst->regIndex())) {
                loads.push_back(
                    {rtl::makeMem(inst.addr, inst.memType), inst.dst});
            }
            // Store-to-load forwarding within the block. Only full
            // 8-byte cells: a narrow store truncates, so the register
            // is not the stored value.
            if (inst.kind == InstKind::Store && inst.src->isReg() &&
                    rtl::dataTypeSize(inst.memType) == 8 &&
                    rtl::isVirtualFile(inst.src->regFile()) &&
                    !exprReadsFifo(inst.addr)) {
                loads.push_back(
                    {rtl::makeMem(inst.addr, inst.memType), inst.src});
            }
        }
    }
    return changes;
}

} // namespace wmstream::opt
