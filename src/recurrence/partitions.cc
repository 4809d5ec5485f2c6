#include "recurrence/partitions.h"

#include <sstream>

#include "support/str.h"

namespace wmstream::recurrence {

using opt::BasicIV;
using opt::LinForm;
using rtl::Inst;
using rtl::InstKind;

std::string
MemRef::str() const
{
    std::ostringstream os;
    os << "(" << lno << "," << (isWrite ? "w" : "r") << ",";
    if (!analyzable) {
        os << "?,?,?,?)";
        return os.str();
    }
    if (iv) {
        os << rtl::regFilePrefix(iv->reg->regFile()) << iv->reg->regIndex()
           << (iv->step > 0 ? "+" : "-");
    } else {
        os << "-";
    }
    os << "," << cee << "," << dee.deeStr() << "," << roffset << ")";
    return os.str();
}

bool
Partition::hasWrite() const
{
    for (const MemRef &r : refs)
        if (r.isWrite)
            return true;
    return false;
}

bool
Partition::hasRead() const
{
    for (const MemRef &r : refs)
        if (!r.isWrite)
            return true;
    return false;
}

std::string
Partition::str() const
{
    std::ostringstream os;
    os << key << (safe ? "" : " [unsafe]") << " = {";
    for (size_t i = 0; i < refs.size(); ++i) {
        if (i)
            os << ", ";
        os << refs[i].str();
    }
    os << "}";
    return os.str();
}

std::string
PartitionSet::str() const
{
    std::ostringstream os;
    for (const Partition &p : parts)
        os << p.str() << "\n";
    if (!unknownRefs.empty()) {
        os << "unknown = {";
        for (size_t i = 0; i < unknownRefs.size(); ++i) {
            if (i)
                os << ", ";
            os << unknownRefs[i].str();
        }
        os << "}\n";
    }
    return os.str();
}

bool
PartitionSet::unknownWriteExists() const
{
    for (const MemRef &r : unknownRefs)
        if (r.isWrite)
            return true;
    return false;
}

bool
PartitionSet::unknownReadExists() const
{
    for (const MemRef &r : unknownRefs)
        if (!r.isWrite)
            return true;
    return false;
}

namespace {

/** Partition key for an analyzed reference. */
std::string
partitionKey(const MemRef &ref)
{
    switch (ref.dee.baseKind) {
      case LinForm::Base::Sym:
        return "_" + ref.dee.sym;
      case LinForm::Base::Reg:
        return std::string("reg:") +
               rtl::regFilePrefix(ref.dee.baseReg->regFile()) +
               std::to_string(ref.dee.baseReg->regIndex());
      case LinForm::Base::None:
        // A walking pointer: the region is identified by the IV itself.
        if (ref.iv) {
            return std::string("iv:") +
                   rtl::regFilePrefix(ref.iv->reg->regFile()) +
                   std::to_string(ref.iv->reg->regIndex());
        }
        return "absolute";
      default:
        return "?";
    }
}

} // anonymous namespace

PartitionSet
buildPartitions(const cfg::Loop &loop, opt::IndVarAnalysis &ivs)
{
    PartitionSet set;

    auto addRef = [&](MemRef ref) {
        if (!ref.analyzable) {
            set.unknownRefs.push_back(std::move(ref));
            return;
        }
        std::string key = partitionKey(ref);
        for (Partition &p : set.parts) {
            if (p.key == key) {
                p.refs.push_back(std::move(ref));
                return;
            }
        }
        Partition p;
        p.key = std::move(key);
        p.refs.push_back(std::move(ref));
        set.parts.push_back(std::move(p));
    };

    // Steps 1 and 2: collect references with their vectors.
    for (rtl::Block *b : loop.blocks) {
        for (size_t i = 0; i < b->insts.size(); ++i) {
            const Inst &inst = b->insts[i];
            if (inst.kind != InstKind::Load && inst.kind != InstKind::Store)
                continue;
            MemRef ref;
            ref.lno = inst.id;
            ref.isWrite = inst.kind == InstKind::Store;
            ref.block = b;
            ref.index = i;
            ref.type = inst.memType;

            // Find the IV (if any) the address varies with.
            const BasicIV *best = nullptr;
            LinForm bestLin;
            for (const BasicIV &iv : ivs.basicIVs()) {
                LinForm lin = ivs.linearize(inst.addr, iv, {b, i});
                if (!lin.valid || lin.baseKind == LinForm::Base::Unknown)
                    continue;
                if (lin.coeff != 0) {
                    best = &iv;
                    bestLin = lin;
                    break;
                }
                if (!best) {
                    bestLin = lin; // invariant address; keep looking
                    bestLin.valid = true;
                    best = nullptr;
                }
            }
            if (!best && !bestLin.valid) {
                // No IV matched: still classify invariant addresses.
                if (inst.addr->isSym()) {
                    bestLin.valid = true;
                    bestLin.baseKind = LinForm::Base::Sym;
                    bestLin.sym = inst.addr->symbol();
                    bestLin.offset = inst.addr->symOffset();
                } else if (inst.addr->isReg() &&
                           ivs.regInvariant(inst.addr->regFile(),
                                            inst.addr->regIndex())) {
                    bestLin = ivs.resolveInvariantReg(inst.addr);
                }
            }
            if (best) {
                ref.analyzable = true;
                ref.iv = best;
                ref.cee = bestLin.coeff;
                ref.dee = bestLin;
                ref.roffset = bestLin.offset;
            } else if (bestLin.valid &&
                       bestLin.baseKind != LinForm::Base::Unknown) {
                // Loop-invariant address (cee == 0).
                ref.analyzable = true;
                ref.iv = nullptr;
                ref.cee = 0;
                ref.dee = bestLin;
                ref.roffset = bestLin.offset;
            }
            addRef(std::move(ref));
        }
    }

    // Step 3: safety per partition.
    for (Partition &p : set.parts) {
        if (p.refs.size() <= 1)
            continue; // trivially safe
        const MemRef &first = p.refs[0];
        for (const MemRef &r : p.refs) {
            // Step 3a: same IV and same cee.
            if (r.iv != first.iv || r.cee != first.cee) {
                p.safe = false;
                break;
            }
            // Step 3b: relative offset evenly divisible by cee.
            if (r.cee != 0 && (r.roffset % r.cee) != 0) {
                p.safe = false;
                break;
            }
        }
    }

    return set;
}

} // namespace wmstream::recurrence
