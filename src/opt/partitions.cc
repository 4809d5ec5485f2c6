#include "opt/partitions.h"

#include <sstream>

namespace wmstream::opt {

using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;

std::string
MemRef::str(int lno) const
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

namespace {

/** The register that names @p ref's region: its base, or its walking IV. */
const rtl::Expr *
regionReg(const MemRef &ref)
{
    if (ref.dee.baseKind == LinForm::Base::Reg)
        return ref.dee.baseReg.get();
    if (ref.dee.baseKind == LinForm::Base::None && ref.iv)
        return ref.iv->reg.get();
    return nullptr;
}

} // anonymous namespace

PartitionKey
PartitionKey::of(const MemRef &ref)
{
    PartitionKey k;
    k.kind = ref.dee.baseKind;
    if (k.kind == LinForm::Base::Sym)
        k.sym = ref.dee.sym;
    if (const rtl::Expr *r = regionReg(ref)) {
        k.file = r->regFile();
        k.reg = r->regIndex();
    }
    return k;
}

bool
PartitionKey::matches(const MemRef &ref) const
{
    if (ref.dee.baseKind != kind)
        return false;
    if (kind == LinForm::Base::Sym)
        return ref.dee.sym == sym;
    const rtl::Expr *r = regionReg(ref);
    return r ? r->regFile() == file && r->regIndex() == reg : reg < 0;
}

std::string
PartitionKey::str() const
{
    if (kind == LinForm::Base::Sym)
        return "_" + sym;
    if (reg < 0)
        return "absolute";
    return std::string(kind == LinForm::Base::Reg ? "reg:" : "iv:") +
           rtl::regFilePrefix(file) + std::to_string(reg);
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
PartitionSet::str(const rtl::Function &fn) const
{
    // start[b] is the layout ordinal of block b's first instruction.
    std::vector<int> start(static_cast<size_t>(fn.blockIdBound()), 0);
    int n = 0;
    for (const auto &b : fn.blocks()) {
        start[static_cast<size_t>(b->id())] = n;
        n += static_cast<int>(b->insts.size());
    }
    auto refs = [&](std::ostringstream &os, const std::vector<MemRef> &v) {
        for (size_t i = 0; i < v.size(); ++i) {
            if (i)
                os << ", ";
            os << v[i].str(start[static_cast<size_t>(v[i].block->id())] +
                           static_cast<int>(v[i].index));
        }
    };
    std::ostringstream os;
    for (const Partition &p : parts) {
        os << p.key.str() << (p.safe ? "" : " [unsafe]") << " = {";
        refs(os, p.refs);
        os << "}\n";
    }
    if (!unknownRefs.empty()) {
        os << "unknown = {";
        refs(os, unknownRefs);
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

PartitionSet
buildPartitions(const cfg::Loop &loop, IndVarAnalysis &ivs)
{
    PartitionSet set;

    auto addRef = [&](MemRef ref) {
        if (!ref.analyzable) {
            set.unknownRefs.push_back(std::move(ref));
            return;
        }
        for (Partition &p : set.parts) {
            if (p.key.matches(ref)) {
                p.refs.push_back(std::move(ref));
                return;
            }
        }
        Partition p;
        p.key = PartitionKey::of(ref);
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

ExprPtr
scaleIV(rtl::Function &fn, rtl::Block *pre, const ExprPtr &iv, int64_t cee,
        const char *comment)
{
    if (cee == 1)
        return iv;
    int sh = -1;
    for (int k = 1; k < 32; ++k)
        if (cee == (int64_t{1} << k))
            sh = k;
    ExprPtr t = fn.newVReg(DataType::I64);
    cfg::appendToPreheader(
        pre, rtl::makeAssign(
                 t, sh > 0 ? rtl::makeBin(Op::Shl, iv, rtl::makeConst(sh))
                           : rtl::makeBin(Op::Mul, iv, rtl::makeConst(cee)),
                 comment));
    return t;
}

ExprPtr
materializeAddress(rtl::Function &fn, rtl::Block *pre, const ExprPtr &iv,
                   int64_t cee, const LinForm &base, int64_t disp,
                   const AddressComments &comments, ExprPtr dst)
{
    ExprPtr sum = cee ? scaleIV(fn, pre, iv, cee, comments.scale) : nullptr;
    ExprPtr baseVal;
    if (base.baseKind == LinForm::Base::Sym) {
        baseVal = fn.newVReg(DataType::I64);
        cfg::appendToPreheader(pre, rtl::makeAssign(baseVal,
                                                    rtl::makeSym(base.sym),
                                                    comments.symbol));
    } else if (base.baseKind == LinForm::Base::Reg) {
        baseVal = base.baseReg;
    }
    if (baseVal && sum) {
        ExprPtr t = fn.newVReg(DataType::I64);
        cfg::appendToPreheader(
            pre, rtl::makeAssign(t, rtl::makeBin(Op::Add, sum, baseVal)));
        sum = t;
    } else if (baseVal) {
        sum = baseVal;
    }
    if (!dst) {
        if (!sum)
            return rtl::makeConst(disp);
        if (disp == 0)
            return sum;
        dst = fn.newVReg(DataType::I64);
    }
    cfg::appendToPreheader(
        pre, rtl::makeAssign(dst,
                             sum ? rtl::makeBin(Op::Add, sum,
                                                rtl::makeConst(disp))
                                 : rtl::makeConst(disp),
                             comments.disp));
    return dst;
}

} // namespace wmstream::opt
