#include "timing/scalar_sim.h"

#include "rtl/exec.h"
#include "support/convert.h"

namespace wmstream::timing {

using rtl::ExecError;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;
using rtl::Val;

CostModel
sun3_280Model()
{
    // Sun 3/280: 25 MHz MC68020 with an MC68881 coprocessor. Floating
    // loads and stores cross the coprocessor interface and are the
    // dominant cost; 68881 arithmetic is slow but register-to-register
    // operations overlap some of the interface overhead.
    CostModel m;
    m.name = "Sun 3/280 (68020+68881)";
    m.cyclesIntAlu = 3;
    m.cyclesIntMul = 28;
    m.cyclesIntDiv = 90;
    m.cyclesFltAdd = 20;
    m.cyclesFltMul = 24;
    m.cyclesFltDiv = 55;
    m.cyclesLoad = 50;
    m.cyclesStore = 55;
    m.cyclesCompare = 3;
    m.cyclesBranch = 6;
    m.cyclesMaterialize = 4;
    m.cyclesCall = 18;
    m.cyclesMove = 3;
    m.cyclesCvt = 35;
    return m;
}

CostModel
hp9000_345Model()
{
    // HP 9000/345: 50 MHz MC68030 with an MC68882. The 68882 pipelines
    // coprocessor transfers, so memory references cost relatively less
    // than on the Sun 3.
    CostModel m;
    m.name = "HP 9000/345 (68030+68882)";
    m.cyclesIntAlu = 2;
    m.cyclesIntMul = 24;
    m.cyclesIntDiv = 80;
    m.cyclesFltAdd = 24;
    m.cyclesFltMul = 28;
    m.cyclesFltDiv = 55;
    m.cyclesLoad = 17;
    m.cyclesStore = 20;
    m.cyclesCompare = 2;
    m.cyclesBranch = 5;
    m.cyclesMaterialize = 3;
    m.cyclesCall = 14;
    m.cyclesMove = 2;
    m.cyclesCvt = 28;
    return m;
}

CostModel
vax8600Model()
{
    // VAX 8600: microcoded CISC with memory operands folded into
    // instructions; a separate memory reference is comparatively
    // cheap, while D-float arithmetic dominates the loop.
    CostModel m;
    m.name = "VAX 8600";
    m.cyclesIntAlu = 2;
    m.cyclesIntMul = 12;
    m.cyclesIntDiv = 40;
    m.cyclesFltAdd = 16;
    m.cyclesFltMul = 20;
    m.cyclesFltDiv = 38;
    m.cyclesLoad = 4;
    m.cyclesStore = 5;
    m.cyclesCompare = 2;
    m.cyclesBranch = 3;
    m.cyclesMaterialize = 2;
    m.cyclesCall = 12;
    m.cyclesMove = 2;
    m.cyclesCvt = 10;
    return m;
}

CostModel
m88100Model()
{
    // Motorola 88100: pipelined RISC with a hardware FPU; most
    // operations are short, so removing a load removes a small slice
    // of a small loop.
    CostModel m;
    m.name = "Motorola 88100";
    m.cyclesIntAlu = 1;
    m.cyclesIntMul = 4;
    m.cyclesIntDiv = 18;
    m.cyclesFltAdd = 5;
    m.cyclesFltMul = 6;
    m.cyclesFltDiv = 30;
    m.cyclesLoad = 2;
    m.cyclesStore = 2;
    m.cyclesCompare = 1;
    m.cyclesBranch = 2;
    m.cyclesMaterialize = 2;
    m.cyclesCall = 8;
    m.cyclesMove = 1;
    m.cyclesCvt = 6;
    return m;
}

const char *
costClassName(CostClass c)
{
    switch (c) {
      case CostClass::IntAlu: return "int_alu";
      case CostClass::IntMul: return "int_mul";
      case CostClass::IntDiv: return "int_div";
      case CostClass::FltAdd: return "flt_add";
      case CostClass::FltMul: return "flt_mul";
      case CostClass::FltDiv: return "flt_div";
      case CostClass::Load: return "load";
      case CostClass::Store: return "store";
      case CostClass::Compare: return "compare";
      case CostClass::Branch: return "branch";
      case CostClass::Materialize: return "materialize";
      case CostClass::Call: return "call";
      case CostClass::Move: return "move";
      case CostClass::Cvt: return "cvt";
      case CostClass::kCount: break;
    }
    return "?";
}

void
ScalarRunResult::exportCounters(obs::CounterRegistry &reg) const
{
    reg.set("insts_executed", instsExecuted);
    reg.set("memory_refs", memoryRefs);
    reg.set("millicycles.total",
            static_cast<uint64_t>(cycles * 1000.0 + 0.5));
    for (size_t c = 0; c < static_cast<size_t>(CostClass::kCount); ++c) {
        if (!instsByClass[c])
            continue;
        const char *n = costClassName(static_cast<CostClass>(c));
        reg.set(std::string("insts.") + n, instsByClass[c]);
        reg.set(std::string("millicycles.") + n,
                static_cast<uint64_t>(cyclesByClass[c] * 1000.0 + 0.5));
    }
}

namespace {

class ScalarMachine
{
  public:
    ScalarMachine(const rtl::Program &prog, const CostModel &model,
                  uint64_t maxInsts)
        : exe_(prog), model_(model), maxInsts_(maxInsts)
    {
        rreg_[30] = rtl::kInitialSp;
    }

    ScalarRunResult
    run()
    {
        ScalarRunResult res;
        if (!exe_.startError.empty()) {
            res.error = exe_.startError;
            return res;
        }
        int64_t pc = exe_.mainEntry;
        try {
            for (;;) {
                if (res.instsExecuted++ > maxInsts_)
                    throw ExecError("instruction budget exceeded");
                const rtl::DecodedInst &d = exe_.fetch(pc);
                const Inst &inst = *d.inst;
                switch (inst.kind) {
                  case InstKind::Assign: {
                    Val v = eval(d.src);
                    if (inst.dst->regFile() == RegFile::CC) {
                        cc_[inst.dst->regIndex() == 1 ? 1 : 0] =
                            v.isFloat ? v.f != 0.0 : v.i != 0;
                        charge(res, CostClass::Compare);
                    } else {
                        writeReg(inst.dst, v);
                        charge(res, assignClass(d));
                    }
                    ++pc;
                    break;
                  }
                  case InstKind::Load: {
                    Val a = eval(d.addr);
                    writeReg(inst.dst, exe_.read(a.i, inst.memType));
                    charge(res, CostClass::Load);
                    ++res.memoryRefs;
                    ++pc;
                    break;
                  }
                  case InstKind::Store: {
                    Val a = eval(d.addr);
                    Val v = eval(d.src);
                    exe_.write(a.i, inst.memType, v);
                    charge(res, CostClass::Store);
                    ++res.memoryRefs;
                    ++pc;
                    break;
                  }
                  case InstKind::Jump:
                    pc = exe_.target(pc);
                    charge(res, CostClass::Branch);
                    break;
                  case InstKind::CondJump: {
                    bool c = cc_[inst.side == rtl::UnitSide::Flt ? 1 : 0];
                    pc = (c == inst.when) ? exe_.target(pc) : pc + 1;
                    charge(res, CostClass::Branch);
                    break;
                  }
                  case InstKind::Call: {
                    int64_t callee = exe_.target(pc);
                    ra_.push_back(pc + 1);
                    pc = callee;
                    charge(res, CostClass::Call);
                    break;
                  }
                  case InstKind::Return:
                    charge(res, CostClass::Call);
                    if (ra_.empty()) {
                        res.ok = true;
                        res.returnValue = rreg_[2];
                        return res;
                    }
                    pc = ra_.back();
                    ra_.pop_back();
                    break;
                  default:
                    throw ExecError("stream instruction on scalar target");
                }
            }
        } catch (const ExecError &e) {
            res.error = e.what();
            res.ok = false;
            return res;
        }
    }

  private:
    double
    rate(CostClass c) const
    {
        switch (c) {
          case CostClass::IntAlu: return model_.cyclesIntAlu;
          case CostClass::IntMul: return model_.cyclesIntMul;
          case CostClass::IntDiv: return model_.cyclesIntDiv;
          case CostClass::FltAdd: return model_.cyclesFltAdd;
          case CostClass::FltMul: return model_.cyclesFltMul;
          case CostClass::FltDiv: return model_.cyclesFltDiv;
          case CostClass::Load: return model_.cyclesLoad;
          case CostClass::Store: return model_.cyclesStore;
          case CostClass::Compare: return model_.cyclesCompare;
          case CostClass::Branch: return model_.cyclesBranch;
          case CostClass::Materialize: return model_.cyclesMaterialize;
          case CostClass::Call: return model_.cyclesCall;
          case CostClass::Move: return model_.cyclesMove;
          case CostClass::Cvt: return model_.cyclesCvt;
          case CostClass::kCount: break;
        }
        return 0;
    }

    void
    charge(ScalarRunResult &res, CostClass c) const
    {
        double r = rate(c);
        res.cycles += r;
        res.cyclesByClass[static_cast<size_t>(c)] += r;
        ++res.instsByClass[static_cast<size_t>(c)];
    }

    /** Cost class of an Assign, from the root of its source. */
    CostClass
    assignClass(const rtl::DecodedInst &d) const
    {
        using K = rtl::OperandCell::Kind;
        const rtl::OperandCell &s = exe_.operands[d.src.end - 1];
        bool flt = d.inst->dst->regFile() == RegFile::Flt ||
                   d.inst->dst->regFile() == RegFile::VFlt;
        switch (s.kind) {
          case K::Reg:
            return CostClass::Move;
          case K::Int:
          case K::Flt:
          case K::BadSym:
            return CostClass::Materialize;
          case K::Un:
            if (s.op == Op::CvtIF || s.op == Op::CvtFI)
                return CostClass::Cvt;
            return flt ? CostClass::FltAdd : CostClass::IntAlu;
          case K::Bin:
            switch (s.op) {
              case Op::Mul:
                return flt ? CostClass::FltMul : CostClass::IntMul;
              case Op::Div:
              case Op::Rem:
                return flt ? CostClass::FltDiv : CostClass::IntDiv;
              default:
                return flt ? CostClass::FltAdd : CostClass::IntAlu;
            }
          default:
            return CostClass::IntAlu;
        }
    }

    void
    writeReg(const ExprPtr &dst, const Val &v)
    {
        int idx = dst->regIndex();
        if (idx == 31)
            return;
        if (dst->regFile() == RegFile::Flt)
            freg_[idx] = v.isFloat ? v.f : static_cast<double>(v.i);
        else
            rreg_[idx] = v.isFloat ? truncToInt64(v.f) : v.i;
    }

    Val
    eval(rtl::Operand o)
    {
        return exe_.eval(o, [this](RegFile file, int idx) {
            Val v;
            if (file == RegFile::Flt) {
                v.isFloat = true;
                v.f = idx == 31 ? 0.0 : freg_[idx];
            } else {
                v.i = idx == 31 ? 0 : rreg_[idx];
            }
            return v;
        });
    }

    rtl::Executable exe_;
    const CostModel &model_;
    uint64_t maxInsts_;
    int64_t rreg_[32] = {};
    double freg_[32] = {};
    bool cc_[2] = {false, false};
    std::vector<int64_t> ra_;
};

} // anonymous namespace

ScalarRunResult
runScalar(const rtl::Program &prog, const CostModel &model,
          uint64_t maxInsts)
{
    ScalarMachine m(prog, model, maxInsts);
    return m.run();
}

} // namespace wmstream::timing
