#include "perfbench/gen.h"

#include "support/str.h"

using namespace wmstream;

namespace perfbench {

namespace {

const char *const kArrayNames[kNumArrays] = {"A", "B", "C"};

/** Per-array init patterns; distinct moduli so cells rarely collide. */
struct InitPattern
{
    int mul, add, mod;
};
const InitPattern kInit[kNumArrays] = {{7, 3, 23}, {5, 1, 19}, {11, 7, 29}};

bool
usesArray(const ProgramSpec &spec, int a)
{
    for (const StmtSpec &s : spec.stmts)
        if (s.dst == a || s.src1 == a || s.src2 == a)
            return true;
    return false;
}

/** `N[i + k]` with the `+ 0` elided. */
std::string
ref(int array, int off)
{
    if (off == 0)
        return strFormat("%s[i]", kArrayNames[array]);
    return strFormat("%s[i %s %d]", kArrayNames[array], off < 0 ? "-" : "+",
                     off < 0 ? -off : off);
}

// Mirrors the fuzz campaign's budgets: generated programs finish far
// below these, so hitting one is a failure, not a slow run.
constexpr uint64_t kSimMaxCycles = 2'000'000ull;

} // anonymous namespace

ProgramSpec
generateSpec(support::Rng &rng, int numStmts)
{
    ProgramSpec spec;
    spec.countUp = rng.flip();
    for (int k = 0; k < numStmts; ++k) {
        StmtSpec s;
        s.dst = rng.range(0, kNumArrays - 1);
        s.dstOff = rng.range(-2, 2);
        s.src1 = rng.range(0, kNumArrays - 1);
        s.off1 = rng.range(-4, 4);
        s.src2 = rng.range(0, kNumArrays - 1);
        s.off2 = rng.range(-4, 4);
        s.subtract = rng.flip();
        s.conditional = rng.range(0, 3) == 0;
        s.accumulate = rng.range(0, 2) == 0;
        spec.stmts.push_back(s);
    }
    return spec;
}

std::string
renderProgram(const ProgramSpec &spec)
{
    bool used[kNumArrays] = {};
    int numUsed = 0;
    for (int a = 0; a < kNumArrays; ++a)
        if ((used[a] = usesArray(spec, a)))
            ++numUsed;

    std::string out = strFormat("int n = %d;\n", kArraySize);
    for (int a = 0; a < kNumArrays; ++a)
        if (used[a])
            out += strFormat("int %s[%d];\n", kArrayNames[a], kArraySize);
    out += "int main(void)\n{\n    int i, acc;\n";
    out += strFormat("    for (i = 0; i < n; i++)%s\n",
                     numUsed > 1 ? " {" : "");
    for (int a = 0; a < kNumArrays; ++a)
        if (used[a])
            out += strFormat("        %s[i] = (i * %d + %d) %% %d;\n",
                             kArrayNames[a], kInit[a].mul, kInit[a].add,
                             kInit[a].mod);
    if (numUsed > 1)
        out += "    }\n";
    out += "    acc = 0;\n";

    int bodyLines = 0;
    for (const StmtSpec &s : spec.stmts)
        bodyLines += 1 + (s.conditional ? 1 : 0) + (s.accumulate ? 1 : 0);
    const char *brace = bodyLines > 1 ? " {" : "";
    if (spec.countUp)
        out += strFormat("    for (i = 4; i < n - 4; i++)%s\n", brace);
    else
        out += strFormat("    for (i = n - 5; i >= 4; i--)%s\n", brace);
    for (const StmtSpec &s : spec.stmts) {
        std::string assign = strFormat(
            "%s = %s %s %s;", ref(s.dst, s.dstOff).c_str(),
            ref(s.src1, s.off1).c_str(), s.subtract ? "-" : "+",
            ref(s.src2, s.off2).c_str());
        if (s.conditional)
            out += strFormat("        if ((i & 1) == 0)\n            %s\n",
                             assign.c_str());
        else
            out += strFormat("        %s\n", assign.c_str());
        if (s.accumulate)
            out += strFormat("        acc = acc + %s;\n",
                             ref(s.dst, s.dstOff).c_str());
    }
    if (bodyLines > 1)
        out += "    }\n";

    // Checksum every live array so any corrupted cell is observable.
    out += "    for (i = 0; i < n; i++)\n";
    std::string sum = "acc";
    int weight = 1;
    for (int a = 0; a < kNumArrays; ++a) {
        if (!used[a])
            continue;
        sum += weight == 1 ? strFormat(" + %s[i]", kArrayNames[a])
                           : strFormat(" + %s[i] * %d", kArrayNames[a],
                                       weight);
        ++weight;
    }
    out += strFormat("        acc = %s;\n", sum.c_str());
    out += "    return acc & 1048575;\n}\n";
    return out;
}

std::vector<FuzzConfig>
fuzzConfigs(uint64_t programIndex)
{
    wmsim::SimConfig simCfg;
    simCfg.maxCycles = kSimMaxCycles;
    simCfg.memLatency = 1 + static_cast<int>(programIndex % 9);
    simCfg.dataFifoDepth = 2 + static_cast<int>(programIndex % 7);

    std::vector<FuzzConfig> configs;
    for (bool rec : {false, true}) {
        for (bool stream : {false, true}) {
            FuzzConfig c;
            c.opts.recurrence = rec;
            c.opts.streaming = stream;
            c.opts.vectorize = stream && (programIndex & 1);
            c.opts.minStreamTripCount = programIndex % 3 == 0 ? 0 : 4;
            c.opts.verify = driver::VerifyMode::Each;
            c.simCfg = simCfg;
            c.key = std::string("wm/") + (rec ? "rec" : "norec") +
                    (stream ? "+stream" : "") +
                    (c.opts.vectorize ? "+vec" : "");
            // The two variants Table II compares: default options with
            // streaming off and on.
            if (rec)
                c.cycles = stream ? CycleSum::Streamed : CycleSum::Base;
            configs.push_back(std::move(c));
        }
    }
    FuzzConfig noopt;
    noopt.opts.optimize = false;
    noopt.opts.recurrence = false;
    noopt.opts.streaming = false;
    noopt.opts.verify = driver::VerifyMode::Each;
    noopt.simCfg = simCfg;
    noopt.key = "wm/noopt";
    configs.push_back(std::move(noopt));
    for (bool rec : {false, true}) {
        FuzzConfig c;
        c.opts.target = rtl::MachineKind::Scalar;
        c.opts.recurrence = rec;
        c.opts.streaming = false;
        c.opts.verify = driver::VerifyMode::Each;
        c.key = rec ? "scalar/rec" : "scalar/norec";
        configs.push_back(std::move(c));
    }
    return configs;
}

std::string
bigTuSource(int loops)
{
    constexpr int n = 256;
    std::string src = strFormat("double a[%d];\ndouble b[%d];\n"
                                "double c[%d];\n",
                                n, n, n);
    src += "int main() {\n  int i;\n";
    src += strFormat("  for (i = 0; i < %d; i = i + 1) {\n"
                     "    a[i] = i; b[i] = 0.5; c[i] = 1.0;\n  }\n",
                     n);
    for (int l = 0; l < loops; ++l)
        src += strFormat("  for (i = 0; i < %d; i = i + 1) {\n"
                         "    c[i] = c[i] + a[i] * b[i];\n  }\n",
                         n);
    src += strFormat("  return c[%d] + c[%d];\n}\n", n / 2, n - 1);
    return src;
}

uint64_t
fnv1a64(const std::string &s, uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace perfbench
