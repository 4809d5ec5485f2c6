#include "rtl/program.h"

#include <sstream>

#include "support/diag.h"

namespace wmstream::rtl {

Function *
Program::addFunction(const std::string &name)
{
    WS_ASSERT(!findFunction(name), "duplicate function " + name);
    funcs_.push_back(std::make_unique<Function>(name));
    return funcs_.back().get();
}

Function *
Program::findFunction(const std::string &name)
{
    for (auto &f : funcs_)
        if (f->name() == name)
            return f.get();
    return nullptr;
}

const Function *
Program::findFunction(const std::string &name) const
{
    for (const auto &f : funcs_)
        if (f->name() == name)
            return f.get();
    return nullptr;
}

GlobalVar &
Program::addGlobal(const std::string &name, int64_t size, int64_t align)
{
    WS_ASSERT(!findGlobal(name), "duplicate global " + name);
    globals_.push_back(GlobalVar{name, size, align, {}, -1});
    return globals_.back();
}

GlobalVar *
Program::findGlobal(const std::string &name)
{
    for (auto &g : globals_)
        if (g.name == name)
            return &g;
    return nullptr;
}

int64_t
Program::layout()
{
    int64_t addr = kStackBytes;
    for (auto &g : globals_) {
        int64_t a = g.align > 0 ? g.align : 1;
        addr = (addr + a - 1) & ~(a - 1);
        g.address = addr;
        addr += g.size;
    }
    dataEnd_ = addr;
    return addr;
}

int64_t
Program::globalAddress(const std::string &name) const
{
    for (const auto &g : globals_)
        if (g.name == name) {
            WS_ASSERT(g.address >= 0, "globalAddress before layout()");
            return g.address;
        }
    WS_PANIC("unknown global " + name);
}

std::string
Program::str() const
{
    std::ostringstream os;
    for (const auto &g : globals_)
        os << "global " << g.name << " size " << g.size << " align "
           << g.align << "\n";
    for (const auto &f : funcs_)
        os << f->str() << "\n";
    return os.str();
}

} // namespace wmstream::rtl
