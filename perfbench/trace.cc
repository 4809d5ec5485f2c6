#include "perfbench/trace.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::Scope::Scope(Tracer *tracer, const char *layer) : tracer_(tracer)
{
    if (!tracer_)
        return;
    Span s;
    s.id = static_cast<uint32_t>(tracer_->spans_.size() + 1);
    if (!tracer_->open_.empty()) {
        const Span &parent = tracer_->spans_[tracer_->open_.back()];
        s.parent = parent.id;
        s.group = parent.group;
    } else {
        s.group = s.id;
    }
    s.layer = layer;
    index_ = tracer_->spans_.size();
    tracer_->open_.push_back(index_);
    tracer_->spans_.push_back(s);
    // Start the clock last so the bookkeeping above is charged to the
    // parent, not to this layer.
    tracer_->spans_[index_].startNs = tracer_->nowNs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].endNs = tracer_->nowNs();
    tracer_->open_.pop_back();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::vector<int64_t> childNs(spans_.size() + 1, 0);
    for (const Span &s : spans_)
        if (s.parent != 0)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> self;
    for (const Span &s : spans_)
        self[s.layer] +=
            static_cast<double>(s.endNs - s.startNs - childNs[s.id]) / 1e6;
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.layer
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(s.startNs) / 1e3
            << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"group\":" << s.group << "}}";
    }
    out << "\n]}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
