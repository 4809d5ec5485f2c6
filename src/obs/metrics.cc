#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

namespace wmstream::obs {

namespace {

/** Escape a label value per the exposition format. */
std::string
labelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** Shortest exact rendering: integers without a trailing ".0". */
std::string
numText(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
            std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // anonymous namespace

std::string
MetricsRegistry::metricName(const std::string &name)
{
    std::string out = "wm_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

void
MetricsRegistry::add(const std::string &name, bool isCounter, double v,
                     const std::vector<MetricLabel> &labels,
                     const std::string &help)
{
    Sample s;
    s.name = metricName(name);
    s.isCounter = isCounter;
    s.help = help;
    s.labels = labels;
    s.value = v;
    samples_.push_back(std::move(s));
}

void
MetricsRegistry::counter(const std::string &name, double v,
                         const std::vector<MetricLabel> &labels,
                         const std::string &help)
{
    add(name, true, v, labels, help);
}

void
MetricsRegistry::gauge(const std::string &name, double v,
                       const std::vector<MetricLabel> &labels,
                       const std::string &help)
{
    add(name, false, v, labels, help);
}

void
MetricsRegistry::fromCounters(const CounterRegistry &reg,
                              const std::string &prefix,
                              const std::vector<MetricLabel> &labels)
{
    for (const auto &kv : reg.entries())
        counter(prefix + kv.first, static_cast<double>(kv.second),
                labels);
}

std::string
MetricsRegistry::renderText() const
{
    std::string out;
    // HELP/TYPE headers once per family, samples grouped under their
    // family in first-seen order (the exposition format requires all
    // samples of a family to be consecutive).
    std::vector<std::string> families;
    for (const Sample &s : samples_) {
        bool seen = false;
        for (const std::string &f : families)
            if (f == s.name) {
                seen = true;
                break;
            }
        if (!seen)
            families.push_back(s.name);
    }
    for (const std::string &family : families) {
        bool headered = false;
        for (const Sample &s : samples_) {
            if (s.name != family)
                continue;
            if (!headered) {
                if (!s.help.empty())
                    out += "# HELP " + s.name + " " + s.help + "\n";
                out += "# TYPE " + s.name +
                       (s.isCounter ? " counter\n" : " gauge\n");
                headered = true;
            }
            out += s.name;
            if (!s.labels.empty()) {
                out += "{";
                for (size_t i = 0; i < s.labels.size(); ++i) {
                    if (i)
                        out += ",";
                    out += s.labels[i].first + "=\"" +
                           labelEscape(s.labels[i].second) + "\"";
                }
                out += "}";
            }
            out += ' ';
            out += numText(s.value);
            out += '\n';
        }
    }
    return out;
}

} // namespace wmstream::obs
