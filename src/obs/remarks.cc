#include "obs/remarks.h"

#include <sstream>

namespace wmstream::obs {

const char *remarkVerdictName(RemarkVerdict v)
{
    return v == RemarkVerdict::Applied ? "applied" : "missed";
}

Remark &Remark::arg(std::string name, std::string value)
{
    args.push_back({std::move(name), std::move(value)});
    return *this;
}

Remark &Remark::arg(std::string name, int64_t value)
{
    args.push_back({std::move(name), std::to_string(value)});
    return *this;
}

std::string Remark::str() const
{
    std::ostringstream os;
    os << loc.str() << ": " << pass << " " << remarkVerdictName(verdict)
       << ": " << reason;
    if (loopId >= 0)
        os << " [loop " << loopId << "]";
    for (const RemarkArg &a : args)
        os << " " << a.name << "=" << a.value;
    return os.str();
}

int RemarkCollector::loopId(const std::string &function,
                            const std::string &header, SourcePos loc)
{
    for (LoopRecord &l : loops_) {
        if (l.function == function && l.header == header) {
            if (loc.valid() && !l.loc.valid())
                l.loc = loc;
            return l.id;
        }
    }
    LoopRecord rec;
    rec.id = static_cast<int>(loops_.size());
    rec.function = function;
    rec.header = header;
    rec.loc = loc;
    loops_.push_back(rec);
    return rec.id;
}

static bool sameRemark(const Remark &a, const Remark &b)
{
    if (a.pass != b.pass || a.function != b.function ||
        a.loopId != b.loopId || a.verdict != b.verdict ||
        a.reason != b.reason || a.loc.line != b.loc.line ||
        a.loc.column != b.loc.column || a.args.size() != b.args.size())
        return false;
    for (size_t i = 0; i < a.args.size(); ++i)
        if (a.args[i].name != b.args[i].name ||
            a.args[i].value != b.args[i].value)
            return false;
    return true;
}

Remark &RemarkCollector::add(Remark r)
{
    for (Remark &prev : remarks_)
        if (sameRemark(prev, r))
            return prev;
    remarks_.push_back(std::move(r));
    return remarks_.back();
}

const LoopRecord *RemarkCollector::findLoop(int id) const
{
    for (const LoopRecord &l : loops_)
        if (l.id == id)
            return &l;
    return nullptr;
}

std::vector<const Remark *>
RemarkCollector::byReason(const std::string &reason) const
{
    std::vector<const Remark *> out;
    for (const Remark &r : remarks_)
        if (r.reason == reason)
            out.push_back(&r);
    return out;
}

LoopRemarkSite::LoopRemarkSite(RemarkCollector &remarks, const char *pass,
                               const std::string &function,
                               const std::string &header, SourcePos loc)
    : remarks_(remarks), pass_(pass), function_(function),
      loopId_(remarks.loopId(function, header, loc)),
      loc_(remarks.findLoop(loopId_)->loc)
{
}

Remark LoopRemarkSite::make(RemarkVerdict verdict, const char *reason,
                            SourcePos at) const
{
    Remark r;
    r.pass = pass_;
    r.function = function_;
    r.loopId = loopId_;
    r.loc = at.valid() ? at : loc_;
    r.verdict = verdict;
    r.reason = reason;
    return r;
}

Remark LoopRemarkSite::missed(const char *reason, SourcePos at) const
{
    return make(RemarkVerdict::Missed, reason, at);
}

Remark LoopRemarkSite::applied(const char *reason, SourcePos at) const
{
    return make(RemarkVerdict::Applied, reason, at);
}

void RemarkCollector::writeJson(JsonWriter &w,
                                const std::string &sourceFile) const
{
    w.beginObject();
    w.field("schema_version", static_cast<int64_t>(1));
    w.field("file", sourceFile);
    w.key("loops");
    w.beginArray();
    for (const LoopRecord &l : loops_) {
        w.beginObject();
        w.field("id", static_cast<int64_t>(l.id));
        w.field("function", l.function);
        w.field("header", l.header);
        w.field("line", static_cast<int64_t>(l.loc.line));
        w.field("column", static_cast<int64_t>(l.loc.column));
        w.endObject();
    }
    w.endArray();
    w.key("remarks");
    w.beginArray();
    for (const Remark &r : remarks_) {
        w.beginObject();
        w.field("pass", r.pass);
        w.field("function", r.function);
        w.field("loop", static_cast<int64_t>(r.loopId));
        w.field("line", static_cast<int64_t>(r.loc.line));
        w.field("column", static_cast<int64_t>(r.loc.column));
        w.field("verdict", remarkVerdictName(r.verdict));
        w.field("reason", r.reason);
        w.key("args");
        w.beginObject();
        for (const RemarkArg &a : r.args)
            w.field(a.name, a.value);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string RemarkCollector::text(const std::string &sourceFile) const
{
    std::ostringstream os;
    for (const Remark &r : remarks_)
        os << sourceFile << ":" << r.str() << "\n";
    return os.str();
}

} // namespace wmstream::obs
