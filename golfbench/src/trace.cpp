#include "trace.hpp"

#include <fstream>

#include "stats.hpp"

namespace golfbench {

const char*
spanName(SpanKind k)
{
    switch (k) {
      case SpanKind::Op: return "op";
      case SpanKind::RunPattern: return "microbench.runPatternOnce";
      case SpanKind::RuntimeNew: return "runtime.new";
      case SpanKind::RuntimeDelete: return "runtime.delete";
      case SpanKind::Step: return "runtime.step";
      case SpanKind::MakeBatch: return "gc.make_batch";
    }
    return "?";
}

int32_t
Tracer::openSlow(SpanKind kind, uint64_t op, bool sample)
{
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    const bool record = stack_.empty() ? sample : parent >= 0;
    int32_t idx = -1;
    if (record) {
        if (spans_.size() < capacity_) {
            idx = static_cast<int32_t>(spans_.size());
            Span s;
            s.kind = kind;
            s.op = op;
            s.parent = parent;
            s.startNs = nowNs();
            spans_.push_back(s);
        } else {
            ++dropped_;
        }
    }
    stack_.push_back(idx);
    return idx;
}

void
Tracer::closeSlow(int32_t idx, uint32_t count)
{
    if (idx >= 0) {
        Span& s = spans_[static_cast<size_t>(idx)];
        s.endNs = nowNs();
        s.count = count;
    }
    stack_.pop_back();
}

std::vector<uint64_t>
Tracer::selfTimes() const
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.startNs,
                                                             s.endNs);
    }
    std::vector<uint64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = selfTime(spans_[i].startNs, spans_[i].endNs,
                           std::move(kids[i]));
    return self;
}

bool
Tracer::writeChromeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const uint64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << spanName(s.kind)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(s.startNs - base) / 1000.0
            << ",\"dur\":"
            << static_cast<double>(s.endNs - s.startNs) / 1000.0
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << ",\"count\":" << s.count << "}}";
    }
    out << "\n],\"droppedSpans\":" << dropped_ << "}\n";
    return static_cast<bool>(out);
}

} // namespace golfbench
