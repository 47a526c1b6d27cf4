#include "spans.h"

#include <algorithm>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

uint32_t
threadIndex()
{
    static std::mutex mu;
    static std::unordered_map<std::thread::id, uint32_t> ids;
    std::lock_guard<std::mutex> lk(mu);
    auto it = ids.find(std::this_thread::get_id());
    if (it != ids.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(ids.size() + 1);
    ids.emplace(std::this_thread::get_id(), id);
    return id;
}

} // namespace

SpanLog::SpanLog() : epoch_(Clock::now()) {}

uint64_t
SpanLog::newId()
{
    std::lock_guard<std::mutex> lk(mu_);
    return nextId_++;
}

void
SpanLog::record(uint64_t id, const std::string& name, uint64_t parent,
                uint64_t request, Clock::time_point start,
                Clock::time_point end)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.request = request;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start - epoch_)
                    .count();
    s.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  end - epoch_)
                  .count();
    s.tid = threadIndex();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
}

uint64_t
SpanLog::record(const std::string& name, uint64_t parent,
                uint64_t request, Clock::time_point start,
                Clock::time_point end)
{
    uint64_t id = newId();
    record(id, name, parent, request, start, end);
    return id;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

bool
SpanLog::writeChromeTrace(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans()) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1"
           << ",\"tid\":" << s.tid << ",\"ts\":" << double(s.startNs) / 1e3
           << ",\"dur\":" << double(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
    return bool(os);
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span>& spans)
{
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
        auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].push_back({s.startNs, s.endNs});
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        // Length of the union of the children, clipped to the parent.
        int64_t covered = 0, curStart = 0, curEnd = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, s.startNs);
            b = std::min(b, s.endNs);
            if (b <= a)
                continue;
            if (open && a <= curEnd) {
                curEnd = std::max(curEnd, b);
                continue;
            }
            if (open)
                covered += curEnd - curStart;
            curStart = a;
            curEnd = b;
            open = true;
        }
        if (open)
            covered += curEnd - curStart;
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

double
unattributedShare(const std::vector<Span>& spans)
{
    std::vector<int64_t> self = selfTimesNs(spans);
    double rootTotal = 0, stageSelf = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent == 0)
            rootTotal += double(spans[i].endNs - spans[i].startNs);
        else
            stageSelf += double(self[i]);
    }
    return rootTotal <= 0 ? 0 : 1.0 - stageSelf / rootTotal;
}

std::vector<double>
durationsMs(const std::vector<Span>& spans, const std::string& name)
{
    std::vector<double> out;
    for (const Span& s : spans)
        if (s.name == name)
            out.push_back(double(s.endNs - s.startNs) / 1e6);
    return out;
}

} // namespace perfbench
