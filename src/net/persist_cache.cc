#include "net/persist_cache.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "model/cost_model.h"
#include "net/protocol.h"
#include "util/string_util.h"

namespace llmulator {
namespace net {

PersistentResultCache::PersistentResultCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

bool
PersistentResultCache::get(const serve::ResultKey& key,
                           model::NumericPrediction& out)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->second;
    return true;
}

void
PersistentResultCache::put(const serve::ResultKey& key,
                           const model::NumericPrediction& value)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = value;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, value);
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

size_t
PersistentResultCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return lru_.size();
}

PersistentResultCache::LoadStats
PersistentResultCache::load(const std::string& path, uint64_t modelVersion)
{
    LoadStats stats;
    std::ifstream in(path, std::ios::binary);
    if (!in) // cold start: nothing on disk yet, not a fault
        return stats;
    stats.fileFound = true;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    wire::Reader r(bytes);
    if (r.u32() != kMagic || !r.ok()) {
        std::fprintf(stderr,
                     "[llm_net] persistent cache %s: bad magic, ignoring\n",
                     path.c_str());
        stats.clean = false;
        return stats;
    }
    uint32_t version = r.u32();
    if (!r.ok() || version != kFormatVersion) {
        std::fprintf(
            stderr,
            "[llm_net] persistent cache %s: format version %u (want %u), "
            "ignoring\n",
            path.c_str(), version, kFormatVersion);
        stats.clean = false;
        return stats;
    }
    uint32_t numerics = r.u32();
    if (r.ok() && numerics != model::kNumericsVersion) {
        std::fprintf(stderr,
                     "[llm_net] persistent cache %s: numerics version %u "
                     "(want %u), ignoring\n",
                     path.c_str(), numerics, model::kNumericsVersion);
        stats.clean = false;
        return stats;
    }
    uint64_t count = r.u64();
    if (!r.ok()) // truncated inside the header
        stats.clean = false;
    for (uint64_t i = 0; r.ok() && i < count; ++i) {
        serve::ResultKey key;
        key.program = r.u64();
        key.input = r.u64();
        key.metric = r.i32();
        key.version = r.u64();
        model::NumericPrediction pred;
        pred.value = r.i64();
        uint32_t nd = r.u32();
        if (r.remaining() / 4 < nd) { // truncated digit run
            stats.clean = false;
            break;
        }
        pred.digits.reserve(nd);
        for (uint32_t d = 0; r.ok() && d < nd; ++d)
            pred.digits.push_back(r.i32());
        uint32_t np = r.u32();
        if (r.remaining() / 8 < np) {
            stats.clean = false;
            break;
        }
        pred.digitProbs.reserve(np);
        for (uint32_t p = 0; r.ok() && p < np; ++p)
            pred.digitProbs.push_back(r.f64());
        pred.logProb = r.f64();
        if (!r.ok()) { // entry ran past the end of the file
            stats.clean = false;
            break;
        }
        if (key.version != modelVersion) {
            ++stats.staleSkipped;
            continue;
        }
        put(key, pred);
        ++stats.loaded;
    }
    if (!stats.clean)
        std::fprintf(stderr,
                     "[llm_net] persistent cache %s: truncated after %zu "
                     "entries, keeping what loaded\n",
                     path.c_str(), stats.loaded);
    if (stats.staleSkipped > 0)
        std::fprintf(stderr,
                     "[llm_net] persistent cache %s: skipped %zu entries "
                     "from another model version\n",
                     path.c_str(), stats.staleSkipped);
    return stats;
}

bool
PersistentResultCache::save(const std::string& path) const
{
    std::string bytes;
    {
        std::lock_guard<std::mutex> lk(mu_);
        wire::putU32(bytes, kMagic);
        wire::putU32(bytes, kFormatVersion);
        wire::putU32(bytes, model::kNumericsVersion);
        wire::putU64(bytes, lru_.size());
        for (const Entry& e : lru_) {
            wire::putU64(bytes, e.first.program);
            wire::putU64(bytes, e.first.input);
            wire::putI32(bytes, e.first.metric);
            wire::putU64(bytes, e.first.version);
            wire::putI64(bytes, e.second.value);
            wire::putU32(bytes,
                         static_cast<uint32_t>(e.second.digits.size()));
            for (int d : e.second.digits)
                wire::putI32(bytes, d);
            wire::putU32(
                bytes, static_cast<uint32_t>(e.second.digitProbs.size()));
            for (double p : e.second.digitProbs)
                wire::putF64(bytes, p);
            wire::putF64(bytes, e.second.logProb);
        }
    }
    // Atomic publish, exactly like eval/model_cache: stage under a
    // pid+sequence name, rename into place, clean up on any failure.
    static std::atomic<unsigned long> seq{0};
    std::string tmp = path + util::format(".tmp.%ld.%lu",
                                          static_cast<long>(::getpid()),
                                          seq.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "[llm_net] persistent cache: cannot stage %s\n",
                         tmp.c_str());
            return false;
        }
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace net
} // namespace llmulator
