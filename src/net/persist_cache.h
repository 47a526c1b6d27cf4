#ifndef LLMULATOR_NET_PERSIST_CACHE_H
#define LLMULATOR_NET_PERSIST_CACHE_H

/**
 * @file
 * Disk-backed LRU cache of finished predictions — the piece that lets
 * a restarted fleet server warm instantly instead of re-running the
 * model for every popular program.
 *
 * In memory it is one mutex-guarded LRU map from serve::ResultKey
 * (canonical program hash, remapped input hash, metric, model version)
 * to model::NumericPrediction; the fleet front-end probes it before
 * dispatching to a shard and fills it after every computed prediction.
 *
 * ## Persistence format
 *
 *   u32 magic "LMPC"        (0x4C4D5043)
 *   u32 format version      (kFormatVersion)
 *   u32 numerics version    (model::kNumericsVersion at save time)
 *   u64 entry count
 *   per entry: u64 program, u64 input, i32 metric, u64 modelVersion,
 *              then the prediction exactly as on the wire (i64 value,
 *              u32+i32* digits, u32+f64* digitProbs, f64 logProb)
 *
 * save() is atomic (temp file + rename, pid+sequence staging suffix —
 * the model_cache pattern), so a crashed or concurrent writer can
 * never leave a torn file for the next startup to read. load() is
 * paranoid in the other direction: wrong magic, format version or
 * numerics version loads nothing (a snapshot computed under other float
 * numerics would answer with values this build no longer serves),
 * truncation keeps every entry decoded before the cut, and entries from
 * a different model version are skipped — each with a one-line stderr
 * warning, never a crash (pinned by test_net).
 */

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "model/numeric_head.h"
#include "serve/result_cache.h"

namespace llmulator {
namespace net {

/** Thread-safe LRU of predictions with atomic snapshot persistence. */
class PersistentResultCache
{
  public:
    static constexpr uint32_t kMagic = 0x4C4D5043; // "LMPC"
    static constexpr uint32_t kFormatVersion = 2; //!< 2: numerics field

    /** `capacity` caps in-memory (and therefore saved) entries. */
    explicit PersistentResultCache(size_t capacity);

    /** Probe; refreshes LRU order on hit. */
    bool get(const serve::ResultKey& key, model::NumericPrediction& out);

    /** Insert/refresh; evicts the LRU tail at capacity. */
    void put(const serve::ResultKey& key,
             const model::NumericPrediction& value);

    size_t size() const;

    /** What load() found on disk. */
    struct LoadStats
    {
        bool fileFound = false; //!< false = clean cold start, no warning
        bool clean = true;      //!< false = header rejected or truncated
        size_t loaded = 0;      //!< entries accepted into memory
        size_t staleSkipped = 0; //!< entries from another model version
    };

    /**
     * Merge a snapshot from `path` into the cache, keeping only
     * entries stamped with `modelVersion` (stale weight generations
     * must not answer queries); a snapshot saved under another
     * model::kNumericsVersion loads nothing. Corruption — wrong magic or format
     * version, truncated entries — degrades to whatever decoded
     * cleanly, with a warning on stderr.
     */
    LoadStats load(const std::string& path, uint64_t modelVersion);

    /** Atomically write the current entries to `path` (LRU order). */
    bool save(const std::string& path) const;

  private:
    using Entry = std::pair<serve::ResultKey, model::NumericPrediction>;

    mutable std::mutex mu_;
    std::list<Entry> lru_; //!< most recently used at the front
    std::unordered_map<serve::ResultKey, std::list<Entry>::iterator,
                       serve::ResultKeyHash>
        index_;
    size_t capacity_;
};

} // namespace net
} // namespace llmulator

#endif // LLMULATOR_NET_PERSIST_CACHE_H
