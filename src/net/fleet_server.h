#ifndef LLMULATOR_NET_FLEET_SERVER_H
#define LLMULATOR_NET_FLEET_SERVER_H

/**
 * @file
 * Networked fleet-serving front-end over the in-process serving
 * runtime — the ROADMAP "make serve a service" direction.
 *
 * A FleetServer owns N PredictionServer shards (clones of one trained
 * CostModel) and a loopback TCP listener speaking the length-prefixed
 * binary protocol of net/protocol.h with one blocking thread per
 * connection (self-contained: POSIX sockets only, no external deps).
 * Request handling:
 *
 *  1. parse the program text (dfir::parseProgram; failure -> a
 *     BAD_REQUEST reply, the connection stays usable),
 *  2. canonicalize it once: the SHARD RULE is
 *     `shard = canonicalHash(program) % shards`, so semantically
 *     equivalent programs — renamed values, commuted operands, dead
 *     code — always land on the same shard and therefore the same
 *     result cache, keeping per-shard hit rates high under the
 *     Zipf-skewed popularity a real fleet produces,
 *  3. probe the persistent result cache (canonical program hash,
 *     remapped input hash, metric, model version); a hit answers
 *     without touching any shard and is flagged `cacheHit` on the
 *     wire,
 *  4. dispatch through the shard's admission control
 *     (PredictionServer::submitIfAdmitted): per-priority queue-depth
 *     limits shed Low traffic first, and a full queue refuses instead
 *     of blocking — both surface as an explicit OVERLOADED reply, so
 *     an overloaded fleet degrades by answering fast, not by
 *     stalling every client,
 *  5. fill the persistent cache with the computed prediction.
 *
 * stop() (also run by the destructor) closes the listener, unblocks
 * and joins every connection thread, drains the shards, and — when a
 * persistPath is configured — atomically snapshots the persistent
 * cache so the next start() warms instantly (net/persist_cache.h).
 *
 * Shards never calibrate (FleetConfig forbids it): every shard must
 * stay on one shared weight generation or the persistent-cache model
 * version would fork across shards.
 *
 * Telemetry flows through a per-instance always-on obs::Registry
 * (`net.*` counters + `net.handle_ms`); FleetStats is a point-in-time
 * view over it plus the aggregated shard ServerStats.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/persist_cache.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace llmulator {
namespace net {

/** Fleet front-end tuning knobs. */
struct FleetConfig
{
    int port = 0;          //!< loopback TCP port; 0 = ephemeral
    int shards = 2;        //!< PredictionServer instances
    int maxConnections = 64; //!< concurrent connections (excess refused)
    size_t maxFrameBytes = 4u << 20; //!< framing guard per message
    //! Per-shard serving knobs (admission limits included). The
    //! calibration sub-config must stay disabled — see the file header.
    serve::ServeConfig serve;
    //! Persistent result-cache snapshot path; "" disables the
    //! persistent cache entirely (the shard result caches remain).
    std::string persistPath;
    size_t persistCapacity = 1u << 16; //!< persistent-cache entries
};

/**
 * Overlay the LLMULATOR_NET_* environment knobs (parsed via util/env.h)
 * onto `base`: LLMULATOR_NET_PORT, LLMULATOR_NET_SHARDS,
 * LLMULATOR_NET_MAX_CONNS, LLMULATOR_NET_CACHE_FILE, and the admission
 * depth limits LLMULATOR_NET_ADMIT_HIGH/NORMAL/LOW.
 */
FleetConfig fleetConfigFromEnv(FleetConfig base = {});

/** Point-in-time fleet statistics (front-end + aggregated shards). */
struct FleetStats
{
    uint64_t requests = 0;   //!< decoded requests handled
    uint64_t ok = 0;         //!< answered with Status::Ok
    uint64_t overloaded = 0; //!< shed or rejected by admission control
    uint64_t badRequest = 0; //!< undecodable, unparsable or unverifiable
    uint64_t errors = 0;     //!< server-side failures
    uint64_t persistHits = 0;    //!< persistent-cache answers
    uint64_t persistLookups = 0; //!< persistent-cache probes
    size_t persistSize = 0;      //!< entries currently held
    //! Warm-start view of the last load(): entries accepted / skipped
    //! because they were stamped with another model version.
    uint64_t persistLoaded = 0;
    uint64_t persistStale = 0;
    //! Sums over the shards' ServerStats.
    uint64_t shardCacheHits = 0;
    uint64_t shardCacheMisses = 0;
    uint64_t shardModelCalls = 0;
    uint64_t shardRejected = 0;
    std::array<uint64_t, serve::kNumPriorities> shardShed{{0, 0, 0}};

    /**
     * Fraction of Ok answers served from a cache (persistent-cache
     * hits plus shard result-cache hits) instead of model work.
     */
    double hitRate() const
    {
        return ok == 0
                   ? 0.0
                   : double(persistHits + shardCacheHits) / double(ok);
    }
};

/** Sharded, admission-controlled, persistently cached fleet server. */
class FleetServer
{
  public:
    /**
     * Takes ownership of one (usually trained) model and clones it per
     * shard, so every shard answers from the same weight generation.
     * Loads the persistent cache snapshot when cfg.persistPath is set.
     * The listener does NOT start until start().
     */
    FleetServer(std::unique_ptr<model::CostModel> model,
                const FleetConfig& cfg = {});
    ~FleetServer();

    FleetServer(const FleetServer&) = delete;
    FleetServer& operator=(const FleetServer&) = delete;

    /** Bind + listen on 127.0.0.1 and start accepting. LLM_CHECKs on
     *  bind failure. Idempotent until stop(). */
    void start();

    /** Close the listener, join connections, drain shards, snapshot
     *  the persistent cache. Idempotent; runs on destruction. */
    void stop();

    /** The bound port (resolved after start() when cfg.port == 0). */
    int port() const { return port_; }

    /**
     * Handle one decoded request in-process — the same path the wire
     * loop runs, exposed for tests and zero-copy local callers.
     */
    NetResponse handle(const NetRequest& req);

    /** The shard rule, exposed for tests. */
    static size_t shardOf(uint64_t canonicalHash, size_t shards)
    {
        return shards == 0 ? 0 : canonicalHash % shards;
    }

    FleetStats stats() const;

    /**
     * Connection thread objects held: live connections plus finished
     * ones the accept loop has not joined yet. Exposed for tests.
     */
    size_t connectionThreads() const;

    const obs::Registry& telemetry() const { return telemetry_; }
    size_t shardCount() const { return shards_.size(); }
    serve::PredictionServer& shard(size_t i) { return *shards_[i]; }
    const FleetConfig& config() const { return cfg_; }

  private:
    void acceptLoop();
    void connectionLoop(int fd);
    /** Join and drop the connection threads that have finished. */
    void reapConnections();

    FleetConfig cfg_;
    std::vector<std::unique_ptr<serve::PredictionServer>> shards_;
    PersistentResultCache persist_;
    uint64_t modelVersion_ = 0; //!< shared across shards, fixed

    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopped_{false};
    std::thread acceptThread_;
    mutable std::mutex connMu_;
    std::set<int> connFds_; //!< live connections (for shutdown wakeup)
    std::vector<std::thread> connThreads_;
    std::vector<std::thread::id> finishedConns_; //!< awaiting a join

    //! Always-on per-instance registry backing FleetStats.
    obs::Registry telemetry_{/*alwaysOn=*/true};
    obs::Counter& requests_;       //!< net.requests
    obs::Counter& okCount_;        //!< net.ok
    obs::Counter& overloadedCount_; //!< net.overloaded
    obs::Counter& badRequestCount_; //!< net.bad_request
    obs::Counter& errorCount_;     //!< net.error
    obs::Counter& persistHits_;    //!< net.persist.hits
    obs::Counter& persistLookups_; //!< net.persist.lookups
    obs::Histogram& handleMs_;     //!< net.handle_ms
    uint64_t persistLoaded_ = 0;
    uint64_t persistStale_ = 0;
};

} // namespace net
} // namespace llmulator

#endif // LLMULATOR_NET_FLEET_SERVER_H
