#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

/**
 * @file
 * The benchmark's own trace spans, recorded around each call it makes
 * into a layer of the system (FleetClient::call, FleetServer::handle,
 * PredictionServer::submitAsync, trainCostModelUncached, ...). A span
 * has a name, start, end, the span that caused it, and a request id
 * shared by all spans of one request. Spans stay in memory and are
 * written as chrome-trace JSON when the run ends.
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover; unattributedShare() turns the self
 * times into the "do the stages add up" check.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/** One completed span. Times are ns since the log's epoch. */
struct Span
{
    std::string name;
    uint64_t id = 0;      //!< unique within the log, never 0
    uint64_t parent = 0;  //!< causing span's id; 0 = a root span
    uint64_t request = 0; //!< shared by every span of one request
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t tid = 0;     //!< dense per-thread id, for the trace viewer
};

/** Thread-safe in-memory span store. */
class SpanLog
{
  public:
    SpanLog();

    /** A fresh span id, so a parent can be named before it ends. */
    uint64_t newId();

    /** Record a span under a pre-allocated id. */
    void record(uint64_t id, const std::string& name, uint64_t parent,
                uint64_t request, Clock::time_point start,
                Clock::time_point end);

    /** Record a span under a fresh id; returns that id. */
    uint64_t record(const std::string& name, uint64_t parent,
                    uint64_t request, Clock::time_point start,
                    Clock::time_point end);

    std::vector<Span> spans() const;

    /** Write every span as chrome://tracing JSON; false on I/O error. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 1;
};

/** Self time (ns) of every span, aligned with `spans`. */
std::vector<int64_t> selfTimesNs(const std::vector<Span>& spans);

/**
 * 1 - (sum of the self times of all non-root spans) / (sum of the root
 * spans' durations). 0 when the stages below the roots cover every
 * root completely; 0 for an empty or zero-length log.
 */
double unattributedShare(const std::vector<Span>& spans);

/** Durations (ms) of every span named `name`. */
std::vector<double> durationsMs(const std::vector<Span>& spans,
                                const std::string& name);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
