#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

/**
 * @file
 * The correctness oracle. References come from the in-process
 * sequential path — a PredictionServer with batchMax 1 and its result
 * cache off, so every query runs its own forward and decode — which the
 * repository's tests pin equal to the wire and batched answers.
 *
 * An answer is correct when it equals, bit for bit in every field the
 * wire carries, the prediction the sequential path gives for *some*
 * equivalent variant: a query whose program has the same canonical key
 * (canonical program hash, remapped input hash), asked the same metric.
 * A cache legitimately answers an equivalent mutant with the prediction
 * of whichever variant it saw first, and a micro-batch shares one
 * encoder forward between equivalent requests of different metrics, so
 * the variant may be one the corpus only asks other metrics of; the
 * oracle computes references for those pairs too.
 */

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "corpus.h"
#include "model/numeric_head.h"

namespace perfbench {

/** Bitwise equality of every field of two predictions. */
bool samePrediction(const model::NumericPrediction& a,
                    const model::NumericPrediction& b);

/** Canonical identity of a query, as the serving cache keys it. */
using CanonKey = std::tuple<uint64_t, uint64_t, int>;
CanonKey canonicalKey(const Query& q);

class Oracle
{
  public:
    Oracle() = default;

    /**
     * References for every query and every (equivalent variant, metric)
     * pair above, computed on a clone of `m` by a PredictionServer with
     * batchMax 1, caches off and `workers` workers (workers never share
     * a forward, so this is the sequential path run in parallel).
     */
    Oracle(const model::CostModel& m, const std::vector<Query>& queries,
           int workers);

    /**
     * Build from each query's own reference only (tests corrupt them on
     * purpose): the accepted answers of a key are those references.
     */
    Oracle(const std::vector<Query>& queries,
           std::vector<model::NumericPrediction> refs);

    /** The sequential path's answer to query i itself. */
    const model::NumericPrediction& reference(size_t i) const
    {
        return refs_[i];
    }
    const CanonKey& key(size_t i) const { return keys_[i]; }
    size_t size() const { return refs_.size(); }

    /** Whether `p` is a correct answer to query `i`. */
    bool accepts(size_t i, const model::NumericPrediction& p) const;

  private:
    std::vector<model::NumericPrediction> refs_;
    std::vector<CanonKey> keys_;
    //! Every accepted answer per canonical key.
    std::map<CanonKey, std::vector<model::NumericPrediction>> accepted_;
};

/** Outcome class of one fleet request. */
enum class Verdict
{
    Correct,    //!< right status and, when Ok, an accepted prediction
    Transport,  //!< connection dropped / send or receive failed
    Overloaded, //!< OVERLOADED reply
    BadStatus,  //!< any other status than the expected one
    Wrong       //!< Ok, but the prediction matches no reference
};

/**
 * Judge one fleet reply. A malformed request must be answered
 * BAD_REQUEST; any other request Ok, with `modelVersion` 0 (the
 * benchmark never swaps weights) and a prediction the oracle accepts.
 */
Verdict judge(const Oracle& oracle, size_t entry, bool malformed,
              bool transportOk, const net::NetResponse& resp);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
