/**
 * @file
 * The benchmark's own tests: its traffic is a pure function of the
 * seed, its oracle and failure accounting catch wrong, refused and
 * dropped answers, and the "do the stages add up" arithmetic is right.
 */

#include <arpa/inet.h>
#include <atomic>
#include <cmath>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "synth/generators.h"
#include "util/rng.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::vector<Query>
smallCorpus()
{
    return fleetCorpus(designPool(3, 1, 2), 0.25, 3);
}

model::CostModelConfig
tinyConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 320;
    return cfg;
}

/** Accepts connections and closes each at once: a dropping server. */
class DroppingListener
{
  public:
    DroppingListener()
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof addr),
                  0);
        EXPECT_EQ(::listen(fd_, 16), 0);
        socklen_t len = sizeof addr;
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] {
            while (!stop_) {
                pollfd p{fd_, POLLIN, 0};
                if (::poll(&p, 1, 20) > 0) {
                    int c = ::accept(fd_, nullptr, nullptr);
                    if (c >= 0)
                        ::close(c);
                }
            }
        });
    }
    ~DroppingListener()
    {
        stop_ = true;
        thread_.join();
        ::close(fd_);
    }
    DroppingListener(const DroppingListener&) = delete;
    DroppingListener& operator=(const DroppingListener&) = delete;

    int port() const { return port_; }

  private:
    int fd_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace

TEST(Traffic, ZipfFavoursLowRanks)
{
    std::vector<double> cdf = zipfCdf(50, 1.0);
    EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
    for (size_t i = 1; i < cdf.size(); ++i)
        EXPECT_GT(cdf[i], cdf[i - 1]);
    EXPECT_EQ(zipfRank(cdf, 0.0), 0u);
    EXPECT_EQ(zipfRank(cdf, 0.999999), 49u);
    // Rank 0 carries 1 / H_50 of the mass under skew 1.
    EXPECT_NEAR(cdf[0], 1.0 / 4.499205338, 1e-6);
}

TEST(Traffic, ScheduleIsAPureFunctionOfTheSeed)
{
    std::vector<double> cdf = zipfCdf(200, 1.0);
    auto a = arrivalSchedule(cdf, 100, 5, 0.05, 42);
    auto b = arrivalSchedule(cdf, 100, 5, 0.05, 42);
    auto c = arrivalSchedule(cdf, 100, 5, 0.05, 43);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 300u);
    bool differs = a.size() != c.size();
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].dueS, b[i].dueS);
        EXPECT_EQ(a[i].entry, b[i].entry);
        EXPECT_EQ(a[i].malformed, b[i].malformed);
        EXPECT_LT(a[i].dueS, 5.0);
        if (i > 0) {
            EXPECT_GE(a[i].dueS, a[i - 1].dueS);
        }
        if (i < c.size())
            differs = differs || a[i].entry != c[i].entry;
    }
    EXPECT_TRUE(differs);
}

TEST(Traffic, CorpusIsAPureFunctionOfTheSeed)
{
    std::vector<Query> a = smallCorpus(), b = smallCorpus();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].program, b[i].program);
        EXPECT_EQ(a[i].metric, b[i].metric);
        EXPECT_EQ(a[i].data.scalars, b[i].data.scalars);
    }
    std::vector<std::string> bad = malformedPrograms(a, 4, 3);
    EXPECT_EQ(bad, malformedPrograms(b, 4, 3));
}

TEST(Oracle, AcceptsAnyVariantOfTheSameCanonicalKey)
{
    std::vector<Query> corpus = smallCorpus();
    model::CostModel m(tinyConfig());
    Oracle oracle(m, corpus, 2);
    size_t shared = 0;
    for (size_t i = 0; i < corpus.size(); ++i)
        for (size_t j = i + 1; j < corpus.size(); ++j)
            if (oracle.key(i) == oracle.key(j) &&
                corpus[i].program != corpus[j].program) {
                EXPECT_TRUE(oracle.accepts(i, oracle.reference(j)));
                EXPECT_TRUE(oracle.accepts(j, oracle.reference(i)));
                ++shared;
            }
    EXPECT_GT(shared, 0u) << "the corpus should hold equivalent mutants";
}

TEST(Oracle, AcceptsAForwardSharedAcrossMetricsOfEquivalentPrograms)
{
    // A program asked Power and an equivalent mutant asked Area, in one
    // micro-batch: the server encodes the batch's first variant once for
    // both metrics, so the Area answer is the first variant's, a
    // (variant, metric) pair no query asks for.
    const dfir::DataflowGraph g = designPool(3, 0, 1)[0].graph;
    llmulator::util::Rng rng(5);
    const dfir::DataflowGraph mut =
        llmulator::synth::equivalentMutant(g, rng).graph;
    std::vector<Query> qs = {makeQuery(g, nullptr, model::Metric::Power),
                             makeQuery(mut, nullptr, model::Metric::Area)};
    ASSERT_NE(qs[0].program, qs[1].program);
    model::CostModel m(tinyConfig());
    Oracle oracle(m, qs, 1);

    llmulator::serve::ServeConfig sc;
    sc.workers = 1;
    sc.cacheCapacity = 0;
    sc.batchTimeoutUs = 200000; // wait for the second request
    llmulator::serve::PredictionServer server(m.clone(), sc);
    auto f0 = server.submitAsync(qs[0].graph, nullptr, qs[0].metric);
    auto f1 = server.submitAsync(qs[1].graph, nullptr, qs[1].metric);
    EXPECT_TRUE(oracle.accepts(0, f0.get()));
    EXPECT_TRUE(oracle.accepts(1, f1.get()));
    EXPECT_EQ(server.stats().batches, 1u);
}

class FleetFailures : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        corpus = smallCorpus();
        for (const Query& q : corpus)
            requests.push_back(toRequest(q));
        for (std::string& t : malformedPrograms(corpus, 2, 5)) {
            net::NetRequest r;
            r.program = std::move(t);
            malformed.push_back(std::move(r));
        }
        model::CostModel m(tinyConfig());
        oracle = Oracle(m, corpus, 2);
        sched = arrivalSchedule(zipfCdf(corpus.size(), 1.0), 400, 0.1, 0.2,
                                9);
        ASSERT_GT(sched.size(), 10u);
        net::FleetConfig fc;
        fc.serve.workers = 1;
        fleet = std::make_unique<net::FleetServer>(
            std::make_unique<model::CostModel>(tinyConfig()), fc);
        fleet->start();
    }

    std::vector<Query> corpus;
    std::vector<net::NetRequest> requests, malformed;
    Oracle oracle;
    std::vector<Arrival> sched;
    std::unique_ptr<net::FleetServer> fleet;
};

TEST_F(FleetFailures, CorrectServerHasNoFailures)
{
    auto sent = runOpenLoop(sched, requests, malformed, fleet->port(),
                            nullptr, 2, nullptr);
    PhaseStats st = summarize(sched, sent, oracle, 0.1);
    EXPECT_EQ(st.requests, sched.size());
    EXPECT_EQ(st.failed, 0u);
    EXPECT_LT(st.p99Ms, 1e6);
}

TEST_F(FleetFailures, CorruptedReferenceRaisesFailures)
{
    auto sent = runOpenLoop(sched, requests, malformed, 0, fleet.get(), 2,
                            nullptr);
    std::vector<model::NumericPrediction> refs;
    for (size_t i = 0; i < oracle.size(); ++i)
        refs.push_back(oracle.reference(i));
    // Flip the last bit of one digit probability of every reference the
    // schedule's first request can be answered with.
    const size_t first = sched[0].malformed ? sched[1].entry : sched[0].entry;
    for (size_t i = 0; i < refs.size(); ++i)
        if (oracle.key(i) == oracle.key(first))
            refs[i].digitProbs[0] =
                std::nextafter(refs[i].digitProbs[0], 2.0);
    Oracle corrupted(corpus, refs);
    PhaseStats good = summarize(sched, sent, oracle, 0.1);
    PhaseStats bad = summarize(sched, sent, corrupted, 0.1);
    EXPECT_EQ(good.failed, 0u);
    EXPECT_GT(bad.failed, 0u);
    EXPECT_EQ(bad.wrong, bad.failed);
}

TEST_F(FleetFailures, OverloadedReplyRaisesFailures)
{
    auto sent = runOpenLoop(sched, requests, malformed, 0, fleet.get(), 2,
                            nullptr);
    sent[0].resp.status = net::Status::Overloaded;
    PhaseStats st = summarize(sched, sent, oracle, 0.1);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.overloaded, 1u);
    EXPECT_EQ(st.wrong, 0u);
    // A refused request misses any latency limit.
    EXPECT_EQ(quantile({1e6}, 1.0), 1e6);
}

TEST_F(FleetFailures, MalformedProgramMustBeRefused)
{
    size_t m = 0;
    while (m < sched.size() && !sched[m].malformed)
        ++m;
    ASSERT_LT(m, sched.size());
    auto sent = runOpenLoop(sched, requests, malformed, 0, fleet.get(), 2,
                            nullptr);
    EXPECT_EQ(sent[m].resp.status, net::Status::BadRequest);
    sent[m].resp.status = net::Status::Ok;
    PhaseStats st = summarize(sched, sent, oracle, 0.1);
    EXPECT_EQ(st.wrong, 1u);
}

TEST_F(FleetFailures, DroppedConnectionRaisesFailures)
{
    DroppingListener drop;
    auto sent = runOpenLoop(sched, requests, malformed, drop.port(), nullptr,
                            2, nullptr);
    PhaseStats st = summarize(sched, sent, oracle, 0.1);
    EXPECT_EQ(st.failed, sched.size());
    EXPECT_EQ(st.transport, sched.size());
}

TEST(Spans, UnattributedShareOfHandBuiltSpans)
{
    // root [0, 10] with children A [1, 4] and B [5, 9]; B has child
    // C [6, 7]. Self times: A 3, B 3, C 1 -> 7 of 10 attributed.
    auto at = [](int ns) { return Clock::time_point(std::chrono::nanoseconds(ns)); };
    SpanLog log;
    const uint64_t root = log.newId();
    log.record("A", root, 1, at(1), at(4));
    const uint64_t b = log.record("B", root, 1, at(5), at(9));
    log.record("C", b, 1, at(6), at(7));
    log.record(root, "root", 0, 1, at(0), at(10));
    std::vector<Span> spans = log.spans();
    std::vector<int64_t> self = selfTimesNs(spans);
    ASSERT_EQ(self.size(), 4u);
    EXPECT_EQ(self[0], 3); // A
    EXPECT_EQ(self[1], 3); // B minus C
    EXPECT_EQ(self[2], 1); // C
    EXPECT_EQ(self[3], 3); // root minus the union of A and B
    EXPECT_DOUBLE_EQ(unattributedShare(spans), 0.3);
}

TEST(Spans, OverlappingChildrenAreCountedOnce)
{
    auto at = [](int ns) { return Clock::time_point(std::chrono::nanoseconds(ns)); };
    SpanLog log;
    const uint64_t root = log.newId();
    log.record("A", root, 1, at(0), at(6));
    log.record("B", root, 1, at(4), at(10));
    log.record(root, "root", 0, 1, at(0), at(10));
    std::vector<int64_t> self = selfTimesNs(log.spans());
    EXPECT_EQ(self[2], 0); // the union [0, 10] covers the root
    EXPECT_DOUBLE_EQ(unattributedShare({}), 0.0);
}
