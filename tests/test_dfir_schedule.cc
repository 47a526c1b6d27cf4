/**
 * @file
 * Schedule-aware dependence analysis tests: direction vectors and the
 * interchange-legality matrix on hand-built nests, reduction detection,
 * graceful non-affine/imperfect handling, the pin that schedule and
 * tensor-name variants keep distinct canonicalHash values, the shape of
 * synth::scheduleMutant's interchanges (one legal transposition per
 * changed nest), and the regression that mutateProgram never
 * interchanges a dependence-carrying nest.
 */

#include <gtest/gtest.h>

#include <set>

#include "dfir/builder.h"
#include "dfir/passes.h"
#include "dfir/printer.h"
#include "dfir/schedule.h"
#include "synth/generators.h"
#include "util/string_util.h"
#include "workloads/workloads.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;

/** C[i][j] += A[i][k] * B[k][j] under the given loop order. */
DataflowGraph
gemmGraph(const std::vector<std::string>& order)
{
    Operator op;
    op.name = "gemm";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N"), p("N")}),
                  tensor("B", {p("N"), p("N")}),
                  tensor("C", {p("N"), p("N")})};
    auto body = assign(
        "C", {v("i"), v("j")},
        badd(a("C", {v("i"), v("j")}),
             bmul(a("A", {v("i"), v("k")}), a("B", {v("k"), v("j")}))));
    StmtPtr nest = forLoop(order[2], c(0), p("N"), {body});
    nest = forLoop(order[1], c(0), p("N"), {nest});
    nest = forLoop(order[0], c(0), p("N"), {nest});
    op.body = {nest};

    DataflowGraph g;
    g.name = "gemm_" + order[0] + order[1] + order[2];
    g.ops = {op};
    g.calls = {{"gemm"}};
    return g;
}

/** In-place stencil: B[i][j] = B[i-1][j+1] — carries a (<,>) vector. */
DataflowGraph
stencilGraph(bool swapped_order = false)
{
    Operator op;
    op.name = "shift";
    op.scalarParams = {"N"};
    op.tensors = {tensor("B", {p("N"), p("N")})};
    auto body =
        assign("B", {v("i"), v("j")},
               a("B", {bsub(v("i"), c(1)), badd(v("j"), c(1))}));
    StmtPtr inner = forLoop(swapped_order ? "i" : "j", c(1), p("N"), {body});
    StmtPtr nest =
        forLoop(swapped_order ? "j" : "i", c(1), p("N"), {inner});
    op.body = {nest};

    DataflowGraph g;
    g.name = "shift";
    g.ops = {op};
    g.calls = {{"shift"}};
    return g;
}

/** One band level rendered with everything an interchange moves. */
std::string
loopKey(const Loop& l)
{
    return l.var + "|" + printExpr(l.lower) + "|" + printExpr(l.upper) +
           "|" + std::to_string(l.step) + "|" + std::to_string(l.unroll) +
           "|" + std::to_string(l.parallel);
}

/** The maximal perfect band of a `for` (keys) and its body below. */
std::vector<std::string>
bandKeys(const StmtPtr& s, std::string* inner)
{
    std::vector<std::string> keys;
    const Stmt* cur = s.get();
    keys.push_back(loopKey(cur->loop));
    while (cur->body.size() == 1 && cur->body[0]->kind == StmtKind::For) {
        cur = cur->body[0].get();
        keys.push_back(loopKey(cur->loop));
    }
    inner->clear();
    for (const StmtPtr& b : cur->body)
        *inner += printStmt(b);
    return keys;
}

TEST(Schedule, GemmDirectionVectorAndLegality)
{
    DataflowGraph g = gemmGraph({"i", "j", "k"});
    auto nests = analyzeOperator(g.ops[0]);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    EXPECT_EQ(n.depth(), 3);
    EXPECT_TRUE(n.perfect);
    EXPECT_FALSE(n.conservative);
    EXPECT_EQ(n.nonAffineAccesses, 0u);

    // The only dependence is the C accumulation, carried by k: (=,=,<).
    ASSERT_EQ(n.deps.size(), 1u);
    EXPECT_EQ(n.deps[0].tensor, "C");
    ASSERT_EQ(n.deps[0].dirs.size(), 3u);
    EXPECT_EQ(n.deps[0].dirs[0], Dir::Eq);
    EXPECT_EQ(n.deps[0].dirs[1], Dir::Eq);
    EXPECT_EQ(n.deps[0].dirs[2], Dir::Lt);

    // Every interchange is legal: (=,=,<) stays lexicographically
    // positive under any transposition, and only one level (k) is
    // reduced over.
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_EQ(interchangeLegal(n, i, j), i != j)
                << i << "," << j;

    // Out-of-range and degenerate queries refuse instead of crashing.
    EXPECT_FALSE(interchangeLegal(n, 0, 3));
    EXPECT_FALSE(interchangeLegal(n, -1, 1));
    EXPECT_FALSE(interchangeLegal(n, 2, 2));
    EXPECT_TRUE(interchangeLegal(g.ops[0], 0, 0, 1));
    EXPECT_FALSE(interchangeLegal(g.ops[0], 1, 0, 1)); // no such nest
}

TEST(Schedule, GemmReductionDetection)
{
    DataflowGraph g = gemmGraph({"i", "j", "k"});
    auto nests = analyzeOperator(g.ops[0]);
    ASSERT_EQ(nests.size(), 1u);
    ASSERT_EQ(nests[0].reductions.size(), 1u);
    EXPECT_EQ(nests[0].reductions[0].target, "C");
    // C[i][j] uses i (level 0) and j (level 1); k (level 2) is free —
    // the dimension being summed over.
    EXPECT_EQ(nests[0].reductions[0].freeLevels, std::vector<int>{2});
}

TEST(Schedule, StencilCarriedDependenceBlocksInterchange)
{
    DataflowGraph g = stencilGraph();
    auto nests = analyzeOperator(g.ops[0]);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    ASSERT_EQ(n.depth(), 2);

    // W(i,j) vs R(i-1,j+1): distance (+1,-1) => direction (<,>).
    bool found = false;
    for (const DirectionVector& d : n.deps)
        if (d.tensor == "B" && d.dirs.size() == 2 &&
            d.dirs[0] == Dir::Lt && d.dirs[1] == Dir::Gt)
            found = true;
    EXPECT_TRUE(found);

    // Swapping would turn (<,>) into (>,<): lex-negative, illegal.
    EXPECT_FALSE(interchangeLegal(n, 0, 1));
}

TEST(Schedule, TwoFreeLevelReductionBlocksInnerSwap)
{
    // S[i] = S[i] + A[i][j][k] over (i,j,k): levels 1 and 2 are both
    // reduced over, so swapping them reorders the FP accumulation.
    Operator op;
    op.name = "rowsum";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N"), p("N"), p("N")}),
                  tensor("S", {p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), p("N"),
                 {forLoop("k", c(0), p("N"),
                          {assign("S", {v("i")},
                                  badd(a("S", {v("i")}),
                                       a("A", {v("i"), v("j"),
                                               v("k")})))})})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    ASSERT_EQ(n.reductions.size(), 1u);
    EXPECT_EQ(n.reductions[0].freeLevels, (std::vector<int>{1, 2}));
    EXPECT_FALSE(interchangeLegal(n, 1, 2)); // both free: reject
    // Swapping i with a free level keeps each cell's sum order.
    EXPECT_TRUE(interchangeLegal(n, 0, 1));
}

TEST(Schedule, TriangularBoundBlocksInterchange)
{
    // for i: for j in [0, i): a header swap would break scoping.
    Operator op;
    op.name = "tri";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), v("i"),
                 {assign("X", {v("i"), v("j")}, c(1))})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    EXPECT_FALSE(interchangeLegal(nests[0], 0, 1));
}

TEST(Schedule, NonAffineSubscriptIsGracefullyConservative)
{
    // Indirect write A[B[i]] = ...: no assert, NonAffine classification,
    // conservative flag, interchange rejected.
    Operator op;
    op.name = "scatter";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N")}), tensor("B", {p("N")}),
                  tensor("V", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), p("N"),
                 {assign("A", {a("B", {v("i")})},
                         a("V", {v("i"), v("j")}))})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    EXPECT_TRUE(n.conservative);
    EXPECT_GE(n.nonAffineAccesses, 1u);
    EXPECT_FALSE(n.notes.empty());
    EXPECT_FALSE(interchangeLegal(n, 0, 1));
    // The affine V read is still classified precisely.
    bool sawV = false;
    for (const Footprint& f : n.footprints)
        if (f.tensor == "V") {
            sawV = true;
            EXPECT_EQ(f.nonAffineRefs, 0u);
            EXPECT_EQ(f.reads, 1u);
        }
    EXPECT_TRUE(sawV);
}

TEST(Schedule, ClassifySubscript)
{
    std::vector<std::string> loops = {"i", "j"};
    std::set<std::string> inv = {"N"};
    EXPECT_EQ(classifySubscript(badd(v("i"), c(1)), loops, inv),
              AccessClass::Affine);
    EXPECT_EQ(classifySubscript(badd(bmul(c(2), v("i")), p("N")), loops,
                                inv),
              AccessClass::Affine);
    EXPECT_EQ(classifySubscript(bmul(v("i"), v("j")), loops, inv),
              AccessClass::NonAffine);
    EXPECT_EQ(classifySubscript(p("t0"), loops, inv),
              AccessClass::NonAffine); // temp: not provably invariant
    EXPECT_EQ(classifySubscript(a("B", {v("i")}), loops, inv),
              AccessClass::NonAffine); // indirect
    EXPECT_EQ(classifySubscript(bdiv(v("i"), c(2)), loops, inv),
              AccessClass::NonAffine); // non-linear operator
}

TEST(Schedule, ImperfectNestAnalyzedNotRejected)
{
    // for i { t = A[i][0]; for j { A[i][j] = t } }: the band is the
    // outer loop only, flagged imperfect, and analysis still runs.
    Operator op;
    op.name = "rowinit";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {assignScalar("t", a("A", {v("i"), c(0)})),
         forLoop("j", c(0), p("N"),
                 {assign("A", {v("i"), v("j")}, p("t"))})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    EXPECT_EQ(nests[0].depth(), 1);
    EXPECT_FALSE(nests[0].perfect);
    EXPECT_FALSE(nests[0].notes.empty());
}

TEST(Schedule, AcceleratorGemmVariantsKeepDistinctCanonicalHashes)
{
    // The accelerator GEMM variants differ in loop order and pragmas, so
    // their cycles differ: the exact key must keep them all apart.
    auto accel = workloads::accelerators();
    ASSERT_GE(accel.size(), 3u);
    std::set<uint64_t> canonical;
    for (const auto& w : accel)
        canonical.insert(canonicalHash(w.graph));
    EXPECT_EQ(canonical.size(), accel.size());
}

TEST(Schedule, AllSixGemmOrdersHaveEveryPairLegal)
{
    for (const auto& order :
         {std::vector<std::string>{"i", "j", "k"}, {"i", "k", "j"},
          {"j", "i", "k"}, {"j", "k", "i"}, {"k", "i", "j"},
          {"k", "j", "i"}}) {
        SCOPED_TRACE(order[0] + order[1] + order[2]);
        auto nests = analyzeOperator(gemmGraph(order).ops[0]);
        ASSERT_EQ(nests.size(), 1u);
        EXPECT_TRUE(interchangeLegal(nests[0], 0, 1));
        EXPECT_TRUE(interchangeLegal(nests[0], 0, 2));
        EXPECT_TRUE(interchangeLegal(nests[0], 1, 2));
    }
}

TEST(Schedule, TensorRenameKeepsDistinctCanonicalHash)
{
    // Same kernel, tensors renamed: tensor names key the simulator's
    // pseudo-data, so the exact pipeline must keep the two apart.
    DataflowGraph base = gemmGraph({"i", "j", "k"});
    DataflowGraph renamed = base;
    Operator& op = renamed.ops[0];
    op.tensors = {tensor("U", {p("N"), p("N")}),
                  tensor("V", {p("N"), p("N")}),
                  tensor("W", {p("N"), p("N")})};
    auto body = assign(
        "W", {v("i"), v("j")},
        badd(a("W", {v("i"), v("j")}),
             bmul(a("U", {v("i"), v("k")}), a("V", {v("k"), v("j")}))));
    StmtPtr nest = forLoop("k", c(0), p("N"), {body});
    nest = forLoop("j", c(0), p("N"), {nest});
    nest = forLoop("i", c(0), p("N"), {nest});
    op.body = {nest};

    EXPECT_NE(canonicalHash(renamed), canonicalHash(base));
}

TEST(Schedule, ScheduleMutantAppliesOneLegalTranspositionPerNest)
{
    std::vector<workloads::Workload> corpus;
    for (auto& w : workloads::polybench())
        corpus.push_back(std::move(w));
    for (auto& w : workloads::accelerators())
        corpus.push_back(std::move(w));
    // A nest with an illegal pair, so an illegal swap would show.
    workloads::Workload stencil;
    stencil.name = "stencil";
    stencil.graph = stencilGraph();
    corpus.push_back(std::move(stencil));

    size_t changed = 0;
    for (uint64_t seed : {1u, 7u, 42u}) {
        util::Rng rng(seed);
        for (const auto& w : corpus) {
            SCOPED_TRACE(w.name + " seed " + std::to_string(seed));
            synth::ScheduleMutant mut = synth::scheduleMutant(w.graph, rng);
            ASSERT_EQ(mut.graph.ops.size(), w.graph.ops.size());
            int swappedNests = 0;
            for (size_t o = 0; o < w.graph.ops.size(); ++o) {
                const Operator& base = w.graph.ops[o];
                const Operator& mop = mut.graph.ops[o];
                ASSERT_EQ(mop.body.size(), base.body.size());
                std::vector<NestInfo> nests = analyzeOperator(base);
                size_t nestIdx = 0;
                for (size_t k = 0; k < base.body.size(); ++k) {
                    if (!base.body[k] || base.body[k]->kind != StmtKind::For) {
                        EXPECT_EQ(printStmt(mop.body[k]),
                                  printStmt(base.body[k]));
                        continue;
                    }
                    const NestInfo& nest = nests[nestIdx++];
                    std::string baseInner, mutInner;
                    auto bk = bandKeys(base.body[k], &baseInner);
                    auto mk = bandKeys(mop.body[k], &mutInner);
                    ASSERT_EQ(mk.size(), bk.size());
                    EXPECT_EQ(mutInner, baseInner);
                    std::vector<int> diff;
                    for (size_t l = 0; l < bk.size(); ++l)
                        if (mk[l] != bk[l])
                            diff.push_back(static_cast<int>(l));
                    if (diff.empty())
                        continue;
                    // Exactly one transposition (i, j), and a legal one.
                    ASSERT_EQ(diff.size(), 2u);
                    int i = diff[0], j = diff[1];
                    EXPECT_EQ(mk[size_t(i)], bk[size_t(j)]);
                    EXPECT_EQ(mk[size_t(j)], bk[size_t(i)]);
                    EXPECT_TRUE(interchangeLegal(nest, i, j))
                        << i << "," << j;
                    ++swappedNests;
                }
            }
            EXPECT_EQ(swappedNests, mut.interchanges);
            EXPECT_EQ(mut.changed, mut.interchanges > 0);
            if (!mut.changed)
                continue;
            ++changed;
            // The schedule moved, so the exact key must move too.
            EXPECT_NE(canonicalHash(mut.graph), canonicalHash(w.graph));
        }
    }
    EXPECT_GT(changed, 0u);
}

TEST(Schedule, ScheduleMutantNeverInterchangesBlockedNest)
{
    // Positive control: some corpus workload gets interchanged.
    size_t changedWorkloads = 0;
    util::Rng corpusRng(3);
    for (const auto& w : workloads::polybench())
        if (synth::scheduleMutant(w.graph, corpusRng).changed)
            ++changedWorkloads;
    EXPECT_GT(changedWorkloads, 0u);

    // The stencil's only interchange is dependence-blocked.
    DataflowGraph g = stencilGraph();
    const std::string text = printStatic(g);
    for (uint64_t seed = 0; seed < 200; ++seed) {
        util::Rng rng(seed);
        synth::ScheduleMutant mut = synth::scheduleMutant(g, rng);
        EXPECT_FALSE(mut.changed) << "seed " << seed;
        EXPECT_EQ(printStatic(mut.graph), text) << "seed " << seed;
    }
}

TEST(Schedule, MutateProgramNeverInterchangesDependenceCarryingNest)
{
    // Regression for the blind interchange: across many mutation
    // streams the stencil's loop order must survive every mutant.
    DataflowGraph g = stencilGraph();
    synth::GenConfig cfg;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        util::Rng rng(seed);
        DataflowGraph mut = synth::mutateProgram(g, rng, cfg);
        ASSERT_EQ(mut.ops[0].body[0]->kind, StmtKind::For);
        EXPECT_EQ(mut.ops[0].body[0]->loop.var, "i") << "seed " << seed;
        ASSERT_EQ(mut.ops[0].body[0]->body[0]->kind, StmtKind::For);
        EXPECT_EQ(mut.ops[0].body[0]->body[0]->loop.var, "j")
            << "seed " << seed;
    }
}

TEST(Schedule, MutateProgramStillInterchangesLegalNests)
{
    // Positive control: the legality gate must not silence the
    // interchange mutation entirely — an independent copy kernel still
    // gets swapped in some streams.
    Operator op;
    op.name = "copy";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N"), p("N")}),
                  tensor("B", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), p("N"),
                 {assign("B", {v("i"), v("j")},
                         a("A", {v("i"), v("j")}))})})};
    DataflowGraph g;
    g.name = "copy";
    g.ops = {op};
    g.calls = {{"copy"}};

    synth::GenConfig cfg;
    bool swapped = false;
    for (uint64_t seed = 0; seed < 200 && !swapped; ++seed) {
        util::Rng rng(seed);
        DataflowGraph mut = synth::mutateProgram(g, rng, cfg);
        if (mut.ops[0].body[0]->kind == StmtKind::For &&
            mut.ops[0].body[0]->loop.var == "j")
            swapped = true;
    }
    EXPECT_TRUE(swapped);
}

TEST(Schedule, ScheduleReportSummarizesNests)
{
    DataflowGraph g = gemmGraph({"i", "j", "k"});
    ScheduleReport rep = scheduleReport(g);
    ASSERT_EQ(rep.nests.size(), 1u);
    EXPECT_EQ(rep.nests[0].depth, 3);
    EXPECT_TRUE(rep.nests[0].perfect);
    EXPECT_EQ(rep.nests[0].legalPairs.size(), 3u);
    ASSERT_EQ(rep.nests[0].reductionTargets.size(), 1u);
    EXPECT_EQ(rep.nests[0].reductionTargets[0], "C");
    EXPECT_EQ(rep.canonicalHash, canonicalHash(g));
    // The rendered report carries the canonical hash and the nest line.
    std::string s = rep.str();
    EXPECT_NE(s.find(util::format("canonicalHash=%016llx",
                                  static_cast<unsigned long long>(
                                      canonicalHash(g)))),
              std::string::npos);
    EXPECT_NE(s.find("depth=3"), std::string::npos);
}

} // namespace
