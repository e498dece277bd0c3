/**
 * @file
 * Unit tests of the benchmark's own math and seed handling:
 *
 *   cmake --build .bench_build/golfbench --target golfbench_test
 *   .bench_build/golfbench/golfbench_test
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common.hpp"
#include "golf/collector.hpp"
#include "runtime/runtime.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace golfbench;

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(TailRule, HighestLadderRungWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(10000, 99.9), 99.9); // 10 beyond
    EXPECT_EQ(tailPercentile(9999, 99.9), 99.0);  // 9.999 beyond
    EXPECT_EQ(tailPercentile(1000, 99.9), 99.0);
    EXPECT_EQ(tailPercentile(999, 99.9), 90.0);
    EXPECT_EQ(tailPercentile(100, 99.9), 90.0);
    EXPECT_EQ(tailPercentile(20, 99.9), 50.0);
    EXPECT_EQ(tailPercentile(19, 99.9), 0.0);
}

TEST(TailRule, CapLimitsTheRung)
{
    EXPECT_EQ(tailPercentile(1000000, 99.0), 99.0);
    EXPECT_EQ(tailPercentile(1000000, 90.0), 90.0);
}

TEST(TailRule, TailOfReportsValuePercentileAndCount)
{
    LogHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.add(100.0 + i * 0.01);
    const Tail t = tailOf(h, 99.9);
    EXPECT_EQ(t.pct, 99.0);
    EXPECT_EQ(t.samples, 1000u);
    EXPECT_NEAR(t.value, 109.8901, 109.8901 * 1e-3);
    LogHistogram few;
    few.add(1.0);
    EXPECT_EQ(tailOf(few, 99.0).value, 0.0);
}

TEST(LogHistogram, PercentilesWithinATenthOfAPercent)
{
    LogHistogram h;
    std::vector<double> v;
    for (int i = 1; i <= 20000; ++i) {
        const double x = 100.0 + (i * 7919 % 20000) * 0.001;
        h.add(x);
        v.push_back(x);
    }
    EXPECT_EQ(h.count(), v.size());
    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
        const double exact = percentile(v, p);
        EXPECT_NEAR(h.percentile(p), exact, exact * 1e-3) << p;
    }
    EXPECT_EQ(LogHistogram().percentile(50.0), 0.0);
}

TEST(PassRate, IsAPercentileOfPerPassRates)
{
    const std::vector<Pass> passes{
        {10, 1000000000}, {10, 2000000000}, {10, 4000000000}};
    EXPECT_DOUBLE_EQ(passRate(passes, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(passRate(passes, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(passRate({}, 50.0), 0.0);
}

TEST(PassRate, FastDecileIgnoresASlowPhase)
{
    // 40% of the passes run 1.4x slower (a contended phase): the
    // median moves with the phase, the fast decile does not.
    std::vector<Pass> passes(6, Pass{100, 1000000000});
    const double fast = passRate(passes, 100.0 - kFastDecile);
    for (int i = 0; i < 4; ++i)
        passes.push_back(Pass{100, 1400000000});
    EXPECT_DOUBLE_EQ(passRate(passes, 100.0 - kFastDecile), fast);
    for (int i = 0; i < 4; ++i)
        passes.push_back(Pass{100, 1400000000});
    EXPECT_LT(passRate(passes, 50.0), fast);
    EXPECT_DOUBLE_EQ(passRate(passes, 100.0 - kFastDecile), fast);
}

TEST(Samples, PassMediansAndWholeWindow)
{
    Samples s;
    for (double v : {1.0, 2.0, 3.0})
        s.add(v);
    s.endPass();
    s.endPass(); // an empty pass records nothing
    for (double v : {10.0, 20.0, 30.0})
        s.add(v);
    s.endPass();
    EXPECT_DOUBLE_EQ(s.passMedian(0.0), 2.0);
    EXPECT_DOUBLE_EQ(s.passMedian(100.0), 20.0);
    EXPECT_EQ(s.all().count(), 6u);
}

TEST(Samples, PerPassTailWhenPassesAreLargeEnough)
{
    // Passes of 200: p90 leaves 20 beyond, p99 only 2, so each pass
    // has a p90 tail and the result is a percentile of those.
    Samples s(99.0);
    for (int pass = 0; pass < 5; ++pass) {
        for (int i = 0; i < 200; ++i)
            s.add(100.0 * (pass + 1) + i * 0.01);
        s.endPass();
    }
    const Tail t = s.tail(0.0);
    EXPECT_EQ(t.pct, 90.0);
    EXPECT_EQ(t.samples, 200u);
    EXPECT_NEAR(t.value, 100.0 + 199 * 0.9 * 0.01, 1e-9);

    // Passes of 3 have no tail of their own: the window's is used.
    Samples small(90.0);
    for (int pass = 0; pass < 40; ++pass) {
        for (int i = 1; i <= 3; ++i)
            small.add(100.0 + i * 0.001);
        small.endPass();
    }
    const Tail w = small.tail(0.0);
    EXPECT_EQ(w.pct, 90.0);
    EXPECT_EQ(w.samples, 120u);
}

TEST(Samples, SmallPassesAreGroupedUpToTheMinimum)
{
    // Passes of 30 with a minimum of 100: every fourth endPass() closes
    // a group of 120, which has a p90 tail of its own.
    Samples s(90.0, 100);
    for (int pass = 0; pass < 8; ++pass) {
        for (int i = 0; i < 30; ++i)
            s.add(pass < 4 ? 1.0 + i * 0.01 : 2.0 + i * 0.01);
        s.endPass();
    }
    EXPECT_NEAR(s.passMedian(0.0), 1.145, 1e-9);
    EXPECT_NEAR(s.passMedian(100.0), 2.145, 1e-9);
    const Tail t = s.tail(0.0);
    EXPECT_EQ(t.pct, 90.0);
    EXPECT_EQ(t.samples, 120u);
    // Each value of the first group appears 4 times: rank 0.9 * 119
    // falls between 1.26 and 1.27.
    EXPECT_NEAR(t.value, 1.261, 1e-9);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    EXPECT_EQ(selfTime(0, 100, {}), 100u);
    // [10,30) merged from two overlapping children, [50,60), and a
    // child running past the parent's end clipped to [90,100).
    EXPECT_EQ(selfTime(0, 100, {{10, 20}, {15, 30}, {50, 60}, {90, 120}}),
              60u);
    EXPECT_EQ(selfTime(0, 100, {{0, 100}}), 0u);
    EXPECT_EQ(selfTime(50, 40, {}), 0u);
}

TEST(Tracer, NestedSpansAndSampling)
{
    Tracer t;
    t.setEnabled(true);
    const int32_t parent = t.open(SpanKind::Op, 1);
    const int32_t child = t.open(SpanKind::Step, 1);
    t.close(child);
    t.close(parent);
    // An unsampled top-level span records neither itself nor children.
    const int32_t skipped = t.open(SpanKind::Step, 2, false);
    const int32_t orphan = t.open(SpanKind::MakeBatch, 2);
    t.close(orphan, 5);
    t.close(skipped);
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(skipped, -1);
    EXPECT_EQ(orphan, -1);
    EXPECT_EQ(t.spans()[1].parent, parent);
    const auto self = t.selfTimes();
    const Span& p = t.spans()[0];
    const Span& c = t.spans()[1];
    EXPECT_EQ(self[0], (p.endNs - p.startNs) - (c.endNs - c.startNs));
    EXPECT_EQ(self[1], c.endNs - c.startNs);

    Tracer off;
    EXPECT_EQ(off.open(SpanKind::Op, 1), -1);
    off.close(-1);
    EXPECT_TRUE(off.spans().empty());
}

TEST(MetricNames, Charset)
{
    EXPECT_TRUE(validMetricName("ops_per_s"));
    EXPECT_TRUE(validMetricName("gc.pool.span_mb"));
    EXPECT_TRUE(validMetricName("9-lives"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_lead"));
    EXPECT_FALSE(validMetricName("a b"));
    EXPECT_FALSE(validMetricName("/gc/cycles:count"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(MetricNames, EveryEmittedNameIsValidAndUnique)
{
    Outcome out;
    std::set<std::string> seen;
    for (const Metric& m : endToEndMetrics(Window(99.0, 99.0), {}, out)) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    }
    for (const Metric& m : layerMetrics(LayerStats{}, Tracer{})) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    }
}

TEST(Seeds, CorpusSameSeedSameVerdictsOtherSeedOtherInputs)
{
    const auto a = corpusOps(7);
    const auto b = corpusOps(7);
    const auto c = corpusOps(8);
    ASSERT_EQ(a.size(), 210u);
    ASSERT_EQ(c.size(), a.size());
    size_t differ = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].pattern, c[i].pattern);
        EXPECT_EQ(a[i].procs, c[i].procs);
        differ += a[i].seed != c[i].seed ? 1 : 0;
    }
    EXPECT_EQ(differ, a.size());
    for (size_t i = 0; i < 24; ++i) {
        const CorpusVerdict x = runCorpusOp(a[i]);
        const CorpusVerdict y = runCorpusOp(b[i]);
        EXPECT_EQ(x.digest, y.digest) << i;
        EXPECT_TRUE(x.problem.empty()) << x.problem;
    }
}

namespace {

HeapShape
smallHeap()
{
    HeapShape s;
    s.nodes = 20000;
    s.liveBlocked = 16;
    s.deadlocked = 4;
    s.privateNodes = 16;
    s.chain = 3;
    s.gcWorkers = 2;
    return s;
}

/** Three heap ops; returns the per-cycle (marked, verdicts) digest. */
std::string
heapCycles(HeapWorld& w, int& ops)
{
    std::string d;
    for (int i = 0; i < 3; ++i) {
        w.plant(static_cast<uint64_t>(i));
        w.collect(static_cast<uint64_t>(i));
        EXPECT_EQ(w.verifyLastCycle(), "");
        const auto& cs = w.runtime().collector().lastCycle();
        d += std::to_string(cs.objectsMarked) + "/" +
             std::to_string(cs.deadlocksFound) + ";";
        ++ops;
    }
    return d;
}

} // namespace

TEST(Seeds, HeapSameSeedSameCyclesOtherSeedOtherGraph)
{
    Tracer t;
    int opsA = 0;
    int opsB = 0;
    int opsC = 0;
    std::string da;
    std::string db;
    uint64_t ga = 0;
    uint64_t gb = 0;
    uint64_t gc = 0;
    {
        HeapWorld a(smallHeap(), 7, t);
        ga = a.inputDigest();
        da = heapCycles(a, opsA);
    }
    {
        HeapWorld b(smallHeap(), 7, t);
        gb = b.inputDigest();
        db = heapCycles(b, opsB);
    }
    {
        HeapWorld c(smallHeap(), 8, t);
        gc = c.inputDigest();
        heapCycles(c, opsC);
        EXPECT_EQ(c.runtime().collector().lastCycle().markIterations,
                  c.expectedIterations());
    }
    EXPECT_EQ(ga, gb);
    EXPECT_EQ(da, db);
    EXPECT_NE(ga, gc);
    EXPECT_EQ(opsA, opsC);
}

TEST(Seeds, ServiceSameSeedSameLeaksOtherSeedOtherLeaks)
{
    Tracer t;
    ServiceShape shape;
    shape.connections = 8;
    auto run = [&](uint64_t seed, uint64_t& digest, uint64_t& injected) {
        ServiceWorld w(shape, seed, t);
        w.runRequests(400, nullptr, nullptr);
        const uint64_t done = w.completed();
        digest = w.leakDigest();
        EXPECT_EQ(w.finish(), "");
        EXPECT_EQ(w.failed(), 0u);
        EXPECT_EQ(w.reportedLeaks(), w.injectedLeaks());
        injected = w.injectedLeaks();
        return done;
    };
    uint64_t d1 = 0, d2 = 0, d3 = 0, i1 = 0, i2 = 0, i3 = 0;
    const uint64_t n1 = run(7, d1, i1);
    const uint64_t n2 = run(7, d2, i2);
    const uint64_t n3 = run(8, d3, i3);
    EXPECT_EQ(n1, 400u);
    EXPECT_EQ(n1, n2);
    EXPECT_EQ(n1, n3);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(i1, i2);
    EXPECT_NE(d1, d3);
}
