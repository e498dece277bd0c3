/**
 * @file
 * The `heap` workload: one long-lived runtime holding a wide graph of
 * about a million objects (mean out-degree 4), rooted in globals and in
 * live goroutines, plus a population of channel-blocked goroutines:
 * goroutines blocked on reachable channels, D deadlocked goroutines
 * each pinning a private subgraph, and a daisy chain that forces one
 * fixpoint round per link (paper §5.2). One op is one GOLF cycle,
 * requested with requestGc() and timed around the step() that runs it.
 *
 * Recovery is Reclaim and D fresh deadlocked goroutines are planted
 * (untimed) before every cycle, so each cycle reclaims the previous
 * D, reports D new ones and marks the same number of objects: every
 * cycle sees an identical heap and issues D verdicts. (Under Detect
 * a reported goroutine turns into a permanent root, so only the first
 * cycle would issue verdicts.)
 */
#include <algorithm>
#include <array>

#include "chan/channel.hpp"
#include "gc/marker.hpp"
#include "golf/collector.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace golfbench {

namespace rt = golf::rt;
namespace gc = golf::gc;
using golf::chan::Channel;

namespace {

/** A graph node with up to six inline out-edges. */
struct Node final : gc::Object
{
    std::array<Node*, 6> out{};
    uint8_t degree = 0;

    void
    trace(gc::Marker& m) override
    {
        for (uint8_t i = 0; i < degree; ++i)
            m.mark(out[i]);
    }

    void
    prefetchTraceTargets() const override
    {
        for (uint8_t i = 0; i < degree; ++i)
            gc::prefetchMarkWord(out[i]);
    }

    const char* objectName() const override { return "golfbench-node"; }
};

/** The package-level variables: component heads and the channels
 *  that live goroutines block on. One global root points here. */
struct Globals final : gc::Object
{
    std::vector<Node*> heads;
    std::vector<Channel<int>*> gates;
    Channel<int>* chainEnd = nullptr;

    void
    trace(gc::Marker& m) override
    {
        for (Node* n : heads)
            m.mark(n);
        for (Channel<int>* c : gates)
            m.mark(c);
        m.mark(chainEnd);
    }
};

/** Blocks forever on a channel some live code could still send on;
 *  `hold` is the graph part only this goroutine's stack reaches. */
rt::Go
blockedOn(Channel<int>* ch, Node* hold)
{
    (void)hold;
    co_await golf::chan::recv(ch);
    co_return;
}

/** A daisy-chain link: blocked on `mine`, holding the channel the
 *  previous link is blocked on. */
rt::Go
chainLink(Channel<int>* mine, Channel<int>* prev)
{
    (void)prev;
    co_await golf::chan::recv(mine);
    co_return;
}

rt::Go
heapMain(Channel<int>* gate)
{
    co_await golf::chan::recv(gate);
    co_return;
}

} // namespace

struct HeapWorld::Impl
{
    std::unique_ptr<gc::GlobalRoot<Globals>> root;
};

HeapWorld::HeapWorld(const HeapShape& shape, uint64_t seed,
                     Tracer& tracer)
    : shape_(shape), tracer_(tracer), impl_(std::make_unique<Impl>())
{
    rt::Config rc;
    rc.procs = 1;
    rc.seed = seed;
    rc.gcMode = rt::GcMode::Golf;
    rc.recovery = rt::Recovery::Reclaim;
    rc.gcWorkers = shape.gcWorkers;
    rc.obs.enabled = shape.obs;
    // Collections happen only when the benchmark asks for them.
    rc.heap.minTriggerBytes = uint64_t{1} << 50;
    {
        SpanGuard s(tracer_, SpanKind::RuntimeNew, 0);
        rt_ = std::make_unique<rt::Runtime>(rc);
    }
    rt::Runtime& r = *rt_;
    golf::support::Rng rng(seed);

    Globals* g = r.make<Globals>();
    impl_->root = std::make_unique<gc::GlobalRoot<Globals>>(r.heap(), g);

    // The graph, allocated in batches: component c covers a contiguous
    // index range; inside it node k's first edges are its binary-tree
    // children 2k+1 and 2k+2 (so the head reaches every node), the
    // rest go to random nodes of the same component.
    std::vector<Node*> nodes(shape.nodes);
    constexpr size_t kBatch = 4096;
    for (size_t i = 0; i < shape.nodes; i += kBatch) {
        SpanGuard s(tracer_, SpanKind::MakeBatch, 0);
        const size_t end = std::min(shape.nodes, i + kBatch);
        for (size_t j = i; j < end; ++j)
            nodes[j] = r.make<Node>();
        s.setCount(static_cast<uint32_t>(end - i));
    }
    // Graph components: the first half hang off globals, the second
    // half off live goroutines.
    constexpr size_t comps = 8;
    uint64_t digest = seed;
    for (size_t c = 0; c < comps; ++c) {
        const size_t lo = c * shape.nodes / comps;
        const size_t hi = (c + 1) * shape.nodes / comps;
        const size_t size = hi - lo;
        for (size_t k = 0; k < size; ++k) {
            Node* n = nodes[lo + k];
            const size_t degree = 2 + rng.nextBelow(5); // mean 4
            for (size_t e = 0; e < degree; ++e) {
                const size_t tree = 2 * k + 1 + e;
                const size_t target = e < 2 && tree < size
                    ? tree
                    : rng.nextBelow(size);
                n->out[n->degree++] = nodes[lo + target];
                digest = mixSeed(digest, lo + target);
            }
        }
    }

    const size_t half = comps / 2;
    for (size_t c = 0; c < half; ++c)
        g->heads.push_back(nodes[c * shape.nodes / comps]);
    constexpr int kGates = 8;
    for (int i = 0; i < kGates; ++i)
        g->gates.push_back(golf::chan::makeChan<int>(r, 0));
    r.startMain(heapMain, g->gates[0]);

    // Live goroutines: the second half of the components hang off
    // goroutines blocked on global gates; more gate waiters make up
    // the reachable-channel population.
    for (int i = 0; i < shape.liveBlocked; ++i) {
        const size_t c = half + static_cast<size_t>(i);
        Node* hold = c < comps ? nodes[c * shape.nodes / comps] : nullptr;
        r.goAt(rt::Site{"golfbench/heap", 1, "live"}, blockedOn,
               g->gates[static_cast<size_t>(i) % kGates], hold);
    }

    // The daisy chain: link i blocks on chan[i] and holds chan[i-1];
    // only the last channel is global, so each fixpoint round proves
    // exactly one more link live.
    std::vector<Channel<int>*> chain;
    for (int i = 0; i < shape.chain; ++i)
        chain.push_back(golf::chan::makeChan<int>(r, 0));
    g->chainEnd = chain.empty() ? nullptr : chain.back();
    for (int i = 0; i < shape.chain; ++i) {
        r.goAt(rt::Site{"golfbench/heap", 2, "chain"}, chainLink,
               chain[static_cast<size_t>(i)],
               i == 0 ? nullptr : chain[static_cast<size_t>(i - 1)]);
    }
    digest_ = digest;
    // Every object is reachable, and each cycle also marks the D
    // goroutines planted for it: a private subgraph plus a channel.
    planted_ = r.heap().liveObjects() +
               static_cast<uint64_t>(shape.deadlocked) *
                   (static_cast<uint64_t>(shape.privateNodes) + 1);
}

HeapWorld::~HeapWorld()
{
    SpanGuard s(tracer_, SpanKind::RuntimeDelete, 0);
    impl_->root.reset();
    rt_.reset();
}

uint64_t
HeapWorld::plant(uint64_t op)
{
    rt::Runtime& r = *rt_;
    for (int d = 0; d < shape_.deadlocked; ++d) {
        std::vector<Node*> sub(static_cast<size_t>(shape_.privateNodes));
        {
            SpanGuard s(tracer_, SpanKind::MakeBatch, op);
            for (Node*& n : sub)
                n = r.make<Node>();
            s.setCount(static_cast<uint32_t>(sub.size()));
        }
        for (size_t k = 0; k < sub.size(); ++k) {
            for (size_t e = 2 * k + 1; e <= 2 * k + 2 && e < sub.size(); ++e)
                sub[k]->out[sub[k]->degree++] = sub[e];
        }
        // The private channel is referenced only by this goroutine's
        // own stack: nothing can ever send on it.
        r.goAt(rt::Site{"golfbench/heap", 3, "deadlocked"}, blockedOn,
               golf::chan::makeChan<int>(r, 0),
               sub.empty() ? nullptr : sub.front());
    }
    uint64_t steps = 0;
    for (;;) {
        const int32_t s = tracer_.open(SpanKind::Step, op);
        const auto outcome = r.step();
        tracer_.close(s);
        ++steps;
        if (outcome != rt::Runtime::StepOutcome::Progress)
            break;
    }
    return steps;
}

uint64_t
HeapWorld::collect(uint64_t op)
{
    rt::Runtime& r = *rt_;
    r.requestGc();
    const int32_t s = tracer_.open(SpanKind::Step, op);
    const uint64_t t0 = nowNs();
    r.step();
    const uint64_t dt = nowNs() - t0;
    tracer_.close(s, 1);
    return dt;
}

uint64_t
HeapWorld::expectedIterations() const
{
    // Root marking, the round that proves the gate waiters and the
    // last chain link live, then one round per remaining link.
    return 2 + static_cast<uint64_t>(std::max(0, shape_.chain - 1));
}

std::string
HeapWorld::verifyLastCycle() const
{
    const auto& cs = rt_->collector().lastCycle();
    const auto d = static_cast<size_t>(shape_.deadlocked);
    if (cs.objectsMarked != planted_)
        return "cycle " + std::to_string(cs.cycle) + " marked " +
               std::to_string(cs.objectsMarked) + " objects, planted " +
               std::to_string(planted_);
    if (cs.deadlocksFound != d)
        return "cycle " + std::to_string(cs.cycle) + " found " +
               std::to_string(cs.deadlocksFound) + " deadlocks, planted " +
               std::to_string(d);
    if (cs.markIterations != expectedIterations())
        return "cycle " + std::to_string(cs.cycle) + " took " +
               std::to_string(cs.markIterations) + " mark iterations";
    if (cs.cycle > 1 && cs.reclaimed != d)
        return "cycle " + std::to_string(cs.cycle) + " reclaimed " +
               std::to_string(cs.reclaimed);
    // The workload exists to run the parallel marker.
    if (shape_.gcWorkers > 1 && cs.parallelMarkJobs == 0)
        return "cycle " + std::to_string(cs.cycle) + " marked serially";
    return {};
}

Outcome
runHeap(const Options& o)
{
    Outcome out;
    Tracer tracer;
    ThreadWatch threads;
    Window w(90.0, 90.0);
    LayerStats ls;
    HeapShape shape;
    shape.gcWorkers = pinnedGcWorkers();
    if (shape.gcWorkers < 2) {
        out.checkFailed("heap needs at least 2 mark workers; nproc is " +
                        std::to_string(hostProcs()));
        return out;
    }
    std::unique_ptr<HeapWorld> world;
    uint64_t opId = 0;
    constexpr int kWarmupCycles = 2;
    constexpr int kCyclesPerPass = 4;

    // One op: plant D (untimed), then the timed collection step.
    auto op = [&](Samples* opUs, bool traced) {
        rt::Runtime& r = world->runtime();
        ++opId;
        const uint64_t cycles0 = r.collector().cycles();
        const gc::PoolStats pool0 = r.heap().poolStats();
        const double spawned0 = obsValue(r, "/sched/goroutines/spawned:count");
        const double dropped0 = obsValue(r, "/obs/flight/dropped:records");
        SpanGuard opSpan(tracer, SpanKind::Op, opId);
        const uint64_t steps = world->plant(opId);
        const uint64_t ns = world->collect(opId);
        ++out.attempted;
        if (r.collector().cycles() != cycles0 + 1) {
            out.fail("collection step ran " +
                     std::to_string(r.collector().cycles() - cycles0) +
                     " cycles");
        } else if (std::string why = world->verifyLastCycle(); !why.empty()) {
            out.fail(why);
        }
        if (opUs)
            opUs->add(static_cast<double>(ns) / 1000.0);
        if (traced) {
            ++ls.ops;
            ls.steps += steps + 1;
            ls.cycles.push_back(r.collector().lastCycle());
            addPoolDelta(ls.poolDelta, pool0, r.heap().poolStats());
            ls.spawned += static_cast<uint64_t>(
                obsValue(r, "/sched/goroutines/spawned:count") - spawned0);
            ls.flightDropped +=
                obsValue(r, "/obs/flight/dropped:records") - dropped0;
            const auto& cs = r.collector().lastCycle();
            ls.detectHit += static_cast<double>(cs.deadlocksFound);
            ls.detectExpected += shape.deadlocked;
        }
        return ns;
    };

    LoopHooks hooks;
    hooks.setup = [&] {
        world.reset();
        world = std::make_unique<HeapWorld>(shape, o.seed, tracer);
        for (int i = 0; i < kWarmupCycles; ++i)
            op(nullptr, false);
    };
    hooks.pass = [&](bool traced) {
        Pass p;
        const uint64_t t0 = nowNs();
        for (int i = 0; i < kCyclesPerPass; ++i) {
            const uint64_t ns =
                op(traced ? &w.tracedOpUs : &w.opUs, traced);
            if (!traced)
                w.pauseUs.add(static_cast<double>(ns) / 1000.0);
        }
        p.ops = kCyclesPerPass;
        p.wallNs = nowNs() - t0;
        return p;
    };
    std::vector<double> setupS;
    closedLoop(o, 10, hooks, tracer, threads, setupS, w);

    out.detail["planted_objects"] = std::to_string(world->planted());
    out.detail["deadlocked_per_cycle"] = std::to_string(shape.deadlocked);
    out.detail["input_digest"] = std::to_string(world->inputDigest());
    if (o.trace) {
        ls.spanMb = static_cast<double>(
                        world->runtime().heap().poolStats().spanBytes) /
                    (1024.0 * 1024.0);
        ls.tracedP50 = w.tracedOpUs.all().percentile(50.0);
        ls.untracedP50 = w.opUs.all().percentile(50.0);
        ls.obsOnOpNs = ls.untracedP50;
        tracer.setEnabled(true);
        world.reset();
        tracer.setEnabled(false);
        ls.runtimesPerOp = static_cast<double>(setupS.size()) /
                           static_cast<double>(out.attempted);

        // Obs cost: the same heap on a runtime without obs.
        HeapShape quiet = shape;
        quiet.obs = false;
        world = std::make_unique<HeapWorld>(quiet, o.seed, tracer);
        Samples off;
        for (int i = 0; i < kWarmupCycles + 2 * kCyclesPerPass; ++i)
            op(i < kWarmupCycles ? nullptr : &off, false);
        world.reset();
        ls.obsOffOpNs = off.all().percentile(50.0);
        out.detail["trace_file"] = "\"" + writeTrace(o, tracer) + "\"";
        out.metrics = layerMetrics(ls, tracer);
    } else {
        out.metrics = endToEndMetrics(w, setupS, out);
    }
    out.gcWorkers = shape.gcWorkers;
    out.threadsMax = threads.max();
    return out;
}

} // namespace golfbench
