/**
 * @file
 * The three workloads' building blocks, exposed so the unit tests can
 * run them at a fixed, small size: the corpus op list, the heap world
 * and the service program.
 */
#ifndef GOLFBENCH_WORKLOADS_HPP
#define GOLFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace golf::rt { class Runtime; }

namespace golfbench {

// ---------------------------------------------------------------- corpus

/** One corpus op: one program of the registry at one procs value. */
struct CorpusOp
{
    size_t pattern = 0;
    int procs = 1;
    uint64_t seed = 0;
};

/** Every registry program at procs 1 and 4, seeds derived from the
 *  workload seed. The same list is replayed by every pass. */
std::vector<CorpusOp> corpusOps(uint64_t seed);

/** What one program run decided, in a comparable form. */
struct CorpusVerdict
{
    /** "individual|unexpected|label=count,..." */
    std::string digest;
    /** Leaky sites detected / expected (0/0 on correct variants). */
    int sitesHit = 0;
    int sitesExpected = 0;
    /** Empty when every check held, else why not. */
    std::string problem;
    uint64_t gcCycles = 0;
    double avgMarkWallUs = 0.0;
};

/** Run one op through microbench::runPatternOnce and verify it. */
CorpusVerdict runCorpusOp(const CorpusOp& op, bool obs = true);

// ------------------------------------------------------------------ heap

/** Size of the heap workload's object graph and goroutine population. */
struct HeapShape
{
    size_t nodes = 1000000;
    /** Goroutines blocked on reachable (global) channels. */
    int liveBlocked = 256;
    /** Deadlocked goroutines planted before every cycle (D). */
    int deadlocked = 16;
    /** Nodes of each deadlocked goroutine's private subgraph. */
    int privateNodes = 256;
    /** Daisy-chain length: the fixpoint needs this many rounds. */
    int chain = 8;
    int gcWorkers = 1;
    bool obs = true;
};

/** One long-lived runtime holding the heap workload's graph. */
class HeapWorld
{
  public:
    HeapWorld(const HeapShape& shape, uint64_t seed, Tracer& tracer);
    ~HeapWorld();
    HeapWorld(const HeapWorld&) = delete;
    HeapWorld& operator=(const HeapWorld&) = delete;

    /** Plant D fresh deadlocked goroutines and let every goroutine
     *  block (untimed preparation of one op). Returns steps taken. */
    uint64_t plant(uint64_t op);
    /** Request a GOLF cycle and run the step that performs it.
     *  Returns the step's wall time in ns. */
    uint64_t collect(uint64_t op);
    /** Checks of the last cycle against the planted counts; empty when
     *  every one held. */
    std::string verifyLastCycle() const;

    golf::rt::Runtime& runtime() { return *rt_; }
    /** Digest of the generated graph (edges and roots). */
    uint64_t inputDigest() const { return digest_; }
    /** Objects every cycle must mark. */
    uint64_t planted() const { return planted_; }
    uint64_t expectedIterations() const;

  private:
    struct Impl;
    HeapShape shape_;
    Tracer& tracer_;
    std::unique_ptr<golf::rt::Runtime> rt_;
    std::unique_ptr<Impl> impl_;
    uint64_t digest_ = 0;
    uint64_t planted_ = 0;
};

// --------------------------------------------------------------- service

struct ServiceShape
{
    int connections = 32;
    bool obs = true;
};

/** The closed-loop request program on one stepped runtime. */
class ServiceWorld
{
  public:
    ServiceWorld(const ServiceShape& shape, uint64_t seed, Tracer& tracer);
    ~ServiceWorld();
    ServiceWorld(const ServiceWorld&) = delete;
    ServiceWorld& operator=(const ServiceWorld&) = delete;

    /** Step until `n` more requests have completed. Request wall
     *  latencies (µs) go to `latUs` and collection steps' wall times
     *  to `pauseUs` when given. */
    void runRequests(uint64_t n, Samples* latUs, Samples* pauseUs);
    /** Stop the connections, run the final forced cycle and check the
     *  leak accounting; returns the problem, empty when it held. */
    std::string finish();

    golf::rt::Runtime& runtime() { return *rt_; }
    uint64_t completed() const;
    uint64_t failed() const;
    uint64_t injectedLeaks() const;
    uint64_t reportedLeaks() const;
    uint64_t steps() const { return steps_; }
    /** Digest of the per-request leak decisions so far. */
    uint64_t leakDigest() const;

    /** The program's shared state (service.cpp). */
    struct State;

  private:
    Tracer& tracer_;
    std::unique_ptr<golf::rt::Runtime> rt_;
    std::unique_ptr<State> st_;
    uint64_t steps_ = 0;
};

} // namespace golfbench

#endif // GOLFBENCH_WORKLOADS_HPP
