/**
 * @file
 * Conservative parallel discrete-event scheduler (PDES).
 *
 * The single-threaded kernel simulates every node of a network on one
 * EventQueue. This scheduler partitions the nodes into K shards, each
 * owning a private Simulation/EventQueue run by its own worker thread.
 * The only cross-shard coupling in the system is the radio channel, whose
 * minimal frame airtime is a hard lower bound on how far one shard's
 * actions can be from affecting another — the classic PDES *lookahead*.
 *
 * Time is carved into per-shard epochs. Within an epoch a shard runs its
 * queue freely; because every frame is on the air for at least one
 * lookahead, a transmission started by a peer during the same epoch
 * cannot *deliver* before the next epoch begins, so the shard never
 * processes an event it should not have. Two synchronisation mechanisms
 * keep the shards honest:
 *
 *  - an epoch barrier: the shard publishes its progress, waits for the
 *    peers that can affect it to catch up, and applies the frame records
 *    they published;
 *  - fine-grained safe-time syncs at every frame-delivery tick: before a
 *    shard resolves a delivery at tick e (deciding collision/corruption),
 *    it publishes its own progress, waits until every *coupled* peer has
 *    advanced to at least e, and applies all peer transmissions that
 *    started strictly before e. Corruption is a pure function of the
 *    multiset of transmission intervals, so once every interval starting
 *    before e is known, the outcome at e is final — this is what makes
 *    the parallel kernel's statistics *identical* to the sequential
 *    kernel's, not just statistically equivalent.
 *
 * Lookahead is per shard *pair* (setPairLookahead): pairs whose nodes are
 * too far apart to ever interact get an infinite (maxTick) lookahead, so
 * a shard only waits on — and its epoch length is only bounded by — the
 * peers it is actually coupled to. A shard with no coupled peers runs its
 * whole horizon as one epoch with zero synchronisation. Shard epochs need
 * not be aligned: the `safe` protocol only promises "everything I will
 * ever publish before tick T is visible", which holds at any target.
 *
 * Publication is batched: the coupling buffers outbound records locally
 * and the scheduler flushes them (publishOutbound) immediately before
 * every `safe` store. Since the store happens only after the queue has
 * run to target-1, every buffered record has start <= target-1 < target,
 * so the flush-before-store order preserves the `safe` contract while
 * keeping the per-transmit hot path free of cross-shard traffic.
 *
 * Deadlock-freedom: a shard always publishes its own target tick (the
 * `safe` atomic) before waiting for the others, and targets are strictly
 * increasing; the shard holding the minimum outstanding target always
 * finds every peer's published target at or above its own, so some shard
 * always makes progress. Pruning the wait set cannot break this — it
 * only removes edges from the wait graph.
 *
 * The cross-shard mechanics (what gets published, how inbound records are
 * applied, which ticks need a sync) live behind the ShardCoupling
 * interface, implemented by net::SpatialMedium (the one sharded radio
 * medium, for spatial and K>1 broadcast runs alike).
 */

#ifndef ULP_SIM_PARALLEL_HH
#define ULP_SIM_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <deque>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace ulp::sim {

/**
 * The conservative-sync hooks one shard exposes to the scheduler. All
 * methods are invoked on the shard's own worker thread (finalize aside).
 */
class ShardCoupling
{
  public:
    virtual ~ShardCoupling() = default;

    /**
     * Earliest tick at which this shard must synchronise with its peers
     * before processing further events (a pending frame-delivery tick);
     * maxTick when none is outstanding.
     */
    virtual Tick nextSyncTick() const = 0;

    /**
     * Flush locally buffered outbound records into the peers' mailboxes.
     * Called by the scheduler immediately before each `safe` publication;
     * everything transmitted so far must be visible to peers afterwards.
     */
    virtual void publishOutbound() {}

    /**
     * Every coupled shard has advanced to at least @p up_to: consume the
     * inbound mailboxes and apply all records timestamped strictly before
     * @p up_to, in a deterministic total order.
     */
    virtual void applyInbound(Tick up_to) = 0;

    /** The sync at @p tick is complete; drop it from the pending set. */
    virtual void syncDone(Tick tick) = 0;

    /**
     * The run has ended at @p end with every shard's records published.
     * Apply whatever is still inbound and settle statistics owed for
     * flights that started before the horizon but deliver after it (the
     * sequential kernel counts a collision at *transmit* time; a parallel
     * shard resolves it at delivery, which may never come). Called once
     * per run, single-threaded, after all workers have joined.
     */
    virtual void finalize(Tick end) { (void)end; }
};

/**
 * Runs K shards in conservative epochs. Build with the default (channel)
 * lookahead, add the shards, optionally tighten or sever individual pairs
 * with setPairLookahead, then run() once; the object is not reusable
 * across runs (the per-shard safe ticks are monotone).
 */
class ParallelScheduler
{
  public:
    explicit ParallelScheduler(Tick lookahead);

    ParallelScheduler(const ParallelScheduler &) = delete;
    ParallelScheduler &operator=(const ParallelScheduler &) = delete;

    /** Register one shard. @p coupling may be null (an uncoupled shard). */
    void addShard(EventQueue &queue, ShardCoupling *coupling);

    /**
     * Earliest delay after which an action of shard @p from can affect
     * shard @p to; defaults to the global lookahead for every pair.
     * maxTick means "never" — @p to then neither waits on @p from nor
     * bounds its epochs by it. Call after both shards are added.
     */
    void setPairLookahead(std::size_t from, std::size_t to, Tick ticks);

    std::size_t numShards() const { return shards.size(); }
    Tick lookahead() const { return _lookahead; }

    /**
     * Run every shard to @p end (inclusive, like EventQueue::runUntil) on
     * one thread per shard; returns when all shards are done. Shard 0
     * runs on the calling thread.
     */
    void run(Tick end);

  private:
    struct Shard
    {
        EventQueue *queue = nullptr;
        ShardCoupling *coupling = nullptr;
        /** Epoch length for this shard: the tightest pair lookahead it is
         *  involved in (either direction); maxTick when fully decoupled.
         *  Resolved in run(). */
        Tick epochLen = 0;
        /** Peers whose actions can reach this shard (pair lookahead below
         *  maxTick): the only ones worth waiting for. */
        std::vector<std::size_t> waitPeers;
        /**
         * The tick this shard has published everything before: peers
         * waiting on `safe >= e` may assume every cross-shard record
         * with timestamp < e from this shard is visible. Padded so the
         * per-shard hot atomics never share a cache line.
         */
        alignas(64) std::atomic<Tick> safe{0};
        /** Number of peers currently blocked in safe.wait(); publishers
         *  skip the notify syscall while it is zero. */
        alignas(64) std::atomic<int> waiters{0};
    };

    void runShard(std::size_t idx, Tick end);

    /** Flush the coupling's outbound buffer, then advance `safe` to
     *  @p target and wake any blocked peers. */
    void publish(Shard &self, Tick target);

    /**
     * Publish progress up to @p target, wait until every coupled peer has
     * done the same, then apply inbound records older than @p target.
     */
    void syncTo(std::size_t idx, Tick target);

    /** Resolve per-shard epoch lengths and wait sets from the pair
     *  lookahead overrides. */
    void resolveTopology();

    Tick _lookahead;
    std::deque<Shard> shards; // deque: stable addresses for the atomics
    struct PairOverride
    {
        std::size_t from;
        std::size_t to;
        Tick ticks;
    };
    std::vector<PairOverride> pairOverrides;
};

} // namespace ulp::sim

#endif // ULP_SIM_PARALLEL_HH
