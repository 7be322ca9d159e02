/**
 * @file
 * The campaign runner: a multi-process fan-out that streams an expanded
 * run list through a pool of forked worker processes and appends one
 * results-store record per finished run.
 *
 * Why processes, not threads: the simulator's parallel kernel already
 * owns the threads *inside* one run, and a campaign's runs are fully
 * independent — so the cheap, robust unit of isolation is a process. A
 * worker that crashes, wedges or corrupts itself takes down exactly one
 * in-flight run, which the coordinator retries once on a fresh worker
 * before recording it as failed.
 *
 * Protocol (line-based, over pipes; values percent-encoded so they
 * survive the line framing):
 *
 *   coordinator -> worker stdin:
 *     scenario <nbytes>\n<nbytes of canonical scenario text>
 *     run <id> <enc(key=value)> <enc(key=value)>...\n
 *     exit\n
 *   worker -> coordinator stdout, one line per run, flushed:
 *     ok <id> <elapsed_us> <single-line stats JSON>\n
 *     fail <id> <enc(message)>\n
 *
 * The scenario is parsed ONCE per worker from the canonical text the
 * coordinator resolved (amortized parse); each run then copies it,
 * applies its overrides via scenario::applyScenarioKey, re-validates,
 * and executes. Worker stderr is captured by the coordinator and
 * attached (tail) to failure records.
 *
 * Scheduling: each live worker holds up to two outstanding runs (one
 * executing, one queued in its pipe), so handing out the next run
 * overlaps with simulation instead of serializing on the coordinator.
 */

#ifndef ULP_CAMPAIGN_RUNNER_HH
#define ULP_CAMPAIGN_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "campaign/store.hh"
#include "scenario/scenario.hh"

namespace ulp::core {
class Network;
}
namespace ulp::fault {
class FaultInjector;
}
namespace ulp::scenario {
struct Lowered;
}

namespace ulp::campaign {

/**
 * Wire a built network for one scenario run, the same way for every
 * entry point (`ulpsim run`, campaign workers): the `[radio] loss`
 * probability on each sequential broadcast channel, then the `[fault]`
 * campaign's injector on the target node's shard (SRAM, message
 * processor, compressor, broadcast channel when present, node
 * lifecycle). Returns the injector, null without `[fault]`; keep it
 * alive for the whole run. Fatal when `[radio] loss` is set on a network
 * without a sequential broadcast channel, or the fault plan is
 * unreadable.
 */
std::unique_ptr<fault::FaultInjector>
wireScenarioRun(core::Network &network, const scenario::Scenario &scenario,
                const scenario::Lowered &low);

/**
 * Execute one resolved scenario in-process and return the fixed-schema
 * single-line stats JSON — the byte-identity contract of the store:
 *
 *   {"events":..,"sent":..,"delivered":..,"collisions":..,"ep_isrs":..,
 *    "wakeups":..,"prepared":..,"sink_packets":..,"origins":..,
 *    "energy_j":..,"delivery_ratio":..,"energy_per_bit_j":..,
 *    "lifetime_s":..}
 *
 * delivery_ratio is sink deliveries over frames originated (the
 * resilience layer's definition) for routed scenarios, and the MAC
 * delivered/sent ratio when the scenario has no sink.
 *
 * Tracing is ignored (campaign runs never trace); faults and lifecycle
 * run exactly as `ulpsim run` would drive them. Throws sim::SimError on
 * scenario-level failure.
 */
std::string executeRun(const scenario::Scenario &scenario);

/**
 * Worker-process entry point (argv[0] <exe> "campaign-worker"
 * ["--test-hooks"]). Reads the protocol on stdin, writes results on
 * stdout, warnings silenced. Returns the process exit code.
 */
int workerMain(int argc, char **argv);

struct RunnerConfig
{
    /** Executable to spawn as workers (argv[1] = "campaign-worker").
     *  Typically /proc/self/exe of a binary that dispatches the verb. */
    std::string workerExe;

    /** Worker-pool size; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Per-run wall-clock limit before the worker is presumed wedged
     *  and SIGKILLed (the run retries once). 0 disables the limit. */
    double timeoutSeconds = 300.0;

    /** Honor "!"-prefixed test-hook overrides in workers (crash/wedge
     *  injection for the robustness tests); off for real campaigns. */
    bool testHooks = false;

    /** Suppress the coordinator's progress/oversubscription chatter. */
    bool quiet = false;

    /**
     * Retire each worker after this many runs (0 = never). 1 emulates a
     * hand-rolled spawn-per-run shell loop — the baseline bench_campaign
     * compares the pipelined pool against.
     */
    unsigned runsPerWorker = 0;
};

struct CampaignResult
{
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    /** Runs skipped because the store already held their records. */
    std::uint64_t skipped = 0;
    /** Crash/timeout retries performed (not extra records). */
    std::uint64_t retried = 0;

    bool operator==(const CampaignResult &) const = default;
};

/**
 * Drive the whole campaign: fan @p runs out over the worker pool and
 * append a record per run to @p store (completion order; per-run stats
 * bytes are job-count-invariant). Runs already in the store are
 * skipped. Crashed/wedged runs are retried once on a fresh worker, then
 * recorded as "failed" with the exit reason and a stderr tail — a bad
 * run never aborts the campaign.
 */
CampaignResult runCampaign(const std::string &canonicalScenario,
                           const std::vector<RunSpec> &runs,
                           ResultsStore &store, const RunnerConfig &config);

/** Percent-encode / decode protocol fields ('%', space, tab, CR, LF). */
std::string encodeField(const std::string &s);
std::string decodeField(const std::string &s);

} // namespace ulp::campaign

#endif // ULP_CAMPAIGN_RUNNER_HH
