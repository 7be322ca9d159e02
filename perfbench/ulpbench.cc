/**
 * @file
 * ulpbench — the benchmark's timing program. It times calls into the
 * simulator's public module interfaces from outside: nothing in the
 * simulator is instrumented. Every subcommand prints one JSON object
 * on stdout; run.py aggregates them.
 *
 *   ulpbench run SCENARIO [--layers]
 *       One `ulpsim run SCENARIO --stats` equivalent. The calls and their
 *       order are those of tools/ulpsim.cc runScenario(): parse, lower,
 *       EventLog, core::Network, samplers, SleepController,
 *       runForSeconds, EventLog::finish, counters, dumpStats. The stats
 *       dump goes into a CRC-32 digest instead of a file. --layers additionally
 *       times firmware assembly, the spatial model and the locality
 *       partition on their own, after the run.
 *   ulpbench export TRACE_DIR
 *       The `ulptrace chrome` path: readTraceDir then exportChrome,
 *       checked with validateJson; also digests obs::summarize.
 *   ulpbench setup SCENARIO FIRST_SEED COUNT
 *       Set-up (lower, core::Network, SleepController) of COUNT seeds of
 *       one scenario in this process, as a campaign worker does it; the
 *       median.
 *   ulpbench expand SPEC SCENARIO REPS
 *       The campaign coordinator's spec parse and run expansion, the
 *       median of REPS repetitions.
 *   ulpbench calib
 *       A fixed CPU and memory probe, in milliseconds.
 *
 * run.py runs the calib probe before each sample, so that every sample
 * records the host's state next to its timings.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "core/apps.hh"
#include "core/interrupts.hh"
#include "core/network.hh"
#include "core/partition.hh"
#include "core/probes.hh"
#include "net/spatial.hh"
#include "obs/event_log.hh"
#include "obs/exporters.hh"
#include "obs/trace_reader.hh"
#include "scenario/lower.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "sim/telemetry.hh"
#include "sleep/controller.hh"

using namespace ulp;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Process CPU seconds (all threads). */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Current resident set size in KiB, from /proc/self/statm. */
long
currentRssKb()
{
    std::ifstream statm("/proc/self/statm");
    long size = 0, resident = 0;
    statm >> size >> resident;
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** CRC-32 (IEEE, as zlib.crc32) of everything written through it. */
class CrcBuf : public std::streambuf
{
  public:
    CrcBuf()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
    }
    std::uint32_t crc() const { return ~state; }
    std::uint64_t bytes = 0;
    std::uint64_t lines = 0;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(static_cast<unsigned char>(s[i]));
        return n;
    }
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof())
            put(static_cast<unsigned char>(ch));
        return traits_type::not_eof(ch);
    }

  private:
    void
    put(unsigned char c)
    {
        state = table[(state ^ c) & 0xFF] ^ (state >> 8);
        ++bytes;
        lines += c == '\n';
    }
    std::uint32_t table[256];
    std::uint32_t state = 0xFFFFFFFFu;
};

std::uint32_t
crcOf(const std::string &text)
{
    CrcBuf buf;
    std::ostream os(&buf);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
    return buf.crc();
}

/**
 * The fixed host probe: a dependent pseudo-random walk over 8 MiB
 * (memory latency) and an integer mixing loop (core speed). The work
 * never changes, so its time tracks only the host. The ring is freed
 * on return. It runs in a process of its own (`ulpbench calib`), so
 * the samples' processes, their peak RSS and their heap start as in
 * `ulpsim run`.
 */
double
calibMs()
{
    std::vector<std::uint32_t> ring(std::size_t{1} << 21);
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t &slot : ring) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        slot = static_cast<std::uint32_t>(x & (ring.size() - 1));
    }
    const Clock::time_point t0 = Clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < 400000; ++i)
        at = ring[at ^ static_cast<std::uint32_t>(i & 7)];
    std::uint64_t h = at;
    for (int i = 0; i < 4000000; ++i)
        h = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ull + i;
    const double ms = since(t0) * 1e3;
    if (h == 42)
        std::fprintf(stderr, "calib: improbable\n");
    return ms;
}

/** Flat JSON object writer: one line, keys in insertion order. */
class Json
{
  public:
    Json &
    num(const char *key, double v)
    {
        char b[64];
        std::snprintf(b, sizeof b, "%.9g", v);
        return raw(key, b);
    }
    Json &
    count(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &
    flag(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    Json &
    str(const char *key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                q += c;
        }
        return raw(key, q + "\"");
    }
    void
    print() const
    {
        std::printf("{%s}\n", body.c_str());
        std::fflush(stdout);
    }

  private:
    Json &
    raw(const char *key, const std::string &v)
    {
        if (!body.empty())
            body += ",";
        body += "\"" + std::string(key) + "\":" + v;
        return *this;
    }
    std::string body;
};

/** `ulpbench run`: one ulpsim run --stats, phase by phase. */
int
runCommand(const std::string &path, bool layers)
{
    Json out;

    const Clock::time_point wall0 = Clock::now();
    Clock::time_point t = wall0;
    scenario::Scenario sc = scenario::parseScenarioFile(path);
    if (sc.lifecycle || sc.fault)
        sim::fatal("ulpbench: [lifecycle] and [fault] scenarios are not "
                   "benchmark workloads");
    const double parseS = since(t);

    t = Clock::now();
    std::optional<scenario::Lowered> low = scenario::lower(sc);
    const double lowerS = since(t);
    if (low->broadcastLoss > 0.0)
        sim::fatal("ulpbench: [radio] loss is not a benchmark workload");
    const unsigned N = static_cast<unsigned>(low->spec.nodes.size());

    t = Clock::now();
    std::unique_ptr<obs::EventLog> log;
    if (low->trace && !low->trace->out.empty()) {
        obs::EventLogConfig ecfg;
        ecfg.dir = low->trace->out;
        ecfg.energySamplePeriod =
            sim::secondsToTicks(low->trace->energyPeriod);
        std::string bad;
        if (!obs::parseChannelList(low->trace->channels, &ecfg.channelMask,
                                   &bad)) {
            sim::fatal("bad trace channel '%s'", bad.c_str());
        }
        log = std::make_unique<obs::EventLog>(ecfg, sc.threads);
        low->spec.telemetrySink = [&log](unsigned s) {
            return &log->sink(s);
        };
    }
    const double logOpenS = since(t);

    const long rssBefore = currentRssKb();
    t = Clock::now();
    auto network = std::make_unique<core::Network>(low->spec);
    const double networkS = since(t);
    const long rssAfter = currentRssKb();

    t = Clock::now();
    if (log) {
        for (unsigned s = 0; s < sc.threads; ++s)
            log->attachSampler(s, network->shardSimulation(s));
    }
    auto sleepCtl = std::make_unique<sleep::SleepController>(*network);
    const double sleepS = since(t);
    const double setupS = since(wall0);

    t = Clock::now();
    const double cpu0 = cpuSeconds();
    network->runForSeconds(low->seconds);
    const double runS = since(t);
    const double cpuRunS = cpuSeconds() - cpu0;

    t = Clock::now();
    if (log)
        log->finish();
    const double finishS = since(t);

    const core::Network::Counters c = network->counters();
    std::uint64_t sinkPackets = 0;
    if (low->sink)
        sinkPackets = network->node(*low->sink).msgProc().localDeliveries();
    const std::uint64_t traceRecords = log ? log->totalRecorded() : 0;
    const std::uint64_t traceDropped = log ? log->totalDropped() : 0;

    t = Clock::now();
    CrcBuf crc;
    {
        std::ostream os(&crc);
        network->dumpStats(os);
    }
    const double dumpS = since(t);

    // Destruction in runScenario()'s order: locals die in reverse.
    t = Clock::now();
    sleepCtl.reset();
    network.reset();
    log.reset();
    low.reset();
    const double teardownS = since(t);
    const double wallS = since(wall0);

    out.count("nodes", N)
        .count("threads", sc.threads)
        .num("parse_s", parseS)
        .num("lower_s", lowerS)
        .num("log_open_s", logOpenS)
        .num("network_s", networkS)
        .num("sleep_s", sleepS)
        .num("setup_s", setupS)
        .num("run_s", runS)
        .num("cpu_run_s", cpuRunS)
        .num("finish_s", finishS)
        .num("sim_s", runS + finishS)
        .num("dump_s", dumpS)
        .num("teardown_s", teardownS)
        .num("wall_s", wallS)
        .count("rss_network_kb",
               static_cast<std::uint64_t>(std::max(0L, rssAfter - rssBefore)))
        .count("peak_rss_kb", static_cast<std::uint64_t>(peakRssKb()))
        .count("events", c.eventsProcessed)
        .count("sent", c.framesSent)
        .count("delivered", c.framesDelivered)
        .count("collisions", c.collisions)
        .count("ep_isrs", c.epIsrs)
        .count("wakeups", c.mcuWakeups)
        .count("fabric_linked", c.fabricLinked)
        .count("fabric_drops", c.fabricDrops)
        .count("sink_packets", sinkPackets)
        .count("trace_records", traceRecords)
        .count("trace_dropped", traceDropped)
        .count("stats_crc", crc.crc())
        .count("stats_bytes", crc.bytes)
        .count("stats_lines", crc.lines);

    if (layers) {
        // Repeated work, timed on its own once the run is over, so the
        // chain above is the same with or without --layers.
        const Clock::time_point layers0 = Clock::now();
        scenario::Lowered again = scenario::lower(sc);
        t = Clock::now();
        for (const scenario::NodeSpec &ns : again.spec.nodes)
            ns.buildApp();
        const double firmwareS = since(t);
        double spatialS = 0.0, partitionS = 0.0;
        if (again.spec.spatial) {
            t = Clock::now();
            net::SpatialModel model(*again.spec.spatial,
                                    again.spec.positions());
            spatialS = since(t);
            if (sc.threads > 1) {
                t = Clock::now();
                const std::vector<unsigned> parts = core::localityPartition(
                    again.spec.positions(), sc.threads);
                partitionS = since(t);
            }
        }
        out.num("firmware_s", firmwareS)
            .num("spatial_model_s", spatialS)
            .num("partition_s", partitionS)
            .num("layers_s", since(layers0));
    }
    out.print();
    return 0;
}

std::string
decodeIrq(std::uint8_t code)
{
    if (code < core::numIrqCodes)
        return core::irqName(static_cast<core::Irq>(code));
    return "irq" + std::to_string(code);
}

std::string
decodeProbe(std::uint8_t id)
{
    if (id < static_cast<unsigned>(core::Probe::NumProbes))
        return core::probeName(static_cast<core::Probe>(id));
    return "probe" + std::to_string(id);
}

/** `ulpbench export`: the ulptrace chrome path. */
int
exportCommand(const std::string &dir)
{
    Json out;

    const Clock::time_point wall0 = Clock::now();
    obs::MergedLog log = obs::readTraceDir(dir);
    const double readS = since(wall0);

    Clock::time_point t = Clock::now();
    obs::ExportNames names;
    names.irq = decodeIrq;
    names.probe = decodeProbe;
    std::string json = obs::exportChrome(log, names);
    const double exportS = since(t);
    const double wallS = since(wall0);

    std::string error;
    const bool valid = obs::validateJson(json, &error);
    std::uint64_t dropped = 0;
    for (std::uint64_t d : log.droppedPerShard)
        dropped += d;

    out.num("read_s", readS)
        .num("export_s", exportS)
        .num("wall_s", wallS)
        .count("peak_rss_kb", static_cast<std::uint64_t>(peakRssKb()))
        .count("records", log.records.size())
        .count("dropped", dropped)
        .count("chrome_bytes", json.size())
        .count("summary_crc", crcOf(obs::summarize(log)))
        .flag("chrome_valid", valid)
        .str("chrome_error", error);
    out.print();
    return 0;
}

/**
 * `ulpbench setup`: the per-run set-up of campaign workers, in-process —
 * copy the once-parsed scenario, set the run's seed, then lower and
 * build (runner.cc workerMain / executeRun).
 */
int
setupCommand(const std::string &path, std::uint64_t firstSeed,
             unsigned count)
{
    Json out;
    sim::setQuiet(true); // as campaign workers run
    const scenario::Scenario base = scenario::parseScenarioFile(path);
    std::vector<double> setup;
    for (unsigned i = 0; i < count; ++i) {
        const Clock::time_point t0 = Clock::now();
        scenario::Scenario sc = base;
        sc.seed = firstSeed + i;
        scenario::Lowered low = scenario::lower(sc);
        core::Network network(low.spec);
        sleep::SleepController sleepCtl(network);
        setup.push_back(since(t0));
    }
    out.count("runs", count)
        .num("setup_s", median(setup))
        .count("peak_rss_kb", static_cast<std::uint64_t>(peakRssKb()));
    out.print();
    return 0;
}

/** `ulpbench expand`: the coordinator's spec parse and run expansion. */
int
expandCommand(const std::string &specPath, const std::string &scenarioPath,
              unsigned reps)
{
    std::vector<double> times;
    std::size_t runs = 0;
    for (unsigned i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        const campaign::CampaignSpec spec =
            campaign::parseCampaignFile(specPath);
        const scenario::Scenario base =
            scenario::parseScenarioFile(scenarioPath);
        const std::string canonical = scenario::printScenario(base);
        const std::vector<campaign::RunSpec> expanded =
            campaign::expandRuns(spec, base);
        campaign::campaignDigest(canonical, expanded);
        times.push_back(since(t0));
        runs = expanded.size();
    }
    Json().count("runs", runs).num("expand_s", median(times)).print();
    return 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: ulpbench run SCENARIO [--layers]\n"
                 "       ulpbench export TRACE_DIR\n"
                 "       ulpbench setup SCENARIO FIRST_SEED COUNT\n"
                 "       ulpbench expand SPEC SCENARIO REPS\n"
                 "       ulpbench calib\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "calib" && argc == 2) {
            Json().num("calib_ms", calibMs()).print();
            return 0;
        }
        if (cmd == "run" && argc >= 3) {
            bool layers = false;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--layers") == 0)
                    layers = true;
                else
                    usage();
            }
            return runCommand(argv[2], layers);
        }
        if (cmd == "export" && argc == 3)
            return exportCommand(argv[2]);
        if (cmd == "setup" && argc == 5) {
            return setupCommand(
                argv[2], std::strtoull(argv[3], nullptr, 0),
                static_cast<unsigned>(std::strtoul(argv[4], nullptr, 0)));
        }
        if (cmd == "expand" && argc == 5) {
            return expandCommand(
                argv[2], argv[3],
                static_cast<unsigned>(std::strtoul(argv[4], nullptr, 0)));
        }
        usage();
    } catch (const sim::SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
