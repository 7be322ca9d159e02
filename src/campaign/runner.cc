#include "campaign/runner.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/network.hh"
#include "core/sensor_node.hh"
#include "fault/fault_injector.hh"
#include "scenario/lower.hh"
#include "scenario/resilience.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "sleep/controller.hh"

namespace ulp::campaign {

namespace {

using Clock = std::chrono::steady_clock;

std::string
readFileOrFatal(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

std::unique_ptr<fault::FaultInjector>
wireScenarioRun(core::Network &network, const scenario::Scenario &scenario,
                const scenario::Lowered &low)
{
    if (low.broadcastLoss > 0.0) {
        if (!network.broadcastChannel()) {
            sim::fatal("[radio] loss needs the sequential broadcast "
                       "channel: threads = 1 and model = broadcast (the "
                       "spatial model has per-link loss instead)");
        }
        for (unsigned d = 0; net::Channel *ch = network.broadcastChannel(d);
             ++d) {
            ch->setLossProbability(low.broadcastLoss);
        }
    }

    if (!low.fault)
        return nullptr;
    // The fault campaign attaches to one node's fabric (and, when
    // available, the broadcast channel), on that node's shard.
    const unsigned target = low.fault->node;
    core::SensorNode &node = network.node(target);
    auto injector = std::make_unique<fault::FaultInjector>(
        network.shardSimulation(network.shardOf(target)), "fault",
        scenario.seed);
    injector->attachSram(&node.memory());
    injector->attachDevice("msgProc", &node.msgProc());
    injector->attachDevice("compressor", &node.compressor());
    if (net::Channel *ch = network.broadcastChannel())
        injector->attachChannel(ch);
    // node-fail / node-revive plan actions act on the target node.
    injector->attachLifecycle([&network, target](bool up) {
        if (up)
            network.reviveNodeNow(target);
        else
            network.powerOffNodeNow(target);
    });
    injector->runText(readFileOrFatal(low.fault->campaign));
    return injector;
}

std::string
encodeField(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '%' || c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            char buf[4];
            std::snprintf(buf, sizeof buf, "%%%02x", c);
            out += buf;
        } else
            out += static_cast<char>(c);
    }
    return out;
}

std::string
decodeField(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size() + 0u &&
            std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
            std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
            out += static_cast<char>(
                std::stoi(s.substr(i + 1, 2), nullptr, 16));
            i += 2;
        } else
            out += s[i];
    }
    return out;
}

std::string
executeRun(const scenario::Scenario &scenario)
{
    scenario::Lowered low = scenario::lower(scenario);
    const unsigned N = static_cast<unsigned>(low.spec.nodes.size());

    core::Network network(low.spec);
    sleep::SleepController sleepCtl(network);

    const std::unique_ptr<fault::FaultInjector> injector =
        wireScenarioRun(network, scenario, low);

    std::optional<scenario::ResilienceReport> resilience;
    if (scenario.lifecycle) {
        scenario::ResilienceManager manager(network, scenario, low);
        resilience = manager.run();
    } else {
        network.runForSeconds(low.seconds);
    }

    const core::Network::Counters c = network.counters();

    std::uint64_t sinkPackets = 0;
    std::size_t origins = 0;
    if (low.sink) {
        const core::MessageProcessor &mp =
            network.node(*low.sink).msgProc();
        sinkPackets = mp.localDeliveries();
        origins = mp.localDeliveriesBySource().size();
    }

    std::uint64_t prepared = 0;
    double energy = 0.0;
    for (unsigned i = 0; i < N; ++i) {
        prepared += network.node(i).msgProc().framesPrepared();
        energy += network.node(i).totalAverageWatts() * low.seconds;
    }

    // Routed scenario: fraction of originated frames that reached the
    // sink (the resilience layer's definition). Unrouted: MAC-level
    // delivered/sent (broadcast fan-out can push this past 1).
    const double deliveryRatio =
        low.sink ? (prepared ? static_cast<double>(sinkPackets) /
                                   static_cast<double>(prepared)
                             : 0.0)
                 : (c.framesSent
                        ? static_cast<double>(c.framesDelivered) /
                              static_cast<double>(c.framesSent)
                        : 0.0);
    // Application payloads are one byte (8 bits) per packet at the sink.
    const double energyPerBit =
        sinkPackets ? energy / (static_cast<double>(sinkPackets) * 8.0)
                    : 0.0;
    const double lifetime =
        resilience ? sim::ticksToSeconds(resilience->lastDeliveryTick)
                   : low.seconds;

    // The byte-identity contract: fixed schema, fixed formats, no host
    // facts. Keep in sync with store.hh's doc comment.
    char buf[512];
    int n = std::snprintf(
        buf, sizeof buf,
        "{\"events\":%llu,\"sent\":%llu,\"delivered\":%llu,"
        "\"collisions\":%llu,\"ep_isrs\":%llu,\"wakeups\":%llu,"
        "\"prepared\":%llu,\"sink_packets\":%llu,\"origins\":%llu,"
        "\"energy_j\":%.9g,\"delivery_ratio\":%.6f,"
        "\"energy_per_bit_j\":%.9g,\"lifetime_s\":%.6f}",
        static_cast<unsigned long long>(c.eventsProcessed),
        static_cast<unsigned long long>(c.framesSent),
        static_cast<unsigned long long>(c.framesDelivered),
        static_cast<unsigned long long>(c.collisions),
        static_cast<unsigned long long>(c.epIsrs),
        static_cast<unsigned long long>(c.mcuWakeups),
        static_cast<unsigned long long>(prepared),
        static_cast<unsigned long long>(sinkPackets),
        static_cast<unsigned long long>(origins), energy, deliveryRatio,
        energyPerBit, lifetime);
    if (n < 0 || static_cast<std::size_t>(n) >= sizeof buf)
        sim::fatal("stats record overflow");
    return std::string(buf, static_cast<std::size_t>(n));
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

namespace {

/** Handle one "!"-prefixed test-hook override; true when consumed. */
bool
applyTestHook(const std::string &key, const std::string &value)
{
    if (key == "!kill") {
        if (value == "hard") {
            std::raise(SIGKILL);
        } else if (value == "exit") {
            _exit(3);
        } else if (value == "wedge") {
            for (;;)
                pause();
        }
        sim::fatal("unknown !kill mode '%s'", value.c_str());
    }
    if (key == "!flaky") {
        // Crash the first time through, succeed once the marker exists:
        // the retry-recovers test.
        if (std::ifstream(value).good())
            return true;
        std::ofstream(value).put('x');
        std::raise(SIGKILL);
    }
    return false;
}

} // namespace

int
workerMain(int argc, char **argv)
{
    bool testHooks = false;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--test-hooks") == 0)
            testHooks = true;
    }
    sim::setQuiet(true);

    scenario::Scenario base;
    bool haveBase = false;

    char *lineBuf = nullptr;
    std::size_t lineCap = 0;
    ssize_t len;
    while ((len = getline(&lineBuf, &lineCap, stdin)) > 0) {
        std::string line(lineBuf, static_cast<std::size_t>(len));
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r'))
            line.pop_back();
        if (line.empty())
            continue;

        std::istringstream words(line);
        std::string verb;
        words >> verb;

        if (verb == "exit")
            break;

        if (verb == "scenario") {
            std::size_t bytes = 0;
            words >> bytes;
            std::string text(bytes, '\0');
            if (std::fread(text.data(), 1, bytes, stdin) != bytes) {
                std::fprintf(stderr, "campaign-worker: truncated "
                                     "scenario preamble\n");
                return 1;
            }
            try {
                base = scenario::parseScenario(text, "<campaign>");
            } catch (const sim::SimError &e) {
                std::fprintf(stderr, "campaign-worker: %s\n", e.what());
                return 1;
            }
            base.trace.reset(); // campaigns never trace
            haveBase = true;
            continue;
        }

        if (verb != "run") {
            std::fprintf(stderr, "campaign-worker: bad verb '%s'\n",
                         verb.c_str());
            return 1;
        }
        if (!haveBase) {
            std::fprintf(stderr,
                         "campaign-worker: run before scenario\n");
            return 1;
        }

        std::uint64_t id = 0;
        words >> id;
        std::vector<Override> overrides;
        std::string field;
        while (words >> field) {
            std::string decoded = decodeField(field);
            auto eq = decoded.find('=');
            overrides.emplace_back(
                eq == std::string::npos ? decoded : decoded.substr(0, eq),
                eq == std::string::npos ? std::string()
                                        : decoded.substr(eq + 1));
        }

        const Clock::time_point start = Clock::now();
        try {
            scenario::Scenario sc = base;
            for (const Override &o : overrides) {
                if (testHooks && !o.first.empty() && o.first[0] == '!') {
                    applyTestHook(o.first, o.second);
                    continue;
                }
                scenario::applyScenarioKey(sc, o.first, o.second,
                                           "<campaign run>");
            }
            scenario::validateScenario(sc, "<campaign run>");
            const std::string stats = executeRun(sc);
            const auto us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - start)
                    .count();
            std::printf("ok %llu %lld %s\n",
                        static_cast<unsigned long long>(id),
                        static_cast<long long>(us), stats.c_str());
        } catch (const std::exception &e) {
            std::printf("fail %llu %s\n",
                        static_cast<unsigned long long>(id),
                        encodeField(e.what()).c_str());
        }
        std::fflush(stdout);
    }
    free(lineBuf);
    return 0;
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

namespace {

struct Job
{
    const RunSpec *run = nullptr;
    unsigned attempts = 1;
    Clock::time_point start{};
};

struct Worker
{
    pid_t pid = -1;
    int in = -1;   ///< coordinator -> worker stdin (write end)
    int out = -1;  ///< worker stdout (read end)
    int err = -1;  ///< worker stderr (read end)
    std::string outBuf;
    std::string errBuf;
    std::deque<Job> outstanding;
    unsigned assigned = 0; ///< runs ever handed to this worker
    bool exitSent = false;
    bool killedTimeout = false;
};

/** Outstanding runs a worker's pipe may hold (1 executing + 1 queued). */
constexpr std::size_t pipelineDepth = 2;
/** Stderr tail bytes kept per worker (attached to failure records). */
constexpr std::size_t stderrCap = 8192;

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // EPIPE etc: the EOF path cleans up
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

Worker
spawnWorker(const RunnerConfig &config, const std::string &preamble)
{
    int inPipe[2], outPipe[2], errPipe[2];
    if (pipe2(inPipe, O_CLOEXEC) != 0 || pipe2(outPipe, O_CLOEXEC) != 0 ||
        pipe2(errPipe, O_CLOEXEC) != 0) {
        sim::fatal("campaign: pipe2 failed: %s", std::strerror(errno));
    }

    pid_t pid = fork();
    if (pid < 0)
        sim::fatal("campaign: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: wire the pipe ends onto stdio; dup2 clears CLOEXEC, so
        // every other coordinator fd vanishes across exec.
        dup2(inPipe[0], STDIN_FILENO);
        dup2(outPipe[1], STDOUT_FILENO);
        dup2(errPipe[1], STDERR_FILENO);
        const char *argv[4];
        argv[0] = config.workerExe.c_str();
        argv[1] = "campaign-worker";
        argv[2] = config.testHooks ? "--test-hooks" : nullptr;
        argv[3] = nullptr;
        execv(config.workerExe.c_str(),
              const_cast<char *const *>(argv));
        std::fprintf(stderr, "campaign-worker: exec '%s' failed: %s\n",
                     config.workerExe.c_str(), std::strerror(errno));
        _exit(127);
    }

    close(inPipe[0]);
    close(outPipe[1]);
    close(errPipe[1]);

    Worker w;
    w.pid = pid;
    w.in = inPipe[1];
    w.out = outPipe[0];
    w.err = errPipe[0];
    writeAll(w.in, preamble);
    return w;
}

std::string
stderrTail(const Worker &w)
{
    std::string tail = w.errBuf;
    while (!tail.empty() &&
           (tail.back() == '\n' || tail.back() == '\r'))
        tail.pop_back();
    return tail;
}

std::string
deathReason(const Worker &w, int status, double timeoutSeconds)
{
    std::string why;
    if (w.killedTimeout) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "run exceeded the %.1fs timeout; worker killed",
                      timeoutSeconds);
        why = buf;
    } else if (WIFSIGNALED(status)) {
        why = std::string("worker killed by signal ") +
              std::to_string(WTERMSIG(status));
    } else if (WIFEXITED(status)) {
        why = std::string("worker exited with status ") +
              std::to_string(WEXITSTATUS(status));
    } else {
        why = "worker died";
    }
    std::string tail = stderrTail(w);
    if (!tail.empty())
        why += "; stderr: " + tail;
    return why;
}

std::vector<std::string>
overrideStrings(const RunSpec &run)
{
    std::vector<std::string> out;
    out.reserve(run.overrides.size());
    for (const Override &o : run.overrides)
        out.push_back(o.first + "=" + o.second);
    return out;
}

} // namespace

CampaignResult
runCampaign(const std::string &canonicalScenario,
            const std::vector<RunSpec> &runs, ResultsStore &store,
            const RunnerConfig &config)
{
    CampaignResult result;

    std::deque<Job> pending;
    for (const RunSpec &run : runs) {
        if (store.completed().count(run.id)) {
            ++result.skipped;
            continue;
        }
        pending.push_back(Job{&run, 1, {}});
    }
    if (pending.empty())
        return result;

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned jobs = config.jobs ? config.jobs : hw;
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, pending.size()));
    jobs = std::max(jobs, 1u);
    if (config.jobs > hw && !config.quiet) {
        std::fprintf(stderr,
                     "ulpsim: campaign: --jobs=%u oversubscribes this "
                     "host's %u hardware thread(s); expect queuing, not "
                     "speedup\n",
                     config.jobs, hw);
    }

    std::signal(SIGPIPE, SIG_IGN);

    const std::string preamble =
        "scenario " + std::to_string(canonicalScenario.size()) + "\n" +
        canonicalScenario;

    std::vector<Worker> workers;

    auto liveWorkers = [&workers] {
        std::size_t n = 0;
        for (const Worker &w : workers)
            n += w.pid >= 0;
        return n;
    };

    auto sendJob = [&](Worker &w, Job job) {
        job.start = Clock::now();
        std::string line =
            "run " + std::to_string(job.run->id);
        for (const Override &o : job.run->overrides)
            line += " " + encodeField(o.first + "=" + o.second);
        line += "\n";
        w.outstanding.push_back(job);
        ++w.assigned;
        writeAll(w.in, line);
    };

    // Fill a worker's pipeline from the pending queue; retire it with an
    // `exit` once it can take no more and has nothing in flight.
    auto assign = [&](Worker &w) {
        if (w.pid < 0 || w.exitSent)
            return;
        while (!pending.empty() &&
               w.outstanding.size() < pipelineDepth &&
               (config.runsPerWorker == 0 ||
                w.assigned < config.runsPerWorker)) {
            Job job = pending.front();
            pending.pop_front();
            sendJob(w, job);
        }
        const bool exhausted = config.runsPerWorker != 0 &&
                               w.assigned >= config.runsPerWorker;
        if (w.outstanding.empty() && (pending.empty() || exhausted)) {
            w.exitSent = true;
            writeAll(w.in, "exit\n");
            close(w.in);
            w.in = -1;
        }
    };

    auto recordFrom = [&](Worker &w, const std::string &line) {
        std::istringstream words(line);
        std::string verb;
        std::uint64_t id = 0;
        words >> verb >> id;
        if (w.outstanding.empty() || verb.empty() ||
            w.outstanding.front().run->id != id) {
            // Protocol corruption: poison the worker; the EOF path
            // requeues or fails whatever was in flight.
            if (!config.quiet) {
                std::fprintf(stderr,
                             "ulpsim: campaign: worker %d spoke out of "
                             "turn ('%.40s'); killing it\n",
                             static_cast<int>(w.pid), line.c_str());
            }
            kill(w.pid, SIGKILL);
            return;
        }
        Job job = w.outstanding.front();
        w.outstanding.pop_front();
        if (!w.outstanding.empty())
            w.outstanding.front().start = Clock::now();

        RunRecord record;
        record.id = id;
        record.attempts = job.attempts;
        record.overrides = overrideStrings(*job.run);
        if (verb == "ok") {
            std::uint64_t us = 0;
            words >> us;
            std::string stats;
            std::getline(words, stats);
            if (!stats.empty() && stats.front() == ' ')
                stats.erase(0, 1);
            record.status = "ok";
            record.elapsedUs = us;
            record.stats = stats;
            ++result.ok;
        } else if (verb == "fail") {
            std::string message;
            words >> message;
            record.status = "failed";
            record.error = decodeField(message);
            ++result.failed;
        } else {
            kill(w.pid, SIGKILL);
            w.outstanding.push_front(job);
            return;
        }
        store.append(record);
    };

    auto reapWorker = [&](Worker &w) {
        int status = 0;
        waitpid(w.pid, &status, 0);
        // Only the head of the queue was executing when the process
        // died: that run consumes its one retry (or is recorded as
        // failed). Runs queued behind it never started — they are
        // requeued with their attempt budget intact.
        for (std::size_t i = w.outstanding.size(); i-- > 0;) {
            Job &job = w.outstanding[i];
            if (i > 0) {
                pending.push_front(Job{job.run, job.attempts, {}});
            } else if (job.attempts < 2) {
                ++job.attempts;
                ++result.retried;
                pending.push_front(Job{job.run, job.attempts, {}});
            } else {
                RunRecord record;
                record.id = job.run->id;
                record.status = "failed";
                record.attempts = job.attempts;
                record.overrides = overrideStrings(*job.run);
                record.error =
                    deathReason(w, status, config.timeoutSeconds);
                store.append(record);
                ++result.failed;
            }
        }
        w.outstanding.clear();
        if (w.in >= 0)
            close(w.in);
        close(w.out);
        close(w.err);
        w.pid = -1;
        w.in = w.out = w.err = -1;
    };

    while (true) {
        // Keep the pool at strength while there is work to hand out.
        while (!pending.empty() && liveWorkers() < jobs)
            workers.push_back(spawnWorker(config, preamble));
        for (Worker &w : workers)
            assign(w);

        bool anyOutstanding = false;
        for (const Worker &w : workers)
            anyOutstanding |= w.pid >= 0 && !w.outstanding.empty();
        if (pending.empty() && !anyOutstanding) {
            bool anyLive = false;
            for (Worker &w : workers) {
                if (w.pid >= 0) {
                    anyLive = true;
                    // Idle worker draining its exit: reap on EOF below.
                }
            }
            if (!anyLive)
                break;
        }

        // Poll every live worker's stdout/stderr, bounded by the nearest
        // run deadline.
        std::vector<pollfd> fds;
        std::vector<std::pair<std::size_t, bool>> who; // worker, isErr
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (workers[i].pid < 0)
                continue;
            fds.push_back({workers[i].out, POLLIN, 0});
            who.emplace_back(i, false);
            fds.push_back({workers[i].err, POLLIN, 0});
            who.emplace_back(i, true);
        }
        int timeoutMs = -1;
        if (config.timeoutSeconds > 0) {
            const Clock::time_point now = Clock::now();
            for (const Worker &w : workers) {
                if (w.pid < 0 || w.outstanding.empty())
                    continue;
                const auto deadline =
                    w.outstanding.front().start +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            config.timeoutSeconds));
                const auto left =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now)
                        .count();
                const int ms =
                    static_cast<int>(std::max<long long>(0, left)) + 10;
                timeoutMs = timeoutMs < 0 ? ms : std::min(timeoutMs, ms);
            }
        }
        const int ready =
            poll(fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);
        if (ready < 0 && errno != EINTR)
            sim::fatal("campaign: poll failed: %s", std::strerror(errno));

        for (std::size_t f = 0; f < fds.size(); ++f) {
            if (!(fds[f].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Worker &w = workers[who[f].first];
            if (w.pid < 0)
                continue; // reaped earlier this sweep
            char buf[65536];
            ssize_t n = ::read(fds[f].fd, buf, sizeof buf);
            if (n > 0) {
                if (who[f].second) {
                    w.errBuf.append(buf, static_cast<std::size_t>(n));
                    if (w.errBuf.size() > stderrCap) {
                        w.errBuf.erase(0, w.errBuf.size() - stderrCap);
                    }
                } else {
                    w.outBuf.append(buf, static_cast<std::size_t>(n));
                    std::size_t nl;
                    while ((nl = w.outBuf.find('\n')) !=
                           std::string::npos) {
                        std::string line = w.outBuf.substr(0, nl);
                        w.outBuf.erase(0, nl + 1);
                        recordFrom(w, line);
                        if (w.pid < 0)
                            break;
                    }
                }
                continue;
            }
            if (n == 0 && !who[f].second) {
                // Worker stdout EOF: it exited (cleanly or not).
                reapWorker(w);
            }
        }

        // Wedged-run sweep: a head job past its deadline means the
        // worker is stuck inside a simulation; only SIGKILL helps.
        if (config.timeoutSeconds > 0) {
            const Clock::time_point now = Clock::now();
            for (Worker &w : workers) {
                if (w.pid < 0 || w.outstanding.empty() ||
                    w.killedTimeout) {
                    continue;
                }
                const std::chrono::duration<double> age =
                    now - w.outstanding.front().start;
                if (age.count() >= config.timeoutSeconds) {
                    w.killedTimeout = true;
                    kill(w.pid, SIGKILL);
                }
            }
        }
    }

    return result;
}

} // namespace ulp::campaign
