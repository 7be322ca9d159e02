#include "obs/event_log.hh"

#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "sim/logging.hh"

namespace ulp::obs {

bool
parseChannelList(const std::string &list, std::uint32_t *mask,
                 std::string *error)
{
    std::uint32_t out = 0;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        std::string item = list.substr(start, comma - start);
        start = comma + 1;
        if (item.empty())
            continue;
        if (item == "all") {
            out = sim::allTelemetryChannels;
            continue;
        }
        bool found = false;
        for (unsigned c = 0; c < sim::numTelemetryChannels; ++c) {
            if (item ==
                telemetryChannelName(static_cast<sim::TelemetryChannel>(c))) {
                out |= 1u << c;
                found = true;
                break;
            }
        }
        if (!found) {
            if (error)
                *error = item;
            return false;
        }
    }
    if (out == 0) {
        // "" or ",," select nothing — surely a mistake, not a request
        // for a trace with every channel off.
        if (error)
            *error = list;
        return false;
    }
    *mask = out;
    return true;
}

std::string
allChannelNames()
{
    std::string out;
    for (unsigned c = 0; c < sim::numTelemetryChannels; ++c) {
        if (!out.empty())
            out += ",";
        out += telemetryChannelName(static_cast<sim::TelemetryChannel>(c));
    }
    return out;
}

// --- ShardLog --------------------------------------------------------------

ShardLog::ShardLog(std::uint32_t channel_mask, std::size_t capacity)
    : capacity(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
      slots(this->capacity)
{
    channelMask = channel_mask;
}

std::uint32_t
ShardLog::registerComponent(const std::string &name)
{
    names.push_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
}

void
ShardLog::addEnergyProbe(std::uint32_t component,
                         std::function<double()> joules)
{
    energyProbes.push_back({component, std::move(joules)});
}

void
ShardLog::record(sim::Tick tick, std::uint32_t component,
                 sim::TelemetryChannel channel, std::uint8_t a,
                 std::uint16_t b, std::uint64_t payload)
{
    const std::size_t t = _tail.load(std::memory_order_relaxed);
    if (t - _head.load(std::memory_order_acquire) == capacity) {
        drops.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Record &r = slots[t & (capacity - 1)];
    r.tick = tick;
    r.component = component;
    r.channel = static_cast<std::uint8_t>(channel);
    r.a = a;
    r.b = b;
    r.payload = payload;
    _tail.store(t + 1, std::memory_order_release);
}

std::size_t
ShardLog::drainTo(std::FILE *out)
{
    std::size_t h = _head.load(std::memory_order_relaxed);
    const std::size_t t = _tail.load(std::memory_order_acquire);
    std::size_t written = 0;
    while (h != t) {
        // Write the longest contiguous span in one call.
        std::size_t idx = h & (capacity - 1);
        std::size_t run = std::min(t - h, capacity - idx);
        if (std::fwrite(&slots[idx], sizeof(Record), run, out) != run)
            sim::fatal("obs: short write to trace file");
        h += run;
        written += run;
    }
    _head.store(h, std::memory_order_release);
    return written;
}

// --- EventLog --------------------------------------------------------------

EventLog::EventLog(const EventLogConfig &config, unsigned num_shards)
    : config(config)
{
    if (num_shards == 0)
        sim::fatal("obs: EventLog needs at least one shard");
    if (config.dir.empty())
        sim::fatal("obs: EventLog needs an output directory");

    std::error_code ec;
    std::filesystem::create_directories(config.dir, ec);
    if (ec) {
        sim::fatal("obs: cannot create trace directory '%s': %s",
                   config.dir.c_str(), ec.message().c_str());
    }

    for (unsigned s = 0; s < num_shards; ++s) {
        shards.push_back(std::make_unique<ShardLog>(config.channelMask,
                                                    config.ringCapacity));
        std::string path =
            config.dir + "/shard-" + std::to_string(s) + ".ulpt";
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (!f)
            sim::fatal("obs: cannot open '%s' for writing", path.c_str());
        ShardFileHeader header{};
        std::memcpy(header.magic, shardFileMagic, sizeof(header.magic));
        header.shard = s;
        header.ticksPerSecond = sim::ticksPerSecond;
        if (std::fwrite(&header, sizeof(header), 1, f) != 1)
            sim::fatal("obs: cannot write header of '%s'", path.c_str());
        files.push_back(f);
    }

    if (config.streaming)
        flusher = std::thread([this] { flusherMain(); });
}

EventLog::~EventLog()
{
    finish();
}

void
EventLog::attachSampler(unsigned shard, sim::Simulation &simulation)
{
    ShardLog &log = *shards[shard];
    if (!log.wants(sim::TelemetryChannel::Energy))
        return;
    log.simulation = &simulation;
    const sim::Tick period = config.energySamplePeriod;
    auto *raw = new sim::EventFunctionWrapper(
        [&log, period] {
            ++log.samplerFires;
            const sim::Tick now = log.simulation->curTick();
            for (ShardLog::EnergyProbe &probe : log.energyProbes) {
                // Emit only when the tracker's accrual *rate* changed
                // since the last sample. Cumulative energy is piecewise
                // linear (leakage accrues even when idle, so the value
                // itself never sits still); while the per-period delta
                // repeats, the intermediate records are recoverable by
                // interpolation and every derived power window is
                // unchanged. When the slope does change, the linear run
                // is first closed with one boundary record so the new
                // slope stays one period wide instead of smearing over
                // the gap.
                const double joules = probe.joules();
                const double delta = joules - probe.lastJoules;
                if (probe.lastJoules >= 0.0 && delta == probe.lastDelta) {
                    probe.lastJoules = joules;
                    probe.skipped = true;
                    continue;
                }
                if (probe.skipped) {
                    log.record(now - period, probe.component,
                               sim::TelemetryChannel::Energy, 0, 0,
                               std::bit_cast<std::uint64_t>(
                                   probe.lastJoules));
                    probe.skipped = false;
                }
                probe.lastJoules = joules;
                probe.lastDelta = delta;
                log.record(now, probe.component,
                           sim::TelemetryChannel::Energy, 0, 0,
                           std::bit_cast<std::uint64_t>(joules));
            }
            log.simulation->eventq().schedule(log.samplerEvent.get(),
                                              now + period);
        },
        "obs.energySampler", sim::Event::maxPriority);
    log.samplerEvent.reset(raw);
    simulation.eventq().schedule(raw, simulation.curTick() + period);
}

void
EventLog::flusherMain()
{
    while (!stopFlag.load(std::memory_order_acquire)) {
        bool any = false;
        for (std::size_t s = 0; s < shards.size(); ++s)
            any |= shards[s]->drainTo(files[s]) > 0;
        if (!any)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void
EventLog::drainAll()
{
    for (std::size_t s = 0; s < shards.size(); ++s) {
        shards[s]->drainTo(files[s]);
        std::fflush(files[s]);
    }
}

void
EventLog::finish()
{
    if (finished)
        return;
    finished = true;

    // Stop sampling first (needs live simulations), then flushing.
    for (auto &shard : shards) {
        if (shard->samplerEvent) {
            if (shard->samplerEvent->scheduled())
                shard->simulation->eventq().deschedule(
                    shard->samplerEvent.get());
            shard->samplerEvent.reset();
        }
    }
    stopFlag.store(true, std::memory_order_release);
    if (flusher.joinable())
        flusher.join();
    drainAll();
    for (std::FILE *f : files)
        std::fclose(f);
    files.clear();

    // Sidecar metadata: everything the reader needs beyond raw records.
    std::string path = config.dir + "/meta.ulpt";
    std::FILE *meta = std::fopen(path.c_str(), "w");
    if (!meta)
        sim::fatal("obs: cannot open '%s' for writing", path.c_str());
    std::fprintf(meta, "ulptrace-meta 1\n");
    std::fprintf(meta, "shards %u\n", numShards());
    std::fprintf(meta, "ticks_per_second %llu\n",
                 static_cast<unsigned long long>(sim::ticksPerSecond));
    std::fprintf(meta, "channel_mask %#x\n", config.channelMask);
    std::fprintf(meta, "sample_period %llu\n",
                 static_cast<unsigned long long>(config.energySamplePeriod));
    for (unsigned s = 0; s < numShards(); ++s) {
        std::fprintf(meta, "dropped %u %llu\n", s,
                     static_cast<unsigned long long>(shards[s]->dropped()));
    }
    for (unsigned s = 0; s < numShards(); ++s) {
        const auto &names = shards[s]->components();
        for (std::size_t id = 0; id < names.size(); ++id) {
            std::fprintf(meta, "component %u %zu %s\n", s, id,
                         names[id].c_str());
        }
    }
    std::fclose(meta);
}

std::uint64_t
EventLog::totalRecorded() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards)
        total += shard->recorded();
    return total;
}

std::uint64_t
EventLog::totalDropped() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards)
        total += shard->dropped();
    return total;
}

} // namespace ulp::obs
