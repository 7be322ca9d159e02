#include "core/sensor_adc.hh"

#include <algorithm>
#include <cmath>

namespace ulp::core {

SensorAdc::SensorAdc(sim::Simulation &simulation, const std::string &name,
                     sim::SimObject *parent, fabric::EventSource &event_port,
                     ProbeRecorder *probes, const sim::ClockDomain &clock,
                     const power::PowerModel &model, sim::Tick wakeup_ticks,
                     Signal signal, double noise_stddev, std::uint64_t seed)
    : SlaveDevice(simulation, name, parent,
                  {map::sensorBase, map::sensorSize}, event_port, probes,
                  clock, model, wakeup_ticks, true),
      signal(std::move(signal)), noiseStddev(noise_stddev), random(seed),
      doneEvent([this] { acquisitionDone(); }, name + ".acqDone"),
      statSamples(this, "samples", "conversions performed"),
      statAcquisitions(this, "acquisitions",
                       "asynchronous acquisitions started")
{
}

std::uint8_t
SensorAdc::convert()
{
    double value = signal ? static_cast<double>(signal(curTick())) : 0.0;
    if (noiseStddev > 0.0)
        value += random.normal(0.0, noiseStddev);
    value = std::clamp(value, 0.0, 255.0);
    ++statSamples;
    recordProbe(Probe::AdcSampled);
    return static_cast<std::uint8_t>(std::lround(value));
}

std::uint8_t
SensorAdc::busRead(map::Addr offset)
{
    switch (offset) {
      case map::sensorData:
        if (!busy) {
            // Sample-and-hold conversion on read (Figure 5 usage).
            held = convert();
            beActiveFor(1);
        }
        done = false;
        return held;
      case map::sensorStatus:
        return done ? 1 : 0;
      case map::sensorCtrl:
        return busy ? 1 : 0;
      default:
        return 0xFF;
    }
}

void
SensorAdc::busWrite(map::Addr offset, std::uint8_t value)
{
    if (offset == map::sensorCtrl && (value & 1) && !busy) {
        busy = true;
        done = false;
        ++statAcquisitions;
        beActiveFor(defaultAcquireCycles);
        eventq().reschedule(&doneEvent,
                            curTick() +
                                cyclesToTicks(defaultAcquireCycles));
    }
}

void
SensorAdc::acquisitionDone()
{
    busy = false;
    done = true;
    held = convert();
    raiseEvent(Irq::AdcDone, held);
}

void
SensorAdc::onPowerOff()
{
    if (doneEvent.scheduled())
        eventq().deschedule(&doneEvent);
    busy = false;
    done = false;
}

} // namespace ulp::core
