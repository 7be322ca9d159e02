#include "core/threshold_filter.hh"

namespace ulp::core {

ThresholdFilter::ThresholdFilter(sim::Simulation &simulation,
                                 const std::string &name,
                                 sim::SimObject *parent,
                                 fabric::EventSource &event_port,
                                 ProbeRecorder *probes,
                                 const sim::ClockDomain &clock,
                                 const power::PowerModel &model,
                                 sim::Tick wakeup_ticks,
                                 sim::Cycles compare_cycles)
    : SlaveDevice(simulation, name, parent,
                  {map::filterBase, map::filterSize}, event_port, probes,
                  clock, model, wakeup_ticks, true),
      compareCycles(compare_cycles),
      decideEvent([this] { decide(); }, name + ".decide"),
      statDecisions(this, "decisions", "comparisons performed"),
      statPasses(this, "passes", "data that met the threshold")
{
}

std::uint8_t
ThresholdFilter::busRead(map::Addr offset)
{
    switch (offset) {
      case map::filterThresh:
        return thresh;
      case map::filterData:
        return datum;
      case map::filterResult:
        return result;
      case map::filterCtrl:
        return ctrl;
      default:
        return 0xFF;
    }
}

void
ThresholdFilter::busWrite(map::Addr offset, std::uint8_t value)
{
    switch (offset) {
      case map::filterThresh:
        thresh = value;
        recordProbe(Probe::FilterReconfigured);
        break;
      case map::filterData:
        datum = value;
        beActiveFor(compareCycles);
        eventq().reschedule(&decideEvent,
                            curTick() + cyclesToTicks(compareCycles));
        break;
      case map::filterCtrl:
        ctrl = value;
        break;
      default:
        break;
    }
}

void
ThresholdFilter::decide()
{
    bool pass = datum >= thresh;
    result = pass ? 1 : 0;
    ++statDecisions;
    if (pass)
        ++statPasses;
    recordProbe(Probe::FilterDecision);
    if (ctrl & ctrlIrqMode)
        raiseEvent(pass ? Irq::FilterPass : Irq::FilterFail, datum);
}

void
ThresholdFilter::onPowerOff()
{
    if (decideEvent.scheduled())
        eventq().deschedule(&decideEvent);
    datum = 0;
    result = 0;
    // The threshold and mode are ISR-restored configuration; modelling
    // them as retained keeps the Figure 5 ISRs free of reprogramming
    // boilerplate, matching the paper's usage.
}

} // namespace ulp::core
