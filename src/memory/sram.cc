#include "memory/sram.hh"

#include "sim/logging.hh"

namespace ulp::memory {

Sram::Sram(sim::Simulation &simulation, const std::string &name,
           const Config &config, sim::SimObject *parent)
    : sim::SimObject(simulation, name, parent),
      config(config),
      data(config.sizeBytes, 0),
      epoch(simulation.curTick()),
      statReads(this, "reads", "power-accounted read accesses"),
      statWrites(this, "writes", "power-accounted write accesses"),
      statGatedAccesses(this, "gatedAccesses",
                        "accesses to a Vdd-gated bank (return garbage)"),
      statNotReadyAccesses(this, "notReadyAccesses",
                           "accesses inside the 950 ns bank wakeup window"),
      statBankGatings(this, "bankGatings", "gateBank operations"),
      statBitFlips(this, "bitFlips", "injected soft-error bit flips")
{
    if (config.sizeBytes == 0 || config.bankBytes == 0 ||
        config.sizeBytes % config.bankBytes != 0) {
        sim::fatal("SRAM size %u not a multiple of bank size %u",
                   config.sizeBytes, config.bankBytes);
    }
    banks.resize(config.sizeBytes / config.bankBytes);
    for (Bank &bank : banks)
        bank.stintStart = epoch;
}

unsigned
Sram::bankOf(std::uint16_t addr) const
{
    return addr / config.bankBytes;
}

std::uint8_t &
Sram::cell(std::uint16_t addr)
{
    if (addr >= config.sizeBytes)
        sim::panic("SRAM address %#x out of range (size %u)", addr,
                   config.sizeBytes);
    return data[addr];
}

const std::uint8_t &
Sram::cell(std::uint16_t addr) const
{
    if (addr >= config.sizeBytes)
        sim::panic("SRAM address %#x out of range (size %u)", addr,
                   config.sizeBytes);
    return data[addr];
}

void
Sram::closeStint(Bank &bank)
{
    sim::Tick now = curTick();
    if (bank.gated)
        bank.gatedTicks += now - bank.stintStart;
    else
        bank.poweredTicks += now - bank.stintStart;
    bank.stintStart = now;
}

bool
Sram::checkAccessible(unsigned bank_idx)
{
    Bank &bank = banks[bank_idx];
    if (bank.gated) {
        ++statGatedAccesses;
        return false;
    }
    if (curTick() < bank.readyAt) {
        ++statNotReadyAccesses;
        return false;
    }
    return true;
}

std::uint8_t
Sram::read(std::uint16_t addr)
{
    if (addr >= config.sizeBytes)
        sim::panic("SRAM read at %#x out of range (size %u)", addr,
                   config.sizeBytes);
    ++statReads;
    unsigned bank_idx = bankOf(addr);
    if (!checkAccessible(bank_idx))
        return 0xFF;
    accessJoules += accessEventJoules();
    return cell(addr);
}

void
Sram::write(std::uint16_t addr, std::uint8_t value)
{
    if (addr >= config.sizeBytes)
        sim::panic("SRAM write at %#x out of range (size %u)", addr,
                   config.sizeBytes);
    ++statWrites;
    unsigned bank_idx = bankOf(addr);
    if (!checkAccessible(bank_idx))
        return;
    accessJoules += accessEventJoules();
    cell(addr) = value;
}

std::uint8_t
Sram::peek(std::uint16_t addr) const
{
    return cell(addr);
}

void
Sram::poke(std::uint16_t addr, std::uint8_t value)
{
    cell(addr) = value;
}

void
Sram::loadImage(std::uint16_t base, std::span<const std::uint8_t> bytes)
{
    if (base + bytes.size() > config.sizeBytes) {
        sim::fatal("image of %zu bytes at %#x exceeds SRAM size %u",
                   bytes.size(), base, config.sizeBytes);
    }
    for (std::size_t i = 0; i < bytes.size(); ++i)
        data[base + i] = bytes[i];
}

bool
Sram::flipBit(std::uint16_t addr, unsigned bit)
{
    if (addr >= config.sizeBytes)
        sim::panic("flipBit at %#x out of range (size %u)", addr,
                   config.sizeBytes);
    // A gated bank stores nothing: the strike has no state to disturb.
    if (banks[bankOf(addr)].gated)
        return false;
    cell(addr) ^= static_cast<std::uint8_t>(1u << (bit & 7));
    ++statBitFlips;
    return true;
}

void
Sram::gateBank(unsigned bank_idx)
{
    if (bank_idx >= banks.size())
        sim::panic("gateBank: bank %u out of range", bank_idx);
    Bank &bank = banks[bank_idx];
    if (bank.gated)
        return;
    closeStint(bank);
    bank.gated = true;
    ++statBankGatings;
    // Supply is cut: contents decay. Model as immediate loss.
    std::uint32_t base = bank_idx * config.bankBytes;
    for (std::uint32_t i = 0; i < config.bankBytes; ++i)
        data[base + i] = 0xFF;
}

void
Sram::ungateBank(unsigned bank_idx)
{
    if (bank_idx >= banks.size())
        sim::panic("ungateBank: bank %u out of range", bank_idx);
    Bank &bank = banks[bank_idx];
    if (!bank.gated)
        return;
    closeStint(bank);
    bank.gated = false;
    bank.readyAt = curTick() +
                   sim::secondsToTicks(config.power.wakeupSeconds);
}

void
Sram::settleBank(unsigned bank_idx)
{
    if (bank_idx >= banks.size())
        sim::panic("settleBank: bank %u out of range", bank_idx);
    Bank &bank = banks[bank_idx];
    if (!bank.gated && bank.readyAt > curTick())
        bank.readyAt = curTick();
}

bool
Sram::bankGated(unsigned bank_idx) const
{
    return banks.at(bank_idx).gated;
}

sim::Tick
Sram::bankReadyAt(unsigned bank_idx) const
{
    return banks.at(bank_idx).readyAt;
}

bool
Sram::bankReady(unsigned bank_idx) const
{
    const Bank &bank = banks.at(bank_idx);
    return !bank.gated && curTick() >= bank.readyAt;
}

double
Sram::accessEventJoules() const
{
    // One access keeps one bank plus the global decode/precharge control
    // active for accessTicks on top of the bank's idle draw.
    double extra = config.power.effectiveBankActiveWatts(
                       config.intelligentPrecharge) -
                   config.power.bankIdleWatts +
                   config.power.globalActiveOverheadWatts;
    return extra * sim::ticksToSeconds(config.accessTicks);
}

double
Sram::energyJoules() const
{
    sim::Tick now = curTick();
    double joules = accessJoules;
    for (const Bank &bank : banks) {
        sim::Tick gated = bank.gatedTicks;
        sim::Tick powered = bank.poweredTicks;
        if (bank.gated)
            gated += now - bank.stintStart;
        else
            powered += now - bank.stintStart;
        joules += config.power.bankGatedWatts * sim::ticksToSeconds(gated);
        joules += config.power.bankIdleWatts * sim::ticksToSeconds(powered);
    }
    return joules;
}

double
Sram::averagePowerWatts() const
{
    sim::Tick elapsed = curTick() - epoch;
    if (elapsed == 0)
        return 0.0;
    return energyJoules() / sim::ticksToSeconds(elapsed);
}

} // namespace ulp::memory
