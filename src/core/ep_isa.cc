#include "core/ep_isa.hh"

#include <algorithm>
#include <cctype>

#include "sim/logging.hh"

namespace ulp::core {

unsigned
epInstrWords(EpOpcode opcode)
{
    switch (opcode) {
      case EpOpcode::SWITCHON:
      case EpOpcode::SWITCHOFF:
      case EpOpcode::TERMINATE:
        return 1;
      case EpOpcode::WAKEUP:
        return 2;
      case EpOpcode::READ:
      case EpOpcode::WRITE:
      case EpOpcode::WRITEI:
        return 3;
      case EpOpcode::TRANSFER:
        return 5;
    }
    return 1;
}

const char *
epMnemonic(EpOpcode opcode)
{
    switch (opcode) {
      case EpOpcode::SWITCHON: return "SWITCHON";
      case EpOpcode::SWITCHOFF: return "SWITCHOFF";
      case EpOpcode::READ: return "READ";
      case EpOpcode::WRITE: return "WRITE";
      case EpOpcode::WRITEI: return "WRITEI";
      case EpOpcode::TRANSFER: return "TRANSFER";
      case EpOpcode::TERMINATE: return "TERMINATE";
      case EpOpcode::WAKEUP: return "WAKEUP";
    }
    return "?";
}

std::optional<EpOpcode>
epOpcodeByMnemonic(const std::string &mnemonic)
{
    std::string upper(mnemonic);
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    for (unsigned code = 0; code < 8; ++code) {
        auto op = static_cast<EpOpcode>(code);
        if (upper == epMnemonic(op))
            return op;
    }
    return std::nullopt;
}

std::vector<std::uint8_t>
EpInstruction::encode() const
{
    if (operand5 > 31)
        sim::fatal("EP operand field %u exceeds 5 bits", operand5);

    std::vector<std::uint8_t> out;
    out.push_back(static_cast<std::uint8_t>(
        (static_cast<unsigned>(opcode) << 5) | operand5));

    switch (opcode) {
      case EpOpcode::SWITCHON:
      case EpOpcode::SWITCHOFF:
      case EpOpcode::TERMINATE:
        break;
      case EpOpcode::WAKEUP:
        out.push_back(vector);
        break;
      case EpOpcode::READ:
      case EpOpcode::WRITE:
      case EpOpcode::WRITEI:
        out.push_back(static_cast<std::uint8_t>(addrA >> 8));
        out.push_back(static_cast<std::uint8_t>(addrA & 0xFF));
        break;
      case EpOpcode::TRANSFER:
        out.push_back(static_cast<std::uint8_t>(addrA >> 8));
        out.push_back(static_cast<std::uint8_t>(addrA & 0xFF));
        out.push_back(static_cast<std::uint8_t>(addrB >> 8));
        out.push_back(static_cast<std::uint8_t>(addrB & 0xFF));
        break;
    }
    return out;
}

std::optional<EpInstruction>
EpInstruction::decode(std::span<const std::uint8_t> bytes)
{
    if (bytes.empty())
        return std::nullopt;

    EpInstruction instr;
    instr.opcode = static_cast<EpOpcode>(bytes[0] >> 5);
    instr.operand5 = bytes[0] & 0x1F;

    unsigned words = epInstrWords(instr.opcode);
    if (bytes.size() < words)
        return std::nullopt;

    switch (instr.opcode) {
      case EpOpcode::SWITCHON:
      case EpOpcode::SWITCHOFF:
      case EpOpcode::TERMINATE:
        break;
      case EpOpcode::WAKEUP:
        instr.vector = bytes[1];
        break;
      case EpOpcode::READ:
      case EpOpcode::WRITE:
      case EpOpcode::WRITEI:
        instr.addrA = static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(bytes[1]) << 8) | bytes[2]);
        break;
      case EpOpcode::TRANSFER:
        instr.addrA = static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(bytes[1]) << 8) | bytes[2]);
        instr.addrB = static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(bytes[3]) << 8) | bytes[4]);
        break;
    }
    return instr;
}

} // namespace ulp::core
