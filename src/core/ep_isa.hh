/**
 * @file
 * The event processor's instruction set (paper Table 2).
 *
 * Words are 8 bits. Word 0 carries a 3-bit opcode in the top bits and a
 * 5-bit operand field in the bottom bits. Where the paper leaves the
 * encoding unspecified we define (see DESIGN.md):
 *
 *   SWITCHON  comp            1 word   operand5 = component id
 *   SWITCHOFF comp            1 word   operand5 = component id
 *   READ      addr            3 words  reg <- mem[addr]
 *   WRITE     addr            3 words  mem[addr] <- reg
 *   WRITEI    addr, imm5      3 words  mem[addr] <- imm (0..31)
 *   TRANSFER  src, dst, len   5 words  operand5 = len (1..32; 32 -> 0)
 *   TERMINATE                 1 word
 *   WAKEUP    vector          2 words  word1 = uC vector table index
 *
 * Addresses are big-endian. The 5-bit WRITEI immediate suffices for the
 * slave command encodings; larger constants are staged in memory and
 * moved with READ/WRITE.
 */

#ifndef ULP_CORE_EP_ISA_HH
#define ULP_CORE_EP_ISA_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ulp::core {

enum class EpOpcode : std::uint8_t {
    SWITCHON = 0,
    SWITCHOFF = 1,
    READ = 2,
    WRITE = 3,
    WRITEI = 4,
    TRANSFER = 5,
    TERMINATE = 6,
    WAKEUP = 7,
};

/** Instruction length in words for each opcode. */
unsigned epInstrWords(EpOpcode opcode);

const char *epMnemonic(EpOpcode opcode);

/** Mnemonic (case-insensitive) to opcode. */
std::optional<EpOpcode> epOpcodeByMnemonic(const std::string &mnemonic);

/** A decoded event-processor instruction. */
struct EpInstruction
{
    EpOpcode opcode = EpOpcode::TERMINATE;
    std::uint8_t operand5 = 0;   ///< component id / imm5 / transfer length-1
    std::uint16_t addrA = 0;     ///< READ/WRITE/WRITEI target, TRANSFER src
    std::uint16_t addrB = 0;     ///< TRANSFER dst
    std::uint8_t vector = 0;     ///< WAKEUP uC vector index

    /** Effective TRANSFER length (1..32). */
    unsigned transferLength() const
    {
        return operand5 == 0 ? 32u : operand5;
    }

    std::vector<std::uint8_t> encode() const;

    /**
     * Decode from @p bytes; empty when truncated. (All 3-bit opcodes are
     * defined, so the opcode itself cannot be invalid.)
     */
    static std::optional<EpInstruction>
    decode(std::span<const std::uint8_t> bytes);
};

} // namespace ulp::core

#endif // ULP_CORE_EP_ISA_HH
