/**
 * @file
 * Two-pass assembler for the U8 ISA.
 *
 * Syntax (one statement per line; ';' starts a comment):
 *
 *   .org  ADDR            set the location counter
 *   .equ  NAME, VALUE     define a symbol
 *   .byte V1, V2, ...     emit raw bytes
 *   .word V1, V2, ...     emit 16-bit big-endian words
 *   .space N              emit N zero bytes
 *   label:                define a label at the location counter
 *   MNEMONIC operands     one instruction
 *
 * Operands: r0..r15 (registers), p0..p7 (pointer pairs), numeric literals
 * (decimal, 0x hex, 'c' character), symbols/labels, and lo(EXPR)/hi(EXPR)
 * byte selectors. Simple EXPR+EXPR / EXPR-EXPR arithmetic is supported.
 *
 * The paper's applications were "mapped to the simulator by hand" in
 * assembly for both the event processor and the microcontroller (§6.1.1);
 * this assembler plays the role their toolchain did for the uC side, and
 * doubles as the baseline's "TinyOS" build tool.
 */

#ifndef ULP_MCU_ASSEMBLER_HH
#define ULP_MCU_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mcu/isa.hh"

namespace ulp::mcu {

/** A contiguous chunk of assembled bytes. */
struct ImageChunk
{
    std::uint16_t base = 0;
    std::vector<std::uint8_t> bytes;
};

/** Assembler output: chunks plus the resolved symbol table. */
struct Image
{
    std::vector<ImageChunk> chunks;
    std::map<std::string, std::uint16_t> symbols;

    /** Total bytes across chunks (the program's memory footprint). */
    std::size_t sizeBytes() const;

    /** Symbol lookup; fatal() when missing. */
    std::uint16_t symbol(const std::string &name) const;

    /** True when the image defines @p name. */
    bool hasSymbol(const std::string &name) const;
};

/**
 * Assemble @p source. Errors (unknown mnemonics, bad operands, duplicate
 * or undefined symbols, range overflows) raise fatal() with the line
 * number.
 *
 * @param predefined symbols visible to the source before any .equ, used
 *        to inject platform memory maps.
 */
Image assemble(const std::string &source,
               const std::map<std::string, std::uint16_t> &predefined = {});

/** One byte of an assembled image that holds a bound parameter. */
struct ParamFixup
{
    std::size_t param = 0;  ///< index into assemble()'s @p params
    std::size_t chunk = 0;  ///< index into Image::chunks
    std::size_t offset = 0; ///< byte offset within that chunk
};

/**
 * Assemble @p source with @p params left as holes to bind later. A
 * parameter may appear only as a whole byte operand (`LDI r0, NAME` or
 * a `.byte` entry): that byte is emitted as 0 and its position appended
 * to @p fixups. Any other use (inside an expression, as an address, in
 * a directive, redefined) is fatal, so writing a byte value v into
 * every recorded position gives exactly what the same source assembles
 * to after a leading `.equ NAME, v`. Parameters are not in the
 * returned symbol table.
 */
Image assemble(const std::string &source,
               const std::map<std::string, std::uint16_t> &predefined,
               std::span<const std::string> params,
               std::vector<ParamFixup> &fixups);

/** Disassemble one instruction at @p bytes; for debugging and tests. */
std::string disassemble(const std::uint8_t *bytes, std::size_t available);

} // namespace ulp::mcu

#endif // ULP_MCU_ASSEMBLER_HH
