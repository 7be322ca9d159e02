/**
 * @file
 * Tests of the U8 microcontroller substrate: the two-pass assembler
 * (formats, directives, expressions, errors), the disassembler round
 * trip, and the core's instruction semantics, flags, stack, interrupts,
 * sleep, and cycle accounting.
 */

#include <gtest/gtest.h>

#include <map>

#include "mcu/assembler.hh"
#include "mcu/mcu.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::mcu;

namespace {

/** Flat 64 KiB test memory. */
struct TestBus : McuBus
{
    std::vector<std::uint8_t> mem = std::vector<std::uint8_t>(0x10000, 0);

    std::uint8_t read(std::uint16_t addr) override { return mem[addr]; }
    void write(std::uint16_t addr, std::uint8_t v) override
    {
        mem[addr] = v;
    }

    void
    load(const Image &image)
    {
        for (const ImageChunk &chunk : image.chunks) {
            std::copy(chunk.bytes.begin(), chunk.bytes.end(),
                      mem.begin() + chunk.base);
        }
    }
};

struct McuTest : ::testing::Test
{
    sim::Simulation simulation;
    TestBus bus;
    Mcu::Config cfg{100e3, 0, 0x0040};
    Mcu cpu{simulation, "cpu", bus, cfg};

    /** Assemble at 0x100, load, reset, and step until HALT/SLEEP. */
    std::uint64_t
    runProgram(const std::string &body, unsigned max_steps = 10'000)
    {
        Image image = assemble(".org 0x0100\n" + body);
        bus.load(image);
        cpu.reset(0x0100);
        cpu.setSp(0x0FFF);
        unsigned steps = 0;
        while (!cpu.halted() && !cpu.sleeping() && steps++ < max_steps)
            cpu.step();
        EXPECT_LT(steps, max_steps) << "program did not terminate";
        return cpu.cycles();
    }
};

} // namespace

// --------------------------------------------------------------------------
// Assembler
// --------------------------------------------------------------------------

TEST(Assembler, EncodesEachFormat)
{
    Image image = assemble(
        ".org 0\n"
        "NOP\n"            // None:    00
        "MOV r1, r2\n"     // RdRs:    11 12
        "LDI r3, 0xAB\n"   // RdImm:   10 30 AB
        "LDS r4, 0x1234\n" // RdAddr:  12 40 12 34
        "STS 0x5678, r5\n" // AddrRs:  13 50 56 78
        "LDX r6, p2\n"     // RdPair:  14 62
        "STX p3, r7\n"     // PairRs:  15 37
        "LDP p1, 0x0102\n" // PairAddr:16 10 01 02
        "PUSH r8\n"        // Rd:      17 80
        "JMP 0x0304\n"     // Addr:    40 03 04
        "MARK 9\n");       // Imm:     07 09
    ASSERT_EQ(image.chunks.size(), 1u);
    const auto &b = image.chunks[0].bytes;
    const std::uint8_t expect[] = {
        0x00, 0x11, 0x12, 0x10, 0x30, 0xAB, 0x12, 0x40, 0x12, 0x34,
        0x13, 0x50, 0x56, 0x78, 0x14, 0x62, 0x15, 0x37, 0x16, 0x10,
        0x01, 0x02, 0x17, 0x80, 0x40, 0x03, 0x04, 0x07, 0x09,
    };
    ASSERT_EQ(b.size(), sizeof(expect));
    for (std::size_t i = 0; i < sizeof(expect); ++i)
        EXPECT_EQ(b[i], expect[i]) << "byte " << i;
}

TEST(Assembler, LabelsAndForwardReferences)
{
    Image image = assemble(
        ".org 0x0200\n"
        "start:\n"
        "    JMP end\n"
        "    NOP\n"
        "end:\n"
        "    HALT\n");
    EXPECT_EQ(image.symbol("start"), 0x0200);
    EXPECT_EQ(image.symbol("end"), 0x0204);
    // JMP operand points at 'end'.
    EXPECT_EQ(image.chunks[0].bytes[1], 0x02);
    EXPECT_EQ(image.chunks[0].bytes[2], 0x04);
}

TEST(Assembler, DirectivesAndExpressions)
{
    Image image = assemble(
        ".equ BASE, 0x1000\n"
        ".equ OFF, 8\n"
        ".org 0x0010\n"
        ".byte 1, 2, BASE-0x0FFF\n"
        ".word BASE+OFF, label\n"
        ".space 3\n"
        "label:\n"
        "    LDI r0, lo(BASE+OFF)\n"
        "    LDI r1, hi(BASE+OFF)\n");
    const auto &b = image.chunks[0].bytes;
    EXPECT_EQ(b[0], 1);
    EXPECT_EQ(b[2], 1);          // BASE-0x0FFF
    EXPECT_EQ(b[3], 0x10);       // .word hi
    EXPECT_EQ(b[4], 0x08);       // .word lo
    EXPECT_EQ(image.symbol("label"), 0x0010 + 3 + 4 + 3);
    EXPECT_EQ(b[10 + 2], 0x08);  // lo()
    EXPECT_EQ(b[13 + 2], 0x10);  // hi()
}

TEST(Assembler, PredefinedSymbols)
{
    std::map<std::string, std::uint16_t> predefined{{"REG", 0x1234}};
    Image image = assemble(".org 0\nLDS r0, REG\n", predefined);
    EXPECT_EQ(image.chunks[0].bytes[2], 0x12);
    EXPECT_EQ(image.chunks[0].bytes[3], 0x34);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    EXPECT_THROW(assemble("FROB r1\n"), sim::FatalError);
    EXPECT_THROW(assemble("LDI r99, 1\n"), sim::FatalError);
    EXPECT_THROW(assemble("LDI r0, 300\n"), sim::FatalError);
    EXPECT_THROW(assemble("JMP nowhere\n"), sim::FatalError);
    EXPECT_THROW(assemble("a:\na:\nNOP\n"), sim::FatalError);
    try {
        assemble("NOP\nNOP\nBAD\n");
        FAIL() << "expected fatal";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
}

TEST(Assembler, MultipleOrgChunks)
{
    Image image = assemble(
        ".org 0x0040\n.word 0, handler\n.org 0x0100\nhandler:\nHALT\n");
    ASSERT_EQ(image.chunks.size(), 2u);
    EXPECT_EQ(image.chunks[0].base, 0x0040);
    EXPECT_EQ(image.chunks[1].base, 0x0100);
    EXPECT_EQ(image.sizeBytes(), 5u);
}

TEST(Disassembler, RoundTripsAllInstructions)
{
    // Assemble a program, then disassemble every instruction and
    // re-assemble the disassembly: the bytes must match.
    const char *source =
        ".org 0\n"
        "ADD r1, r2\nSUBI r3, 0x10\nLSR r4\nCALL 0x0123\nJZ 0x0456\n"
        "INCP p5\nRETI\nSLEEP\nICALL p2\nIJMP p3\nXORI r7, 0x0f\n";
    Image image = assemble(source);
    const auto &bytes = image.chunks[0].bytes;

    std::string rebuilt = ".org 0\n";
    std::size_t offset = 0;
    while (offset < bytes.size()) {
        const InstrInfo *info =
            instrInfo(static_cast<Opcode>(bytes[offset]));
        ASSERT_NE(info, nullptr);
        rebuilt += disassemble(bytes.data() + offset,
                               bytes.size() - offset) +
                   "\n";
        offset += info->lengthBytes;
    }
    Image again = assemble(rebuilt);
    EXPECT_EQ(again.chunks[0].bytes, bytes);
}

// --------------------------------------------------------------------------
// Core semantics
// --------------------------------------------------------------------------

TEST_F(McuTest, ArithmeticFlags)
{
    runProgram(
        "LDI r0, 200\n"
        "LDI r1, 100\n"
        "ADD r0, r1\n" // 300 -> 44 with carry
        "HALT\n");
    EXPECT_EQ(cpu.reg(0), 44);
    EXPECT_TRUE(cpu.flagC());
    EXPECT_FALSE(cpu.flagZ());

    runProgram(
        "LDI r0, 5\n"
        "SUBI r0, 5\n"
        "HALT\n");
    EXPECT_EQ(cpu.reg(0), 0);
    EXPECT_TRUE(cpu.flagZ());
    EXPECT_FALSE(cpu.flagC());

    runProgram(
        "LDI r0, 3\n"
        "SUBI r0, 5\n" // borrow
        "HALT\n");
    EXPECT_EQ(cpu.reg(0), 254);
    EXPECT_TRUE(cpu.flagC());
    EXPECT_TRUE(cpu.flagN());
}

TEST_F(McuTest, AdcSbcPropagateCarry)
{
    // 16-bit add: 0x01FF + 0x0101 = 0x0300.
    runProgram(
        "LDI r0, 0x01\nLDI r1, 0xFF\n" // a = r0:r1
        "LDI r2, 0x01\nLDI r3, 0x01\n" // b = r2:r3
        "ADD r1, r3\n"
        "ADC r0, r2\n"
        "HALT\n");
    EXPECT_EQ(cpu.reg(0), 0x03);
    EXPECT_EQ(cpu.reg(1), 0x00);
}

TEST_F(McuTest, LogicAndShifts)
{
    runProgram(
        "LDI r0, 0xF0\nLDI r1, 0x3C\n"
        "AND r0, r1\n"  // 0x30
        "ORI r0, 0x01\n" // 0x31
        "XORI r0, 0xFF\n" // 0xCE
        "LSL r0\n"       // 0x9C, C=1
        "HALT\n");
    EXPECT_EQ(cpu.reg(0), 0x9C);
    EXPECT_TRUE(cpu.flagC());
    EXPECT_TRUE(cpu.flagN());

    runProgram("LDI r0, 1\nLSR r0\nHALT\n");
    EXPECT_EQ(cpu.reg(0), 0);
    EXPECT_TRUE(cpu.flagC());
    EXPECT_TRUE(cpu.flagZ());
}

TEST_F(McuTest, MemoryAndPointers)
{
    runProgram(
        "LDI r0, 0x77\n"
        "STS 0x0800, r0\n"
        "LDS r1, 0x0800\n"
        "LDP p2, 0x0800\n"
        "LDX r2, p2\n"
        "INCP p2\n"
        "LDI r3, 0x55\n"
        "STX p2, r3\n"
        "LDS r6, 0x0801\n" // r6: pair 2 is r4:r5, keep it intact
        "HALT\n");
    EXPECT_EQ(cpu.reg(1), 0x77);
    EXPECT_EQ(cpu.reg(2), 0x77);
    EXPECT_EQ(cpu.reg(6), 0x55);
    EXPECT_EQ(cpu.pairValue(2), 0x0801);
}

TEST_F(McuTest, PairIncDecWrap)
{
    runProgram(
        "LDP p1, 0x00FF\n"
        "INCP p1\n"
        "HALT\n");
    EXPECT_EQ(cpu.pairValue(1), 0x0100);
    runProgram(
        "LDP p1, 0x0000\n"
        "DECP p1\n"
        "HALT\n");
    EXPECT_EQ(cpu.pairValue(1), 0xFFFF);
}

TEST_F(McuTest, BranchesAndLoops)
{
    // Sum 1..10 with a loop.
    std::uint64_t cycles = runProgram(
        "LDI r0, 0\n"   // sum
        "LDI r1, 10\n"  // i
        "loop:\n"
        "ADD r0, r1\n"
        "DEC r1\n"
        "JNZ loop\n"
        "HALT\n");
    EXPECT_EQ(cpu.reg(0), 55);
    EXPECT_GT(cycles, 30u);
}

TEST_F(McuTest, CallRetAndStack)
{
    runProgram(
        "LDI r0, 1\n"
        "CALL sub\n"
        "LDI r2, 3\n"
        "HALT\n"
        "sub:\n"
        "LDI r1, 2\n"
        "PUSH r0\n"
        "POP r3\n"
        "RET\n");
    EXPECT_EQ(cpu.reg(0), 1);
    EXPECT_EQ(cpu.reg(1), 2);
    EXPECT_EQ(cpu.reg(2), 3);
    EXPECT_EQ(cpu.reg(3), 1);
    EXPECT_EQ(cpu.sp(), 0x0FFF); // balanced
}

TEST_F(McuTest, IndirectCallAndJump)
{
    runProgram(
        "LDP p3, target\n"
        "ICALL p3\n"
        "HALT\n"
        "target:\n"
        "LDI r5, 0x5A\n"
        "RET\n");
    EXPECT_EQ(cpu.reg(5), 0x5A);
}

TEST_F(McuTest, InterruptEntryAndReti)
{
    Image image = assemble(
        ".org 0x0040\n"
        ".word 0, isr\n" // vector 1
        ".org 0x0100\n"
        "main:\n"
        "SEI\n"
        "LDI r0, 1\n"
        "wait:\n"
        "CPI r1, 0x99\n"
        "JNZ wait\n"
        "HALT\n"
        "isr:\n"
        "LDI r1, 0x99\n"
        "RETI\n");
    bus.load(image);
    cpu.reset(0x0100);
    cpu.setSp(0x0FFF);
    cpu.start();

    simulation.runForSeconds(0.001);
    EXPECT_FALSE(cpu.halted()); // spinning
    cpu.raiseIrq(1);
    simulation.runForSeconds(0.01);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.reg(1), 0x99);
    EXPECT_EQ(cpu.sp(), 0x0FFF); // frame fully popped
    EXPECT_TRUE(cpu.interruptsEnabled());
}

TEST_F(McuTest, SleepWakesOnInterrupt)
{
    Image image = assemble(
        ".org 0x0040\n"
        ".word 0, isr\n"
        ".org 0x0100\n"
        "SEI\n"
        "SLEEP\n"
        "LDI r2, 7\n"
        "HALT\n"
        "isr:\n"
        "LDI r1, 1\n"
        "RETI\n");
    bus.load(image);
    cpu.reset(0x0100);
    cpu.setSp(0x0FFF);
    cpu.start();
    simulation.runForSeconds(0.001);
    EXPECT_TRUE(cpu.sleeping());

    cpu.raiseIrq(1);
    simulation.runForSeconds(0.01);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.reg(1), 1);
    EXPECT_EQ(cpu.reg(2), 7);
}

TEST_F(McuTest, MarkCallbackIsFree)
{
    std::vector<std::pair<std::uint8_t, std::uint64_t>> marks;
    cpu.setMarkCallback([&](std::uint8_t id, std::uint64_t cycles) {
        marks.push_back({id, cycles});
    });
    runProgram(
        "MARK 1\n"
        "NOP\n"
        "NOP\n"
        "MARK 2\n"
        "HALT\n");
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_EQ(marks[0].first, 1);
    EXPECT_EQ(marks[1].first, 2);
    EXPECT_EQ(marks[1].second - marks[0].second, 2u); // two NOPs only
}

TEST_F(McuTest, FetchCostScalesWithInstructionLength)
{
    // Same program on a bus-fetched core costs lengthBytes extra/instr.
    Image image = assemble(".org 0x0100\nLDS r0, 0x0800\nHALT\n");
    bus.load(image);

    cpu.reset(0x0100);
    cpu.step();
    std::uint64_t harvard = cpu.cycles();

    Mcu::Config serial_cfg{100e3, 1, 0x0040};
    Mcu serial(simulation, "serial", bus, serial_cfg);
    serial.reset(0x0100);
    serial.step();
    EXPECT_EQ(serial.cycles(), harvard + 4); // LDS is 4 bytes
}

TEST_F(McuTest, UndefinedOpcodePanics)
{
    bus.mem[0x0100] = 0xEE;
    cpu.reset(0x0100);
    EXPECT_THROW(cpu.step(), sim::PanicError);
}

TEST_F(McuTest, BadIrqVectorPanics)
{
    EXPECT_THROW(cpu.raiseIrq(32), sim::PanicError);
}

// Parameterized ALU property: compare against a reference model.
struct AluCase
{
    const char *mnemonic;
    std::uint8_t a, b;
};

// CTest names each case after its printed value; without this printer gtest
// dumps the raw bytes (the mnemonic's address and padding), which change from
// build to build.
void PrintTo(const AluCase &c, std::ostream *os)
{
    *os << sim::csprintf("%s_0x%02X_0x%02X", c.mnemonic, c.a, c.b);
}

class AluProperty : public ::testing::TestWithParam<AluCase>
{};

TEST_P(AluProperty, MatchesReference)
{
    const AluCase &c = GetParam();
    sim::Simulation simulation;
    TestBus bus;
    Mcu cpu(simulation, "cpu", bus, Mcu::Config{100e3, 0, 0});

    std::string source = sim::csprintf(
        ".org 0x0100\nLDI r0, %u\nLDI r1, %u\n%s r0, r1\nHALT\n", c.a, c.b,
        c.mnemonic);
    Image image = assemble(source);
    for (const ImageChunk &chunk : image.chunks)
        std::copy(chunk.bytes.begin(), chunk.bytes.end(),
                  bus.mem.begin() + chunk.base);
    cpu.reset(0x0100);
    while (!cpu.halted())
        cpu.step();

    int expected = 0;
    std::string m = c.mnemonic;
    if (m == "ADD")
        expected = c.a + c.b;
    else if (m == "SUB")
        expected = c.a - c.b;
    else if (m == "AND")
        expected = c.a & c.b;
    else if (m == "OR")
        expected = c.a | c.b;
    else if (m == "XOR")
        expected = c.a ^ c.b;
    EXPECT_EQ(cpu.reg(0), static_cast<std::uint8_t>(expected & 0xFF));
    EXPECT_EQ(cpu.flagZ(), static_cast<std::uint8_t>(expected) == 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AluProperty,
    ::testing::Values(AluCase{"ADD", 0, 0}, AluCase{"ADD", 255, 1},
                      AluCase{"ADD", 127, 127}, AluCase{"SUB", 0, 1},
                      AluCase{"SUB", 200, 200}, AluCase{"SUB", 13, 240},
                      AluCase{"AND", 0xAA, 0x55}, AluCase{"AND", 0xFF, 0x0F},
                      AluCase{"OR", 0xAA, 0x55}, AluCase{"OR", 0, 0},
                      AluCase{"XOR", 0x5A, 0x5A},
                      AluCase{"XOR", 0xF0, 0x0F}));
