/**
 * @file
 * Randomized lock-step fuzzing of the gate-level core against the ISS:
 * generated programs mix every format-I/II operation, addressing mode,
 * byte/word size, constant-generator immediate, and short branches,
 * then halt. Architectural state must match after every instruction.
 * This is the broadest net for ISA corner cases (flag updates, byte
 * writes to registers, post-increment, SR destinations, ...).
 */

#include <gtest/gtest.h>

#include "src/cpu/bsp430.hh"
#include "src/isa/assembler.hh"
#include "src/iss/iss.hh"
#include "src/sim/soc.hh"
#include "src/util/rng.hh"

namespace bespoke
{
namespace
{

struct Core
{
    CpuProbes probes;
    Netlist netlist;
    Core() : netlist(buildBsp430(&probes)) {}
};

Core &
core()
{
    static Core c;
    return c;
}

/** Generate a random but well-defined program. */
std::string
randomProgram(Rng &rng, int instructions)
{
    std::ostringstream os;
    os << "        .org 0xf000\n";
    os << "start:  mov #0x0a00, sp\n";
    // Seed registers and a small RAM scratch area.
    for (int r = 4; r <= 12; r++) {
        os << "        mov #0x" << std::hex << rng.word() << std::dec
           << ", r" << r << "\n";
    }
    for (int i = 0; i < 4; i++) {
        os << "        mov #0x" << std::hex << rng.word() << std::dec
           << ", &0x0" << std::hex << (0x300 + 2 * i) << std::dec
           << "\n";
    }
    os << "        mov #0x0300, r13\n";  // pointer for @r13 modes

    const char *two_ops[] = {"mov", "add",  "addc", "sub", "subc",
                             "cmp", "bit",  "bic",  "bis", "xor",
                             "and"};
    const char *one_ops[] = {"rrc", "rra", "swpb", "sxt"};

    for (int i = 0; i < instructions; i++) {
        int kind = static_cast<int>(rng.below(10));
        bool byte_mode = rng.chance(1, 4);
        std::string suffix = byte_mode ? ".b" : "";
        auto reg = [&]() {
            return std::string("r").append(std::to_string(4 + rng.below(9)));
        };
        auto src = [&]() -> std::string {
            switch (rng.below(6)) {
              case 0:
                return reg();
              case 1: {
                uint16_t cg[] = {0, 1, 2, 4, 8, 0xffff};
                return "#" + std::to_string(cg[rng.below(6)]);
              }
              case 2:
                return "#0x" + [&] {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "%x", rng.word());
                    return std::string(buf);
                }();
              case 3:
                return "&0x030" + std::to_string(rng.below(4) * 2);
              case 4:
                return "@r13";
              default:
                return std::to_string(rng.below(4) * 2) + "(r13)";
            }
        };
        auto dst = [&]() -> std::string {
            switch (rng.below(3)) {
              case 0:
                return reg();
              case 1:
                return "&0x030" + std::to_string(rng.below(4) * 2);
              default:
                return std::to_string(rng.below(4) * 2) + "(r13)";
            }
        };

        if (kind < 6) {
            os << "        " << two_ops[rng.below(11)] << suffix << " "
               << src() << ", " << dst() << "\n";
        } else if (kind < 8) {
            const char *op = one_ops[rng.below(4)];
            if (std::string(op) == "swpb" || std::string(op) == "sxt")
                suffix = "";  // word-only
            os << "        " << op << suffix << " " << reg() << "\n";
        } else if (kind == 8) {
            os << "        push " << reg() << "\n";
            os << "        pop " << reg() << "\n";
        } else {
            // Short forward branch over one filler instruction; both
            // directions of every condition get exercised across
            // seeds.
            const char *conds[] = {"jne", "jeq", "jnc", "jc",
                                   "jn",  "jge", "jl"};
            std::string label = std::string("l").append(std::to_string(i));
            os << "        cmp " << reg() << ", " << reg() << "\n";
            os << "        " << conds[rng.below(7)] << " " << label
               << "\n";
            os << "        xor #0x5a5a, " << reg() << "\n";
            os << label << ":\n";
        }
    }
    os << "halt:   jmp halt\n";
    os << "        .org 0xfffe\n        .word start\n";
    return os.str();
}

class FuzzLockstep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(FuzzLockstep, RandomProgramMatchesIss)
{
    Rng rng(GetParam() * 7919 + 13);
    std::string source = randomProgram(rng, 40);
    AsmProgram prog = assemble(source, "fuzz");

    Iss iss(prog);
    Soc soc(core().netlist, prog, /*ram_unknown=*/false);
    soc.setGpioIn(SWord::of(0));
    soc.setIrqExt(Logic::Zero);

    const CpuProbes &pr = core().probes;
    auto at_fetch = [&] {
        return soc.sim().busWord(pr.stateReg) ==
               SWord(static_cast<uint16_t>(CpuState::Fetch), 0x001f);
    };
    for (int i = 0; i < 10 && !at_fetch(); i++)
        soc.cycle();
    ASSERT_TRUE(at_fetch());

    for (int n = 0; n < 4000; n++) {
        uint16_t pc_before = iss.pc();
        StepResult r = iss.step();
        int guard = 0;
        do {
            soc.cycle();
            ASSERT_LT(++guard, 64);
        } while (!at_fetch());

        SWord pc = soc.sim().busWord(pr.pc);
        ASSERT_TRUE(pc.fullyKnown());
        ASSERT_EQ(pc.val, iss.pc())
            << "after insn at 0x" << std::hex << pc_before << " ("
            << decode(prog.romWord(pc_before)).toString() << ")";
        for (int reg = 0; reg < 16; reg++) {
            if (pr.regs[reg].empty())
                continue;
            SWord v = soc.sim().busWord(pr.regs[reg]);
            ASSERT_TRUE(v.fullyKnown());
            ASSERT_EQ(v.val, iss.reg(reg))
                << "r" << reg << " after insn at 0x" << std::hex
                << pc_before << " ("
                << decode(prog.romWord(pc_before)).toString() << ")";
        }
        uint16_t gate_sr =
            (soc.sim().value(pr.flagC) == Logic::One ? kFlagC : 0) |
            (soc.sim().value(pr.flagZ) == Logic::One ? kFlagZ : 0) |
            (soc.sim().value(pr.flagN) == Logic::One ? kFlagN : 0) |
            (soc.sim().value(pr.flagGIE) == Logic::One ? kFlagGIE
                                                       : 0) |
            (soc.sim().value(pr.flagV) == Logic::One ? kFlagV : 0);
        ASSERT_EQ(gate_sr, iss.sr() & (kFlagC | kFlagZ | kFlagN |
                                       kFlagGIE | kFlagV))
            << "SR after insn at 0x" << std::hex << pc_before << " ("
            << decode(prog.romWord(pc_before)).toString() << ")";

        if (r == StepResult::Halted)
            return;
        ASSERT_EQ(r, StepResult::Ok);
    }
    FAIL() << "program did not halt";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLockstep,
                         ::testing::Range(1u, 13u));

} // namespace
} // namespace bespoke
