#include "src/isa/isa.hh"

#include <map>

#include "src/util/logging.hh"

namespace bespoke
{

bool
Instr::usesConstGen() const
{
    if (format != Format::DoubleOp && format != Format::SingleOp)
        return false;
    if (srcReg == kRegCG)
        return true;
    if (srcReg == kRegSR &&
        (srcMode == AddrMode::Indirect || srcMode == AddrMode::IndirectInc))
        return true;
    return false;
}

uint16_t
Instr::constGenValue() const
{
    if (srcReg == kRegSR)
        return srcMode == AddrMode::Indirect ? 4 : 8;
    switch (srcMode) {
      case AddrMode::Register:
        return 0;
      case AddrMode::Indexed:
        return 1;
      case AddrMode::Indirect:
        return 2;
      default:
        return 0xffff;
    }
}

bool
Instr::srcNeedsExt() const
{
    if (format != Format::DoubleOp && format != Format::SingleOp)
        return false;
    if (usesConstGen())
        return false;
    if (srcMode == AddrMode::Indexed)
        return true;
    // @PC+ is #imm, which consumes the next word.
    if (srcMode == AddrMode::IndirectInc && srcReg == kRegPC)
        return true;
    return false;
}

bool
Instr::dstNeedsExt() const
{
    return format == Format::DoubleOp && dstMode == AddrMode::Indexed;
}

Instr
decode(uint16_t word)
{
    Instr ins;
    ins.raw = word;
    uint16_t top4 = word >> 12;
    if (top4 >= 0x4) {
        if (top4 == 0xa) {
            ins.format = Format::Illegal;  // DADD unimplemented
            return ins;
        }
        ins.format = Format::DoubleOp;
        ins.op1 = static_cast<Op1>(top4);
        ins.srcReg = (word >> 8) & 0xf;
        ins.dstMode = (word & (1u << 7)) ? AddrMode::Indexed
                                         : AddrMode::Register;
        ins.byteMode = (word & (1u << 6)) != 0;
        ins.srcMode = static_cast<AddrMode>((word >> 4) & 0x3);
        ins.dstReg = word & 0xf;
        return ins;
    }
    if (top4 == 0x2 || top4 == 0x3) {
        ins.format = Format::Jump;
        ins.cond = static_cast<JumpCond>((word >> 10) & 0x7);
        int16_t off = static_cast<int16_t>(word & 0x3ff);
        if (off & 0x200)
            off -= 0x400;
        ins.offset = off;
        return ins;
    }
    if ((word >> 10) == 0x4) {  // 000100 prefix: format II
        int op = (word >> 7) & 0x7;
        if (op == 7) {
            ins.format = Format::Illegal;
            return ins;
        }
        ins.format = Format::SingleOp;
        ins.op2 = static_cast<Op2>(op);
        ins.byteMode = (word & (1u << 6)) != 0;
        ins.srcMode = static_cast<AddrMode>((word >> 4) & 0x3);
        ins.srcReg = word & 0xf;
        // Format II reads and writes through the "source" operand.
        ins.dstReg = ins.srcReg;
        return ins;
    }
    ins.format = Format::Illegal;
    return ins;
}

uint16_t
encodeDoubleOp(Op1 op, int src_reg, AddrMode src_mode, int dst_reg,
               AddrMode dst_mode, bool byte_mode)
{
    bespoke_assert(dst_mode == AddrMode::Register ||
                   dst_mode == AddrMode::Indexed);
    uint16_t w = 0;
    w |= static_cast<uint16_t>(op) << 12;
    w |= static_cast<uint16_t>(src_reg & 0xf) << 8;
    w |= (dst_mode == AddrMode::Indexed ? 1u : 0u) << 7;
    w |= (byte_mode ? 1u : 0u) << 6;
    w |= static_cast<uint16_t>(src_mode) << 4;
    w |= static_cast<uint16_t>(dst_reg & 0xf);
    return w;
}

uint16_t
encodeSingleOp(Op2 op, int reg, AddrMode mode, bool byte_mode)
{
    uint16_t w = 0x1000;
    w |= static_cast<uint16_t>(op) << 7;
    w |= (byte_mode ? 1u : 0u) << 6;
    w |= static_cast<uint16_t>(mode) << 4;
    w |= static_cast<uint16_t>(reg & 0xf);
    return w;
}

uint16_t
encodeJump(JumpCond cond, int16_t word_offset)
{
    bespoke_assert(word_offset >= -512 && word_offset <= 511,
                   "jump offset out of range: ", word_offset);
    uint16_t w = 0x2000;
    w |= static_cast<uint16_t>(cond) << 10;
    w |= static_cast<uint16_t>(word_offset) & 0x3ff;
    return w;
}

std::optional<Mnemonic>
parseMnemonic(const std::string &text)
{
    static const std::map<std::string, Mnemonic> table = {
        {"mov", {Format::DoubleOp, Op1::MOV, Op2::RRC, JumpCond::JMP, false}},
        {"add", {Format::DoubleOp, Op1::ADD, Op2::RRC, JumpCond::JMP, false}},
        {"addc", {Format::DoubleOp, Op1::ADDC, Op2::RRC, JumpCond::JMP,
                  false}},
        {"subc", {Format::DoubleOp, Op1::SUBC, Op2::RRC, JumpCond::JMP,
                  false}},
        {"sub", {Format::DoubleOp, Op1::SUB, Op2::RRC, JumpCond::JMP, false}},
        {"cmp", {Format::DoubleOp, Op1::CMP, Op2::RRC, JumpCond::JMP, false}},
        {"bit", {Format::DoubleOp, Op1::BIT, Op2::RRC, JumpCond::JMP, false}},
        {"bic", {Format::DoubleOp, Op1::BIC, Op2::RRC, JumpCond::JMP, false}},
        {"bis", {Format::DoubleOp, Op1::BIS, Op2::RRC, JumpCond::JMP, false}},
        {"xor", {Format::DoubleOp, Op1::XOR, Op2::RRC, JumpCond::JMP, false}},
        {"and", {Format::DoubleOp, Op1::AND, Op2::RRC, JumpCond::JMP, false}},
        {"rrc", {Format::SingleOp, Op1::MOV, Op2::RRC, JumpCond::JMP, false}},
        {"swpb", {Format::SingleOp, Op1::MOV, Op2::SWPB, JumpCond::JMP,
                  false}},
        {"rra", {Format::SingleOp, Op1::MOV, Op2::RRA, JumpCond::JMP, false}},
        {"sxt", {Format::SingleOp, Op1::MOV, Op2::SXT, JumpCond::JMP, false}},
        {"push", {Format::SingleOp, Op1::MOV, Op2::PUSH, JumpCond::JMP,
                  false}},
        {"call", {Format::SingleOp, Op1::MOV, Op2::CALL, JumpCond::JMP,
                  false}},
        {"reti", {Format::SingleOp, Op1::MOV, Op2::RETI, JumpCond::JMP,
                  false}},
        {"jne", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JNE, false}},
        {"jnz", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JNE, false}},
        {"jeq", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JEQ, false}},
        {"jz", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JEQ, false}},
        {"jnc", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JNC, false}},
        {"jlo", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JNC, false}},
        {"jc", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JC, false}},
        {"jhs", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JC, false}},
        {"jn", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JN, false}},
        {"jge", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JGE, false}},
        {"jl", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JL, false}},
        {"jmp", {Format::Jump, Op1::MOV, Op2::RRC, JumpCond::JMP, false}},
    };

    std::string base = text;
    bool byte_mode = false;
    if (base.size() > 2 && base.substr(base.size() - 2) == ".b") {
        byte_mode = true;
        base = base.substr(0, base.size() - 2);
    } else if (base.size() > 2 && base.substr(base.size() - 2) == ".w") {
        base = base.substr(0, base.size() - 2);
    }

    auto it = table.find(base);
    if (it == table.end())
        return std::nullopt;
    Mnemonic m = it->second;
    if (byte_mode) {
        if (m.format == Format::Jump)
            return std::nullopt;
        m.byteMode = true;
    }
    return m;
}

namespace
{

const char *
op1Name(Op1 op)
{
    switch (op) {
      case Op1::MOV: return "mov";
      case Op1::ADD: return "add";
      case Op1::ADDC: return "addc";
      case Op1::SUBC: return "subc";
      case Op1::SUB: return "sub";
      case Op1::CMP: return "cmp";
      case Op1::DADD: return "dadd";
      case Op1::BIT: return "bit";
      case Op1::BIC: return "bic";
      case Op1::BIS: return "bis";
      case Op1::XOR: return "xor";
      case Op1::AND: return "and";
    }
    return "?";
}

const char *
op2Name(Op2 op)
{
    switch (op) {
      case Op2::RRC: return "rrc";
      case Op2::SWPB: return "swpb";
      case Op2::RRA: return "rra";
      case Op2::SXT: return "sxt";
      case Op2::PUSH: return "push";
      case Op2::CALL: return "call";
      case Op2::RETI: return "reti";
    }
    return "?";
}

const char *
jumpName(JumpCond c)
{
    switch (c) {
      case JumpCond::JNE: return "jne";
      case JumpCond::JEQ: return "jeq";
      case JumpCond::JNC: return "jnc";
      case JumpCond::JC: return "jc";
      case JumpCond::JN: return "jn";
      case JumpCond::JGE: return "jge";
      case JumpCond::JL: return "jl";
      case JumpCond::JMP: return "jmp";
    }
    return "?";
}

std::string
modeString(int reg, AddrMode mode)
{
    std::string r = std::string("r").append(std::to_string(reg));
    switch (mode) {
      case AddrMode::Register:
        return r;
      case AddrMode::Indexed:
        return "x(" + r + ")";
      case AddrMode::Indirect:
        return "@" + r;
      case AddrMode::IndirectInc:
        return "@" + r + "+";
    }
    return "?";
}

} // namespace

std::string
Instr::toString() const
{
    switch (format) {
      case Format::DoubleOp:
        return std::string(op1Name(op1)) + (byteMode ? ".b " : " ") +
               modeString(srcReg, srcMode) + ", " +
               modeString(dstReg, dstMode);
      case Format::SingleOp:
        return std::string(op2Name(op2)) + (byteMode ? ".b " : " ") +
               modeString(srcReg, srcMode);
      case Format::Jump:
        return std::string(jumpName(cond)) + " " +
               std::to_string(static_cast<int>(offset));
      default:
        return "illegal";
    }
}

} // namespace bespoke
