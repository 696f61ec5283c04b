#include "src/netlist/cell_library.hh"

#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

// Scaling of X1 parameters per drive strength.
struct DriveScale
{
    double area, leak, cap, d0, res;
};

const DriveScale kDriveScale[3] = {
    /* X1 */ {1.0, 1.0, 1.0, 1.00, 1.0},
    /* X2 */ {1.5, 1.9, 1.9, 0.95, 0.5},
    /* X4 */ {2.4, 3.6, 3.6, 0.90, 0.25},
};

const DriveScale &
scale(Drive d)
{
    return kDriveScale[static_cast<int>(d)];
}

const char *kDriveSuffix[3] = {"_X1", "_X2", "_X4"};

} // namespace

const CellParams &
cellParams(CellType type)
{
    bespoke_assert(type < CellType::NumTypes);
    return kCellTable[static_cast<int>(type)];
}

std::string
cellName(CellType type, Drive drive)
{
    const CellParams &p = cellParams(type);
    if (cellPseudo(type) || type == CellType::TIE0 || type == CellType::TIE1)
        return p.name;
    return std::string(p.name) + kDriveSuffix[static_cast<int>(drive)];
}

bool
cellByName(const std::string &name, CellType *type, Drive *drive)
{
    std::string base = name;
    Drive d = Drive::X1;
    for (int s = 0; s < 3; s++) {
        size_t slen = 3;  // "_X1"
        if (name.size() > slen &&
            name.compare(name.size() - slen, slen, kDriveSuffix[s]) == 0) {
            base = name.substr(0, name.size() - slen);
            d = static_cast<Drive>(s);
            break;
        }
    }
    for (int t = 0; t < kNumCellTypes; t++) {
        if (base == kCellTable[t].name) {
            CellType ct = static_cast<CellType>(t);
            // Drive suffixes only exist on real, non-tie cells; reject
            // e.g. "TIE0_X2" or a bare "NAND2".
            bool suffixed = base != name;
            bool wants_suffix = !cellPseudo(ct) &&
                                ct != CellType::TIE0 &&
                                ct != CellType::TIE1;
            if (suffixed != wants_suffix)
                return false;
            *type = ct;
            *drive = d;
            return true;
        }
    }
    return false;
}

double
cellArea(CellType type, Drive drive)
{
    return cellParams(type).area * scale(drive).area;
}

double
cellLeakage(CellType type, Drive drive)
{
    return cellParams(type).leakage * scale(drive).leak;
}

double
cellInputCap(CellType type, Drive drive)
{
    return cellParams(type).inputCap * scale(drive).cap;
}

double
cellIntrinsicDelay(CellType type, Drive drive)
{
    return cellParams(type).intrinsicDelay * scale(drive).d0;
}

double
cellDriveRes(CellType type, Drive drive)
{
    return cellParams(type).driveRes * scale(drive).res;
}

Logic
evalCell(CellType type, const Logic *in)
{
    switch (type) {
      case CellType::TIE0:
        return Logic::Zero;
      case CellType::TIE1:
        return Logic::One;
      case CellType::BUF:
      case CellType::OUTPUT:
        return in[0];
      case CellType::INV:
        return logicNot(in[0]);
      case CellType::AND2:
        return logicAnd(in[0], in[1]);
      case CellType::AND3:
        return logicAnd(logicAnd(in[0], in[1]), in[2]);
      case CellType::OR2:
        return logicOr(in[0], in[1]);
      case CellType::OR3:
        return logicOr(logicOr(in[0], in[1]), in[2]);
      case CellType::NAND2:
        return logicNot(logicAnd(in[0], in[1]));
      case CellType::NAND3:
        return logicNot(logicAnd(logicAnd(in[0], in[1]), in[2]));
      case CellType::NOR2:
        return logicNot(logicOr(in[0], in[1]));
      case CellType::NOR3:
        return logicNot(logicOr(logicOr(in[0], in[1]), in[2]));
      case CellType::XOR2:
        return logicXor(in[0], in[1]);
      case CellType::XNOR2:
        return logicNot(logicXor(in[0], in[1]));
      case CellType::MUX2:
        return logicMux(in[2], in[0], in[1]);
      case CellType::AOI21:
        return logicNot(logicOr(logicAnd(in[0], in[1]), in[2]));
      case CellType::OAI21:
        return logicNot(logicAnd(logicOr(in[0], in[1]), in[2]));
      default:
        bespoke_panic("evalCell on non-combinational cell type ",
                      static_cast<int>(type));
    }
}

} // namespace bespoke
