/**
 * @file
 * Standard-cell library: the cell types a netlist may instantiate plus
 * per-cell area / leakage / capacitance / delay models.
 *
 * The parameters are a synthetic but representative 65 nm general-purpose
 * library (the paper uses TSMC 65GP, which cannot be redistributed). All
 * results in this repository are relative (bespoke vs. baseline on the
 * same library), so only consistency and realistic ratios matter.
 */

#ifndef BESPOKE_NETLIST_CELL_LIBRARY_HH
#define BESPOKE_NETLIST_CELL_LIBRARY_HH

#include <cstdint>
#include <string>

#include "src/logic/logic.hh"

namespace bespoke
{

/** All cell types. INPUT/OUTPUT are zero-area netlist pseudo-cells. */
enum class CellType : uint8_t
{
    INPUT,   ///< primary input pseudo-cell (no fanin)
    OUTPUT,  ///< primary output pseudo-cell (one fanin)
    TIE0,    ///< constant-0 driver cell
    TIE1,    ///< constant-1 driver cell
    BUF,
    INV,
    AND2,
    AND3,
    OR2,
    OR3,
    NAND2,
    NAND3,
    NOR2,
    NOR3,
    XOR2,
    XNOR2,
    MUX2,    ///< in0 = a0, in1 = a1, in2 = sel; out = sel ? a1 : a0
    AOI21,   ///< out = !((in0 & in1) | in2)
    OAI21,   ///< out = !((in0 | in1) & in2)
    DFF,     ///< in0 = D; clocked implicitly by the single global clock
    DFFE,    ///< in0 = D, in1 = EN (enable low holds state)
    NumTypes,
};

constexpr int kNumCellTypes = static_cast<int>(CellType::NumTypes);

/** Drive strength variants used by the slack-driven downsizing pass. */
enum class Drive : uint8_t
{
    X1 = 0,
    X2 = 1,
    X4 = 2,
};

/** Electrical and physical parameters of one cell type at drive X1. */
struct CellParams
{
    const char *name;       ///< library cell name
    int numInputs;          ///< fanin count (0 for INPUT/TIE)
    double area;            ///< µm²
    double leakage;         ///< nW at 1.0 V, 25 C
    double inputCap;        ///< fF per input pin
    double intrinsicDelay;  ///< ps, unloaded
    double driveRes;        ///< ps per fF of load
    bool sequential;        ///< true for DFF/DFFE
};

/**
 * The cell table: X1 parameters per cell type, indexed by CellType.
 * Synthetic but representative 65 nm GP values (see the file comment).
 */
//                                     name     in  area  leak  cap  d0     R    seq
inline constexpr CellParams kCellTable[kNumCellTypes] = {
    /* INPUT  */ {"INPUT",   0, 0.00,  0.0, 0.0,   0.0, 0.0, false},
    /* OUTPUT */ {"OUTPUT",  1, 0.00,  0.0, 0.5,   0.0, 0.0, false},
    /* TIE0   */ {"TIE0",    0, 0.72,  0.9, 0.0,   0.0, 0.0, false},
    /* TIE1   */ {"TIE1",    0, 0.72,  0.9, 0.0,   0.0, 0.0, false},
    /* BUF    */ {"BUF",     1, 1.44,  2.5, 1.5,  25.0, 5.5, false},
    /* INV    */ {"INV",     1, 1.08,  2.1, 1.6,  12.0, 6.0, false},
    /* AND2   */ {"AND2",    2, 1.80,  3.3, 1.7,  28.0, 6.0, false},
    /* AND3   */ {"AND3",    3, 2.16,  4.1, 1.8,  32.0, 6.5, false},
    /* OR2    */ {"OR2",     2, 1.80,  3.1, 1.7,  30.0, 6.0, false},
    /* OR3    */ {"OR3",     3, 2.16,  3.9, 1.8,  34.0, 6.5, false},
    /* NAND2  */ {"NAND2",   2, 1.44,  2.9, 1.8,  16.0, 7.0, false},
    /* NAND3  */ {"NAND3",   3, 1.80,  3.8, 1.9,  21.0, 9.0, false},
    /* NOR2   */ {"NOR2",    2, 1.44,  2.7, 1.8,  19.0, 8.0, false},
    /* NOR3   */ {"NOR3",    3, 1.80,  3.6, 1.9,  26.0, 10.0, false},
    /* XOR2   */ {"XOR2",    2, 2.88,  5.2, 2.4,  35.0, 9.0, false},
    /* XNOR2  */ {"XNOR2",   2, 2.88,  5.2, 2.4,  35.0, 9.0, false},
    /* MUX2   */ {"MUX2",    3, 2.52,  4.6, 2.0,  33.0, 8.0, false},
    /* AOI21  */ {"AOI21",   3, 1.80,  3.4, 1.9,  22.0, 9.0, false},
    /* OAI21  */ {"OAI21",   3, 1.80,  3.4, 1.9,  22.0, 9.0, false},
    /* DFF    */ {"DFF",     1, 4.68,  9.5, 2.2, 120.0, 7.0, true},
    /* DFFE   */ {"DFFE",    2, 5.40, 11.0, 2.2, 120.0, 7.0, true},
};

/** Parameters of a cell type at drive X1. */
const CellParams &cellParams(CellType type);

/**
 * Number of fanin pins for a cell type. Like cellSequential(), a
 * plain table lookup for the simulators' and encoders' inner loops:
 * every CellType in a netlist is a valid enumerator (the interchange
 * loaders accept only names from the table, via cellByName()).
 */
constexpr int
cellNumInputs(CellType type)
{
    return kCellTable[static_cast<int>(type)].numInputs;
}

/** Library cell name, including drive suffix, e.g. "NAND2_X2". */
std::string cellName(CellType type, Drive drive);

/**
 * Reverse lookup of a library cell name as emitted by cellName()
 * ("NAND2_X2", "TIE0", ...). Returns false (outputs untouched) for
 * names outside the library; INPUT/OUTPUT pseudo-cells are accepted
 * (the JSON interchange format names them explicitly).
 */
bool cellByName(const std::string &name, CellType *type, Drive *drive);

/** Area in µm² at the given drive strength. */
double cellArea(CellType type, Drive drive);

/** Leakage in nW at 1.0 V at the given drive strength. */
double cellLeakage(CellType type, Drive drive);

/** Input pin capacitance in fF at the given drive strength. */
double cellInputCap(CellType type, Drive drive);

/** Unloaded delay in ps at the given drive strength. */
double cellIntrinsicDelay(CellType type, Drive drive);

/** Output resistance in ps/fF at the given drive strength. */
double cellDriveRes(CellType type, Drive drive);

/** True for DFF/DFFE. */
constexpr bool
cellSequential(CellType type)
{
    return kCellTable[static_cast<int>(type)].sequential;
}

/** True for INPUT/OUTPUT pseudo-cells (not silicon). */
constexpr bool
cellPseudo(CellType type)
{
    return type == CellType::INPUT || type == CellType::OUTPUT;
}

/**
 * Evaluate the combinational function of a cell over three-valued
 * inputs. Only valid for combinational cell types (not DFF/DFFE/INPUT).
 * For TIE0/TIE1 returns the constant; for OUTPUT/BUF returns in0.
 */
Logic evalCell(CellType type, const Logic *in);

} // namespace bespoke

#endif // BESPOKE_NETLIST_CELL_LIBRARY_HH
