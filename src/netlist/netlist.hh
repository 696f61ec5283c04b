/**
 * @file
 * Gate-level netlist representation.
 *
 * A netlist is a flat array of gates; each gate drives exactly one net,
 * so nets are identified with their driving gate. Primary inputs and
 * outputs are pseudo-gates (CellType::INPUT / CellType::OUTPUT) so that
 * the whole design is one homogeneous graph. Sequential state is held in
 * DFF/DFFE cells, all clocked by a single implicit global clock; the
 * asynchronous reset is modeled as a per-flop reset value applied when
 * the simulator asserts reset (paper Algorithm 1, line 4).
 *
 * Every gate carries the openMSP430-style module label it belongs to
 * (frontend, execution unit, register file, multiplier, ...), which the
 * paper's per-module breakdowns (Figs. 3, 4, 10) and the power-gating
 * baseline (Fig. 15) rely on.
 */

#ifndef BESPOKE_NETLIST_NETLIST_HH
#define BESPOKE_NETLIST_NETLIST_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/netlist/cell_library.hh"

namespace bespoke
{

using GateId = uint32_t;
constexpr GateId kNoGate = 0xffffffffu;

/** openMSP430-style module decomposition of the bsp430 core. */
enum class Module : uint8_t
{
    Frontend,  ///< fetch / decode / state machine
    Exec,      ///< execution unit glue, condition codes
    Alu,       ///< the ALU proper (subset of execution unit in the paper)
    RF,        ///< register file
    Mult,      ///< 16x16 hardware multiplier peripheral
    MemBB,     ///< memory backbone (bus mux / address decode)
    Sfr,       ///< special function registers (IE/IFG)
    Wdg,       ///< watchdog timer
    Clock,     ///< clock module (divider / control)
    Dbg,       ///< debug unit
    Timer,     ///< 16-bit timer w/ compare (extended core only)
    Uart,      ///< UART transmitter (extended core only)
    Glue,      ///< top-level glue
    NumModules,
};

constexpr int kNumModules = static_cast<int>(Module::NumModules);

/** Human-readable module name. */
const char *moduleName(Module m);

/** Reverse lookup of moduleName(); false for unknown names. */
bool moduleByName(const std::string &name, Module *out);

/** One gate instance. */
struct Gate
{
    CellType type = CellType::INPUT;
    Drive drive = Drive::X1;
    Module module = Module::Glue;
    /** Reset value for sequential cells. */
    bool resetValue = false;
    /** Fanin nets (= driving gate ids); kNoGate when unused. */
    std::array<GateId, 3> in = {kNoGate, kNoGate, kNoGate};

    int numInputs() const { return cellNumInputs(type); }
};

/** Kind of a recorded datapath instance. */
enum class InstanceKind : uint8_t
{
    Adder,    ///< adder/subtractor block (see AdderKind)
    MuxTree,  ///< N:1 mux tree
};

/**
 * Word-level datapath instance metadata, recorded by NetBuilder when it
 * emits an adder or mux tree and consumed by the cost-driven rewrite
 * search (src/transform/pass_pipeline). Pure side information: it names
 * the operand and result *nets* of the block, never its internal gates,
 * so it stays valid as long as those nets exist. Excluded from
 * contentHash() (two netlists that differ only in recorded instances
 * are the same design); remapped by Rewriter::compact() and carried by
 * the canonical JSON interchange format (Verilog export drops it).
 */
struct DatapathInstance
{
    InstanceKind kind = InstanceKind::Adder;
    Module module = Module::Glue;
    /** Adder: the AdderKind it was built as. MuxTree: 0. */
    uint8_t variant = 0;
    /** Adder: {width}. MuxTree: {selBits, choices, width}. */
    std::vector<uint32_t> shape;
    /**
     * Operand nets, external to the block. Adder: a[0..w) b[0..w)
     * carryIn. MuxTree: sel[0..s) then the choice buses flattened.
     */
    std::vector<GateId> inputs;
    /**
     * Result nets. Adder: sum[0..w) carries[0..w). MuxTree: the output
     * bus. Entries become kNoGate when rewriting folded that net away.
     */
    std::vector<GateId> outputs;
};

/** Human-readable instance kind name ("adder" / "mux_tree"). */
const char *instanceKindName(InstanceKind k);
/** Reverse lookup of instanceKindName(); false for unknown names. */
bool instanceKindByName(const std::string &name, InstanceKind *out);

/** Aggregate size/power numbers for a netlist (or one module of it). */
struct NetlistStats
{
    size_t numCells = 0;       ///< real silicon cells (excl. pseudo)
    size_t numSequential = 0;  ///< DFF/DFFE count
    double area = 0.0;         ///< µm² (cell area; see Power for layout)
    double leakage = 0.0;      ///< nW at 1.0 V
};

/**
 * The netlist graph. Construction is append-only; structural transforms
 * (cutting & stitching, resynthesis) build a new netlist and return a
 * gate-id mapping (see src/transform).
 */
class Netlist
{
  public:
    Netlist() = default;

    /** @name Construction */
    /// @{
    GateId addGate(CellType type, Module module, GateId in0 = kNoGate,
                   GateId in1 = kNoGate, GateId in2 = kNoGate);
    GateId addInput(const std::string &name, Module module = Module::Glue);
    GateId addOutput(const std::string &name, GateId src,
                     Module module = Module::Glue);
    /** Constant driver (TIE0/TIE1), shared per value per module. */
    GateId tie(bool value, Module module = Module::Glue);
    /** The shared tie for (value, module) if one exists, else kNoGate. */
    GateId findTie(bool value, Module module = Module::Glue) const;
    /** Set a flop's reset value (defaults to 0). */
    void setResetValue(GateId id, bool value);
    /** Attach a debug name to any gate. */
    void setName(GateId id, const std::string &name);
    /** Reconnect one fanin pin of a gate (used by transforms). */
    void setFanin(GateId id, int pin, GateId src);
    /**
     * Register an existing gate under a port name (used by transforms
     * that re-create OUTPUT pseudo-gates without addOutput).
     */
    void registerPort(const std::string &name, GateId id);
    /// @}

    /** @name Access */
    /// @{
    const Gate &gate(GateId id) const { return gates_[id]; }
    Gate &gateRef(GateId id) { return gates_[id]; }
    size_t size() const { return gates_.size(); }
    const std::vector<Gate> &gates() const { return gates_; }
    const std::string &name(GateId id) const;
    /// @}

    /** @name Ports */
    /// @{
    /** Look up a named INPUT/OUTPUT gate; fatal if missing. */
    GateId port(const std::string &name) const;
    /** True if a port with this name exists. */
    bool hasPort(const std::string &name) const;
    /** Look up bus ports "prefix[0]" .. "prefix[width-1]". */
    std::vector<GateId> bus(const std::string &prefix, int width) const;
    const std::unordered_map<std::string, GateId> &ports() const
    {
        return ports_;
    }
    /** All attached debug names (ports included), id -> name. */
    const std::unordered_map<GateId, std::string> &gateNames() const
    {
        return names_;
    }
    std::vector<GateId> inputIds() const;
    std::vector<GateId> outputIds() const;
    /// @}

    /** @name Analysis helpers */
    /// @{
    /**
     * Topological order of all combinational gates and OUTPUT
     * pseudo-gates. INPUT/TIE/DFF/DFFE are sources and do not appear.
     * Panics on a combinational loop.
     */
    std::vector<GateId> levelize() const;

    /** Ids of all sequential cells. */
    std::vector<GateId> sequentialIds() const;

    /** Check structural sanity (all pins wired, arities right). */
    void validate() const;

    /**
     * Non-panicking combinational loop detection. Interchange loaders
     * use this to reject bad input as a user error where levelize()
     * would treat it as a broken internal invariant. Returns true and
     * names one gate on a cycle through *example.
     */
    bool hasCombLoop(GateId *example) const;

    /**
     * Canonical gate ordering: a permutation of all gate ids that is
     * invariant under renumbering (two isomorphic netlists produce the
     * same canonical sequence of gates). Anchored at the named ports:
     * depth-first traversal from the output ports in name order,
     * descending through fanins in pin order (crossing flop
     * boundaries), then the input ports in name order, then any
     * remaining (dead) gates in a structurally determined order.
     * Returns canonical position -> gate id.
     */
    std::vector<GateId> canonicalOrder() const;

    /**
     * Content hash: FNV-1a over the canonical form (gate types,
     * drives, module labels, reset values, and fanin edges in
     * canonical numbering, plus the port bindings). Invariant under
     * gate renumbering, so import(export(N)) hashes identically to N;
     * module labels of INPUT/OUTPUT pseudo-gates are excluded (they
     * are bookkeeping that the interchange formats do not carry).
     */
    uint64_t contentHash() const;

    /** @name Datapath instances (side information; see DatapathInstance) */
    /// @{
    void addInstance(DatapathInstance inst)
    {
        instances_.push_back(std::move(inst));
    }
    const std::vector<DatapathInstance> &instances() const
    {
        return instances_;
    }
    /** Mutable access for transforms that remap or rebuild instances. */
    std::vector<DatapathInstance> &instancesRef() { return instances_; }
    /// @}

    /** Whole-design stats over real cells. */
    NetlistStats stats() const;
    /** Stats restricted to one module label. */
    NetlistStats moduleStats(Module m) const;
    /** Number of real silicon cells (excludes INPUT/OUTPUT pseudo);
     *  equals stats().numCells without the area/leakage sums. */
    size_t numCells() const;
    /// @}

  private:
    std::vector<Gate> gates_;
    std::unordered_map<std::string, GateId> ports_;
    std::unordered_map<GateId, std::string> names_;
    /** Shared tie cells per (module, value). */
    std::unordered_map<uint32_t, GateId> tieCache_;
    std::vector<DatapathInstance> instances_;
};

} // namespace bespoke

#endif // BESPOKE_NETLIST_NETLIST_HH
