#include "src/netlist/netlist.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace bespoke
{

const char *
moduleName(Module m)
{
    switch (m) {
      case Module::Frontend:
        return "frontend";
      case Module::Exec:
        return "execution_unit";
      case Module::Alu:
        return "alu";
      case Module::RF:
        return "register_file";
      case Module::Mult:
        return "multiplier";
      case Module::MemBB:
        return "mem_backbone";
      case Module::Sfr:
        return "sfr";
      case Module::Wdg:
        return "watchdog";
      case Module::Clock:
        return "clock_module";
      case Module::Dbg:
        return "dbg";
      case Module::Timer:
        return "timer";
      case Module::Uart:
        return "uart";
      case Module::Glue:
        return "glue";
      default:
        return "?";
    }
}

bool
moduleByName(const std::string &name, Module *out)
{
    for (int m = 0; m < kNumModules; m++) {
        if (name == moduleName(static_cast<Module>(m))) {
            *out = static_cast<Module>(m);
            return true;
        }
    }
    return false;
}

const char *
instanceKindName(InstanceKind k)
{
    switch (k) {
      case InstanceKind::Adder:
        return "adder";
      case InstanceKind::MuxTree:
        return "mux_tree";
      default:
        return "?";
    }
}

bool
instanceKindByName(const std::string &name, InstanceKind *out)
{
    if (name == "adder") {
        *out = InstanceKind::Adder;
        return true;
    }
    if (name == "mux_tree") {
        *out = InstanceKind::MuxTree;
        return true;
    }
    return false;
}

GateId
Netlist::addGate(CellType type, Module module, GateId in0, GateId in1,
                 GateId in2)
{
    Gate g;
    g.type = type;
    g.module = module;
    g.in = {in0, in1, in2};
    int n = cellNumInputs(type);
    for (int i = 0; i < n; i++) {
        bespoke_assert(g.in[i] != kNoGate,
                       "unconnected pin ", i, " on new ",
                       cellParams(type).name);
    }
    gates_.push_back(g);
    return static_cast<GateId>(gates_.size() - 1);
}

GateId
Netlist::addInput(const std::string &name, Module module)
{
    GateId id = addGate(CellType::INPUT, module);
    bespoke_assert(!ports_.count(name), "duplicate port ", name);
    ports_[name] = id;
    names_[id] = name;
    return id;
}

GateId
Netlist::addOutput(const std::string &name, GateId src, Module module)
{
    GateId id = addGate(CellType::OUTPUT, module, src);
    bespoke_assert(!ports_.count(name), "duplicate port ", name);
    ports_[name] = id;
    names_[id] = name;
    return id;
}

GateId
Netlist::tie(bool value, Module module)
{
    uint32_t key = (static_cast<uint32_t>(module) << 1) | (value ? 1 : 0);
    auto it = tieCache_.find(key);
    if (it != tieCache_.end())
        return it->second;
    GateId id = addGate(value ? CellType::TIE1 : CellType::TIE0, module);
    tieCache_[key] = id;
    return id;
}

GateId
Netlist::findTie(bool value, Module module) const
{
    uint32_t key = (static_cast<uint32_t>(module) << 1) | (value ? 1 : 0);
    auto it = tieCache_.find(key);
    return it == tieCache_.end() ? kNoGate : it->second;
}

void
Netlist::setResetValue(GateId id, bool value)
{
    bespoke_assert(cellSequential(gates_[id].type));
    gates_[id].resetValue = value;
}

void
Netlist::setName(GateId id, const std::string &name)
{
    names_[id] = name;
}

void
Netlist::setFanin(GateId id, int pin, GateId src)
{
    bespoke_assert(pin >= 0 && pin < gates_[id].numInputs());
    gates_[id].in[pin] = src;
}

void
Netlist::registerPort(const std::string &name, GateId id)
{
    bespoke_assert(!ports_.count(name), "duplicate port ", name);
    ports_[name] = id;
    names_[id] = name;
}

const std::string &
Netlist::name(GateId id) const
{
    static const std::string empty;
    auto it = names_.find(id);
    return it == names_.end() ? empty : it->second;
}

GateId
Netlist::port(const std::string &name) const
{
    auto it = ports_.find(name);
    if (it == ports_.end())
        bespoke_fatal("no port named '", name, "'");
    return it->second;
}

bool
Netlist::hasPort(const std::string &name) const
{
    return ports_.count(name) != 0;
}

std::vector<GateId>
Netlist::bus(const std::string &prefix, int width) const
{
    std::vector<GateId> ids(width);
    for (int i = 0; i < width; i++)
        ids[i] = port(prefix + "[" + std::to_string(i) + "]");
    return ids;
}

std::vector<GateId>
Netlist::inputIds() const
{
    std::vector<GateId> ids;
    for (GateId i = 0; i < gates_.size(); i++) {
        if (gates_[i].type == CellType::INPUT)
            ids.push_back(i);
    }
    return ids;
}

std::vector<GateId>
Netlist::outputIds() const
{
    std::vector<GateId> ids;
    for (GateId i = 0; i < gates_.size(); i++) {
        if (gates_[i].type == CellType::OUTPUT)
            ids.push_back(i);
    }
    return ids;
}

std::vector<GateId>
Netlist::sequentialIds() const
{
    std::vector<GateId> ids;
    for (GateId i = 0; i < gates_.size(); i++) {
        if (cellSequential(gates_[i].type))
            ids.push_back(i);
    }
    return ids;
}

namespace
{

/** Values available at the start of a cycle: INPUT, TIE, DFF, DFFE. */
bool
isCombSource(CellType t)
{
    return t == CellType::INPUT || t == CellType::TIE0 ||
           t == CellType::TIE1 || cellSequential(t);
}

/**
 * Kahn's algorithm over combinational edges only: sources never appear
 * in the result. Gates with no combinational fanin seed the queue in
 * ascending id order, and each released gate's consumers are visited
 * in ascending (consumer id, pin) order, so the order is a pure
 * function of the gate array. Consumers are kept in one CSR array (a
 * gate feeding a consumer on two pins is listed twice and counted
 * twice in `pending`). On a combinational loop the gates on or behind
 * it are missing from the result; *comb_total counts every
 * combinational gate.
 */
std::vector<GateId>
combOrder(const std::vector<Gate> &gates, size_t *comb_total)
{
    size_t n = gates.size();
    std::vector<uint8_t> source(n);
    size_t comb = 0;
    for (size_t i = 0; i < n; i++) {
        source[i] = isCombSource(gates[i].type);
        comb += source[i] ? 0 : 1;
    }
    // The result is allocated before the scratch arrays, so freeing
    // them leaves no hole below it in the heap.
    std::vector<GateId> order;
    order.reserve(comb);

    // head[v] counts v's combinational consumers, then (inclusive
    // prefix sum, filled back to front) becomes the start of v's slice.
    std::vector<uint32_t> pending(n, 0);
    std::vector<uint32_t> head(n + 1, 0);
    for (size_t i = 0; i < n; i++) {
        if (source[i])
            continue;
        const Gate &g = gates[i];
        for (int p = 0; p < g.numInputs(); p++) {
            if (!source[g.in[p]]) {
                pending[i]++;
                head[g.in[p]]++;
            }
        }
    }
    for (size_t v = 0; v < n; v++)
        head[v + 1] += head[v];
    std::vector<GateId> consumer(head[n]);
    for (size_t i = n; i-- > 0;) {
        if (source[i])
            continue;
        const Gate &g = gates[i];
        for (int p = g.numInputs() - 1; p >= 0; p--) {
            if (!source[g.in[p]])
                consumer[--head[g.in[p]]] = static_cast<GateId>(i);
        }
    }

    // The order doubles as the ready queue.
    for (size_t i = 0; i < n; i++) {
        if (!source[i] && pending[i] == 0)
            order.push_back(static_cast<GateId>(i));
    }
    for (size_t q = 0; q < order.size(); q++) {
        GateId id = order[q];
        for (uint32_t e = head[id]; e < head[id + 1]; e++) {
            if (--pending[consumer[e]] == 0)
                order.push_back(consumer[e]);
        }
    }
    *comb_total = comb;
    return order;
}

} // namespace

std::vector<GateId>
Netlist::levelize() const
{
    size_t comb_total = 0;
    std::vector<GateId> order = combOrder(gates_, &comb_total);
    if (order.size() != comb_total)
        bespoke_panic("combinational loop: levelized ", order.size(),
                      " of ", comb_total, " combinational gates");
    return order;
}

bool
Netlist::hasCombLoop(GateId *example) const
{
    size_t comb_total = 0;
    std::vector<GateId> order = combOrder(gates_, &comb_total);
    if (order.size() == comb_total)
        return false;
    // Name the lowest-id combinational gate Kahn never released.
    std::vector<uint8_t> done(gates_.size(), 0);
    for (GateId id : order)
        done[id] = 1;
    for (GateId i = 0; i < gates_.size(); i++) {
        if (!done[i] && !isCombSource(gates_[i].type)) {
            *example = i;
            break;
        }
    }
    return true;
}

void
Netlist::validate() const
{
    for (GateId i = 0; i < gates_.size(); i++) {
        const Gate &g = gates_[i];
        int n = g.numInputs();
        for (int p = 0; p < n; p++) {
            bespoke_assert(g.in[p] != kNoGate, "gate ", i,
                           " has unconnected pin ", p);
            bespoke_assert(g.in[p] < gates_.size(), "gate ", i,
                           " pin ", p, " out of range");
        }
        for (int p = n; p < 3; p++) {
            bespoke_assert(g.in[p] == kNoGate, "gate ", i,
                           " has extra connection on pin ", p);
        }
    }
    levelize(); // panics on combinational loops
}

std::vector<GateId>
Netlist::canonicalOrder() const
{
    std::vector<GateId> order;
    order.reserve(gates_.size());
    std::vector<char> seen(gates_.size(), 0);
    // Canonical position of each gate, filled as the order grows.
    std::vector<uint32_t> pos(gates_.size(), 0);

    auto take = [&](GateId id) {
        seen[id] = 1;
        pos[id] = static_cast<uint32_t>(order.size());
        order.push_back(id);
    };

    // Pre-order DFS through fanins in pin order. The traversal is
    // anchored purely at port names and pin positions, so two
    // renumberings of the same graph walk it identically.
    std::vector<GateId> stack;
    auto visit = [&](GateId root) {
        stack.push_back(root);
        while (!stack.empty()) {
            GateId id = stack.back();
            stack.pop_back();
            if (seen[id])
                continue;
            take(id);
            const Gate &g = gates_[id];
            for (int p = g.numInputs() - 1; p >= 0; p--)
                stack.push_back(g.in[p]);
        }
    };

    std::vector<std::pair<std::string, GateId>> outs, ins;
    for (const auto &[name, id] : ports_) {
        (gates_[id].type == CellType::OUTPUT ? outs : ins)
            .emplace_back(name, id);
    }
    std::sort(outs.begin(), outs.end());
    std::sort(ins.begin(), ins.end());
    for (const auto &[name, id] : outs)
        visit(id);
    for (const auto &[name, id] : ins)
        visit(id);

    // Stragglers: gates feeding no output cone (dead logic). Number
    // them in rounds by a purely structural key so the order stays
    // renumbering-invariant; gates with identical keys are
    // interchangeable duplicates and may take either slot.
    using Key = std::vector<uint64_t>;
    while (order.size() < gates_.size()) {
        std::vector<std::pair<Key, GateId>> ready;
        for (GateId i = 0; i < gates_.size(); i++) {
            if (seen[i])
                continue;
            const Gate &g = gates_[i];
            bool fanins_done = true;
            for (int p = 0; p < g.numInputs(); p++)
                fanins_done = fanins_done && seen[g.in[p]];
            if (!fanins_done)
                continue;
            Key k{static_cast<uint64_t>(g.type),
                  static_cast<uint64_t>(g.drive),
                  static_cast<uint64_t>(g.module),
                  g.resetValue ? 1ull : 0ull};
            for (int p = 0; p < g.numInputs(); p++)
                k.push_back(pos[g.in[p]]);
            ready.emplace_back(std::move(k), i);
        }
        if (ready.empty()) {
            // Dead sequential cycles: break them by taking every
            // remaining flop, keyed without fanins.
            for (GateId i = 0; i < gates_.size(); i++) {
                if (seen[i] || !cellSequential(gates_[i].type))
                    continue;
                const Gate &g = gates_[i];
                ready.emplace_back(
                    Key{static_cast<uint64_t>(g.type),
                        static_cast<uint64_t>(g.drive),
                        static_cast<uint64_t>(g.module),
                        g.resetValue ? 1ull : 0ull},
                    i);
            }
        }
        if (ready.empty()) {
            // Combinational cycle (validate() rejects these); fall
            // back to original order so the function still returns.
            for (GateId i = 0; i < gates_.size(); i++) {
                if (!seen[i])
                    take(i);
            }
            break;
        }
        std::stable_sort(ready.begin(), ready.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (const auto &[key, id] : ready)
            take(id);
    }
    return order;
}

uint64_t
Netlist::contentHash() const
{
    std::vector<GateId> order = canonicalOrder();
    std::vector<uint32_t> pos(gates_.size(), 0);
    for (size_t i = 0; i < order.size(); i++)
        pos[order[i]] = static_cast<uint32_t>(i);

    uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
    auto mixByte = [&h](uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;  // FNV-1a prime
    };
    auto mix32 = [&](uint32_t v) {
        for (int i = 0; i < 4; i++)
            mixByte(static_cast<uint8_t>(v >> (8 * i)));
    };

    mix32(static_cast<uint32_t>(gates_.size()));
    for (GateId id : order) {
        const Gate &g = gates_[id];
        mixByte(static_cast<uint8_t>(g.type));
        mixByte(static_cast<uint8_t>(g.drive));
        // Pseudo-gate module labels are bookkeeping the interchange
        // formats do not carry; keep them out of the identity.
        mixByte(cellPseudo(g.type) ? 0xff
                                   : static_cast<uint8_t>(g.module));
        mixByte(g.resetValue ? 1 : 0);
        for (int p = 0; p < g.numInputs(); p++)
            mix32(pos[g.in[p]]);
    }

    std::vector<std::pair<std::string, GateId>> sorted_ports(
        ports_.begin(), ports_.end());
    std::sort(sorted_ports.begin(), sorted_ports.end());
    for (const auto &[name, id] : sorted_ports) {
        for (char c : name)
            mixByte(static_cast<uint8_t>(c));
        mixByte(0);
        mixByte(gates_[id].type == CellType::INPUT ? 1 : 2);
        mix32(pos[id]);
    }
    return h;
}

size_t
Netlist::numCells() const
{
    size_t n = 0;
    for (const Gate &g : gates_)
        n += cellPseudo(g.type) ? 0 : 1;
    return n;
}

NetlistStats
Netlist::stats() const
{
    NetlistStats s;
    for (const Gate &g : gates_) {
        if (cellPseudo(g.type))
            continue;
        s.numCells++;
        if (cellSequential(g.type))
            s.numSequential++;
        s.area += cellArea(g.type, g.drive);
        s.leakage += cellLeakage(g.type, g.drive);
    }
    return s;
}

NetlistStats
Netlist::moduleStats(Module m) const
{
    NetlistStats s;
    for (const Gate &g : gates_) {
        if (cellPseudo(g.type) || g.module != m)
            continue;
        s.numCells++;
        if (cellSequential(g.type))
            s.numSequential++;
        s.area += cellArea(g.type, g.drive);
        s.leakage += cellLeakage(g.type, g.drive);
    }
    return s;
}

} // namespace bespoke
