#include "src/transform/rewrite.hh"

#include "src/util/logging.hh"

namespace bespoke
{

Rewriter::Rewriter(const Netlist &src)
    : src_(src), marks_(src.size(), Mark::Keep),
      aliasTarget_(src.size(), kNoGate), replaced_(src.size()),
      hasReplace_(src.size(), 0)
{}

void
Rewriter::makeConstant(GateId id, bool value)
{
    bespoke_assert(!cellPseudo(src_.gate(id).type),
                   "cannot constant-fold a port");
    marks_[id] = value ? Mark::Const1 : Mark::Const0;
}

void
Rewriter::makeAlias(GateId id, GateId target)
{
    bespoke_assert(id != target, "self-alias on gate ", id);
    // Reject cycles at mark time: walk existing alias marks from the
    // target; reaching `id` means this mark would close a loop.
    GateId cur = target;
    while (marks_[cur] == Mark::Alias) {
        bespoke_assert(cur != id, "alias cycle: gate ", id,
                       " -> ", target, " closes a loop");
        cur = aliasTarget_[cur];
    }
    bespoke_assert(cur != id, "alias cycle: gate ", id, " -> ", target,
                   " closes a loop");
    marks_[id] = Mark::Alias;
    aliasTarget_[id] = target;
}

void
Rewriter::replaceCell(GateId id, CellType type, GateId in0, GateId in1,
                      GateId in2)
{
    Gate g = src_.gate(id);
    g.type = type;
    g.in = {in0, in1, in2};
    replaced_[id] = g;
    hasReplace_[id] = 1;
}

void
Rewriter::kill(GateId id)
{
    marks_[id] = Mark::Killed;
}

bool
Rewriter::isDropped(GateId id) const
{
    return marks_[id] != Mark::Keep;
}

Rewriter::Resolved
Rewriter::resolve(GateId id) const
{
    GateId cur = id;
    for (size_t hops = 0; hops <= src_.size(); hops++) {
        switch (marks_[cur]) {
          case Mark::Const0:
            return {true, false, kNoGate};
          case Mark::Const1:
            return {true, true, kNoGate};
          case Mark::Alias:
            cur = aliasTarget_[cur];
            break;
          default: {
            // Kept and killed gates resolve to themselves; TIE cells
            // (killed ones too: no information lives in the cell)
            // resolve to constants so compact() can share them.
            CellType t = hasReplace_[cur] ? replaced_[cur].type
                                          : src_.gate(cur).type;
            if (t == CellType::TIE0)
                return {true, false, kNoGate};
            if (t == CellType::TIE1)
                return {true, true, kNoGate};
            return {false, false, cur};
          }
        }
    }
    bespoke_panic("alias cycle at gate ", id);
}

RewriteResult
Rewriter::compact() const
{
    RewriteResult out;
    out.map.assign(src_.size(), kNoGate);

    // First materialize all surviving gates (pins wired in pass 2,
    // since fanins may resolve to gates created later in the order).
    struct Pending
    {
        GateId oldId;
        GateId newId;
        Gate def;
    };
    std::vector<Pending> pending;

    for (GateId i = 0; i < src_.size(); i++) {
        if (marks_[i] != Mark::Keep)
            continue;
        Gate def = hasReplace_[i] ? replaced_[i] : src_.gate(i);
        if (def.type == CellType::TIE0 || def.type == CellType::TIE1)
            continue;  // re-created on demand as shared ties

        GateId nid;
        // Preserve port identity (names) for INPUT/OUTPUT pseudo-gates.
        const std::string &nm = src_.name(i);
        if (def.type == CellType::INPUT) {
            nid = out.netlist.addInput(nm, def.module);
        } else {
            // Create with dummy fanin; rewired below.
            GateId dummy = 0;  // patched in pass 2
            int n = cellNumInputs(def.type);
            nid = out.netlist.addGate(def.type, def.module,
                                      n > 0 ? dummy : kNoGate,
                                      n > 1 ? dummy : kNoGate,
                                      n > 2 ? dummy : kNoGate);
            out.netlist.gateRef(nid).drive = def.drive;
            if (cellSequential(def.type))
                out.netlist.setResetValue(nid, def.resetValue);
            if (!nm.empty())
                out.netlist.setName(nid, nm);
        }
        out.map[i] = nid;
        pending.push_back({i, nid, def});
    }

    // Second pass: wire fanins through resolution.
    for (const Pending &p : pending) {
        int n = cellNumInputs(p.def.type);
        for (int pin = 0; pin < n; pin++) {
            GateId old_in = p.def.in[pin];
            Resolved r = resolve(old_in);
            GateId src_new;
            if (r.isConst) {
                src_new = out.netlist.tie(r.value,
                                          src_.gate(p.oldId).module);
            } else {
                src_new = out.map[r.gate];
                bespoke_assert(src_new != kNoGate,
                               "live gate ", p.oldId, " pin ", pin,
                               " reads dropped gate ", r.gate);
            }
            out.netlist.setFanin(p.newId, pin, src_new);
        }
        // Inputs were registered by addInput; outputs need explicit
        // registration under their preserved names.
        if (p.def.type == CellType::OUTPUT)
            out.netlist.registerPort(src_.name(p.oldId), p.newId);
    }

    // Carry datapath instance metadata across the rewrite. An instance
    // survives when its operands are still expressible (surviving net or
    // constant) and at least one result net survives; otherwise it is
    // dropped — conservative, since the rewrite search only acts on
    // instances it can fully reconstruct.
    for (const DatapathInstance &inst : src_.instances()) {
        DatapathInstance ni;
        ni.kind = inst.kind;
        ni.module = inst.module;
        ni.variant = inst.variant;
        ni.shape = inst.shape;
        bool inputs_ok = true;
        for (GateId in : inst.inputs) {
            if (in == kNoGate) {
                inputs_ok = false;
                break;
            }
            Resolved r = resolve(in);
            // A constant operand may only reference a tie the compacted
            // netlist already has: minting one here would grow the gate
            // set for metadata's sake and break the pipeline's
            // bit-identity with the pre-pass flow.
            GateId nid = r.isConst
                             ? out.netlist.findTie(r.value, inst.module)
                             : out.map[r.gate];
            if (nid == kNoGate) {
                inputs_ok = false;
                break;
            }
            ni.inputs.push_back(nid);
        }
        if (!inputs_ok)
            continue;
        size_t live_outputs = 0;
        for (GateId o : inst.outputs) {
            GateId nid = kNoGate;
            if (o != kNoGate) {
                Resolved r = resolve(o);
                if (!r.isConst)
                    nid = out.map[r.gate];
            }
            if (nid != kNoGate)
                live_outputs++;
            ni.outputs.push_back(nid);
        }
        if (live_outputs > 0)
            out.netlist.addInstance(std::move(ni));
    }

    return out;
}

RewriteResult
stripBuffers(const Netlist &src)
{
    Rewriter rw(src);
    for (GateId i = 0; i < src.size(); i++) {
        if (src.gate(i).type == CellType::BUF)
            rw.makeAlias(i, src.gate(i).in[0]);
    }
    return rw.compact();
}

RewriteResult
sweepDead(const Netlist &src)
{
    // Liveness: OUTPUT ports are roots; a gate is live if some live
    // gate reads it. Flops keep themselves alive only through their
    // fanout like any other gate.
    std::vector<uint8_t> live(src.size(), 0);
    std::vector<GateId> work;
    for (GateId i = 0; i < src.size(); i++) {
        if (src.gate(i).type == CellType::OUTPUT) {
            live[i] = 1;
            work.push_back(i);
        }
    }
    while (!work.empty()) {
        GateId id = work.back();
        work.pop_back();
        const Gate &g = src.gate(id);
        for (int p = 0; p < g.numInputs(); p++) {
            GateId in = g.in[p];
            if (!live[in]) {
                live[in] = 1;
                work.push_back(in);
            }
        }
    }
    Rewriter rw(src);
    for (GateId i = 0; i < src.size(); i++) {
        if (!live[i] && !cellPseudo(src.gate(i).type))
            rw.kill(i);
    }
    return rw.compact();
}

} // namespace bespoke
