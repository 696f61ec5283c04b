/**
 * @file
 * Canonical JSON netlist interchange format.
 *
 * The JSON form is an *exact* representation: gate ids are preserved,
 * so `netlistFromJson(netlistToJson(N))` reproduces N bit for bit
 * (same ids, same ports, same debug names). This exactness lets a file
 * stand in for the in-memory netlist: gate-indexed data (untoggled-gate
 * sets, toggle counts) computed on N stays valid on the reloaded copy.
 *
 * Serialization order is deterministic: gates in id order, ports and
 * debug names sorted by name/id, so dumping the same netlist twice
 * yields byte-identical text. The document embeds
 * `Netlist::contentHash()` (which is *renumbering*-invariant, unlike
 * the id-exact JSON) and loading verifies it, so a truncated or
 * hand-edited file is rejected instead of silently corrupting a
 * downstream flow stage.
 *
 * Schema (DESIGN.md section 8 has the full specification):
 * {
 *   "format": "bespoke-netlist", "version": 1,
 *   "content_hash": "<16 hex digits>",
 *   "gates": [[type, drive, module, resetValue, [fanins...]], ...],
 *   "ports": [["name", gateId], ...],
 *   "names": [[gateId, "debug name"], ...]   // non-port names only
 * }
 */

#ifndef BESPOKE_IO_NETLIST_JSON_HH
#define BESPOKE_IO_NETLIST_JSON_HH

#include <string>

#include "src/netlist/netlist.hh"
#include "src/util/json.hh"

namespace bespoke
{

/** Serialize a netlist to its canonical JSON document. */
JsonValue netlistToJson(const Netlist &nl);

/** netlistToJson() dumped as pretty-printed text. */
std::string netlistToJsonText(const Netlist &nl);

/**
 * Rebuild a netlist from its JSON document. Malformed documents
 * (unknown cell/module names, bad arities, dangling fanin ids, a
 * content hash that does not match the rebuilt netlist) fail with
 * `ok = false` and a diagnostic message; nothing is fatal so callers
 * can surface the error with file context.
 */
struct NetlistJsonResult
{
    bool ok = false;
    Netlist netlist;
    std::string error;
};

NetlistJsonResult netlistFromJson(const JsonValue &doc);

/** Parse JSON text, then netlistFromJson(). */
NetlistJsonResult netlistFromJsonText(const std::string &text);

} // namespace bespoke

#endif // BESPOKE_IO_NETLIST_JSON_HH
