/**
 * @file
 * Content-hashed flow checkpointing.
 *
 * Every expensive stage of the bespoke flow (activity analysis,
 * cutting & stitching + re-sizing, STA/power measurement) can persist
 * its artifact to a checkpoint directory and short-circuit on the next
 * run. Artifacts are keyed by content, never by name or mtime: a key is
 * the triple (netlist content hash, program hash, options hash), so a
 * changed binary, a changed baseline core, or a changed flow option
 * silently misses the cache and recomputes, while a killed run resumes
 * at the last completed stage bit for bit.
 *
 * Files are one JSON document per stage,
 * `<netlist>-<program>-<options>.<stage>.json` under the store
 * directory, written atomically (writer-unique temp file + rename, so
 * concurrent same-key savers never tear a read). Loads are
 * validated end to end — a netlist artifact re-hashes its content, a
 * tracker artifact must match the netlist size — and any mismatch is
 * treated as a miss with a warning, never an error: checkpoints are an
 * accelerator, not a source of truth.
 */

#ifndef BESPOKE_BESPOKE_CHECKPOINT_HH
#define BESPOKE_BESPOKE_CHECKPOINT_HH

#include <atomic>
#include <string>

#include "src/analysis/activity_analysis.hh"
#include "src/isa/assembler.hh"
#include "src/transform/bespoke_transform.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/util/json.hh"

namespace bespoke
{

struct DesignMetrics;
struct FlowOptions;

/** Content-derived identity of one stage artifact. */
struct CheckpointKey
{
    uint64_t netlist = 0;  ///< contentHash() of the input netlist
    uint64_t program = 0;  ///< hash of the application ROM image(s)
    uint64_t options = 0;  ///< hash of every result-affecting option
};

class CheckpointStore
{
  public:
    /** Disabled store: every load misses, every save is a no-op. */
    CheckpointStore() = default;
    /** Store rooted at `dir` (created if missing); "" disables. */
    explicit CheckpointStore(const std::string &dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** File path a (key, stage) artifact lives at. */
    std::string path(const CheckpointKey &key,
                     const std::string &stage) const;

    /**
     * Load and parse a stage artifact. False when disabled, absent, or
     * unparseable (the latter warns). Semantic validation is the
     * caller's job via the *FromJson deserializers.
     */
    bool load(const CheckpointKey &key, const std::string &stage,
              JsonValue *doc) const;

    /**
     * Persist a stage artifact atomically. The temp file carries a
     * writer-unique suffix, so two concurrent savers of the same key
     * never interleave into one file: each writes its own complete
     * temp and the atomic renames race benignly (the artifacts are
     * content-equal by construction — same key, same computation).
     */
    void save(const CheckpointKey &key, const std::string &stage,
              const JsonValue &doc) const;

    /** @name Hit/miss counters (observability for tests and logs) */
    /// @{
    size_t hits() const { return hits_.load(); }
    size_t misses() const { return misses_.load(); }
    /// @}

  private:
    std::string dir_;
    mutable std::atomic<size_t> hits_{0};
    mutable std::atomic<size_t> misses_{0};
};

/** @name Key-material hashing (FNV-1a over canonical bytes) */
/// @{

/** Seed for composing several hashes with hashCombine(). */
constexpr uint64_t kHashBasis = 14695981039346656037ull;

/** Fold a 64-bit value into a running FNV-1a hash. */
uint64_t hashCombine(uint64_t h, uint64_t v);

/** Hash of the assembled ROM image (what the analysis actually sees). */
uint64_t hashProgram(const AsmProgram &prog);

/**
 * Hash of the analysis options that affect the *result*. `threads` and
 * `simMode` are deliberately excluded: both engines and any worker
 * count produce bit-identical toggle sets and counters (pinned by the
 * tier-1 equivalence tests), so artifacts are shared across them.
 */
uint64_t hashAnalysisOptions(const AnalysisOptions &opts);

/**
 * Hash of every flow option that affects design or metrics artifacts
 * (analysis options, power-run configuration, timing and power model
 * parameters). `checkpointDir` itself is naturally excluded.
 */
uint64_t hashFlowOptions(const FlowOptions &opts);

/// @}

/** @name Stage artifact serializers */
/// @{

/**
 * Analysis artifact: the tracker's reset-time values and may-toggle
 * set plus the exploration counters. Only completed results should be
 * saved; restored results have completed == true.
 */
JsonValue analysisToJson(const AnalysisResult &r);
bool analysisFromJson(const JsonValue &doc, const Netlist &netlist,
                      AnalysisResult *out, std::string *err);

/**
 * Design artifact: the cut, stitched, re-sized netlist + cut stats,
 * plus (optionally) the pipeline report that produced it. A null
 * `pipeline` writes/accepts artifacts without the report section, so
 * pre-pipeline artifacts stay loadable (they restore an empty report).
 */
JsonValue designToJson(const Netlist &sized, const CutStats &cut,
                       const PipelineReport *pipeline = nullptr);
bool designFromJson(const JsonValue &doc, Netlist *netlist,
                    CutStats *cut, std::string *err,
                    PipelineReport *pipeline = nullptr);

/** Metrics artifact: a DesignMetrics, doubles preserved exactly. */
JsonValue metricsToJson(const DesignMetrics &m);
bool metricsFromJson(const JsonValue &doc, DesignMetrics *out,
                     std::string *err);

/// @}

} // namespace bespoke

#endif // BESPOKE_BESPOKE_CHECKPOINT_HH
