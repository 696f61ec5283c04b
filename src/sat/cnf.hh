/**
 * @file
 * CNF layer of the SAT subsystem: literals, the clause-sink interface
 * the Tseitin encoder targets, and a plain clause container with
 * DIMACS and bit-blasted SMT2 export.
 *
 * Variable 0 is reserved as the constant-true variable: every sink
 * asserts the unit clause {+0} on construction, so the encoders can
 * fold constants by handing out the literals kTrue / kFalse without a
 * side channel. DIMACS export shifts variables to the 1-based numbering
 * the format requires; the reserved unit clause travels with the file,
 * so external solvers (minisat, z3) see exactly the same formula.
 */

#ifndef BESPOKE_SAT_CNF_HH
#define BESPOKE_SAT_CNF_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bespoke::sat
{

using Var = uint32_t;

/** A literal: variable index with a sign, packed as var*2 + negated. */
struct Lit
{
    uint32_t code = 0;

    constexpr Lit() = default;
    constexpr explicit Lit(uint32_t c) : code(c) {}

    constexpr Var var() const { return code >> 1; }
    constexpr bool negated() const { return (code & 1u) != 0; }
    constexpr Lit operator~() const { return Lit(code ^ 1u); }
    constexpr bool operator==(const Lit &) const = default;
    constexpr bool operator<(const Lit &o) const { return code < o.code; }
};

constexpr Lit mkLit(Var v, bool negated = false)
{
    return Lit((v << 1) | (negated ? 1u : 0u));
}

/** Literals of the reserved constant variable. */
constexpr Lit kTrue = mkLit(0, false);
constexpr Lit kFalse = mkLit(0, true);

/** True for kTrue/kFalse (encode-time constants). */
constexpr bool isConstLit(Lit l)
{
    return l.var() == 0;
}

/**
 * Destination for generated clauses. Implemented by the CDCL solver
 * (solve as you encode) and by Cnf (collect for export). newVar() hands
 * out consecutive indices starting at 1; var 0 pre-exists.
 */
class CnfSink
{
  public:
    virtual ~CnfSink() = default;

    virtual Var newVar() = 0;
    virtual void addClause(const Lit *lits, size_t n) = 0;

    void unit(Lit a) { addClause(&a, 1); }
    void binary(Lit a, Lit b)
    {
        Lit c[2] = {a, b};
        addClause(c, 2);
    }
    void ternary(Lit a, Lit b, Lit c)
    {
        Lit d[3] = {a, b, c};
        addClause(d, 3);
    }
};

/**
 * Clause container for export and tests. Stores clauses verbatim (no
 * simplification beyond what the encoder folded).
 */
class Cnf : public CnfSink
{
  public:
    Cnf();

    Var newVar() override { return numVars_++; }
    void addClause(const Lit *lits, size_t n) override;

    size_t numVars() const { return numVars_; }
    size_t numClauses() const { return clauseStart_.size(); }

    /** Lits of clause i. */
    const Lit *clauseLits(size_t i) const;
    size_t clauseSize(size_t i) const;

    /** Free-form comment lines emitted at the top of both exports. */
    void comment(const std::string &line) { comments_.push_back(line); }
    /** Name a variable for export comments ("c var 12 = ..."). */
    void nameVar(Var v, const std::string &name);

    /** DIMACS CNF ("p cnf V C"; variables shifted to 1-based). */
    void writeDimacs(std::ostream &os) const;

    /**
     * Bit-blasted SMT2: one Bool constant per variable, one assert per
     * clause, then (check-sat). sat from z3 = satisfiable CNF.
     */
    void writeSmt2(std::ostream &os) const;

  private:
    Var numVars_ = 0;
    std::vector<Lit> lits_;
    std::vector<uint32_t> clauseStart_;
    std::vector<uint32_t> clauseLen_;
    std::vector<std::string> comments_;
    std::vector<std::pair<Var, std::string>> varNames_;
};

} // namespace bespoke::sat

#endif // BESPOKE_SAT_CNF_HH
