/**
 * @file
 * Property-based tests for the Kleene plane connectives
 * (src/sim/plane.hh) on 64-lane planes:
 *
 *  - per-lane correspondence: every lane of every plane op decodes to
 *    exactly the scalar three-valued connective (src/logic) applied to
 *    that lane's decoded inputs;
 *  - canonical form: every op keeps val ⊆ known;
 *  - X-monotonicity: weakening any input lane toward X (dropping known
 *    bits) can only weaken the output lane toward X — a known output
 *    value never flips. This is the property the batch runners rely on
 *    when they conservatively widen lanes;
 *  - plane edges: directed single-lane stimulus at lanes 0 and 63
 *    pins that no op smears state into a neighboring lane.
 */

#include <gtest/gtest.h>

#include "src/logic/logic.hh"
#include "src/sim/plane.hh"
#include "src/util/rng.hh"

namespace bespoke
{
namespace
{

uint64_t
randomMask(Rng &rng)
{
    return (static_cast<uint64_t>(rng.next()) << 32) | rng.next();
}

/** Random canonical (val ⊆ known) plane pair, with plenty of X. */
Planes
randomPlanes(Rng &rng)
{
    uint64_t k = randomMask(rng) | randomMask(rng);  // ~75% known
    uint64_t v = randomMask(rng) & k;
    return {v, k};
}

Logic
decodeLane(const Planes &p, int lane)
{
    if (!laneTest(p.k, lane))
        return Logic::X;
    return laneTest(p.v, lane) ? Logic::One : Logic::Zero;
}

void
encodeLane(Planes &p, int lane, Logic v)
{
    laneClear(p.v, lane);
    laneClear(p.k, lane);
    if (v != Logic::X) {
        laneSet(p.k, lane);
        if (v == Logic::One)
            laneSet(p.v, lane);
    }
}

bool
canonical(const Planes &p)
{
    return !laneAny(p.v & ~p.k);
}

/** Information order: wherever `weak` is known it agrees with `strong`. */
bool
weakerOrEqual(const Planes &weak, const Planes &strong)
{
    if (laneAny(weak.k & ~strong.k))
        return false;
    return !laneAny((weak.v ^ strong.v) & weak.k);
}

/** Drop known bits of `p` under `drop` (weaken those lanes to X). */
Planes
weaken(const Planes &p, uint64_t drop)
{
    uint64_t k = p.k & ~drop;
    return {p.v & k, k};
}

constexpr int kOps = 6;

/** Apply plane op `op` (0..5) to canonical inputs. */
Planes
applyPlaneOp(int op, const Planes &a, const Planes &b, const Planes &c)
{
    switch (op) {
    case 0: return pNot(a);
    case 1: return pAnd(a, b);
    case 2: return pOr(a, b);
    case 3: return pXor(a, b);
    case 4: return pXnor(a, b);
    default: return pMux(a, b, c);  // a0 = a, a1 = b, sel = c
    }
}

Logic
applyScalarOp(int op, Logic a, Logic b, Logic c)
{
    switch (op) {
    case 0: return logicNot(a);
    case 1: return logicAnd(a, b);
    case 2: return logicOr(a, b);
    case 3: return logicXor(a, b);
    case 4: return logicNot(logicXor(a, b));
    default: return logicMux(c, a, b);
    }
}

const char *const kOpNames[kOps] = {"not", "and", "or",
                                    "xor", "xnor", "mux"};

void
runPlaneProperties(uint32_t seed, int rounds)
{
    Rng rng(seed);

    for (int round = 0; round < rounds; round++) {
        Planes a = randomPlanes(rng);
        Planes b = randomPlanes(rng);
        Planes c = randomPlanes(rng);

        for (int op = 0; op < kOps; op++) {
            Planes r = applyPlaneOp(op, a, b, c);
            ASSERT_TRUE(canonical(r))
                << kOpNames[op] << " broke val ⊆ known, round " << round;

            // Per-lane correspondence with the scalar connective.
            for (int lane = 0; lane < 64; lane++) {
                ASSERT_EQ(decodeLane(r, lane),
                          applyScalarOp(op, decodeLane(a, lane),
                                        decodeLane(b, lane),
                                        decodeLane(c, lane)))
                    << kOpNames[op] << " lane " << lane << " round "
                    << round;
            }

            // X-monotonicity: weakening inputs weakens the output.
            Planes r2 = applyPlaneOp(op, weaken(a, randomMask(rng)),
                                     weaken(b, randomMask(rng)),
                                     weaken(c, randomMask(rng)));
            ASSERT_TRUE(canonical(r2));
            ASSERT_TRUE(weakerOrEqual(r2, r))
                << kOpNames[op] << " is not X-monotone, round "
                << round;
        }
    }
}

/**
 * Exhaustive single-lane truth check at the plane-edge lanes (and one
 * interior lane): every op, every 3^3 input combination, with all
 * other lanes pinned to a contrasting background — a value smeared
 * into a neighbor (or a lane shift bug) flips one of these.
 */
void
runBoundaryLanes()
{
    constexpr Logic vals[3] = {Logic::Zero, Logic::One, Logic::X};

    for (int lane : {0, 31, 63}) {
        for (int op = 0; op < kOps; op++) {
            for (Logic la : vals) {
                for (Logic lb : vals) {
                    for (Logic lc : vals) {
                        // Background: everything known One (maximally
                        // contrasting with the X/Zero cases).
                        Planes a{kAllLanes, kAllLanes};
                        Planes b = a, c = a;
                        encodeLane(a, lane, la);
                        encodeLane(b, lane, lb);
                        encodeLane(c, lane, lc);
                        Planes r = applyPlaneOp(op, a, b, c);
                        ASSERT_EQ(decodeLane(r, lane),
                                  applyScalarOp(op, la, lb, lc))
                            << kOpNames[op] << " lane " << lane;
                        // Neighbors keep the background result.
                        for (int d : {-1, 1}) {
                            int nb = lane + d;
                            if (nb < 0 || nb >= 64)
                                continue;
                            ASSERT_EQ(
                                decodeLane(r, nb),
                                applyScalarOp(op, Logic::One,
                                              Logic::One, Logic::One))
                                << kOpNames[op]
                                << " smeared into lane " << nb
                                << " from " << lane;
                        }
                    }
                }
            }
        }
    }
}

TEST(PlaneX, Monotonicity64) { runPlaneProperties(11, 300); }

TEST(PlaneX, BoundaryLanes64) { runBoundaryLanes(); }

} // namespace
} // namespace bespoke
