/**
 * @file
 * 64-lane bit planes: the storage + Kleene algebra behind the bit-plane
 * simulator (LaneSim).
 *
 * A "plane" holds one bit per lane for one net, lane i in bit i of a
 * uint64_t. A three-valued signal is two planes — val and known — kept
 * in the canonical form val ⊆ known (an X lane has val bit 0), exactly
 * like SWord. The Kleene connectives (pNot/pAnd/.../pMux) preserve
 * that invariant; their correctness is pinned per lane against the
 * scalar truth tables by tests/test_plane_x.cc and end-to-end by
 * tests/diff_harness.hh.
 */

#ifndef BESPOKE_SIM_PLANE_HH
#define BESPOKE_SIM_PLANE_HH

#include <bit>
#include <cstdint>

namespace bespoke
{

/** @name Lane-mask helpers */
/// @{

/** Every lane set. */
constexpr uint64_t kAllLanes = ~0ull;

inline bool
laneAny(uint64_t m)
{
    return m != 0;
}

inline int
laneCount(uint64_t m)
{
    return std::popcount(m);
}

inline bool
laneTest(uint64_t m, int lane)
{
    return (m >> lane) & 1;
}

inline void
laneSet(uint64_t &m, int lane)
{
    m |= 1ull << lane;
}

inline void
laneClear(uint64_t &m, int lane)
{
    m &= ~(1ull << lane);
}

/** Invoke f(lane) for every set lane, in ascending lane order. */
template <class F>
inline void
forEachLane(uint64_t m, F &&f)
{
    while (m) {
        f(std::countr_zero(m));
        m &= m - 1;
    }
}
/// @}

/**
 * One three-valued signal as 64 (val, known) lane bits: v is exactly
 * "known One", k & ~v is exactly "known Zero", ~k is X.
 */
struct Planes
{
    uint64_t v;  ///< known-One lanes (always a subset of k)
    uint64_t k;  ///< known lanes
};

// Kleene connectives on lane planes. Every op keeps the canonical
// invariant v ⊆ k, which the correctness of the compositions relies
// on.

inline Planes
pNot(const Planes &a)
{
    return {a.k & ~a.v, a.k};
}

inline Planes
pAnd(const Planes &a, const Planes &b)
{
    // Known when both are known, or either side is a known Zero.
    return {a.v & b.v, (a.k & b.k) | (a.k & ~a.v) | (b.k & ~b.v)};
}

inline Planes
pOr(const Planes &a, const Planes &b)
{
    // Known when both are known, or either side is a known One.
    return {a.v | b.v, (a.k & b.k) | a.v | b.v};
}

inline Planes
pXor(const Planes &a, const Planes &b)
{
    uint64_t k = a.k & b.k;
    return {(a.v ^ b.v) & k, k};
}

inline Planes
pXnor(const Planes &a, const Planes &b)
{
    uint64_t k = a.k & b.k;
    return {~(a.v ^ b.v) & k, k};
}

/** logicMux semantics: sel X yields a0 when a0 == a1 and both known. */
inline Planes
pMux(const Planes &a0, const Planes &a1, const Planes &sel)
{
    uint64_t sel1 = sel.v;
    uint64_t sel0 = sel.k & ~sel.v;
    uint64_t eq = a0.k & a1.k & ~(a0.v ^ a1.v);
    uint64_t k = (sel1 & a1.k) | (sel0 & a0.k) | (~sel.k & eq);
    uint64_t v = (sel1 & a1.v) | (sel0 & a0.v) | (~sel.k & eq & a0.v);
    return {v, k};
}

} // namespace bespoke

#endif // BESPOKE_SIM_PLANE_HH
