/**
 * @file
 * Static timing analysis and voltage/delay modeling.
 *
 * Delay model: gate delay = intrinsic + driveRes x load, where load is
 * the sum of fanout input-pin capacitances (plus a small wire estimate
 * per fanout). Launch points are flop Q pins (clock-to-Q) and primary
 * inputs; capture points are flop D/EN pins (plus setup) and primary
 * outputs. The critical path over all capture points defines the
 * minimum clock period. analyzeTiming() is forward-only: it reports
 * arrival times and the critical path, which is all the flow and the
 * tailoring pipeline read (design-level slack is period minus critical
 * path); there is no per-gate required-time or slack view.
 *
 * sizeForLoads() implements the synthesis sizing discipline: gates
 * driving heavy loads are upsized (X2/X4) to bound their load-dependent
 * delay. Running it again after cutting & stitching naturally downsizes
 * drivers whose fanout shrank — the paper's "smaller, lower power
 * versions of the cells" (Sec. 3.2).
 *
 * vminForPeriod() maps exposed timing slack to a reduced operating
 * voltage via the alpha-power-law delay model (Table 2): delay(V) =
 * delay(V0) x (V/V0) x ((V0-Vth)/(V-Vth))^alpha.
 */

#ifndef BESPOKE_TIMING_STA_HH
#define BESPOKE_TIMING_STA_HH

#include "src/netlist/netlist.hh"

namespace bespoke
{

/** Timing model constants. */
struct TimingParams
{
    double wireCapPerFanout = 0.35;  ///< fF per fanout pin
    double outputPortCap = 3.0;      ///< fF on primary outputs
    double clkToQ = 120.0;           ///< ps (already in the DFF cell)
    double setup = 35.0;             ///< ps at capture flops
    /** Loads (fF) above which a driver is upsized to X2 / X4. */
    double x2LoadThreshold = 14.0;
    double x4LoadThreshold = 28.0;
    /** Alpha-power-law voltage model. */
    double vNominal = 1.0;    ///< V
    double vThreshold = 0.35; ///< V
    double alpha = 1.3;
    double vMinFloor = 0.5;   ///< lowest safe voltage (V)
    /** Worst-case PVT guardband applied when searching Vmin. */
    double pvtMargin = 1.08;
};

struct TimingReport
{
    double criticalPathPs = 0.0;
    /** Gate ids along the critical path (launch to capture). */
    std::vector<GateId> criticalPath;
    /** Arrival time (ps) at each gate output. */
    std::vector<double> arrival;
};

/** Run STA at nominal voltage. */
TimingReport analyzeTiming(const Netlist &netlist,
                           const TimingParams &params = {});

/**
 * Assign drive strengths from fanout loads (mutates the netlist's
 * drive fields). Returns the number of gates not at X1 afterwards.
 */
size_t sizeForLoads(Netlist &netlist, const TimingParams &params = {});

/** Delay scale factor at voltage v relative to nominal. */
double delayScaleAtVoltage(double v, const TimingParams &params = {});

/**
 * Clock period the flow holds a design to, as a multiple of a critical
 * path: the baseline's (BespokeFlow) or, without a flow, the tailored
 * netlist's own (the pass pipeline's default clock budget).
 */
constexpr double kClockMargin = 1.02;

/**
 * Lowest voltage at which the design still meets the clock period
 * (including the PVT margin), not below vMinFloor.
 */
double vminForPeriod(double critical_path_ps, double period_ps,
                     const TimingParams &params = {});

} // namespace bespoke

#endif // BESPOKE_TIMING_STA_HH
