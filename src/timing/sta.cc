#include "src/timing/sta.hh"

#include <algorithm>
#include <cmath>

#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

/** Load (fF) seen by each gate's output. */
std::vector<double>
computeLoads(const Netlist &nl, const TimingParams &p)
{
    std::vector<double> load(nl.size(), 0.0);
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (g.type == CellType::OUTPUT) {
            load[g.in[0]] += p.outputPortCap;
            continue;
        }
        int n = g.numInputs();
        for (int pin = 0; pin < n; pin++) {
            load[g.in[pin]] +=
                cellInputCap(g.type, g.drive) + p.wireCapPerFanout;
        }
    }
    return load;
}

} // namespace

TimingReport
analyzeTiming(const Netlist &nl, const TimingParams &p)
{
    std::vector<double> load = computeLoads(nl, p);
    TimingReport rep;
    rep.arrival.assign(nl.size(), 0.0);
    std::vector<GateId> pred(nl.size(), kNoGate);

    // Launch points.
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (cellSequential(g.type)) {
            rep.arrival[i] = cellIntrinsicDelay(g.type, g.drive) +
                             cellDriveRes(g.type, g.drive) * load[i];
        } else if (g.type == CellType::INPUT) {
            rep.arrival[i] = 0.0;
        }
    }

    // Combinational propagation in topological order.
    for (GateId i : nl.levelize()) {
        const Gate &g = nl.gates()[i];
        if (g.type == CellType::OUTPUT) {
            rep.arrival[i] = rep.arrival[g.in[0]];
            pred[i] = g.in[0];
            continue;
        }
        double worst = 0.0;
        GateId worst_in = kNoGate;
        int n = g.numInputs();
        for (int pin = 0; pin < n; pin++) {
            if (rep.arrival[g.in[pin]] >= worst) {
                worst = rep.arrival[g.in[pin]];
                worst_in = g.in[pin];
            }
        }
        rep.arrival[i] = worst + cellIntrinsicDelay(g.type, g.drive) +
                         cellDriveRes(g.type, g.drive) * load[i];
        pred[i] = worst_in;
    }

    // Capture points: flop D/EN pins (+setup) and output ports.
    double critical = 0.0;
    GateId crit_end = kNoGate;
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        double t = 0.0;
        if (cellSequential(g.type)) {
            int n = g.numInputs();
            for (int pin = 0; pin < n; pin++)
                t = std::max(t, rep.arrival[g.in[pin]] + p.setup);
            if (t > critical) {
                critical = t;
                // End the reported path at the worst D-pin driver.
                double worst = -1.0;
                for (int pin = 0; pin < n; pin++) {
                    if (rep.arrival[g.in[pin]] > worst) {
                        worst = rep.arrival[g.in[pin]];
                        crit_end = g.in[pin];
                    }
                }
            }
        } else if (g.type == CellType::OUTPUT) {
            t = rep.arrival[i];
            if (t > critical) {
                critical = t;
                crit_end = i;
            }
        }
    }
    rep.criticalPathPs = critical;

    // Reconstruct the critical path.
    for (GateId cur = crit_end; cur != kNoGate; cur = pred[cur])
        rep.criticalPath.push_back(cur);
    std::reverse(rep.criticalPath.begin(), rep.criticalPath.end());
    return rep;
}

size_t
sizeForLoads(Netlist &nl, const TimingParams &p)
{
    // Iterate: upsizing a driver raises its own input capacitance,
    // which can push its fanin over threshold; a few sweeps settle it.
    size_t non_x1 = 0;
    for (int iter = 0; iter < 4; iter++) {
        std::vector<double> load = computeLoads(nl, p);
        bool changed = false;
        non_x1 = 0;
        for (GateId i = 0; i < nl.size(); i++) {
            Gate &g = nl.gateRef(i);
            if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
                g.type == CellType::TIE1) {
                continue;
            }
            Drive want = Drive::X1;
            if (load[i] > p.x4LoadThreshold)
                want = Drive::X4;
            else if (load[i] > p.x2LoadThreshold)
                want = Drive::X2;
            if (g.drive != want) {
                g.drive = want;
                changed = true;
            }
            if (want != Drive::X1)
                non_x1++;
        }
        if (!changed)
            break;
    }
    return non_x1;
}

double
delayScaleAtVoltage(double v, const TimingParams &p)
{
    bespoke_assert(v > p.vThreshold);
    double num = p.vNominal - p.vThreshold;
    double den = v - p.vThreshold;
    return (v / p.vNominal) * std::pow(num / den, p.alpha);
}

double
vminForPeriod(double critical_path_ps, double period_ps,
              const TimingParams &p)
{
    bespoke_assert(critical_path_ps > 0 && period_ps > 0);
    double budget = period_ps / (critical_path_ps * p.pvtMargin);
    if (budget <= 1.0)
        return p.vNominal;  // no slack to exploit

    double lo = p.vMinFloor, hi = p.vNominal;
    // delayScale is monotonically decreasing in V; find the lowest V
    // with delayScale(V) <= budget.
    if (delayScaleAtVoltage(lo, p) <= budget)
        return lo;
    for (int i = 0; i < 60; i++) {
        double mid = (lo + hi) / 2;
        if (delayScaleAtVoltage(mid, p) <= budget)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace bespoke
