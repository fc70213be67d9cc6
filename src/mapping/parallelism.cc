#include "mapping/parallelism.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace moentwine {

std::string
ParallelismConfig::label() const
{
    return "TP" + std::to_string(tp()) + "(" + std::to_string(tpX) + "x" +
           std::to_string(tpY) + ")";
}

void
ParallelismConfig::requireDivides(int rows, int cols,
                                  const std::string &who,
                                  const std::string &region) const
{
    if (rows % tpX != 0 || cols % tpY != 0) {
        fatal(who + ": TP shape " + label() + " does not divide the " +
              std::to_string(rows) + "x" + std::to_string(cols) + " " +
              region);
    }
}

ParallelismConfig
decomposeTp(int tp, int rows, int cols)
{
    MOE_ASSERT(tp >= 1, "TP degree must be at least 1");
    int bestX = -1;
    int bestY = -1;
    int bestImbalance = 1 << 30;
    for (int x = 1; x <= tp; ++x) {
        if (tp % x != 0)
            continue;
        const int y = tp / x;
        if (rows % x != 0 || cols % y != 0)
            continue;
        const int imbalance = std::abs(x - y);
        if (imbalance < bestImbalance) {
            bestImbalance = imbalance;
            bestX = x;
            bestY = y;
        }
    }
    if (bestX < 0) {
        fatal("TP=" + std::to_string(tp) + " has no (tpX, tpY) " +
              "decomposition dividing a " + std::to_string(rows) + "x" +
              std::to_string(cols) + " mesh");
    }
    ParallelismConfig cfg;
    cfg.tpX = bestX;
    cfg.tpY = bestY;
    return cfg;
}

} // namespace moentwine
