/**
 * @file
 * Parallelism configuration: tensor-parallel (TP) group shape over the
 * mesh, data-parallel (DP) degree, and expert-parallel (EP) degree.
 *
 * Following the paper, EP always equals the total device count (every
 * device hosts at least one expert slot) and DP × TP = device count.
 * The TP degree is decomposed into a 2-D shape (tpX, tpY) — the number
 * of TP-group members along mesh rows and columns respectively — which
 * drives both the baseline block placement and the ER-Mapping strides.
 */

#ifndef MOENTWINE_MAPPING_PARALLELISM_HH
#define MOENTWINE_MAPPING_PARALLELISM_HH

#include <string>

namespace moentwine {

/** 2-D decomposition of the tensor-parallel degree over the mesh. */
struct ParallelismConfig
{
    /** TP members along the row dimension (divides mesh rows). */
    int tpX = 1;
    /** TP members along the column dimension (divides mesh cols). */
    int tpY = 1;

    /** Tensor-parallel degree. */
    int tp() const { return tpX * tpY; }

    /** Data-parallel degree for the given device count. */
    int dp(int devices) const { return devices / tp(); }

    /** "TPxXxY" label for bench output. */
    std::string label() const;

    /**
     * Fatal unless tpX divides @p rows and tpY divides @p cols. The
     * message names the mapping (@p who) and the @p region ("mesh" or
     * "wafer") the shape is placed on.
     */
    void requireDivides(int rows, int cols, const std::string &who,
                        const std::string &region) const;
};

/**
 * Choose a near-square (tpX, tpY) decomposition of @p tp that divides a
 * rows×cols mesh. Prefers the most balanced factor pair; fatal when no
 * valid pair exists.
 */
ParallelismConfig decomposeTp(int tp, int rows, int cols);

} // namespace moentwine

#endif // MOENTWINE_MAPPING_PARALLELISM_HH
