/**
 * @file
 * Roofline compute/memory cost model for attention and MoE expert
 * execution on one device.
 *
 * This replaces the paper's FlashInfer-profile dataset with an analytic
 * model built from the same published B200 constants. Figures in the
 * paper compare *relative* latencies, which the roofline preserves:
 *
 *  - expert FFN compute is INT8 GEMM work: ops = 2 × params × tokens;
 *  - expert weights are streamed from HBM once per iteration per layer
 *    (token generation is memory-bound when experts outnumber devices —
 *    the E/D effect of Fig. 4);
 *  - attention is FP16: prefill is compute-bound in sequence length,
 *    decode is dominated by the KV-cache read.
 */

#ifndef MOENTWINE_MODEL_COST_MODEL_HH
#define MOENTWINE_MODEL_COST_MODEL_HH

#include "model/moe_config.hh"

namespace moentwine {

/** Inference stage; affects attention cost and token counts. */
enum class Stage
{
    Prefill, ///< long inputs, compute-bound attention
    Decode,  ///< single-token steps, memory-bound attention
};

/** Breakdown of one device's MoE execution time. */
struct MoeDeviceCost
{
    /** INT8 GEMM time for the tokens routed to this device (s). */
    double computeTime;
    /** HBM streaming time for the expert weights resident here (s). */
    double memoryTime;

    /** Total device-local MoE time (compute and weight streaming are
     *  serialised on the same SM/HBM pipeline). */
    double total() const { return computeTime + memoryTime; }
};

/**
 * Analytic cost model for one device.
 */
class CostModel
{
  public:
    /**
     * @param spec  Device specification (B200 by default).
     * @param efficiency Achievable fraction of peak (GEMM efficiency on
     *        small expert tiles; 0 < efficiency ≤ 1).
     */
    explicit CostModel(const DeviceSpec &spec = DeviceSpec{},
                       double efficiency = 0.6);

    /**
     * MoE execution time of one device in one layer.
     *
     * @param model        Model configuration.
     * @param tokensRouted Tokens (counting expert multiplicity) routed
     *                     to this device's experts in this layer.
     * @param expertsResident Activated experts whose weights this
     *                     device must stream this layer.
     * @param computeFactor Straggler multiplier on the device's whole
     *                     pipeline (SM clock and HBM throttled alike);
     *                     1 is nominal. Injected by the fault layer.
     */
    MoeDeviceCost moeDevice(const MoEModelConfig &model,
                            double tokensRouted, double expertsResident,
                            double computeFactor = 1.0) const;

    /**
     * Attention time of one device for one layer.
     *
     * @param model       Model configuration.
     * @param tokens      Tokens processed by this device's TP shard.
     * @param tp          Tensor-parallel degree (weights/heads split).
     * @param contextLen  Average context length (KV entries per token).
     * @param stage       Prefill or decode.
     * @param computeFactor Straggler multiplier (see moeDevice()); the
     *                    engine passes the worst live factor, since TP
     *                    shards run in lockstep.
     */
    double attentionTime(const MoEModelConfig &model, double tokens,
                         int tp, double contextLen, Stage stage,
                         double computeFactor = 1.0) const;

    /** Expert-weight HBM streaming time for @p bytes of weights. */
    double weightStreamTime(double bytes) const;

    /** The device specification. */
    const DeviceSpec &spec() const { return spec_; }

  private:
    DeviceSpec spec_;
    double efficiency_;
};

} // namespace moentwine

#endif // MOENTWINE_MODEL_COST_MODEL_HH
