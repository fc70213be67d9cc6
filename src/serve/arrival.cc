#include "serve/arrival.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace moentwine {

namespace {

// Bursty (MMPP): rate multipliers and mean dwell times of the two
// states — 4x bursts roughly a quarter of the time.
constexpr double kBurstRateFactor = 4.0;
constexpr double kQuietRateFactor = 0.25;
constexpr double kMeanBurstSec = 0.05;
constexpr double kMeanQuietSec = 0.15;

// Diurnal: rate(t) = ratePerSec * (1 + amplitude * sin(2πt/period)).
constexpr double kDiurnalPeriodSec = 2.0;
constexpr double kDiurnalAmplitude = 0.8;

// Log-normal length sigmas and the floors the draws are clamped to.
constexpr double kPromptSigma = 0.6;
constexpr int kPromptMinTokens = 16;
constexpr double kOutputSigma = 0.5;
constexpr int kOutputMinTokens = 4;

} // namespace

std::string
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "Poisson";
      case ArrivalKind::Bursty:
        return "Bursty";
      case ArrivalKind::Diurnal:
        return "Diurnal";
      case ArrivalKind::Trace:
        return "Trace";
    }
    panic("unknown arrival kind");
}

double
ArrivalProcess::promptScale(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Chat:
        return 0.5;
      case ScenarioKind::Coding:
        return 2.0;
      case ScenarioKind::Math:
        return 1.0;
      case ScenarioKind::Privacy:
        return 0.75;
    }
    panic("unknown scenario");
}

double
ArrivalProcess::outputScale(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Chat:
        return 1.0;
      case ScenarioKind::Coding:
        return 1.5;
      case ScenarioKind::Math:
        return 2.0;
      case ScenarioKind::Privacy:
        return 0.5;
    }
    panic("unknown scenario");
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &cfg)
    : cfg_(cfg)
{
    if (cfg.kind == ArrivalKind::Trace) {
        if (cfg.trace.empty())
            fatal("trace-replay arrival process with an empty trace");
        // Reject malformed trace entries here, at construction, not
        // deep inside generate() when the bad entry is reached.
        for (std::size_t i = 0; i < cfg.trace.size(); ++i) {
            const TraceRequest &t = cfg.trace[i];
            if (t.time < 0.0 || !std::isfinite(t.time))
                fatal("trace entry " + std::to_string(i) +
                      " has a negative or non-finite arrival time");
            if (t.promptTokens <= 0 || t.outputTokens <= 0)
                fatal("trace entry " + std::to_string(i) +
                      " has an empty prompt or output");
        }
    } else {
        if (!std::isfinite(cfg.ratePerSec) || cfg.ratePerSec <= 0.0)
            fatal("arrival rate must be positive and finite (got " +
                  std::to_string(cfg.ratePerSec) + ")");
        // Log-normal length sampling takes log(mean·scale): a
        // non-positive mean is NaN lengths, not an empty stream.
        if (cfg.promptMeanTokens <= 0.0)
            fatal("prompt mean tokens must be positive (got " +
                  std::to_string(cfg.promptMeanTokens) + ")");
        if (cfg.outputMeanTokens <= 0.0)
            fatal("output mean tokens must be positive (got " +
                  std::to_string(cfg.outputMeanTokens) + ")");
    }
    MOE_ASSERT(cfg.promptMaxTokens >= kPromptMinTokens,
               "bad prompt length bounds");
    MOE_ASSERT(cfg.outputMaxTokens >= kOutputMinTokens,
               "bad output length bounds");
    for (std::size_t i = 1; i < cfg.trace.size(); ++i) {
        MOE_ASSERT(cfg.trace[i].time >= cfg.trace[i - 1].time,
                   "trace must be time-sorted");
    }
}

std::vector<double>
ArrivalProcess::scenarioMixAt(double t) const
{
    if (cfg_.mixDriftPeriodSec > 0.0) {
        // The shared raised-cosine rotation (workload.cc uses the same
        // shape with an iteration-index phase).
        return rotatingScenarioMix(2.0 * M_PI * t / cfg_.mixDriftPeriodSec);
    }
    // Static mixture: uniform over the scenarios.
    const std::size_t n = allScenarios().size();
    return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

namespace {

/** Log-normal length draw around mean·scale, clamped into [lo, hi]. */
int
sampleLength(Rng &rng, double mean, double sigma, double scale, int lo,
             int hi)
{
    // exp(normal(mu, sigma)) has mean exp(mu + sigma²/2); solve mu so
    // the draw's mean is the configured one.
    const double mu = std::log(mean * scale) - 0.5 * sigma * sigma;
    const double len = std::exp(rng.normal(mu, sigma));
    const double clamped =
        std::min(static_cast<double>(hi),
                 std::max(static_cast<double>(lo), std::round(len)));
    return static_cast<int>(clamped);
}

} // namespace

std::vector<ServeRequest>
ArrivalProcess::generate(int count) const
{
    MOE_ASSERT(count >= 0, "negative request count");
    std::vector<ServeRequest> out;
    out.reserve(static_cast<std::size_t>(count));

    if (cfg_.kind == ArrivalKind::Trace) {
        const int n = std::min<int>(
            count, static_cast<int>(cfg_.trace.size()));
        for (int i = 0; i < n; ++i) {
            const TraceRequest &t =
                cfg_.trace[static_cast<std::size_t>(i)];
            MOE_ASSERT(t.promptTokens > 0 && t.outputTokens > 0,
                       "trace request with empty prompt or output");
            ServeRequest r;
            r.id = i;
            r.scenario = t.scenario;
            r.promptTokens = t.promptTokens;
            r.outputTokens = t.outputTokens;
            r.arrivalTime = t.time;
            out.push_back(r);
        }
        return out;
    }

    Rng rng(cfg_.seed);
    double now = 0.0;
    // MMPP state: start in the quiet phase with a full dwell ahead.
    bool burst = false;
    double stateLeft = rng.exponential(1.0 / kMeanQuietSec);

    const auto &scenarios = allScenarios();
    for (int i = 0; i < count; ++i) {
        switch (cfg_.kind) {
          case ArrivalKind::Poisson:
            now += rng.exponential(cfg_.ratePerSec);
            break;
          case ArrivalKind::Bursty: {
            // Sequential MMPP: draw against the current state's rate;
            // an inter-arrival crossing the state boundary advances to
            // the boundary, flips the state, and redraws (memoryless).
            for (;;) {
                const double rate = cfg_.ratePerSec *
                    (burst ? kBurstRateFactor : kQuietRateFactor);
                const double gap = rng.exponential(rate);
                if (gap <= stateLeft) {
                    now += gap;
                    stateLeft -= gap;
                    break;
                }
                now += stateLeft;
                burst = !burst;
                stateLeft = rng.exponential(
                    1.0 / (burst ? kMeanBurstSec : kMeanQuietSec));
            }
            break;
          }
          case ArrivalKind::Diurnal: {
            // Thinning against the peak rate.
            const double peak =
                cfg_.ratePerSec * (1.0 + kDiurnalAmplitude);
            for (;;) {
                now += rng.exponential(peak);
                const double rate = cfg_.ratePerSec *
                    (1.0 + kDiurnalAmplitude *
                               std::sin(2.0 * M_PI * now /
                                        kDiurnalPeriodSec));
                if (rng.uniform() * peak <= rate)
                    break;
            }
            break;
          }
          case ArrivalKind::Trace:
            panic("unreachable");
        }

        const auto mix = scenarioMixAt(now);
        const ScenarioKind kind = scenarios[rng.weightedIndex(mix)];
        ServeRequest r;
        r.id = i;
        r.scenario = kind;
        r.arrivalTime = now;
        r.promptTokens = sampleLength(
            rng, cfg_.promptMeanTokens, kPromptSigma, promptScale(kind),
            kPromptMinTokens, cfg_.promptMaxTokens);
        r.outputTokens = sampleLength(
            rng, cfg_.outputMeanTokens, kOutputSigma, outputScale(kind),
            kOutputMinTokens, cfg_.outputMaxTokens);
        out.push_back(r);
    }
    return out;
}

} // namespace moentwine
