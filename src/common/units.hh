/**
 * @file
 * Physical units and constants used across the MoEntwine simulator.
 *
 * The simulator works in SI base units throughout:
 *   - time is expressed in seconds (double),
 *   - data volume in bytes (double, so that fractional per-chunk volumes
 *     arising from collective algorithms do not truncate),
 *   - bandwidth in bytes per second,
 *   - compute rate in FLOP per second.
 *
 * Helper literals keep configuration code readable, e.g.
 * `8 * units::TB` or `150 * units::NANO`.
 */

#ifndef MOENTWINE_COMMON_UNITS_HH
#define MOENTWINE_COMMON_UNITS_HH

namespace moentwine {
namespace units {

/** Megabyte (decimal, 1e6 bytes). */
constexpr double MB = 1e6;
/** Gigabyte (decimal, 1e9 bytes). */
constexpr double GB = 1e9;
/** Terabyte (decimal, 1e12 bytes). */
constexpr double TB = 1e12;

/** Mebibyte (binary, 2^20 bytes) — memory capacity convention. */
constexpr double MiB = 1024.0 * 1024.0;
/** Gibibyte (binary, 2^30 bytes). */
constexpr double GiB = 1024.0 * MiB;

/** Nanoseconds expressed in seconds. */
constexpr double NANO = 1e-9;
/** Microseconds expressed in seconds. */
constexpr double MICRO = 1e-6;

/** TeraFLOP/s expressed in FLOP/s. */
constexpr double TFLOPS = 1e12;
/** PetaFLOP/s expressed in FLOP/s. */
constexpr double PFLOPS = 1e15;

} // namespace units
} // namespace moentwine

#endif // MOENTWINE_COMMON_UNITS_HH
