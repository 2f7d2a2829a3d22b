/**
 * @file
 * Deterministic JSON serialisation for quantile sketches.
 *
 * The fleet harness reduces millions of device episodes into a
 * handful of named QuantileSketch objects; this renders them as one
 * JSON artifact (count/sum/mean/min/max, the p50/p90/p99/p99.9 tail,
 * and the sparse nonzero log2 buckets) so fleet reports can be diffed
 * byte-for-byte across `--jobs=N`, exactly like the metrics
 * snapshots. NaN fields (an empty sketch's min/max and
 * percentiles) render as null, keeping the output standard JSON.
 */

#ifndef K2_OBS_SKETCH_JSON_H
#define K2_OBS_SKETCH_JSON_H

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/sketch.h"

namespace k2 {
namespace obs {

/** Named sketches to serialise together, rendered in the given
 *  order. Names must be stable and already JSON-safe ([a-z0-9._-]),
 *  like metric names. */
using NamedSketches =
    std::vector<std::pair<std::string, const sim::QuantileSketch *>>;

/** Serialise @p sketches as one JSON object keyed by name.
 *  Deterministic: same sketch bits, same bytes. */
void writeSketchJson(std::ostream &os, const NamedSketches &sketches);
std::string sketchJson(const NamedSketches &sketches);

} // namespace obs
} // namespace k2

#endif // K2_OBS_SKETCH_JSON_H
