// In-process replays for the traced run: the workload's op stream driven
// straight into each layer's public functions (trace generation, the
// partitioner, MdsServer, MetadataStore, the wire codec, Crc32), so the
// per-layer costs can be set beside the end-to-end numbers.
#pragma once

#include <string>
#include <vector>

#include "load.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerRun {
  std::vector<Metric> metrics;
  std::vector<Span> spans;           // one root span per replay
  std::vector<std::string> errors;   // failed checks
};

/// Replays up to `ops` records of `model`'s op stream through each layer.
/// `lsm` puts the in-process cluster's stores on the LSM engine under
/// `scratch_dir` (which must be empty or absent).
LayerRun MeasureLayers(const d2tree::TraceProfile& profile,
                       const Model& model, bool lsm,
                       const std::string& scratch_dir, std::size_t ops);

}  // namespace perfbench
